"""Reference implementations the tests compare the library against.

The library computes each answer once.  Every function here recomputes
one of those answers by a second, independent route, so that a test can
assert the two agree:

* :func:`homology_quotient_first` takes the complements in the other
  order than :func:`acgw.homology`;
* :func:`qiso_at_degree` decides invertibility of the homology span of a
  finite-set chain map by an element criterion;
* :func:`connecting_object_dual` builds the connecting object of a weak
  snake from the kernel side;
* :func:`h_on_map_via_les` induces the homology span of a finite-set
  chain map through two long exact sequences;
* :func:`set_homology_span_reference` chases the homology span of a
  finite-set chain map from every id of ``Z_i`` through sets of cycles
  and boundaries, where :meth:`acgw.FinSetInstance.homology_span` walks
  the ids of ``H_i(X)`` back and forth;
* :func:`weak_closed_forms` gives the middle transition objects of a weak
  snake on literal subsets by set arithmetic;
* :func:`matmul_mod_reference` and :func:`rref_reference` multiply and
  row-reduce matrices mod p in Python integers, one entry at a time,
  where :mod:`acgw.linear` works on whole numpy arrays in float64, int64
  or object dtype;
* :data:`SORTED_FINSET` builds each finite-set primitive by sorting its
  result into canonical form, where :class:`acgw.FinSetInstance` keeps
  the order of its canonical inputs;
* :func:`factor_ver_via_section` and :func:`hor_between_cokers_via_section`
  build the two linear primitives from a section of a surjection and
  matrix products, where :class:`acgw.LinearInstance` solves one system
  against an injection matrix;
* :func:`classify_mixed_via_pullback` classifies a commuting ``F_p``
  square by comparing it with the canonical pullback of its cospan, and
  :func:`is_iso_by_rank` decides an ``F_p`` isomorphism by rank, where
  :class:`acgw.LinearInstance` reads both off valid morphisms without
  row reduction;
* :func:`homology_embedding_greedy` extends a basis by ranking one matrix
  per candidate column, where :class:`acgw.LinearInstance` row-reduces
  the candidates once;
* :func:`obj_from_text_per_token` and :func:`mor_from_text_per_token`
  read a finite-set object or pair line by checking every token on its
  own, where :class:`acgw.FinSetInstance` accepts a whole line with one
  match;
* :func:`validate_hor_reference` checks a finite-set payload through a
  dict of its pairs and four sets, where
  :meth:`acgw.FinSetInstance.validate_hor` first compares its sources
  with the source tuple;
* :func:`validate_payload_reference` checks a finite-set payload whose
  endpoints are valid through a set of its images and that set's
  difference with the target, where
  :meth:`acgw.FinSetInstance.validate_payload` counts the pairs and the
  rest of the target, and builds sets only for a payload that fails;
* :func:`classify_mixed_reference`, :func:`hor_square_commutes_reference`
  and :func:`is_complement_pair_reference` look every id up in the dicts
  of a square's or a pair's morphisms and compare image sets, where
  :class:`acgw.FinSetInstance` compares mapped tuples, reads a literal
  inclusion as the identity and counts instead of building sets, and
  :class:`acgw.AcgwInstance` compares composite morphisms and classifies
  the square with an initial corner over a pair;
* :func:`is_complement_pair_by_product` and
  :func:`square_commutes_by_products` decide an ``F_p`` complement pair
  and a commuting one-flavour square by matrix products, where
  :class:`acgw.AcgwInstance` compares sizes, classifies a square and
  compares composite morphisms;
* :func:`rank_zigzag_exactness_reference` decides exactness at every
  position of a zigzag from the ranks of its transitions flattened to
  matrices, where :func:`acgw.zigzag_exactness` asks the instance whether
  the legs at each position are complements;
* :func:`lift_hor_bar_reference` forces the bar level of a ``hor`` or
  ``ver`` section one pair of the source leg at a time through dicts of
  the three payloads, where the document reader calls
  :meth:`acgw.FinSetInstance.hor_between_cokers`/``ver_between_kernels``,
  which chase the leg's images in one pass per morphism.

Beside them, :func:`renamed_sub` builds an input: a finite-set sub
morphism whose levels are not literal inclusions, renamed with the
complex relabelling that :func:`h_on_map_via_les` uses.
"""

import re
from itertools import chain, repeat

import numpy as np

from acgw import (
    ChainComplex,
    FactorizationError,
    FinSetInstance,
    FlatMor,
    HorChainMor,
    HorMor,
    SquareClass,
    Transition,
    ValidationError,
    VerChainMor,
    VerMor,
    compose_flat,
    finset_obj,
    flat_morphism,
    flat_of_hor,
    homology,
    les_of_ses,
    ses_from_injection,
    ses_from_projection,
)
from acgw.finset import _increasing, mapping_of
from acgw.linear import mat_rank, matmul_mod, nullspace, solve


def homology_quotient_first(cx, i):
    """The homology object at degree ``i`` with the lower leg complemented
    first: the kernel of the upper leg lifted into the cokernel of the
    boundaries."""
    inst = cx.inst
    _, quot_ver = inst.coker(cx.transition(i + 1).into_lower)
    upper_in_quot = inst.factor_ver(cx.transition(i).into_upper, quot_ver)
    h, _ = inst.ker(upper_in_quot)
    return h


def qiso_at_degree(f, i) -> bool:
    """Whether the homology span of a finite-set chain map ``f`` is
    invertible at degree ``i``, by chasing ids: nothing of either
    homology is missed, collapsed or created."""
    x, z, y = f.source, f.middle, f.target
    up_x = set(mapping_of(x.transition(i).into_upper).values())
    low_x = set(mapping_of(x.transition(i + 1).into_lower).values())
    up_y = set(mapping_of(y.transition(i).into_upper).values())
    low_y = set(mapping_of(y.transition(i + 1).into_lower).values())
    back = mapping_of(f.back.level(i))
    front = mapping_of(f.front.level(i))
    missed_x = set(x.obj(i)) - up_x - low_x - set(back.values())
    missed_y = set(y.obj(i)) - up_y - low_y - set(front.values())
    collapsed = any(
        back[zid] not in up_x and back[zid] not in low_x and front[zid] in low_y
        for zid in z.obj(i)
    )
    created = any(
        front[zid] not in up_y and front[zid] not in low_y and back[zid] in up_x
        for zid in z.obj(i)
    )
    return not missed_x and not missed_y and not collapsed and not created


def connecting_object_dual(inp):
    """The connecting object of a weak snake input as the cokernel of the
    middle mono lifted into the kernel of the middle epi (the library
    takes the kernel of the middle epi lifted into the cokernel of the
    middle mono)."""
    inst = inp.inst
    _, kleg_mid = inst.ker(inp.mid_epi)
    lifted_mono = inst.factor_hor(inp.mid_mono, kleg_mid)
    conn, _ = inst.coker(lifted_mono)
    return conn


def weak_closed_forms(inp):
    """The three middle transition objects of a weak snake on literal
    subsets: ``C - (Y - X)``, ``(Y - X) - Z`` and ``A' - (Y - Z)``."""
    x = set(inp.mid_mono.source)
    y = set(inp.mid_mono.target)
    z = set(inp.mid_epi.source)
    c = set(inp.top_epi.source)
    a_prime = set(inp.bot_mono.source)
    return c - (y - x), (y - x) - z, a_prime - (y - z)


def _relabel_complex(z, level_map, bar_map):
    """Rename every id of a finite-set complex along injections."""
    objects = tuple(
        finset_obj(level_map[i][zid] for zid in z.obj(i)) for i in z.degrees()
    )
    transitions = []
    for i in z.transition_degrees():
        t = z.transition(i)
        up, low = mapping_of(t.into_upper), mapping_of(t.into_lower)
        obj = finset_obj(bar_map[i][tid] for tid in t.obj)
        up_map = {bar_map[i][tid]: level_map[i][up[tid]] for tid in t.obj}
        low_map = {bar_map[i][tid]: level_map[i - 1][low[tid]] for tid in t.obj}
        transitions.append(
            Transition(
                obj,
                VerMor(obj, objects[i - z.lo], _sorted_payload(up_map)),
                HorMor(obj, objects[i - 1 - z.lo], _sorted_payload(low_map)),
            )
        )
    return ChainComplex(z.inst, z.lo, z.hi, objects, tuple(transitions))


def renamed_sub(f):
    """A finite-set horizontal chain morphism ``f`` with every id of its
    source renamed: equal to ``f`` up to that renaming, with levels that
    are not literal inclusions."""
    inst, x, y = f.source.inst, f.source, f.target
    names = {i: {v: f"renamed.{v}" for v in x.obj(i)} for i in x.degrees()}
    bar_names = {
        i: {v: f"renamed.{v}" for v in x.transition(i).obj} for i in x.transition_degrees()
    }
    renamed = _relabel_complex(x, names, bar_names)

    def moved(mor, src, tgt, ids):
        return inst.hor(src, tgt, {ids[a]: b for a, b in mapping_of(mor).items()})

    return HorChainMor(
        renamed,
        y,
        tuple(moved(f.level(i), renamed.obj(i), y.obj(i), names[i]) for i in x.degrees()),
        tuple(
            moved(f.bar_level(i), renamed.transition(i).obj, y.transition(i).obj, bar_names[i])
            for i in x.transition_degrees()
        ),
    )


def h_on_map_via_les(f, i):
    """The homology span of a finite-set chain map ``X <= Z -> Y`` at
    degree ``i``, through long exact sequences.

    The middle is renamed into ``X`` and into ``Y``; the two renamed
    copies sit in short exact sequences whose long exact sequences carry
    ``H_i(X) -> H_i(Zx)`` and ``H_i(Zy) -> H_i(Y)``, and a relabelling
    bridge ``H_i(Zx) -> H_i(Zy)`` joins them.
    """
    inst = f.source.inst
    x, z, y = f.source, f.middle, f.target

    back_levels = {d: mapping_of(f.back.level(d)) for d in z.degrees()}
    back_bars = {d: mapping_of(f.back.bar_level(d)) for d in z.transition_degrees()}
    front_levels = {d: mapping_of(f.front.level(d)) for d in z.degrees()}
    front_bars = {d: mapping_of(f.front.bar_level(d)) for d in z.transition_degrees()}
    zx = _relabel_complex(z, back_levels, back_bars)
    zy = _relabel_complex(z, front_levels, front_bars)

    incl_zx = VerChainMor(
        zx,
        x,
        tuple(inst.inclusion_ver(zx.obj(d), x.obj(d)) for d in x.degrees()),
        tuple(
            inst.inclusion_ver(zx.transition(d).obj, x.transition(d).obj)
            for d in x.transition_degrees()
        ),
    )
    incl_zy = HorChainMor(
        zy,
        y,
        tuple(inst.inclusion_hor(zy.obj(d), y.obj(d)) for d in y.degrees()),
        tuple(
            inst.inclusion_hor(zy.transition(d).obj, y.transition(d).obj)
            for d in y.transition_degrees()
        ),
    )

    zz1 = les_of_ses(ses_from_projection(incl_zx))
    zz2 = les_of_ses(ses_from_injection(incl_zy))
    block = 3 * (x.hi + 1 - i)
    to_zx = flat_morphism(zz1, block + 1)  # H_i(X) -> H_i(Zx)
    to_y = flat_morphism(zz2, block)  # H_i(Zy) -> H_i(Y)

    gx, gy = homology(zx, i), homology(zy, i)
    relabel = HorMor(
        zx.obj(i),
        zy.obj(i),
        _sorted_payload({back_levels[i][zid]: front_levels[i][zid] for zid in z.obj(i)}),
    )
    cycles_map = inst.factor_hor(
        inst.compose_hor(gx.cycles_hor, relabel), gy.cycles_hor
    )
    bridge = inst.hor_between_cokers(cycles_map, gx.h_to_cycles, gy.h_to_cycles)
    assert inst.is_iso_hor(bridge), f"relabelling bridge at degree {i} is not invertible"
    return compose_flat(
        inst, compose_flat(inst, to_zx, flat_of_hor(inst, bridge)), to_y
    )


def set_homology_span_reference(gx, gy, back, front):
    """The homology span a finite-set chain map induces at one degree, by
    the element chase from ``Z_i``: the ids of ``Z_i`` whose back image is
    a cycle of ``X`` and whose front image is not a boundary of ``Y``,
    renamed to their back images and sorted."""
    cycles_x = set(gx.cycles)
    boundaries_y = set(gy.cycles) - set(gy.h)
    # the images of a valid morphism are those of its source ids
    kept = {
        b: f
        for b, f in zip(back.data[1], front.data[1])
        if b in cycles_x and f not in boundaries_y
    }
    middle, images = _sorted_payload(kept)
    return FlatMor(
        gx.h,
        middle,
        gy.h,
        VerMor(middle, gx.h, (middle, middle)),
        HorMor(middle, gy.h, (middle, images)),
    )


def matmul_mod_reference(a, b, p):
    """``a @ b`` mod p for two integer arrays, as a list of rows computed
    entry by entry in Python integers."""
    (rows, inner), (_, cols) = a.shape, b.shape
    a, b = a.tolist(), b.tolist()
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]


def rref_reference(a, p):
    """Reduced row echelon form mod p of an integer array, as a list of
    rows, with the pivot columns: textbook Gauss-Jordan elimination in
    Python integers.  The reduced form is unique, so any correct
    elimination agrees with it."""
    r = [[v % p for v in row] for row in a.tolist()]
    pivots = []
    for col in range(a.shape[1]):
        row = len(pivots)
        hit = next((i for i in range(row, len(r)) if r[i][col]), None)
        if hit is None:
            continue
        r[row], r[hit] = r[hit], r[row]
        inv = pow(r[row][col], p - 2, p)
        r[row] = [v * inv % p for v in r[row]]
        for i, other in enumerate(r):
            if i != row and other[col]:
                f = other[col]
                r[i] = [(v - f * w) % p for v, w in zip(other, r[row])]
        pivots.append(col)
    return r, pivots


# ---------------------------------------------------------------------------
# Finite-set primitives that sort their results.
# ---------------------------------------------------------------------------


def _sorted_payload(mapping):
    """The ``(sources, images)`` payload of an injection given as a dict,
    built by sorting its items."""
    items = sorted(mapping.items())
    return tuple(s for s, _ in items), tuple(t for _, t in items)


def _inverse(mor):
    return {t: s for s, t in mapping_of(mor).items()}


def _complement(mor, make):
    rest = finset_obj(set(mor.target) - set(mapping_of(mor).values()))
    return rest, make(rest, mor.target, _sorted_payload({x: x for x in rest}))


def _factor_sorted(f, through):
    t_inv = _inverse(through)
    return _sorted_payload({x: t_inv[y] for x, y in mapping_of(f).items()})


def _compose_sorted(f, g):
    gm = mapping_of(g)
    return _sorted_payload({x: gm[y] for x, y in mapping_of(f).items()})


def _mixed_pullback_sorted(m, e):
    m_inv = _inverse(m)
    em = mapping_of(e)
    corner = finset_obj(b for b, y in em.items() if y in m_inv)
    return (
        corner,
        HorMor(corner, e.source, _sorted_payload({x: x for x in corner})),
        VerMor(corner, m.source, _sorted_payload({b: m_inv[em[b]] for b in corner})),
    )


def _between_sorted(mor, p_leg, q_leg, make):
    mm, qi = mapping_of(mor), _inverse(q_leg)
    out = {x: qi[mm[p]] for x, p in mapping_of(p_leg).items()}
    return make(p_leg.source, q_leg.source, _sorted_payload(out))


#: each finite-set primitive by name, built by sorting every object and
#: payload it returns
SORTED_FINSET = {
    "ker": lambda e: _complement(e, HorMor),
    "coker": lambda m: _complement(m, VerMor),
    "mixed_pullback": _mixed_pullback_sorted,
    "factor_hor": lambda f, t: HorMor(f.source, t.source, _factor_sorted(f, t)),
    "factor_ver": lambda f, t: VerMor(f.source, t.source, _factor_sorted(f, t)),
    "compose_hor": lambda f, g: HorMor(f.source, g.target, _compose_sorted(f, g)),
    "compose_ver": lambda f, g: VerMor(f.source, g.target, _compose_sorted(f, g)),
    "hor_between_cokers": lambda m, cp, cq: _between_sorted(m, cp, cq, HorMor),
    "ver_between_kernels": lambda e, kp, kq: _between_sorted(e, kp, kq, VerMor),
}


def validate_hor_reference(f):
    """:meth:`acgw.FinSetInstance.validate_hor` through a dict of the
    pairs and a set for each of its checks."""
    self = FinSetInstance()
    problems = self.validate_obj(f.source) + self.validate_obj(f.target)
    if problems:
        return problems
    if not isinstance(f.data, tuple):
        return [f"morphism data is not a tuple: {f.data!r}"]
    if not (
        len(f.data) == 2
        and all(map(isinstance, f.data, repeat(tuple)))
        and len(f.data[0]) == len(f.data[1])
    ):
        return [f"morphism data is not sources and images of one length: {f.data!r}"]
    sources, images = f.data
    if not all(map(isinstance, chain(sources, images), repeat(str))):
        return [f"morphism has non-string ids: {f.data!r}"]
    if not _increasing(sources):
        problems.append("morphism pairs are not sorted by source id")
    mapping = dict(zip(sources, images))
    if set(mapping) != set(f.source):
        problems.append(
            f"morphism is not total on its source: defined on "
            f"{sorted(mapping)}, source is {list(f.source)}"
        )
    values = list(mapping.values())
    if len(set(values)) != len(values):
        problems.append("morphism is not injective")
    stray = set(values) - set(f.target)
    if stray:
        problems.append(f"morphism maps outside its target: {sorted(stray)}")
    return problems


def validate_payload_reference(f):
    """:meth:`acgw.FinSetInstance.validate_payload` through a set of the
    images and a set difference with the target, for every payload."""
    if not isinstance(f.data, tuple):
        return [f"morphism data is not a tuple: {f.data!r}"]
    if not (
        len(f.data) == 2
        and all(map(isinstance, f.data, repeat(tuple)))
        and len(f.data[0]) == len(f.data[1])
    ):
        return [f"morphism data is not sources and images of one length: {f.data!r}"]
    problems = []
    sources, images = f.data
    if sources != f.source:
        if not all(map(isinstance, chain(sources, images), repeat(str))):
            return [f"morphism has non-string ids: {f.data!r}"]
        if not _increasing(sources):
            problems.append("morphism pairs are not sorted by source id")
        mapping = dict(zip(sources, images))
        if set(mapping) != set(f.source):
            problems.append(
                f"morphism is not total on its source: defined on "
                f"{sorted(mapping)}, source is {list(f.source)}"
            )
        images = tuple(mapping.values())
    elif images is not sources and not all(map(isinstance, images, repeat(str))):
        return [f"morphism has non-string ids: {f.data!r}"]
    image = set(images)
    if len(image) != len(images):
        problems.append("morphism is not injective")
    stray = image.difference(f.target)
    if stray:
        problems.append(f"morphism maps outside its target: {sorted(stray)}")
    return problems


def _image(mor):
    return frozenset(mor.data[1])


def classify_mixed_reference(top, left, right, bottom):
    """:meth:`acgw.FinSetInstance.classify_mixed` by a dict lookup per id
    and a set of the right source sitting over the bottom image."""
    if (
        top.source != left.source
        or top.target != right.source
        or left.target != bottom.source
        or right.target != bottom.target
    ):
        return SquareClass.NOT_SQUARE
    tm, lm, rm, bm = map(mapping_of, (top, left, right, bottom))
    if any(rm[tm[x]] != bm[lm[x]] for x in top.source):
        return SquareClass.NOT_SQUARE
    # Cartesian: the top picks out exactly the part of the right source
    # sitting over the bottom image.
    bottom_image = _image(bottom)
    over = {b for b in right.source if rm[b] in bottom_image}
    if _image(top) == over:
        return SquareClass.CARTESIAN
    return SquareClass.COMMUTING


def hor_square_commutes_reference(top, left, right, bottom):
    """:meth:`acgw.AcgwInstance.hor_square_commutes` on finite sets by a
    dict lookup per id."""
    if (
        top.source != left.source
        or top.target != right.source
        or left.target != bottom.source
        or right.target != bottom.target
    ):
        return False
    tm, lm, rm, bm = map(mapping_of, (top, left, right, bottom))
    return all(rm[tm[x]] == bm[lm[x]] for x in top.source)


def is_complement_pair_reference(m, e):
    """:meth:`acgw.AcgwInstance.is_complement_pair` on finite sets by the
    intersection and the union of the two image sets."""
    if m.target != e.target:
        return False
    im_m, im_e = _image(m), _image(e)
    return not (im_m & im_e) and (im_m | im_e) == set(m.target)


# ---------------------------------------------------------------------------
# Linear primitives through a section of the surjection.
# ---------------------------------------------------------------------------


def _section(inst, e):
    """A right inverse of the surjection matrix of a valid vertical ``e``."""
    section = solve(inst.ver_matrix(e), np.eye(e.source.dim, dtype=np.int64), inst.p)
    assert section is not None
    return section


def factor_ver_via_section(inst, f, through):
    """:meth:`acgw.LinearInstance.factor_ver`: the candidate ``h`` is the
    surjection of ``f`` times a section of that of ``through``; it is the
    answer when ``h`` composed with ``through`` gives ``f`` back."""
    if f.target != through.target:
        raise FactorizationError("factorization targets differ")
    e_f, e_g = inst.ver_matrix(f), inst.ver_matrix(through)
    h = matmul_mod(e_f, _section(inst, through), inst.p)
    if np.mod(matmul_mod(h, e_g, inst.p) - e_f, inst.p).any():
        raise FactorizationError(
            "vertical morphism does not factor: kernels are incompatible"
        )
    return inst.ver(f.source, through.source, h)


def hor_between_cokers_via_section(inst, m, cp, cq):
    """:meth:`acgw.LinearInstance.hor_between_cokers`: ``m`` descends when
    ``cq . m`` kills the kernel of ``cp``; the induced matrix is ``cq . m``
    times a section of ``cp``."""
    if cp.target != m.source or cq.target != m.target:
        raise FactorizationError("complement presentations do not match m")
    p = inst.p
    reach = matmul_mod(inst.ver_matrix(cq), inst.hor_matrix(m), p)
    if matmul_mod(reach, nullspace(inst.ver_matrix(cp), p), p).any():
        raise FactorizationError("morphism does not descend to complements")
    n = matmul_mod(reach, _section(inst, cp), p)
    if mat_rank(n, p) != cp.source.dim:
        raise FactorizationError("induced complement morphism is not injective")
    return inst.hor(cp.source, cq.source, n)


def classify_mixed_via_pullback(inst, top, left, right, bottom):
    """:meth:`acgw.LinearInstance.classify_mixed`: a commuting square is
    Cartesian when its top factors through the horizontal leg of the
    canonical pullback of its outer cospan by an invertible matrix that
    carries its left leg onto the pullback's vertical one."""
    if (
        top.source != left.source
        or top.target != right.source
        or left.target != bottom.source
        or right.target != bottom.target
    ):
        return SquareClass.NOT_SQUARE
    p = inst.p
    lhs = matmul_mod(inst.hor_matrix(top), inst.ver_matrix(left), p)
    rhs = matmul_mod(inst.ver_matrix(right), inst.hor_matrix(bottom), p)
    if not np.array_equal(lhs, rhs):
        return SquareClass.NOT_SQUARE
    sq = inst.mixed_pullback(bottom, right)
    if sq.corner != top.source:
        return SquareClass.COMMUTING
    u = solve(inst.hor_matrix(sq.to_epi_source), inst.hor_matrix(top), p)
    if u is None or mat_rank(u, p) != top.source.dim:
        return SquareClass.COMMUTING
    cmp_left = matmul_mod(u, inst.ver_matrix(left), p)
    if np.mod(cmp_left - inst.ver_matrix(sq.to_mono_source), p).any():
        return SquareClass.COMMUTING
    return SquareClass.CARTESIAN


def is_complement_pair_by_product(inst, m, e):
    """:meth:`acgw.AcgwInstance.is_complement_pair` over ``F_p``: the
    dimensions add up and the surjection of ``e`` kills the image of
    ``m``."""
    if m.target != e.target:
        return False
    if m.source.dim + e.source.dim != m.target.dim:
        return False
    return not matmul_mod(inst.ver_matrix(e), inst.hor_matrix(m), inst.p).any()


def _injection(inst, f):
    """A morphism of either flavour as its injection matrix."""
    return inst.hor_matrix(f) if isinstance(f, HorMor) else inst.ver_matrix(f).T


def square_commutes_by_products(inst, top, left, right, bottom):
    """:meth:`acgw.AcgwInstance.hor_square_commutes` over ``F_p``: the
    products of the injection matrices along both paths agree."""
    if (
        top.source != left.source
        or top.target != right.source
        or left.target != bottom.source
        or right.target != bottom.target
    ):
        return False
    lhs = matmul_mod(_injection(inst, right), _injection(inst, top), inst.p)
    rhs = matmul_mod(_injection(inst, bottom), _injection(inst, left), inst.p)
    return np.array_equal(lhs, rhs)


def is_iso_by_rank(inst, f):
    """:meth:`acgw.LinearInstance.is_iso_hor`: square and of full rank."""
    matrix = inst.hor_matrix(f) if isinstance(f, HorMor) else inst.ver_matrix(f)
    return f.source.dim == f.target.dim and mat_rank(matrix, inst.p) == f.source.dim


def _greedy_extend(base, pool, target_rank, p):
    """Columns of ``pool`` that extend ``base`` to rank ``target_rank``,
    taken from the left whenever one raises the rank."""
    cur = base
    chosen = []
    rank = mat_rank(cur, p)
    for j in range(pool.shape[1]):
        if rank == target_rank:
            break
        cand = np.hstack([cur, pool[:, j : j + 1]])
        cand_rank = mat_rank(cand, p)
        if cand_rank > rank:
            cur, rank = cand, cand_rank
            chosen.append(j)
    assert rank == target_rank, "could not extend basis to the requested rank"
    return pool[:, chosen]


def homology_embedding_greedy(inst, grid, boundaries):
    """:meth:`acgw.LinearInstance.homology_embedding`, ranking one matrix
    per candidate column to extend the boundaries by cycles, then by unit
    vectors."""
    p = inst.p
    ambient = grid.cycles_hor.target
    n = ambient.dim
    bnd = inst.hor_matrix(boundaries)
    cycles = inst.hor_matrix(grid.cycles_hor)
    h_section = _greedy_extend(bnd, cycles, cycles.shape[1], p)
    spanning = np.hstack([bnd, h_section])
    rest = _greedy_extend(spanning, np.eye(n, dtype=np.int64), n, p)
    inverse = solve(np.hstack([spanning, rest]), np.eye(n, dtype=np.int64), p)
    assert inverse is not None
    t_low, h_dim = bnd.shape[1], h_section.shape[1]
    return h_section, inverse[t_low : t_low + h_dim, :]


# ---------------------------------------------------------------------------
# Finite-set document lines, one token at a time.
# ---------------------------------------------------------------------------

_ID_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")


def obj_from_text_per_token(text):
    """:meth:`acgw.FinSetInstance.obj_from_text`: every whitespace-separated
    token must be an id."""
    ids = text.split()
    for x in ids:
        if not _ID_RE.match(x):
            raise ValidationError([f"bad id {x!r}"])
    return finset_obj(ids)


def mor_from_text_per_token(mor_type, source, target, text):
    """:meth:`acgw.FinSetInstance.mor_from_text` on a pair line: every
    token must be ``src->tgt`` with two ids, and no source may repeat."""
    out = {}
    for chunk in text.split():
        src, sep, tgt = chunk.partition("->")
        if not sep or not _ID_RE.match(src) or not _ID_RE.match(tgt):
            raise ValidationError([f"bad pair {chunk!r} (want src->tgt)"])
        if src in out:
            raise ValidationError([f"repeated pair source {src!r}"])
        out[src] = tgt
    return mor_type(source, target, _sorted_payload(out))


def lift_hor_bar_reference(level, src_leg, tgt_leg):
    """The bar level of a ``hor`` (or ``ver``) section that
    :meth:`acgw.FinSetInstance.hor_between_cokers` (and
    ``ver_between_kernels``) forces, through a dict of each payload, one
    pair of the source leg at a time.  A payload that is not two tuples
    raises ``ValueError``."""
    sources, images = src_leg.data
    lsources, limages = level.data
    tsources, timages = tgt_leg.data
    lmap, over = dict(zip(lsources, limages)), dict(zip(timages, tsources))
    verb = "descend" if isinstance(level, HorMor) else "restrict"
    out = []
    for t, x in zip(sources, images):
        img = lmap.get(x)
        if img is None:
            raise FactorizationError(
                f"morphism does not {verb} to complements: "
                f"it is undefined at {x}, the image of {t}"
            )
        if img not in over:
            raise FactorizationError(
                f"morphism does not {verb} to complements: "
                f"image of {t} is {img}, not in the target complement"
            )
        out.append(over[img])
    return type(level)(src_leg.source, tgt_leg.source, (sources, tuple(out)))


def rank_zigzag_exactness_reference(zz) -> list[bool]:
    """Exactness at every position of a zigzag by ranks over ``F_prime``.

    Each transition flattens to the matrix ``d_j`` from ``objects[j]`` to
    ``objects[j + 1]``; position ``j`` is exact when ``d_j . d_{j-1}`` is
    zero and the ranks of the two add up to the size of ``objects[j]``,
    with zero matrices past the ends."""
    inst, p = zz.inst, zz.inst.prime
    sizes = [inst.obj_size(obj) for obj in zz.objects]
    ds = [np.zeros((sizes[0], 0), dtype=np.int64)]
    ds += [inst.boundary_matrix(t.into_upper, t.into_lower) for t in zz.transitions]
    ds.append(np.zeros((0, sizes[-1]), dtype=np.int64))
    return [
        not matmul_mod(d_out, d_in, p).any() and mat_rank(d_in, p) + mat_rank(d_out, p) == n
        for n, d_in, d_out in zip(sizes, ds, ds[1:])
    ]
