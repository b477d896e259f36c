"""Independent homology oracle and seeded random input generators.

The oracle flattens a complex to plain boundary matrices and computes
homology dimensions by Gaussian elimination, without touching complement
or pullback machinery, so it can cross-check the structural computations.
The generators produce random — but reproducible — complexes, chain
morphisms, chain maps, short exact sequences and snake inputs whose
expected invariants are known by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .chains import (
    ChainComplex,
    ChainMap,
    ChainSES,
    HorChainMor,
    Transition,
    VerChainMor,
    _levelwise,
    ses_from_injection,
)
from .core import AcgwError, ValidationError
from .finset import FinSetInstance, finset_obj, mapping_of
from .linear import LinearInstance, mat_rank, matmul_mod
from .snake import SnakeInputStrong, SnakeInputWeak

__all__ = [
    "free_complex",
    "rank_homology_dims",
    "GenConfig",
    "rand_gl",
    "gen_complex",
    "gen_exact_complex",
    "gen_hor_mor",
    "gen_ver_mor",
    "gen_chain_map",
    "gen_composable_chain_maps",
    "gen_ses",
    "gen_snake_weak",
    "gen_snake_strong",
    "gen_linear_complex",
]

_ATTEMPTS = 1000


# ---------------------------------------------------------------------------
# Rank-based oracle.
# ---------------------------------------------------------------------------


def free_complex(cx: ChainComplex) -> dict[int, np.ndarray]:
    """Plain boundary matrices ``d_i: X_i -> X_{i-1}`` of a complex.

    Each transition is flattened by the instance
    (:meth:`AcgwInstance.boundary_matrix`): finite sets over the
    two-element field with one basis vector per id, linear complexes by
    composing the two legs.  A leg that cannot be read raises
    :class:`ValidationError` naming the transition; a nonzero squared
    boundary raises :class:`AcgwError`.
    """
    inst = cx.inst
    diffs: dict[int, np.ndarray] = {}
    for i in range(cx.lo, cx.hi + 2):
        t = cx.transition(i)
        try:
            diffs[i] = inst.boundary_matrix(t.into_upper, t.into_lower)
        except ValidationError as exc:
            raise ValidationError(f"transition {i}: {p}" for p in exc.problems) from None
    for i in range(cx.lo, cx.hi + 1):
        if matmul_mod(diffs[i], diffs[i + 1], inst.prime).any():
            raise AcgwError(f"boundary squared is nonzero at degree {i}")
    return diffs


def rank_homology_dims(cx: ChainComplex) -> dict[int, int]:
    """Homology dimensions of the flattened complex, by matrix rank."""
    p = cx.inst.prime
    diffs = free_complex(cx)
    out = {}
    for i in cx.degrees():
        n = cx.inst.obj_size(cx.obj(i))
        out[i] = n - mat_rank(diffs[i], p) - mat_rank(diffs[i + 1], p)
    return out


# ---------------------------------------------------------------------------
# Generator configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Reproducible generator parameters.

    Attributes:
        seed: RNG seed; equal configs generate equal outputs.
        max_size: upper bound on the number of ids (or the dimension)
            of any generated object.
        max_support: upper bound on the number of degrees in a complex.
        instance: ``"set"`` or ``"linear"``.
        prime: field characteristic for linear instances.
    """

    seed: int
    max_size: int = 8
    max_support: int = 6
    instance: str = "set"
    prime: int = 2


def _span(rng: random.Random, cfg: GenConfig) -> tuple[int, int]:
    lo = rng.randint(-2, 2)
    return lo, lo + rng.randint(1, cfg.max_support) - 1


# ---------------------------------------------------------------------------
# Finite-set complexes with prescribed homology.
# ---------------------------------------------------------------------------


def _pool_complex(
    rng: random.Random, cfg: GenConfig, exact: bool
) -> tuple[ChainComplex, dict[int, int]]:
    """A complex built from loose ids plus cancelling id pairs.

    Each pair lives at two consecutive degrees and becomes one transition
    element; loose ids survive to homology.  With probability ~0.3 a
    transition object is relabelled onto fresh ids so that not every
    complex uses literal-inclusion legs.
    """
    inst = FinSetInstance()
    lo, hi = _span(rng, cfg)
    single_max = 0 if exact else min(2, cfg.max_size)
    pair_max = min(3, max(cfg.max_size - single_max, 0) // 2)
    singles = {i: [f"s{i}x{k}" for k in range(rng.randint(0, single_max))] for i in range(lo, hi + 1)}
    pairs = {i: [f"t{i}x{k}" for k in range(rng.randint(0, pair_max))] for i in range(lo + 1, hi + 1)}
    pairs[lo] = []
    pairs[hi + 1] = []

    objects = tuple(
        finset_obj(singles[i] + pairs[i] + pairs[i + 1]) for i in range(lo, hi + 1)
    )
    transitions = []
    for i in range(lo + 1, hi + 1):
        if pairs[i] and rng.random() < 0.3:
            fresh = {q: f"u{i}x{k}" for k, q in enumerate(pairs[i])}
            obj = finset_obj(fresh.values())
            legs = {fresh[q]: q for q in pairs[i]}
        else:
            obj = finset_obj(pairs[i])
            legs = {q: q for q in pairs[i]}
        transitions.append(
            Transition(
                obj,
                inst.ver(obj, objects[i - lo], legs),
                inst.hor(obj, objects[i - 1 - lo], legs),
            )
        )
    cx = ChainComplex(inst, lo, hi, objects, tuple(transitions))
    return cx, {i: len(singles[i]) for i in range(lo, hi + 1)}


def gen_complex(cfg: GenConfig) -> tuple[ChainComplex, dict[int, int]]:
    """A random finite-set complex and its homology sizes by degree."""
    return _pool_complex(random.Random(cfg.seed), cfg, exact=False)


def gen_exact_complex(cfg: GenConfig) -> ChainComplex:
    """A random finite-set complex that is exact at every degree."""
    return _pool_complex(random.Random(cfg.seed), cfg, exact=True)[0]


# ---------------------------------------------------------------------------
# Sub-complexes and extensions (all literal inclusions).
# ---------------------------------------------------------------------------


def _sub_inclusion(chain, include, y: ChainComplex, chosen: dict, bar_ids: dict):
    """The inclusion into ``y``, of class ``chain`` by ``include``, of its
    sub-complex on the ``chosen`` ids of each degree and the ``bar_ids`` of
    each transition object, with the legs of ``y`` restricted to them."""
    inst = y.inst
    objects = tuple(finset_obj(chosen[i]) for i in y.degrees())
    transitions = []
    for i in y.transition_degrees():
        t, obj = y.transition(i), finset_obj(bar_ids[i])
        up, low = mapping_of(t.into_upper), mapping_of(t.into_lower)
        upper, lower = objects[i - y.lo], objects[i - 1 - y.lo]
        transitions.append(
            Transition(
                obj,
                inst.ver(obj, upper, {b: up[b] for b in obj}),
                inst.hor(obj, lower, {b: low[b] for b in obj}),
            )
        )
    sub = ChainComplex(inst, y.lo, y.hi, objects, tuple(transitions))
    return _levelwise(chain, include, sub, y)


def _hor_sub(rng: random.Random, y: ChainComplex) -> HorChainMor:
    """A random sub-complex whose inclusion is horizontal.

    Working downward, each chosen degree pulls in the transition elements
    above it and forces their lower images into the next degree, which is
    exactly the distinguished-square condition for the inclusion.
    """
    inst = y.inst
    chosen: dict[int, set[str]] = {}
    bar_ids: dict[int, set[str]] = {}
    forced: set[str] = set()
    for i in range(y.hi, y.lo - 1, -1):
        chosen[i] = forced | {a for a in y.obj(i) if a not in forced and rng.random() < 0.4}
        if i > y.lo:
            t = y.transition(i)
            up, low = mapping_of(t.into_upper), mapping_of(t.into_lower)
            bar_ids[i] = {tid for tid in t.obj if up[tid] in chosen[i]}
            forced = {low[tid] for tid in bar_ids[i]}
        else:
            forced = set()

    return _sub_inclusion(HorChainMor, inst.inclusion_hor, y, chosen, bar_ids)


def _ver_sub(rng: random.Random, y: ChainComplex) -> VerChainMor:
    """A random sub-complex whose inclusion is vertical (mirror image:
    works upward, pulling in transition elements below)."""
    inst = y.inst
    chosen: dict[int, set[str]] = {}
    bar_ids: dict[int, set[str]] = {}
    forced: set[str] = set()
    for i in range(y.lo, y.hi + 1):
        chosen[i] = forced | {a for a in y.obj(i) if a not in forced and rng.random() < 0.4}
        t = y.transition(i + 1)
        if i < y.hi:
            up, low = mapping_of(t.into_upper), mapping_of(t.into_lower)
            bar_ids[i + 1] = {tid for tid in t.obj if low[tid] in chosen[i]}
            forced = {up[tid] for tid in bar_ids[i + 1]}
        else:
            forced = set()

    return _sub_inclusion(VerChainMor, inst.inclusion_ver, y, chosen, bar_ids)


def _extend(
    rng: random.Random, cx: ChainComplex, tag: str
) -> tuple[ChainComplex, HorChainMor, VerChainMor]:
    """Embed a complex into a larger one by adding fresh loose ids and
    fresh cancelling pairs.  Freshness makes the inclusion simultaneously
    a valid horizontal and a valid vertical chain morphism."""
    inst = cx.inst
    lo, hi = cx.lo, cx.hi
    singles = {i: [f"e{tag}{i}x{k}" for k in range(rng.randint(0, 2))] for i in range(lo, hi + 1)}
    pairs = {i: [f"r{tag}{i}x{k}" for k in range(rng.randint(0, 2))] for i in range(lo + 1, hi + 1)}
    pairs[lo] = []
    pairs[hi + 1] = []

    objects = tuple(
        finset_obj(tuple(cx.obj(i)) + tuple(singles[i] + pairs[i] + pairs[i + 1]))
        for i in range(lo, hi + 1)
    )
    transitions = []
    for i in range(lo + 1, hi + 1):
        t = cx.transition(i)
        legs_up = dict(mapping_of(t.into_upper))
        legs_low = dict(mapping_of(t.into_lower))
        for q in pairs[i]:
            legs_up[q] = q
            legs_low[q] = q
        obj = finset_obj(tuple(t.obj) + tuple(pairs[i]))
        transitions.append(
            Transition(
                obj,
                inst.ver(obj, objects[i - lo], legs_up),
                inst.hor(obj, objects[i - 1 - lo], legs_low),
            )
        )
    big = ChainComplex(inst, lo, hi, objects, tuple(transitions))
    return (
        big,
        _levelwise(HorChainMor, inst.inclusion_hor, cx, big),
        _levelwise(VerChainMor, inst.inclusion_ver, cx, big),
    )


def gen_hor_mor(cfg: GenConfig) -> HorChainMor:
    """A random horizontal chain morphism (an inclusion of complexes)."""
    rng = random.Random(cfg.seed)
    y, _ = _pool_complex(rng, cfg, exact=False)
    return _hor_sub(rng, y)


def gen_ver_mor(cfg: GenConfig) -> VerChainMor:
    """A random vertical chain morphism (an inclusion of complexes)."""
    rng = random.Random(cfg.seed)
    y, _ = _pool_complex(rng, cfg, exact=False)
    return _ver_sub(rng, y)


def gen_chain_map(cfg: GenConfig) -> ChainMap:
    """A random chain map: a sub-complex of the target, extended away
    from it to form the source."""
    rng = random.Random(cfg.seed)
    y, _ = _pool_complex(rng, cfg, exact=False)
    front = _hor_sub(rng, y)
    x, _, back = _extend(rng, front.source, "a")
    return ChainMap(x, front.source, y, back, front)


def gen_composable_chain_maps(cfg: GenConfig) -> tuple[ChainMap, ChainMap]:
    """Two chain maps sharing the middle complex ``Y`` as target/source."""
    rng = random.Random(cfg.seed)
    y, _ = _pool_complex(rng, cfg, exact=False)
    front = _hor_sub(rng, y)
    x, _, back = _extend(rng, front.source, "a")
    first = ChainMap(x, front.source, y, back, front)
    back2 = _ver_sub(rng, y)
    w, front2, _ = _extend(rng, back2.source, "b")
    second = ChainMap(y, back2.source, w, back2, front2)
    return first, second


def gen_ses(cfg: GenConfig) -> ChainSES:
    """A random short exact sequence of finite-set complexes."""
    rng = random.Random(cfg.seed)
    y, _ = _pool_complex(rng, cfg, exact=False)
    return ses_from_injection(_hor_sub(rng, y))


# ---------------------------------------------------------------------------
# Snake inputs (single finite sets, all inclusions).
# ---------------------------------------------------------------------------


def _ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in range(n)]


def _sample(rng: random.Random, pool: list[str]) -> set[str]:
    return {a for a in pool if rng.random() < 0.5}


def gen_snake_weak(cfg: GenConfig) -> SnakeInputWeak:
    """A random valid weak snake input on finite sets.

    Everything is a literal subset: the middle row is a complement-style
    pair inside ``Y``, the top row extends ``Y`` by fresh ids split
    between the two sides, and the bottom row likewise.
    """
    rng = random.Random(cfg.seed)
    inst = FinSetInstance()
    n = max(2, min(cfg.max_size, 6))
    y = set(_sample(rng, _ids("y", n)))
    x = _sample(rng, sorted(y))
    z = _sample(rng, sorted(y - x))
    top_fresh = _ids("b", rng.randint(0, 3))
    b = y | set(top_fresh)
    a = x | _sample(rng, top_fresh)
    c = b - a
    bot_fresh = _ids("p", rng.randint(0, 3))
    b2 = y | set(bot_fresh)
    c2 = z | _sample(rng, bot_fresh)
    a2 = b2 - c2

    ob = {k: finset_obj(v) for k, v in
          dict(a=a, b=b, c=c, x=x, y=y, z=z, a2=a2, b2=b2, c2=c2).items()}
    return SnakeInputWeak(
        inst,
        top_mono=inst.inclusion_hor(ob["a"], ob["b"]),
        top_epi=inst.inclusion_ver(ob["c"], ob["b"]),
        mid_mono=inst.inclusion_hor(ob["x"], ob["y"]),
        mid_epi=inst.inclusion_ver(ob["z"], ob["y"]),
        bot_mono=inst.inclusion_hor(ob["a2"], ob["b2"]),
        bot_epi=inst.inclusion_ver(ob["c2"], ob["b2"]),
        left_up=inst.inclusion_ver(ob["x"], ob["a"]),
        left_down=inst.inclusion_hor(ob["x"], ob["a2"]),
        mid_up=inst.inclusion_ver(ob["y"], ob["b"]),
        mid_down=inst.inclusion_hor(ob["y"], ob["b2"]),
        right_up=inst.inclusion_ver(ob["z"], ob["c"]),
        right_down=inst.inclusion_hor(ob["z"], ob["c2"]),
    )


def gen_snake_strong(cfg: GenConfig) -> SnakeInputStrong:
    """A random valid strong snake input on finite sets.

    Like the weak case, but the top-left object gains ids outside the
    whole top row and the bottom-right object gains ids outside the whole
    bottom row, so only restricted versions of the outer morphisms exist.
    """
    rng = random.Random(cfg.seed)
    inst = FinSetInstance()
    n = max(2, min(cfg.max_size, 6))
    y = set(_sample(rng, _ids("y", n)))
    x = _sample(rng, sorted(y))
    z = _sample(rng, sorted(y - x))
    top_fresh = _ids("b", rng.randint(0, 3))
    b = y | set(top_fresh)
    abar = x | _sample(rng, top_fresh)
    c = b - abar
    a = abar | set(_ids("a", rng.randint(0, 2)))
    bot_fresh = _ids("p", rng.randint(0, 3))
    b2 = y | set(bot_fresh)
    cbar2 = z | _sample(rng, bot_fresh)
    a2 = b2 - cbar2
    c2 = cbar2 | set(_ids("q", rng.randint(0, 2)))

    ob = {k: finset_obj(v) for k, v in
          dict(a=a, abar=abar, b=b, c=c, x=x, y=y, z=z,
               a2=a2, b2=b2, cbar2=cbar2, c2=c2).items()}
    return SnakeInputStrong(
        inst,
        left_up=inst.inclusion_ver(ob["x"], ob["a"]),
        restrict_to_top=inst.inclusion_ver(ob["abar"], ob["a"]),
        top_mono=inst.inclusion_hor(ob["abar"], ob["b"]),
        left_up_restricted=inst.inclusion_ver(ob["x"], ob["abar"]),
        mid_up=inst.inclusion_ver(ob["y"], ob["b"]),
        top_epi=inst.inclusion_ver(ob["c"], ob["b"]),
        right_up=inst.inclusion_ver(ob["z"], ob["c"]),
        mid_mono=inst.inclusion_hor(ob["x"], ob["y"]),
        mid_epi=inst.inclusion_ver(ob["z"], ob["y"]),
        bot_mono=inst.inclusion_hor(ob["a2"], ob["b2"]),
        left_down=inst.inclusion_hor(ob["x"], ob["a2"]),
        mid_down=inst.inclusion_hor(ob["y"], ob["b2"]),
        bot_epi_restricted=inst.inclusion_ver(ob["cbar2"], ob["b2"]),
        right_down_restricted=inst.inclusion_hor(ob["z"], ob["cbar2"]),
        extend_to_bot=inst.inclusion_hor(ob["cbar2"], ob["c2"]),
    )


# ---------------------------------------------------------------------------
# Linear complexes with prescribed homology.
# ---------------------------------------------------------------------------


def rand_gl(rng: random.Random, n: int, p: int) -> np.ndarray:
    """A uniform-ish random invertible matrix over the prime field."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    for _ in range(_ATTEMPTS):
        g = np.array(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64
        )
        if mat_rank(g, p) == n:
            return g
    raise RuntimeError(f"could not sample an invertible {n}x{n} matrix mod {p}")


def _inv_mod(g: np.ndarray, p: int) -> np.ndarray:
    from .linear import solve

    n = g.shape[0]
    inv = solve(g, np.eye(n, dtype=np.int64), p)
    if inv is None:
        raise AcgwError("matrix is not invertible")
    return inv


def gen_linear_complex(
    cfg: GenConfig, exact: bool = False
) -> tuple[ChainComplex, dict[int, int]]:
    """A random linear complex with known homology dimensions.

    Built in a split basis — homology block, upper transition block,
    lower transition block — and then conjugated by random invertible
    matrices at every degree and transition, which preserves the
    independence of the two transition images.  With ``exact=True`` the
    homology blocks are empty.
    """
    rng = random.Random(cfg.seed)
    inst = LinearInstance(cfg.prime)
    p = cfg.prime
    lo, hi = _span(rng, cfg)
    h = {i: 0 if exact else rng.randint(0, 2) for i in range(lo, hi + 1)}
    t = {i: rng.randint(0, 2) for i in range(lo + 1, hi + 1)}
    t[lo] = 0
    t[hi + 1] = 0
    n = {i: h[i] + t[i] + t[i + 1] for i in range(lo, hi + 1)}

    basis_change = {i: rand_gl(rng, n[i], p) for i in range(lo, hi + 1)}
    objects = tuple(inst.obj(n[i]) for i in range(lo, hi + 1))
    transitions = []
    for i in range(lo + 1, hi + 1):
        up = np.zeros((t[i], n[i]), dtype=np.int64)
        for r in range(t[i]):
            up[r, h[i] + r] = 1
        low = np.zeros((n[i - 1], t[i]), dtype=np.int64)
        for r in range(t[i]):
            low[h[i - 1] + t[i - 1] + r, r] = 1
        g = rand_gl(rng, t[i], p)
        up = matmul_mod(matmul_mod(g, up, p), _inv_mod(basis_change[i], p), p)
        low = matmul_mod(matmul_mod(basis_change[i - 1], low, p), _inv_mod(g, p), p)
        tobj = inst.obj(t[i])
        transitions.append(
            Transition(
                tobj,
                inst.ver(tobj, objects[i - lo], up),
                inst.hor(tobj, objects[i - 1 - lo], low),
            )
        )
    cx = ChainComplex(inst, lo, hi, objects, tuple(transitions))
    return cx, dict(h)
