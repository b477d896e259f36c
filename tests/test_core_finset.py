"""Core double-category structure on the finite-set instance."""

import copy
import pickle
from dataclasses import replace
from itertools import chain, compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgw import (
    CompositionError,
    FactorizationError,
    FinSetInstance,
    HorMor,
    SquareClass,
    ValidationError,
    VerMor,
    compose_flat,
    finset_obj,
    flat_is_iso,
    flat_is_zero,
    flat_of_hor,
    flat_of_ver,
    id_flat,
    parse,
    serialize,
    span_equiv,
    validate_flat,
    zero_flat,
)
from acgw import finset
from acgw.finset import apply_to, mapping_of

from conftest import corpus_text

from reference import (
    SORTED_FINSET,
    classify_mixed_reference,
    hor_square_commutes_reference,
    is_complement_pair_reference,
    lift_hor_bar_reference,
    mor_from_text_per_token,
    obj_from_text_per_token,
    validate_hor_reference,
    validate_payload_reference,
)

INST = FinSetInstance()

LETTERS = "abcdefgh"


@st.composite
def ambient_and_subset(draw):
    ambient = finset_obj(draw(st.lists(st.sampled_from(LETTERS), max_size=8)))
    sub = finset_obj([x for x in ambient if draw(st.booleans())])
    return ambient, sub


# ---------------------------------------------------------------------------
# Objects.
# ---------------------------------------------------------------------------


def test_obj_normalizes_sorted_unique():
    assert finset_obj(["b", "a", "a", "c"]) == ("a", "b", "c")
    assert finset_obj([]) == ()


def test_initial_object():
    assert INST.initial() == ()
    assert INST.is_initial(INST.initial())
    assert not INST.is_initial(finset_obj(["a"]))


def test_obj_size_and_label():
    assert INST.obj_size(finset_obj(["x", "y"])) == 2
    assert INST.obj_label(finset_obj(["b", "a"])) == "{a b}"
    assert INST.obj_label(()) == "{}"


# ---------------------------------------------------------------------------
# Morphisms: construction, validation, composition.
# ---------------------------------------------------------------------------


def test_inclusion_hor_is_identity_pairs():
    sub = finset_obj(["a"])
    amb = finset_obj(["a", "b"])
    m = INST.inclusion_hor(sub, amb)
    assert m.source == sub and m.target == amb
    # sources and images are the object's own tuple: no pairs are built
    assert m.data == (("a",), ("a",))
    assert m.data[0] is sub and m.data[1] is sub
    assert mapping_of(m) == {"a": "a"}
    assert apply_to(m, "a") == "a"


def test_validate_rejects_non_injective():
    src = finset_obj(["a", "b"])
    tgt = finset_obj(["x"])
    bad = INST.hor(src, tgt, {"a": "x", "b": "x"})
    assert INST.validate_hor(bad)


def test_validate_rejects_out_of_range_values():
    src = finset_obj(["a"])
    tgt = finset_obj(["x"])
    bad = INST.hor(src, tgt, {"a": "z"})
    assert any("outside" in p for p in INST.validate_hor(bad))


def test_validate_rejects_partial_maps():
    src = finset_obj(["a", "b"])
    tgt = finset_obj(["x", "y"])
    bad = INST.hor(src, tgt, {"a": "x"})
    assert INST.validate_hor(bad)


def test_compose_applies_first_argument_first():
    A, B, C = finset_obj(["a"]), finset_obj(["a", "b"]), finset_obj(["a", "b", "c"])
    f = INST.inclusion_hor(A, B)
    g = INST.inclusion_hor(B, C)
    gf = INST.compose_hor(f, g)
    assert gf.source == A and gf.target == C and mapping_of(gf) == {"a": "a"}
    u = INST.inclusion_ver(A, B)
    w = INST.inclusion_ver(B, C)
    wu = INST.compose_ver(u, w)
    assert wu.source == A and wu.target == C


def test_compose_mismatch_raises():
    A, B = finset_obj(["a"]), finset_obj(["a", "b"])
    f = INST.inclusion_hor(A, B)
    g = INST.hor(finset_obj(["c"]), finset_obj(["c", "d"]), {"c": "c"})
    with pytest.raises(CompositionError):
        INST.compose_hor(f, g)
    with pytest.raises(CompositionError):
        INST.compose_ver(INST.inclusion_ver(A, B), INST.inclusion_ver(A, B))


def test_identity_and_zero():
    A = finset_obj(["a", "b"])
    assert INST.is_iso_hor(INST.id_hor(A))
    assert INST.is_iso_ver(INST.id_ver(A))
    z = INST.zero_hor(A)
    assert z.source == () and z.target == A and z.data == ((), ())
    zv = INST.zero_ver(A)
    assert zv.source == () and zv.target == A


# ---------------------------------------------------------------------------
# Complements: cokernel and kernel are mutually inverse.
# ---------------------------------------------------------------------------


def test_coker_is_literal_complement():
    sub = finset_obj(["a", "b"])
    amb = finset_obj(["a", "b", "c", "d"])
    m = INST.inclusion_hor(sub, amb)
    c_obj, cleg = INST.coker(m)
    assert c_obj == ("c", "d")
    assert cleg.source == c_obj and cleg.target == amb
    assert INST.is_complement_pair(m, cleg)


def test_ker_of_coker_recovers_subobject():
    sub = finset_obj(["b", "d"])
    amb = finset_obj(["a", "b", "c", "d"])
    m = INST.inclusion_hor(sub, amb)
    _, cleg = INST.coker(m)
    k_obj, kleg = INST.ker(cleg)
    assert k_obj == sub
    assert kleg.data == m.data


def test_coker_of_ker_recovers_quotient():
    sub = finset_obj(["x"])
    amb = finset_obj(["x", "y", "z"])
    e = INST.inclusion_ver(sub, amb)
    k_obj, kleg = INST.ker(e)
    assert k_obj == ("y", "z")
    c_obj, cleg = INST.coker(kleg)
    assert c_obj == sub
    assert cleg.data == e.data


def test_complement_pair_rejects_overlap_and_gap():
    amb = finset_obj(["a", "b", "c"])
    m = INST.inclusion_hor(finset_obj(["a", "b"]), amb)
    overlapping = INST.inclusion_ver(finset_obj(["b", "c"]), amb)
    assert not INST.is_complement_pair(m, overlapping)
    gappy = INST.inclusion_ver(finset_obj(["c"]), finset_obj(["a", "b", "c"]))
    m_small = INST.inclusion_hor(finset_obj(["a"]), amb)
    assert not INST.is_complement_pair(m_small, gappy)


@settings(deadline=None, max_examples=200)
@given(ambient_and_subset())
def test_complement_round_trip_property(pair):
    amb, sub = pair
    m = INST.inclusion_hor(sub, amb)
    c_obj, cleg = INST.coker(m)
    assert INST.is_complement_pair(m, cleg)
    assert set(c_obj) == set(amb) - set(sub)
    k_obj, kleg = INST.ker(cleg)
    assert k_obj == sub and kleg.data == m.data
    # And the other order: start vertical, go horizontal, come back.
    e = INST.inclusion_ver(sub, amb)
    k2_obj, k2leg = INST.ker(e)
    c2_obj, c2leg = INST.coker(k2leg)
    assert c2_obj == sub and c2leg.data == e.data


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_complement_legs_agree_with_the_sorting_reference(data):
    """A complement leg keeps the image it complements.  The complements
    of a valid injection and of its leg, and factoring and descending
    through such legs, equal the constructions that sort their results;
    the injection's image is drawn empty, whole or in between."""
    draw = data.draw
    mor_type = draw(st.sampled_from((HorMor, VerMor)))
    kind, other = ("hor", "ver") if mor_type is HorMor else ("ver", "hor")
    name, back = ("coker", "ker") if mor_type is HorMor else ("ker", "coker")
    extent = draw(st.sampled_from(("empty", "whole", "drawn")))
    q = _ids(draw)
    f = _into(draw, mor_type, q, within=() if extent == "empty" else None, onto=extent == "whole")
    rest, q_leg = getattr(INST, name)(f)
    assert (rest, q_leg) == SORTED_FINSET[name](f)
    # the complement of the leg is the image of f, which its leg keeps as
    # its image set
    image, leg = getattr(INST, back)(q_leg)
    assert (image, leg) == SORTED_FINSET[back](q_leg)
    assert finset._image(leg) == frozenset(image) == frozenset(f.data[1])
    h = _into(draw, mor_type, image)
    g = SORTED_FINSET[f"compose_{kind}"](h, leg)
    assert getattr(INST, f"factor_{kind}")(g, leg) == h
    # factoring through the leg: what lands in the complement factors,
    # what also meets the image of f does not
    h = _into(draw, type(q_leg), rest)
    g = SORTED_FINSET[f"compose_{other}"](h, q_leg)
    assert getattr(INST, f"factor_{other}")(g, q_leg) == h
    if f.data[1]:
        stray = INST.id_hor(q) if type(q_leg) is HorMor else INST.id_ver(q)
        with pytest.raises(FactorizationError):
            getattr(INST, f"factor_{other}")(stray, q_leg)
    # descending m: P -> Q along complement legs: the leg of P complements
    # an injection whose image holds every id that m sends into f's image
    m = _into(draw, mor_type, q)
    into_rest = [p for p, y in mapping_of(m).items() if y in rest]
    dropped = finset_obj(p for p in into_rest if draw(st.booleans()))
    kept = finset_obj(set(m.source) - set(dropped))
    _, p_leg = getattr(INST, name)(_into(draw, mor_type, m.source, within=kept, onto=True))
    between = "hor_between_cokers" if mor_type is HorMor else "ver_between_kernels"
    got = getattr(INST, between)(m, p_leg, q_leg)
    assert got == SORTED_FINSET[between](m, p_leg, q_leg)
    assert INST.validate_hor(got) == []


# ---------------------------------------------------------------------------
# Mixed pullbacks and square classification.
# ---------------------------------------------------------------------------


def test_mixed_pullback_is_intersection():
    amb = finset_obj(["a", "b", "c", "d"])
    m = INST.inclusion_hor(finset_obj(["a", "b"]), amb)
    e = INST.inclusion_ver(finset_obj(["b", "c"]), amb)
    sq = INST.mixed_pullback(m, e)
    assert sq.corner == ("b",)
    assert sq.mono is m and sq.epi is e
    # The square built by the pullback is itself cartesian.
    cls = INST.classify_mixed(sq.to_epi_source, sq.to_mono_source, sq.epi, sq.mono)
    assert cls is SquareClass.CARTESIAN


def test_square_class_distinguished_threshold():
    assert not SquareClass.NOT_SQUARE.is_distinguished
    assert not SquareClass.COMMUTING.is_distinguished
    assert SquareClass.PSEUDO_COMMUTATIVE.is_distinguished
    assert SquareClass.CARTESIAN.is_distinguished


def test_classify_non_commuting_square():
    two = finset_obj(["x", "y"])
    top = INST.hor(finset_obj(["p"]), finset_obj(["p", "q"]), {"p": "p"})
    left = INST.ver(finset_obj(["p"]), two, {"p": "x"})
    right = INST.ver(finset_obj(["p", "q"]), two, {"p": "y", "q": "x"})
    bottom = INST.id_hor(two)
    assert INST.classify_mixed(top, left, right, bottom) is SquareClass.NOT_SQUARE


def test_classify_commuting_but_not_cartesian():
    # Empty corner over a cospan whose images genuinely intersect.
    amb = finset_obj(["a"])
    top = INST.zero_hor(finset_obj(["a"]))
    left = INST.zero_ver(amb)
    right = INST.inclusion_ver(finset_obj(["a"]), amb)
    bottom = INST.id_hor(amb)
    assert INST.classify_mixed(top, left, right, bottom) is SquareClass.COMMUTING


def test_classify_rejects_malformed_square():
    A = finset_obj(["a"])
    B = finset_obj(["a", "b"])
    cls = INST.classify_mixed(
        INST.id_hor(A), INST.inclusion_ver(A, B), INST.id_ver(A), INST.id_hor(A)
    )
    assert cls is SquareClass.NOT_SQUARE


@settings(deadline=None, max_examples=200)
@given(ambient_and_subset(), st.lists(st.sampled_from(LETTERS), max_size=8))
def test_mixed_pullback_property(pair, other_ids):
    amb, sub = pair
    other = finset_obj([x for x in other_ids if x in amb])
    m = INST.inclusion_hor(sub, amb)
    e = INST.inclusion_ver(other, amb)
    sq = INST.mixed_pullback(m, e)
    assert set(sq.corner) == set(sub) & set(other)
    cls = INST.classify_mixed(sq.to_epi_source, sq.to_mono_source, sq.epi, sq.mono)
    assert cls.is_distinguished


# ---------------------------------------------------------------------------
# Factorization through subobjects / quotients.
# ---------------------------------------------------------------------------


def test_factor_hor_through_inclusion():
    amb = finset_obj(["a", "b", "c"])
    f = INST.inclusion_hor(finset_obj(["a"]), amb)
    through = INST.inclusion_hor(finset_obj(["a", "b"]), amb)
    lifted = INST.factor_hor(f, through)
    assert lifted.source == ("a",) and lifted.target == ("a", "b")
    assert INST.compose_hor(lifted, through).data == f.data


def test_factor_hor_failure_raises():
    amb = finset_obj(["a", "b", "c"])
    f = INST.inclusion_hor(finset_obj(["c"]), amb)
    through = INST.inclusion_hor(finset_obj(["a", "b"]), amb)
    with pytest.raises(FactorizationError):
        INST.factor_hor(f, through)


def test_factor_ver_through_quotient():
    amb = finset_obj(["a", "b", "c"])
    f = INST.inclusion_ver(finset_obj(["a"]), amb)
    through = INST.inclusion_ver(finset_obj(["a", "b"]), amb)
    lifted = INST.factor_ver(f, through)
    assert lifted.source == ("a",) and lifted.target == ("a", "b")
    assert INST.compose_ver(lifted, through).data == f.data


def test_morphisms_between_kernels_and_cokernels():
    ambient = finset_obj(["a", "b", "c", "d"])
    smaller = finset_obj(["a", "b", "c"])
    e = INST.inclusion_ver(smaller, ambient)  # quotient collapsing {d}
    kp_obj, kp = INST.ker(INST.inclusion_ver(finset_obj(["a", "b"]), smaller))
    kq_obj, kq = INST.ker(INST.inclusion_ver(finset_obj(["a", "b"]), ambient))
    between = INST.ver_between_kernels(e, kp, kq)
    assert between.source == kp_obj and between.target == kq_obj

    m = INST.inclusion_hor(finset_obj(["a"]), smaller)
    cp_obj, cp = INST.coker(m)
    cq_obj, cq = INST.coker(INST.inclusion_hor(finset_obj(["a"]), ambient))
    big = INST.inclusion_hor(smaller, ambient)
    between2 = INST.hor_between_cokers(big, cp, cq)
    assert between2.source == cp_obj and between2.target == cq_obj


# ---------------------------------------------------------------------------
# Flat (span) morphisms.
# ---------------------------------------------------------------------------


def test_flat_identity_and_zero():
    A = finset_obj(["a", "b"])
    ident = id_flat(INST, A)
    assert validate_flat(INST, ident) == []
    assert flat_is_iso(INST, ident)
    z = zero_flat(INST, A, A)
    assert flat_is_zero(INST, z)
    assert not flat_is_iso(INST, z)


def test_flat_composition_is_partial_injection():
    A = finset_obj(["a", "b"])
    B = finset_obj(["b", "c"])
    C = finset_obj(["c", "b"])
    # A <= {b} -> B : the partial injection sending b to b.
    f = flat_of_hor(INST, INST.inclusion_hor(finset_obj(["b"]), B))
    f = type(f)(A, ("b",), B, INST.inclusion_ver(finset_obj(["b"]), A), f.front)
    g = flat_of_ver(INST, INST.inclusion_ver(finset_obj(["b"]), B))
    # g : B <= {b} -> {b}; composite A -> {b} keeps exactly b.
    comp = compose_flat(INST, f, g)
    assert validate_flat(INST, comp) == []
    assert set(comp.middle) == {"b"}
    assert span_equiv(INST, comp, comp)


def test_span_equiv_distinguishes():
    A = finset_obj(["a", "b"])
    assert not span_equiv(INST, id_flat(INST, A), zero_flat(INST, A, A))


# ---------------------------------------------------------------------------
# Object validation and canonical order.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "obj,problem",
    [
        (("b", "a"), "object ids are not sorted and unique: ('b', 'a')"),
        (("a", "a"), "object ids are not sorted and unique: ('a', 'a')"),
        (("a", 1), "object has non-string ids: ('a', 1)"),
        (["a"], "object is not a tuple: ['a']"),
    ],
)
def test_validate_obj_names_the_problem(obj, problem):
    assert INST.validate_obj(obj) == [problem]


def test_validate_obj_accepts_canonical_objects():
    assert INST.validate_obj(()) == []
    assert INST.validate_obj(("10", "9")) == []


@pytest.mark.parametrize(
    "data,problems",
    [
        ((("b", "a"), ("x", "y")), ["morphism pairs are not sorted by source id"]),
        ((("a", "a", "b"), ("x", "x", "y")), ["morphism pairs are not sorted by source id"]),
        (
            (("b", "a"), ("x", "x")),
            ["morphism pairs are not sorted by source id", "morphism is not injective"],
        ),
        (
            (["a", "b"], ("x", "y")),
            [
                "morphism data is not sources and images of one length: "
                "(['a', 'b'], ('x', 'y'))"
            ],
        ),
        (
            (("a", "b"), ("x",)),
            ["morphism data is not sources and images of one length: (('a', 'b'), ('x',))"],
        ),
        (
            (("a", "x"), ("b", "y")),
            [
                "morphism is not total on its source: defined on ['a', 'x'], "
                "source is ['a', 'b']",
                "morphism maps outside its target: ['b']",
            ],
        ),
        (
            (("a", "b"), ("x", "y"), ()),
            [
                "morphism data is not sources and images of one length: "
                "(('a', 'b'), ('x', 'y'), ())"
            ],
        ),
        ((("a", "b"), ("x", 1)), ["morphism has non-string ids: (('a', 'b'), ('x', 1))"]),
        ([("a", "b"), ("x", "y")], ["morphism data is not a tuple: [('a', 'b'), ('x', 'y')]"]),
    ],
)
def test_validate_hor_reports_unsorted_pairs(data, problems):
    f = HorMor(finset_obj(["a", "b"]), finset_obj(["x", "y"]), data)
    assert INST.validate_hor(f) == problems


#: ids whose string order differs from their numeric order ("10" < "9")
NUMERIC_IDS = [str(n) for n in range(12)]


def _ids(draw, max_size=8, min_size=0):
    ids = st.lists(
        st.sampled_from(NUMERIC_IDS), unique=True, min_size=min_size, max_size=max_size
    )
    return finset_obj(draw(ids))


def _into(draw, mor_type, target, within=None, onto=False):
    """A random injection into ``target`` whose image lies in ``within``
    (is all of it, if ``onto``): a relabelled one, or a literal inclusion
    built by the instance or by hand."""
    room = target if within is None else finset_obj(within)
    how = draw(st.sampled_from(("relabelled", "instance", "by hand")))
    if how == "relabelled":
        source = _ids(draw, max_size=len(room), min_size=len(room) if onto else 0)
        images = draw(st.permutations(room))[: len(source)]
        return mor_type(source, target, (source, tuple(images)))
    sub = room if onto else finset_obj(x for x in room if draw(st.booleans()))
    return _literal(mor_type, sub, target, how)


def _literal(mor_type, sub, ambient, how="instance"):
    """The literal inclusion of ``sub`` into ``ambient``, from the
    instance's constructor or built by hand from copies of ``sub``."""
    if how == "by hand":
        return mor_type(sub, ambient, (tuple([*sub]), tuple([*sub])))
    include = INST.inclusion_hor if mor_type is HorMor else INST.inclusion_ver
    return include(sub, ambient)


#: ids outside every object drawn from NUMERIC_IDS, and values that are
#: not ids at all
STRAY_IDS = ["x", "y"]
NON_STRINGS = [1, None, b"a"]


@st.composite
def payloads(draw):
    """A morphism between canonical objects whose payload may break each
    check of ``validate_hor``: sources that are the source, a copy of it,
    permuted, repeated, or missing and adding ids; images that are the
    sources themselves, a relabelling into the target, or drawn with
    repeats, stray ids and non-strings."""
    source, target = _ids(draw), _ids(draw)
    how = draw(st.sampled_from(("source", "copy", "permuted", "repeated", "drawn")))
    if how == "source":
        sources = source
    elif how == "copy":
        sources = tuple([*source])
    elif how == "permuted":
        sources = tuple(draw(st.permutations(source)))
    elif how == "repeated" and source:
        again = draw(st.lists(st.sampled_from(source), min_size=1))
        sources = tuple(sorted([*source, *again]))
    else:
        ids = draw(st.lists(st.sampled_from(NUMERIC_IDS + STRAY_IDS), max_size=8))
        sources = tuple(sorted(set(ids))) if draw(st.booleans()) else tuple(ids)
    images_how = draw(st.sampled_from(("sources", "relabelled", "drawn")))
    if images_how == "sources":
        images = sources
    elif images_how == "relabelled" and len(target) >= len(sources):
        images = tuple(draw(st.permutations(target))[: len(sources)])
    else:
        pool = list(target) + STRAY_IDS + NON_STRINGS
        drawn = st.lists(st.sampled_from(pool), min_size=len(sources), max_size=len(sources))
        images = tuple(draw(drawn))
    mor_type = draw(st.sampled_from((HorMor, VerMor)))
    return mor_type(source, target, (sources, images))


@settings(deadline=None, max_examples=400)
@given(payloads())
def test_validate_hor_agrees_with_the_dict_and_sets_reference(f):
    expected = validate_hor_reference(f)
    assert INST.validate_hor(f) == expected
    assert INST.validate_ver(f) == expected


@st.composite
def checked_payloads(draw):
    """A morphism between canonical objects: one of :func:`payloads`, an
    injection or literal inclusion into its target, or an empty payload
    (not total unless its source is empty)."""
    how = draw(st.sampled_from(("payloads", "injection", "empty")))
    if how == "payloads":
        return draw(payloads())
    mor_type, target = draw(st.sampled_from((HorMor, VerMor))), _ids(draw)
    if how == "injection":
        return _into(draw, mor_type, target)
    return mor_type(_ids(draw, max_size=2), target, ((), ()))


@settings(deadline=None, max_examples=400)
@given(checked_payloads())
def test_validate_payload_agrees_with_the_set_difference_reference(f):
    fresh = copy.copy(f)  # carries no memo, and is never validated
    problems = INST.validate_payload(f)
    assert problems == validate_payload_reference(fresh)
    if problems:
        return
    # the complement validation kept is the one a fresh morphism builds
    for complement in (INST.coker, INST.ker):
        (obj, leg), (fresh_obj, fresh_leg) = complement(f), complement(fresh)
        assert (obj, leg) == (fresh_obj, fresh_leg)
        assert vars(leg)[finset._KEPT] == vars(fresh_leg)[finset._KEPT]


def _assert_canonical(parts):
    for part in parts:
        if isinstance(part, HorMor):
            assert INST.validate_hor(part) == []
        elif isinstance(part, VerMor):
            assert INST.validate_ver(part) == []
        else:
            assert INST.validate_obj(part) == []


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_primitives_stay_canonical(data):
    """Every primitive returns canonical objects and valid morphisms on
    valid inputs, equal to the construction that sorts its results."""
    draw = data.draw
    c = _ids(draw)
    m = _into(draw, HorMor, c)
    e = _into(draw, VerMor, c)

    calls = [("ker", (e,)), ("coker", (m,)), ("mixed_pullback", (m, e))]
    for mor_type, kind in ((HorMor, "hor"), (VerMor, "ver")):
        # f = h . through, so f factors through ``through`` as ``h``
        through = _into(draw, mor_type, c)
        h = _into(draw, mor_type, through.source)
        f = SORTED_FINSET[f"compose_{kind}"](h, through)
        calls += [(f"compose_{kind}", (h, through)), (f"factor_{kind}", (f, through))]
        assert getattr(INST, f"factor_{kind}")(f, through) == h
    # complement presentations that the morphism carries into each other
    cq = _into(draw, VerMor, m.target)
    onto_cq = {p for p, q in mapping_of(m).items() if q in mapping_of(cq).values()}
    cp = _into(draw, VerMor, m.source, onto_cq)
    calls.append(("hor_between_cokers", (m, cp, cq)))
    kq = _into(draw, HorMor, e.target)
    onto_kq = {p for p, q in mapping_of(e).items() if q in mapping_of(kq).values()}
    kp = _into(draw, HorMor, e.source, onto_kq)
    calls.append(("ver_between_kernels", (e, kp, kq)))

    # twice: the second call reads what the first one left on its arguments
    for _ in range(2):
        for name, args in calls:
            got = getattr(INST, name)(*args)
            if name == "mixed_pullback":
                got = (got.corner, got.to_epi_source, got.to_mono_source)
            _assert_canonical(got if isinstance(got, tuple) else (got,))
            assert got == SORTED_FINSET[name](*args), name


def _forced(draw, mor_type, source, target, mapping):
    """The morphism ``source -> target`` of ``mapping``: a literal
    inclusion, built by the instance or by hand, when ``mapping`` is the
    identity, and relabelled otherwise."""
    if all(x == y for x, y in mapping.items()):
        return _literal(mor_type, source, target, draw(st.sampled_from(("instance", "by hand"))))
    return mor_type(source, target, (source, tuple(map(mapping.__getitem__, source))))


@st.composite
def squares(draw, hor, ver):
    """Valid morphisms ``top: A -> B``, ``left: A => C``, ``right: B => D``
    and ``bottom: C -> D`` (``top``, ``bottom`` of flavour ``hor`` and
    ``left``, ``right`` of flavour ``ver``), and how the square was built:
    ``"cartesian"`` (``top`` onto the part of ``B`` over the bottom image,
    ``left`` forced), ``"commuting"`` (``top`` onto that part less one id,
    ``left`` forced), ``"broken"`` (``top`` into that part, a forced
    ``left`` changed at one id) or ``"drawn"`` (``top`` and ``left`` drawn
    on their own).  A square that cannot be built as asked (no id to
    leave out, none to change) is named for what it is."""
    d = _ids(draw)
    right, bottom = _into(draw, ver, d), _into(draw, hor, d)
    rm = mapping_of(right)
    under = {y: x for x, y in mapping_of(bottom).items()}
    over = [b for b in right.source if rm[b] in under]
    how = draw(st.sampled_from(("cartesian", "commuting", "broken", "drawn")))
    if how == "drawn":
        top, left = _into(draw, hor, right.source), _into(draw, ver, bottom.source)
        return how, (top, left, right, bottom)
    if how == "commuting":
        if over:
            del over[draw(st.integers(0, len(over) - 1))]
        else:
            how = "cartesian"
    top = _into(draw, hor, right.source, within=over, onto=how != "broken")
    lm = {x: under[rm[t]] for x, t in mapping_of(top).items()}
    a, c = top.source, bottom.source
    if how == "broken":
        if len(a) >= 2:
            lm[a[0]], lm[a[1]] = lm[a[1]], lm[a[0]]
        elif a and len(c) >= 2:
            lm[a[0]] = next(y for y in c if y != lm[a[0]])
        else:
            how = "cartesian" if len(a) == len(over) else "commuting"
    return how, (top, _forced(draw, ver, a, c, lm), right, bottom)


@settings(deadline=None, max_examples=300)
@given(squares(HorMor, VerMor))
def test_classify_mixed_agrees_with_the_dict_reference(square):
    how, sq = square
    got = INST.classify_mixed(*sq)
    assert got is classify_mixed_reference(*sq)
    expected = {
        "cartesian": SquareClass.CARTESIAN,
        "commuting": SquareClass.COMMUTING,
        "broken": SquareClass.NOT_SQUARE,
    }.get(how)
    assert expected is None or got is expected
    assert (got is not SquareClass.NOT_SQUARE) == hor_square_commutes_reference(*sq)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from((HorMor, VerMor)).flatmap(lambda t: squares(t, t)))
def test_square_commutes_agrees_with_the_dict_reference(square):
    how, sq = square
    got = INST.hor_square_commutes(*sq)
    assert got == INST.ver_square_commutes(*sq) == hor_square_commutes_reference(*sq)
    if how in ("cartesian", "commuting"):
        assert got
    elif how == "broken":
        assert not got


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_is_complement_pair_agrees_with_the_sets_reference(data):
    """Pairs whose second leg is onto the rest of the target, into it
    (a gap), drawn anywhere (an overlap), or into another object."""
    draw = data.draw
    c = _ids(draw)
    m = _into(draw, HorMor, c)
    rest = [x for x in c if x not in set(m.data[1])]
    how = draw(st.sampled_from(("onto", "into", "anywhere", "elsewhere")))
    if how == "elsewhere":
        e = _into(draw, VerMor, _ids(draw))
    elif how == "anywhere":
        e = _into(draw, VerMor, c)
    else:
        e = _into(draw, VerMor, c, within=rest, onto=how == "onto")
    got = INST.is_complement_pair(m, e)
    assert got == is_complement_pair_reference(m, e)
    assert got or how != "onto"


# ---------------------------------------------------------------------------
# Failures through literal inclusions keep their messages.
# ---------------------------------------------------------------------------

FLAVOURS = pytest.mark.parametrize("mor_type", [HorMor, VerMor], ids=["hor", "ver"])
BUILDS = pytest.mark.parametrize("how", ["instance", "by hand"])
AMB = finset_obj("abcd")


def _message(exc_type, fn, *args):
    with pytest.raises(exc_type) as info:
        fn(*args)
    return str(info.value)


@BUILDS
@FLAVOURS
def test_factor_through_an_inclusion_names_the_first_pair_outside(mor_type, how):
    factor = INST.factor_hor if mor_type is HorMor else INST.factor_ver
    through = _literal(mor_type, finset_obj("ab"), AMB, how)
    relabelled = mor_type(finset_obj("pqr"), AMB, (("p", "q", "r"), ("a", "c", "d")))
    assert _message(FactorizationError, factor, relabelled, through) == (
        "no factorization: q lands at c, outside the image of the given morphism"
    )
    included = _literal(mor_type, finset_obj("acd"), AMB, how)
    assert _message(FactorizationError, factor, included, through) == (
        "no factorization: c lands at c, outside the image of the given morphism"
    )
    elsewhere = _literal(mor_type, finset_obj("a"), finset_obj("ab"), how)
    assert _message(FactorizationError, factor, elsewhere, through) == (
        "factorization targets differ: {a b} vs {a b c d}"
    )


@BUILDS
@FLAVOURS
def test_compose_with_an_inclusion_names_the_mismatch(mor_type, how):
    compose = INST.compose_hor if mor_type is HorMor else INST.compose_ver
    f = _literal(mor_type, finset_obj("a"), finset_obj("ac"), how)
    g = _literal(mor_type, finset_obj("ab"), AMB, how)
    assert _message(CompositionError, compose, f, g) == "cannot compose: {a c} != {a b}"


@BUILDS
@FLAVOURS
def test_chase_between_inclusions_names_the_first_element_outside(mor_type, how):
    other = VerMor if mor_type is HorMor else HorMor
    chase = INST.hor_between_cokers if mor_type is HorMor else INST.ver_between_kernels
    mor = _literal(mor_type, finset_obj("abc"), AMB, how)
    p_leg = _literal(other, finset_obj("bc"), mor.source, how)
    q_leg = _literal(other, finset_obj("c"), AMB, how)
    verb = "descend" if mor_type is HorMor else "restrict"
    assert _message(FactorizationError, chase, mor, p_leg, q_leg) == (
        f"morphism does not {verb} to complements: image of b is b, "
        "not in the target complement"
    )
    stray = _literal(other, finset_obj("c"), finset_obj("cd"), how)
    assert _message(FactorizationError, chase, mor, p_leg, stray) == (
        f"complement presentations do not match {'m' if mor_type is HorMor else 'e'}"
    )


@BUILDS
def test_mixed_pullback_of_an_inclusion_needs_a_shared_target(how):
    m = _literal(HorMor, finset_obj("ab"), finset_obj("abc"), how)
    e = _literal(VerMor, finset_obj("a"), finset_obj("ab"), how)
    assert _message(FactorizationError, INST.mixed_pullback, m, e) == (
        "mixed pullback needs a shared target: {a b c} vs {a b}"
    )


@BUILDS
@FLAVOURS
def test_chase_along_inclusions_names_the_first_element_where_the_level_is_undefined(
    mor_type, how
):
    # a leg that maps outside its target, as in a document not yet validated
    other = VerMor if mor_type is HorMor else HorMor
    chase = INST.hor_between_cokers if mor_type is HorMor else INST.ver_between_kernels
    level = _literal(mor_type, finset_obj("ab"), finset_obj("abc"), how)
    p_leg = _literal(other, finset_obj("abc"), finset_obj("ab"), how)
    q_leg = _literal(other, finset_obj("abc"), finset_obj("abc"), how)
    verb = "descend" if mor_type is HorMor else "restrict"
    assert _message(FactorizationError, chase, level, p_leg, q_leg) == (
        f"morphism does not {verb} to complements: it is undefined at c, the image of c"
    )


# ---------------------------------------------------------------------------
# Morphisms read by the primitives stay the same values.
# ---------------------------------------------------------------------------


@st.composite
def _loosened(draw, mor):
    """``mor``, or ``mor`` with its payload emptied, with its sources
    renamed off its source, with pairs dropped, or with pairs drawn on its
    ids and on ids outside its objects."""
    how = draw(st.sampled_from(("as it is", "no payload", "renamed", "dropped", "drawn")))
    if how == "as it is":
        return mor
    if how == "no payload":
        return type(mor)(mor.source, mor.target, ())
    if how == "renamed":
        sources, images = mor.data
        return type(mor)(mor.source, mor.target, (tuple(x + "'" for x in sources), images))
    if how == "dropped":
        keep = [draw(st.booleans()) for _ in mor.data[0]]
        data = tuple(tuple(compress(part, keep)) for part in mor.data)
        return type(mor)(mor.source, mor.target, data)
    ids = st.sampled_from([*mor.source, *STRAY_IDS])
    sources = tuple(draw(st.lists(ids, unique=True, max_size=8)))
    size = len(sources)
    targets = st.sampled_from([*mor.target, *STRAY_IDS])
    images = tuple(draw(st.lists(targets, min_size=size, max_size=size)))
    return type(mor)(mor.source, mor.target, (sources, images))


def _chase_outcome(chase, *args):
    try:
        return chase(*args)
    except (FactorizationError, ValueError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_chase_agrees_with_the_dict_reference(data):
    """A bar level forced along valid legs and levels, one of them maybe
    loosened as in a document not yet validated, is the one the dict
    reference gives, or fails with its error and message."""
    draw = data.draw
    mor_type = draw(st.sampled_from((HorMor, VerMor)))
    leg_type = VerMor if mor_type is HorMor else HorMor
    level = _into(draw, mor_type, _ids(draw))
    src_leg = _into(draw, leg_type, level.source)
    tgt_leg = _into(draw, leg_type, level.target)
    args = [level, src_leg, tgt_leg]
    loose = draw(st.integers(0, 2))
    args[loose] = draw(_loosened(args[loose]))
    chase = INST.hor_between_cokers if mor_type is HorMor else INST.ver_between_kernels
    assert _chase_outcome(chase, *args) == _chase_outcome(lift_hor_bar_reference, *args)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_meets_trivially_is_an_initial_pullback_corner(data):
    """Cospans whose second leg lies in the rest of the target or is drawn
    anywhere in it, and whose first leg may be a complement leg, which
    reads membership through the image it complements."""
    draw = data.draw
    c = _ids(draw)
    if draw(st.booleans()):
        _, m = INST.coker(_into(draw, VerMor, c))
    else:
        m = _into(draw, HorMor, c)
    rest = [x for x in c if x not in set(m.data[1])]
    e = _into(draw, VerMor, c, within=rest if draw(st.booleans()) else None)
    got = INST.meets_trivially(m, e)
    assert got == INST.is_initial(INST.mixed_pullback(m, e).corner)
    assert got == set(m.data[1]).isdisjoint(e.data[1])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_mixed_pullback_reads_a_complement_leg_through_the_set_it_keeps(data):
    draw = data.draw
    c = _ids(draw)
    _, m = INST.coker(_into(draw, VerMor, c))
    e = _into(draw, VerMor, c)
    sq = INST.mixed_pullback(m, e)
    # the leg's image is the rest of its target: no image set is built
    assert finset._KEPT in vars(m) and finset._IMAGE not in vars(m)
    got = (sq.corner, sq.to_epi_source, sq.to_mono_source)
    assert got == SORTED_FINSET["mixed_pullback"](m, e)


def _use(mor):
    """Run every primitive that reads the maps of a horizontal ``mor``."""
    _, leg = INST.coker(mor)
    INST.ker(leg)
    INST.is_complement_pair(mor, leg)
    sq = INST.mixed_pullback(mor, leg)
    INST.classify_mixed(sq.to_epi_source, sq.to_mono_source, sq.epi, sq.mono)
    INST.factor_hor(mor, mor)
    INST.compose_hor(INST.id_hor(mor.source), mor)
    INST.compose_hor(mor, INST.id_hor(mor.target))
    INST.hor_square_commutes(mor, INST.id_hor(mor.source), INST.id_hor(mor.target), mor)
    INST.hor_between_cokers(mor, INST.zero_ver(mor.source), INST.zero_ver(mor.target))
    INST.flat_key(INST.id_ver(mor.source), mor)
    apply_to(mor, mor.source[0])
    return leg


@pytest.mark.parametrize("how", ["instance", "by hand", "relabelled"])
def test_primitives_leave_a_morphism_the_same_value(how):
    if how == "relabelled":
        m = HorMor(finset_obj("pq"), AMB, (("p", "q"), ("b", "c")))
    else:
        m = _literal(HorMor, finset_obj("ab"), AMB, how)
    twin = HorMor(m.source, m.target, m.data)
    before = (repr(m), hash(m))
    leg = _use(m)
    assert (repr(m), hash(m)) == before
    assert m == twin and twin == m
    # mapping_of hands out a fresh dict: clearing it changes no answer
    assert mapping_of(m) is not mapping_of(m)
    mapping_of(m).clear()
    assert INST.factor_hor(m, m) == INST.factor_hor(twin, twin)
    assert INST.coker(m) == INST.coker(twin)
    leg_twin = VerMor(leg.source, leg.target, leg.data)
    # the leg keeps the image of m, beside its declared fields
    assert vars(leg)[finset._KEPT] == frozenset(m.data[1])
    assert (leg == leg_twin, hash(leg), repr(leg)) == (True, hash(leg_twin), repr(leg_twin))
    for mor, equal in ((m, twin), (leg, leg_twin)):
        # only the declared fields are pickled: a used morphism gives the
        # bytes of a fresh one
        fresh = type(mor)(mor.source, mor.target, mor.data)
        assert pickle.dumps(mor) == pickle.dumps(fresh)
        assert vars(copy.copy(mor)).keys() == vars(fresh).keys()
        for copied in (
            pickle.loads(pickle.dumps(mor)),
            copy.copy(mor),
            copy.deepcopy(mor),
            replace(mor),
        ):
            assert type(copied) is type(equal) and copied == equal
            assert finset._KEPT not in vars(copied)
            assert (repr(copied), hash(copied)) == (repr(equal), hash(equal))
            assert INST.coker(copied) == INST.coker(equal)
            assert INST.factor_hor(copied, copied) == INST.factor_hor(equal, equal)
            assert INST.compose_hor(copied, INST.id_hor(equal.target)) == equal


def test_a_replaced_morphism_computes_from_its_own_pairs():
    m = _literal(HorMor, finset_obj("ab"), AMB)
    _use(m)
    moved = replace(m, source=("x",), data=(("x",), ("d",)))
    assert INST.coker(moved) == SORTED_FINSET["coker"](moved)
    assert _message(FactorizationError, INST.factor_hor, moved, m) == (
        "no factorization: x lands at d, outside the image of the given morphism"
    )
    wider = replace(m, source=finset_obj("abd"), data=(finset_obj("abd"), finset_obj("abd")))
    assert INST.factor_hor(m, wider) == HorMor(finset_obj("ab"), finset_obj("abd"), m.data)


# ---------------------------------------------------------------------------
# Document lines: one match per line, the per-token messages on failure.
# ---------------------------------------------------------------------------

#: id characters, the pair arrow's two characters, whitespace that
#: ``str.split`` splits on, and characters an id may not hold
LINE_CHARS = "ab9_.+-> \t\n\x0b\x0c\x1c\x85\xa0\u2003\u3000!<é\u200b"
PAIR_TOKENS = ("a->b", "b->a", "a-->b", "a->-b", "-->-", "a->", "->b", "a->b->c", "a>b", "a")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return exc.problems


#: whitespace runs between the tokens of a line
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", " \t", "\u3000"])


def _joined(tokens):
    """``tokens`` on one line, each gap and either end a separator of its
    own."""
    return st.lists(SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1).map(
        lambda seps: "".join(chain.from_iterable(zip(seps, tokens))) + seps[-1]
    )


#: ids of canonical pair lines, "a" and "b" among them so that some
#: lines are total on the reader's source
PAIR_IDS = ["a", "b", "b-c", "9", "10", "_"]


# the reader's source ("a", "b") spelled as its inclusion, then near
# misses: an image changed, a pair missing, a pair added, a doubled
# space, a tab, end spaces, and a first pair that matches before a rest
# that does not
@settings(deadline=None, max_examples=300)
@example("a->a b->b")
@example("a->a b->a")
@example("a->a")
@example("a->a b->b 9->9")
@example("a->a  b->b")
@example("a->a\tb->b")
@example(" a->a b->b ")
@example("a->ab->b")
@example("a->a b->b!")
@example("a->a b->b->b")
@given(
    st.one_of(
        st.text(alphabet=LINE_CHARS, max_size=24),
        st.lists(
            st.one_of(st.sampled_from(PAIR_TOKENS), st.text(alphabet=LINE_CHARS, max_size=5)),
            max_size=6,
        ).flatmap(lambda ts: st.sampled_from([" ", "  ", "\t", "\xa0"]).map(lambda sp: sp.join(ts))),
        # a canonical object line: sorted, unique ids in mixed whitespace
        st.lists(st.sampled_from(NUMERIC_IDS + ["a", "b-c", "_"]), unique=True, max_size=8)
        .map(sorted)
        .flatmap(_joined),
        # a canonical pair line: sorted, unique sources mapped to
        # themselves or relabelled, in mixed whitespace
        st.lists(st.sampled_from(PAIR_IDS), unique=True, max_size=len(PAIR_IDS))
        .map(sorted)
        .flatmap(
            lambda sources: st.one_of(
                st.just(sources), st.permutations(PAIR_IDS).map(lambda ids: ids[: len(sources)])
            ).map(lambda images: list(map("{}->{}".format, sources, images)))
        )
        .flatmap(_joined),
    )
)
def test_line_readers_agree_with_the_per_token_loop(text):
    # the reader's source ("a", "b") is among the canonical pair lines
    assert _outcome(INST.obj_from_text, text) == _outcome(obj_from_text_per_token, text)
    src, tgt = finset_obj("ab"), finset_obj("ab")
    got = _outcome(INST.mor_from_text, HorMor, src, tgt, text)
    assert got == _outcome(mor_from_text_per_token, HorMor, src, tgt, text)
    if isinstance(got, HorMor) and got.data == (src, src):
        # a spelled inclusion, in any whitespace, shares its source tuple
        assert got.data[0] is got.data[1] is src


def test_a_canonical_inclusion_line_reads_as_its_source_tuple():
    src, tgt = finset_obj("abc"), finset_obj("abcd")
    got = INST.mor_from_text(HorMor, src, tgt, " a->a\tb->b\xa0 c->c ")
    assert got.data[0] is got.data[1] is src
    copied = HorMor(src, tgt, (tuple([*src]), tuple([*src])))
    assert got == copied and hash(got) == hash(copied) and repr(got) == repr(copied)
    assert INST.mor_text(got) == INST.mor_text(copied) == "a->a b->b c->c"
    assert INST.mor_text(got, leg=True) is INST.mor_text(copied, leg=True) is None
    # a partial inclusion shares one tuple; a relabelling shares its sources
    part = INST.mor_from_text(HorMor, src, tgt, "a->a c->c")
    assert part.data[0] is part.data[1] and part.data[0] == ("a", "c")
    moved = INST.mor_from_text(VerMor, src, tgt, "a->b b->c c->d")
    assert moved.data[0] is src and moved.data[1] == ("b", "c", "d")
    # a level line of a document, written back as it was read
    text = corpus_text("three_term_ses")
    doc = parse(text)
    level = doc.hor_named("f").level(1)
    assert level.data[0] is level.data[1] is level.source
    assert "  level 1: c->c\n" in serialize(doc)
    assert parse(serialize(doc)) == doc


@pytest.mark.parametrize(
    "text,problem",
    [
        ("a->x a->y !", "repeated pair source 'a'"),
        ("a->x ! a->y", "bad pair '!' (want src->tgt)"),
        ("a->x b->y->z c", "bad pair 'b->y->z' (want src->tgt)"),
        ("a->x\xa0a->y", "repeated pair source 'a'"),
    ],
)
def test_pair_line_reports_the_first_bad_token(text, problem):
    src = finset_obj("abc")
    assert _outcome(INST.mor_from_text, HorMor, src, src, text) == [problem]


@pytest.mark.parametrize(
    "text,problem",
    [
        ("a b! c!", "bad id 'b!'"),
        ("a\u200bb", "bad id " + repr("a\u200bb")),
        ("aéb", "bad id 'aéb'"),
        ("a->b", "bad id 'a->b'"),
    ],
)
def test_object_line_reports_the_first_bad_id(text, problem):
    assert _outcome(INST.obj_from_text, text) == [problem]
