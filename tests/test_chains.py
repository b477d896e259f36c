"""Chain complexes, chain morphisms, and short exact sequences."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgw import (
    ChainComplex,
    ChainMap,
    CompositionError,
    FinSetInstance,
    GenConfig,
    HorChainMor,
    HorMor,
    LinearInstance,
    Transition,
    VerChainMor,
    VerMor,
    chain_map_of_hor,
    chain_map_of_ver,
    coker_hor,
    compose_chain_maps,
    finset_obj,
    gen_chain_map,
    gen_complex,
    gen_hor_mor,
    gen_ver_mor,
    id_chain_map,
    id_hor_chain,
    id_ver_chain,
    is_inclusion_mor,
    ker_ver,
    ses_from_injection,
    ses_from_projection,
    validate_chain_map,
    validate_chain_ses,
    validate_complex,
    validate_hor_chain_mor,
    validate_ver_chain_mor,
)

INST = FinSetInstance()


def two_step_complex() -> ChainComplex:
    """Degrees 1..3 with one cancelling pair per transition:
    X_1 = {b}, X_2 = {a, b}, X_3 = {a}."""
    x1 = finset_obj(["b"])
    x2 = finset_obj(["a", "b"])
    x3 = finset_obj(["a"])
    t2 = Transition(
        finset_obj(["b"]),
        INST.inclusion_ver(finset_obj(["b"]), x2),
        INST.inclusion_hor(finset_obj(["b"]), x1),
    )
    t3 = Transition(
        finset_obj(["a"]),
        INST.inclusion_ver(finset_obj(["a"]), x3),
        INST.inclusion_hor(finset_obj(["a"]), x2),
    )
    return ChainComplex(INST, 1, 3, (x1, x2, x3), (t2, t3))


# ---------------------------------------------------------------------------
# Complex accessors and validation.
# ---------------------------------------------------------------------------


def test_degrees_and_accessors():
    cx = two_step_complex()
    assert list(cx.degrees()) == [1, 2, 3]
    assert list(cx.transition_degrees()) == [2, 3]
    assert cx.obj(2) == ("a", "b")
    assert cx.obj(0) == INST.initial()
    assert cx.obj(99) == INST.initial()
    t = cx.transition(7)
    assert INST.is_initial(t.obj)
    assert t.into_upper.data == () and t.into_lower.data == ()


def test_empty_complex_is_valid():
    cx = ChainComplex(INST, 0, 0, (INST.initial(),), ())
    assert validate_complex(cx) == []
    assert list(cx.degrees()) == [0]


def test_validate_complex_accepts_good():
    assert validate_complex(two_step_complex()) == []


def test_validate_complex_flags_chain_condition():
    # Both transitions land on the same element of X_2: images overlap.
    x1 = finset_obj(["b"])
    x2 = finset_obj(["b"])
    x3 = finset_obj(["b"])
    t2 = Transition(
        finset_obj(["b"]),
        INST.inclusion_ver(finset_obj(["b"]), x2),
        INST.inclusion_hor(finset_obj(["b"]), x1),
    )
    t3 = Transition(
        finset_obj(["b"]),
        INST.inclusion_ver(finset_obj(["b"]), x3),
        INST.inclusion_hor(finset_obj(["b"]), x2),
    )
    cx = ChainComplex(INST, 1, 3, (x1, x2, x3), (t2, t3))
    assert any("disjoint" in p or "overlap" in p for p in validate_complex(cx))


def test_validate_complex_flags_bad_leg():
    x1 = finset_obj(["b"])
    x2 = finset_obj(["a"])
    t2 = Transition(
        finset_obj(["z"]),
        INST.ver(finset_obj(["z"]), x2, {"z": "a"}),
        INST.hor(finset_obj(["z"]), x1, {}),  # partial: z unmapped
    )
    cx = ChainComplex(INST, 1, 2, (x1, x2), (t2,))
    assert validate_complex(cx)


def test_validate_complex_flags_wrong_counts():
    cx = ChainComplex(INST, 1, 3, (finset_obj(["a"]),), ())
    assert validate_complex(cx)


# ---------------------------------------------------------------------------
# Chain morphisms.
# ---------------------------------------------------------------------------


def test_identity_chain_morphisms_validate():
    cx = two_step_complex()
    f = id_hor_chain(cx)
    g = id_ver_chain(cx)
    assert validate_hor_chain_mor(f) == []
    assert validate_ver_chain_mor(g) == []
    assert all(is_inclusion_mor(m) for m in f.levels)
    m = id_chain_map(cx)
    assert validate_chain_map(m) == []


def test_levels_outside_range_are_zero():
    cx = two_step_complex()
    f = id_hor_chain(cx)
    assert f.level(42).data == ()
    assert f.bar_level(-5).data == ()


def test_generated_morphisms_validate():
    for seed in range(25):
        assert validate_hor_chain_mor(gen_hor_mor(GenConfig(seed=seed))) == []
        assert validate_ver_chain_mor(gen_ver_mor(GenConfig(seed=seed))) == []
        assert validate_chain_map(gen_chain_map(GenConfig(seed=seed))) == []


def test_hor_chain_mor_validation_catches_broken_level():
    f = gen_hor_mor(GenConfig(seed=3))
    levels = dict(zip(f.source.degrees(), f.levels))
    i = next(d for d in f.source.degrees() if f.source.obj(d))
    bad_level = INST.hor(f.source.obj(i), f.target.obj(i), {})
    new_levels = tuple(
        bad_level if d == i else levels[d] for d in f.source.degrees()
    )
    broken = type(f)(f.source, f.target, new_levels, f.bar_levels)
    assert validate_hor_chain_mor(broken)


def test_is_inclusion_mor():
    amb = finset_obj(["a", "b"])
    assert is_inclusion_mor(INST.inclusion_hor(finset_obj(["a"]), amb))
    assert not is_inclusion_mor(INST.hor(finset_obj(["a"]), amb, {"a": "b"}))


# ---------------------------------------------------------------------------
# Complements of chain morphisms and short exact sequences.
# ---------------------------------------------------------------------------


def test_coker_of_inclusion_two_step():
    cx = two_step_complex()  # plays the ambient Y
    sub_objects = (finset_obj([]), finset_obj(["a"]), finset_obj([]))
    sub = ChainComplex(INST, 1, 3, sub_objects, (
        Transition(
            finset_obj([]),
            INST.zero_ver(sub_objects[1]),
            INST.zero_hor(sub_objects[0]),
        ),
        Transition(
            finset_obj([]),
            INST.zero_ver(sub_objects[2]),
            INST.zero_hor(sub_objects[1]),
        ),
    ))
    f = type(id_hor_chain(cx))(
        sub,
        cx,
        tuple(INST.inclusion_hor(sub.obj(i), cx.obj(i)) for i in cx.degrees()),
        tuple(INST.zero_hor(cx.transition(i).obj) for i in cx.transition_degrees()),
    )
    assert validate_hor_chain_mor(f) == []
    quot = coker_hor(f)
    assert validate_ver_chain_mor(quot) == []
    # Quotient objects are the literal complements {b}, {b}, {a}.
    assert [quot.source.obj(i) for i in (1, 2, 3)] == [("b",), ("b",), ("a",)]
    ses = ses_from_injection(f)
    assert validate_chain_ses(ses) == []


def test_ker_of_projection_round_trip():
    for seed in range(15):
        g = gen_ver_mor(GenConfig(seed=seed))
        sub = ker_ver(g)
        assert validate_hor_chain_mor(sub) == []
        ses = ses_from_projection(g)
        assert validate_chain_ses(ses) == []
        # Complement pair at every degree.
        for i in g.target.degrees():
            assert INST.is_complement_pair(ses.sub.level(i), ses.quot.level(i))


def test_ses_from_injection_levels_are_complements():
    for seed in range(15):
        f = gen_hor_mor(GenConfig(seed=seed))
        ses = ses_from_injection(f)
        assert validate_chain_ses(ses) == []
        for i in f.target.degrees():
            assert INST.is_complement_pair(ses.sub.level(i), ses.quot.level(i))


# ---------------------------------------------------------------------------
# Chain maps (spans) and their composition.
# ---------------------------------------------------------------------------


def test_chain_map_wrappers():
    f = gen_hor_mor(GenConfig(seed=1))
    m = chain_map_of_hor(f)
    assert m.source is f.source and m.target is f.target
    assert validate_chain_map(m) == []
    g = gen_ver_mor(GenConfig(seed=1))
    m2 = chain_map_of_ver(g)
    assert m2.source is g.target and m2.target is g.source
    assert validate_chain_map(m2) == []


def test_compose_chain_maps_identity_neutral():
    f = chain_map_of_hor(gen_hor_mor(GenConfig(seed=2)))
    left = compose_chain_maps(id_chain_map(f.source), f)
    assert validate_chain_map(left) == []
    right = compose_chain_maps(f, id_chain_map(f.target))
    assert validate_chain_map(right) == []


def test_compose_chain_maps_rejects_mismatch():
    f = chain_map_of_hor(gen_hor_mor(GenConfig(seed=2)))
    other = chain_map_of_hor(gen_hor_mor(GenConfig(seed=9)))
    if f.target != other.source:
        with pytest.raises(CompositionError):
            compose_chain_maps(f, other)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_generated_complexes_validate(seed):
    cx, _ = gen_complex(GenConfig(seed=seed))
    assert validate_complex(cx) == []


# ---------------------------------------------------------------------------
# Every message of the two chain-morphism validators, per flavour.
# ---------------------------------------------------------------------------

LIN = LinearInstance(3)
PQ, T = finset_obj("pq"), finset_obj("t")

#: per flavour: chain morphism class, morphism class, identity builder
FLAVOURS = {
    "hor": (HorChainMor, HorMor, id_hor_chain),
    "ver": (VerChainMor, VerMor, id_ver_chain),
}


def swap_complex(inst) -> tuple[ChainComplex, object]:
    """Degrees 1..2 on two ids (dim 2) with one transition element whose
    legs both hit the first, and the levelwise swap of the two."""
    if inst is INST:
        t = Transition(T, INST.ver(T, PQ, {"t": "p"}), INST.hor(T, PQ, {"t": "p"}))
        return ChainComplex(INST, 1, 2, (PQ, PQ), (t,)), (("p", "q"), ("q", "p"))
    two, one = LIN.obj(2), LIN.obj(1)
    t = Transition(one, LIN.ver(one, two, [[1, 0]]), LIN.hor(one, two, [[1], [0]]))
    return ChainComplex(LIN, 1, 2, (two, two), (t,)), ((0, 1), (1, 0))


def swapped(flavour: str, inst, degree: int):
    """The identity of :func:`swap_complex` with the swap at ``degree``:
    the square at degree 2 on that side does not commute."""
    _, mor, ident = FLAVOURS[flavour]
    cx, swap = swap_complex(inst)
    f = ident(cx)
    levels = list(f.levels)
    levels[degree - 1] = mor(cx.obj(degree), cx.obj(degree), swap)
    return replace(f, levels=tuple(levels))


def unlifted(flavour: str, inst):
    """Identity levels from a complex without transition elements into
    one with an identity transition; the bar level cannot reach it, so
    the distinguished square is not distinguished."""
    chain, mor, _ = FLAVOURS[flavour]
    o = LIN.obj(1) if inst is LIN else finset_obj("c")
    empty = ChainComplex(
        inst, 1, 2, (o, o), (Transition(inst.initial(), inst.zero_ver(o), inst.zero_hor(o)),)
    )
    full = ChainComplex(inst, 1, 2, (o, o), (Transition(o, inst.id_ver(o), inst.id_hor(o)),))
    if mor is HorMor:
        return chain(empty, full, (inst.id_hor(o),) * 2, (inst.zero_hor(o),))
    return chain(empty, full, (inst.id_ver(o),) * 2, (inst.zero_ver(o),))


def _set_case(flavour: str, case: str):
    chain, mor, ident = FLAVOURS[flavour]
    f = ident(swap_complex(INST)[0])
    if case == "ranges":
        return replace(f, target=ChainComplex(INST, 0, 0, ((),), ()))
    if case == "count":
        return replace(f, bar_levels=())
    if case == "level":
        return replace(f, levels=(mor(PQ, PQ, (("p", "p"), ("q", "p"))), f.levels[1]))
    if case == "bar_level":
        return replace(f, bar_levels=(mor(T, T, (("t", "z"),)),))
    if case == "level_endpoints":
        return replace(f, levels=(mor((), PQ, ()), f.levels[1]))
    if case == "bar_endpoints":
        return replace(f, bar_levels=(mor((), T, ()),))
    if case == "distinguished":
        return unlifted(flavour, INST)
    return swapped(flavour, INST, 1 if flavour == "hor" else 2)


VALIDATOR_MESSAGES = {
    "ranges": ["degree ranges differ: 1..2 vs 0..0"] * 2,
    "count": ["wrong number of levels or bar levels"] * 2,
    "level": ["level 1: morphism is not injective"] * 2,
    "bar_level": ["bar level 2: morphism maps outside its target: ['z']"] * 2,
    "level_endpoints": ["level 1 has wrong endpoints"] * 2,
    "bar_endpoints": ["bar level 2 has wrong endpoints"] * 2,
    "distinguished": [
        "upper square at degree 2 is not distinguished (COMMUTING)",
        "lower square at degree 2 is not distinguished (COMMUTING)",
    ],
    "commutes": [
        "lower square at degree 2 does not commute",
        "upper square at degree 2 does not commute",
    ],
}


def _validate(f) -> list[str]:
    if isinstance(f, HorChainMor):
        return validate_hor_chain_mor(f)
    return validate_ver_chain_mor(f)


@pytest.mark.parametrize("case", sorted(VALIDATOR_MESSAGES))
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_chain_mor_validator_messages(flavour, case):
    expected = VALIDATOR_MESSAGES[case][flavour == "ver"]
    assert _validate(_set_case(flavour, case)) == [expected]


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_chain_mor_square_messages_on_fp(flavour):
    hor = flavour == "hor"
    assert validate_hor_chain_mor(id_hor_chain(swap_complex(LIN)[0])) == []
    assert validate_ver_chain_mor(id_ver_chain(swap_complex(LIN)[0])) == []
    assert _validate(unlifted(flavour, LIN)) == [
        f"{'upper' if hor else 'lower'} square at degree 2 is not distinguished (NOT_SQUARE)"
    ]
    assert _validate(swapped(flavour, LIN, 1 if hor else 2)) == [
        f"{'lower' if hor else 'upper'} square at degree 2 does not commute"
    ]


def test_hor_and_ver_chain_morphisms_never_compare_equal():
    cx = swap_complex(INST)[0]
    hor, ver = HorChainMor(cx, cx, (), ()), VerChainMor(cx, cx, (), ())
    assert hor != ver and ver != hor
    assert hor == HorChainMor(cx, cx, (), ()) and hash(hor) == hash(HorChainMor(cx, cx, (), ()))
    assert repr(hor).startswith("HorChainMor(source=")
    assert repr(ver).startswith("VerChainMor(source=")
