"""Weak and strong snake constructions and long exact sequences."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgw import (
    AcgwError,
    CapabilityError,
    ChainSES,
    GenConfig,
    HorChainMor,
    LinearInstance,
    gen_ses,
    gen_snake_strong,
    gen_snake_weak,
    les_of_ses,
    ses_from_injection,
    snake_strong,
    snake_weak,
    validate_chain_ses,
    validate_snake_strong,
    validate_snake_weak,
    validate_zigzag,
    zigzag_exactness,
    zigzag_is_exact,
)
from acgw.finset import mapping_of

from conftest import INSTANCES, PRIMES, corpus_doc
from reference import _relabel_complex, connecting_object_dual, weak_closed_forms


# ---------------------------------------------------------------------------
# Corpus instances.
# ---------------------------------------------------------------------------


def test_corpus_weak_snake_zigzag():
    doc = corpus_doc("snake_weak_small")
    inp = doc.snake_weak_named("S")
    assert validate_snake_weak(inp) == []
    zz = snake_weak(inp)
    assert validate_zigzag(zz) == []
    assert zz.objects == (
        ("a2",), ("a2", "c1"), ("c1",), (), ("b1",), ("b1",),
    )
    assert tuple(t.obj for t in zz.transitions) == (
        ("a2",), ("c1",), (), (), ("b1",),
    )
    assert zigzag_exactness(zz) == [True] * 6
    assert zigzag_is_exact(zz)
    assert zz.labels[0] == "ker of left column"
    assert zz.labels[-1] == "coker of right column"
    d, w, d_prime = weak_closed_forms(inp)
    assert set(zz.transitions[1].obj) == d
    assert set(zz.transitions[2].obj) == w
    assert set(zz.transitions[3].obj) == d_prime
    assert zz.transitions[2].obj == connecting_object_dual(inp)


def test_corpus_les_three_term():
    doc = corpus_doc("three_term_ses")
    ses = doc.ses_named("S")
    zz = les_of_ses(ses)
    assert zigzag_is_exact(zz)
    by_label = dict(zip(zz.labels, zz.objects))
    assert by_label["H_2(quot)"] == ("c",)
    assert by_label["H_1(sub)"] == ("c",)
    assert by_label["H_1(total)"] == ("d",)
    assert by_label["H_1(quot)"] == ("d",)
    # The connecting transition between them carries the class of c.
    idx = zz.labels.index("H_2(quot)")
    conn = zz.transitions[idx]
    assert conn.obj == ("c",)
    assert zz.transition_labels[idx] == "connecting 2 to 1"


def test_corpus_les_inclusion_pair():
    doc = corpus_doc("inclusion_pair")
    zz = les_of_ses(doc.ses_named("S"))
    assert zigzag_is_exact(zz)
    by_label = dict(zip(zz.labels, zz.objects))
    assert by_label["H_3(quot)"] == ("a",)
    assert by_label["H_2(sub)"] == ("a",)
    assert by_label["H_2(total)"] == ()


# ---------------------------------------------------------------------------
# Generated snake inputs.
# ---------------------------------------------------------------------------


def _assert_closed_forms(zz, instance, set_inp):
    """The middle transition objects of ``zz`` are the closed forms of the
    weak set input ``set_inp``: literally on sets, in size on ``F_p``."""
    forms = weak_closed_forms(set_inp)
    middle = [t.obj for t in zz.transitions[1:4]]
    assert list(map(zz.inst.obj_size, middle)) == list(map(len, forms))
    if instance == "set":
        assert list(map(set, middle)) == list(forms)


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_weak_snake_property(instance, seed, prime):
    cfg = GenConfig(seed=seed, max_size=6)
    inp = gen_snake_weak(replace(cfg, instance=instance, prime=prime))
    assert validate_snake_weak(inp) == []
    zz = snake_weak(inp)
    assert validate_zigzag(zz) == []
    assert zigzag_is_exact(zz)
    _assert_closed_forms(zz, instance, gen_snake_weak(cfg))
    assert zz.transitions[2].obj == connecting_object_dual(inp)


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_strong_snake_property(instance, seed, prime):
    cfg = GenConfig(seed=seed, max_size=6)
    inp = gen_snake_strong(replace(cfg, instance=instance, prime=prime))
    assert validate_snake_strong(inp) == []
    zz = snake_strong(inp)
    assert validate_zigzag(zz) == []
    assert zigzag_is_exact(zz)
    # Ends are not claimed exact, interior positions are.
    assert zz.non_exact_positions == frozenset({0, 5})
    _assert_closed_forms(zz, instance, gen_snake_strong(cfg).inner_weak())
    assert zz.transitions[2].obj == connecting_object_dual(inp.inner_weak())


def test_strong_end_positions_can_fail_exactness():
    # The exactness list may be False at the unclaimed end positions, and
    # zigzag_is_exact must ignore exactly those.
    for seed in range(40):
        zz = snake_strong(gen_snake_strong(GenConfig(seed=seed, max_size=6)))
        flags = zigzag_exactness(zz)
        assert all(
            flags[j] for j in range(len(flags)) if j not in zz.non_exact_positions
        )


# ---------------------------------------------------------------------------
# Long exact sequences from generated short exact sequences.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_les_property(seed):
    ses = gen_ses(GenConfig(seed=seed))
    zz = les_of_ses(ses)
    assert validate_zigzag(zz) == []
    assert zigzag_is_exact(zz)
    lo, hi = ses.sub.source.lo, ses.sub.source.hi
    blocks = (hi + 1) - lo + 1
    assert len(zz.objects) == 3 * blocks + 3
    assert zz.labels[0] == f"H_{hi + 1}(sub)"
    assert zz.labels[-1] == f"H_{lo - 1}(quot)"


def test_les_rejects_instances_without_canonical_subobjects():
    L = LinearInstance(p=2)
    from acgw import ChainComplex, HorChainMor, Transition

    v1 = L.obj(1)
    x = ChainComplex(L, 0, 0, (L.obj(0),), ())
    y = ChainComplex(L, 0, 0, (v1,), ())
    f = HorChainMor(x, y, (L.zero_hor(v1),), ())
    with pytest.raises(CapabilityError):
        les_of_ses(ses_from_injection(f))


def test_les_rejects_non_inclusion_levels():
    # Every id of the sub-complex renamed: a valid short exact sequence
    # whose sub levels are not literal inclusions.
    ses = gen_ses(GenConfig(seed=5))
    inst, x, y = ses.sub.source.inst, ses.sub.source, ses.sub.target
    names = {i: {v: f"renamed.{v}" for v in x.obj(i)} for i in x.degrees()}
    bar_names = {
        i: {v: f"renamed.{v}" for v in x.transition(i).obj} for i in x.transition_degrees()
    }
    renamed = _relabel_complex(x, names, bar_names)
    sub = HorChainMor(
        renamed,
        y,
        tuple(
            inst.hor(
                renamed.obj(i),
                y.obj(i),
                {names[i][a]: b for a, b in mapping_of(ses.sub.level(i)).items()},
            )
            for i in x.degrees()
        ),
        tuple(
            inst.hor(
                renamed.transition(i).obj,
                y.transition(i).obj,
                {bar_names[i][a]: b for a, b in mapping_of(ses.sub.bar_level(i)).items()},
            )
            for i in x.transition_degrees()
        ),
    )
    renamed_ses = ChainSES(sub, ses.quot)
    assert validate_chain_ses(renamed_ses) == []
    with pytest.raises(CapabilityError, match="literal inclusion levels"):
        les_of_ses(renamed_ses)


def test_les_rejects_a_generated_linear_ses():
    ses = gen_ses(GenConfig(seed=5, instance="linear", prime=3))
    assert validate_chain_ses(ses) == []
    with pytest.raises(CapabilityError, match="canonical subobjects"):
        les_of_ses(ses)


WEAK_ORDER = (
    "top_mono",
    "mid_mono",
    "bot_mono",
    "left_down",
    "mid_down",
    "right_down",
    "top_epi",
    "mid_epi",
    "bot_epi",
    "left_up",
    "mid_up",
    "right_up",
)


def _all_partial(inp):
    """``inp`` with every morphism replaced by one that is not total."""
    fields = {
        name: type(value)(("a",), ("a",), ((), ()))
        for name, value in vars(inp).items()
        if name != "inst"
    }
    return replace(inp, **fields)


def test_snake_validators_report_morphisms_in_a_fixed_order():
    partial = "morphism is not total on its source: defined on [], source is ['a']"
    weak = _all_partial(gen_snake_weak(GenConfig(seed=0)))
    assert validate_snake_weak(weak) == [f"{name}: {partial}" for name in WEAK_ORDER]
    strong = _all_partial(gen_snake_strong(GenConfig(seed=0)))
    assert validate_snake_strong(strong) == [
        f"restrict_to_top: {partial}",
        f"left_up: {partial}",
        f"extend_to_bot: {partial}",
    ] + [f"inner: {name}: {partial}" for name in WEAK_ORDER]
