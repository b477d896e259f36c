"""Weak and strong snake constructions and long exact sequences."""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgw import (
    ChainComplex,
    ChainSES,
    GenConfig,
    HorChainMor,
    LinearInstance,
    Transition,
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
from reference import (
    connecting_object_dual,
    rank_zigzag_exactness_reference,
    renamed_sub,
    weak_closed_forms,
)


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


def test_les_of_a_one_degree_linear_pair():
    # The pair (F_2, 0) in one degree: its homology is all in the total and
    # quotient complexes at degree 0.
    L = LinearInstance(p=2)
    v1 = L.obj(1)
    x = ChainComplex(L, 0, 0, (L.obj(0),), ())
    y = ChainComplex(L, 0, 0, (v1,), ())
    zz = les_of_ses(ses_from_injection(HorChainMor(x, y, (L.zero_hor(v1),), ())))
    assert validate_zigzag(zz) == [] and zigzag_is_exact(zz)
    assert [L.obj_size(obj) for obj in zz.objects] == [0, 0, 0, 0, 1, 1, 0, 0, 0]


def _renamed(ses):
    """``ses`` with every id of the sub-complex renamed: a valid short
    exact sequence on sets whose sub levels are not literal inclusions."""
    return ChainSES(renamed_sub(ses.sub), ses.quot)


def test_les_of_renamed_levels():
    ses = gen_ses(GenConfig(seed=5))
    renamed = _renamed(ses)
    assert validate_chain_ses(renamed) == []
    zz, ref = les_of_ses(renamed), les_of_ses(ses)
    assert validate_zigzag(zz) == [] and zigzag_is_exact(zz)
    # the total and quotient complexes are the same, and the sub-complex's
    # homology is the renamed one
    assert zz.objects[1::3] == ref.objects[1::3] and zz.objects[2::3] == ref.objects[2::3]
    assert [set(h) for h in zz.objects[::3]] == [
        {f"renamed.{v}" for v in h} for h in ref.objects[::3]
    ]
    assert zz.labels == ref.labels and zz.transition_labels == ref.transition_labels


def test_les_of_a_generated_linear_ses():
    ses = gen_ses(GenConfig(seed=5, instance="linear", prime=3))
    assert validate_chain_ses(ses) == []
    zz = les_of_ses(ses)
    assert validate_zigzag(zz) == [] and zigzag_is_exact(zz)
    assert zz.labels == les_of_ses(gen_ses(GenConfig(seed=5))).labels
    conn = zz.transitions[zz.transition_labels.index("connecting 4 to 3")]
    assert zz.inst.obj_size(conn.obj) == 1


def _sizes(zz):
    size = zz.inst.obj_size
    return [size(obj) for obj in zz.objects], [size(t.obj) for t in zz.transitions]


@pytest.mark.parametrize("variant", ["linear", "renamed"])
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_les_property_on_any_levels(variant, seed, prime):
    # a linear SES, or a set SES whose sub levels are not literal
    # inclusions, has an exact LES of the sizes of the set LES of its seed
    cfg = GenConfig(seed=seed)
    if variant == "linear":
        ses = gen_ses(replace(cfg, instance="linear", prime=prime))
    else:
        ses = _renamed(gen_ses(cfg))
    zz = les_of_ses(ses)
    assert validate_zigzag(zz) == []
    assert zigzag_is_exact(zz)
    assert _sizes(zz) == _sizes(les_of_ses(gen_ses(cfg)))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_les_connecting_object_closed_form(seed):
    # On literal subsets, the connecting step at degree i keeps the
    # transition elements of Y at i whose upper image lies outside X_i and
    # whose lower image lies in X_{i-1}.
    ses = gen_ses(GenConfig(seed=seed, max_size=12))
    x, y = ses.sub.source, ses.sub.target
    zz = les_of_ses(ses)
    for i in range(x.hi + 1, x.lo - 1, -1):
        conn = zz.transitions[zz.transition_labels.index(f"connecting {i} to {i - 1}")]
        t = y.transition(i)
        up, low = mapping_of(t.into_upper), mapping_of(t.into_lower)
        assert set(conn.obj) == {
            e for e in t.obj if up[e] not in x.obj(i) and low[e] in x.obj(i - 1)
        }


def _zeroed_copies(zz):
    """``zz`` with one nonzero transition replaced by the zero transition
    between the same objects, for each nonzero transition in turn."""
    inst = zz.inst
    for j, t in enumerate(zz.transitions):
        if not inst.is_initial(t.obj):
            zero = Transition(
                inst.initial(), inst.zero_ver(zz.objects[j]), inst.zero_hor(zz.objects[j + 1])
            )
            yield replace(zz, transitions=zz.transitions[:j] + (zero,) + zz.transitions[j + 1 :])


@pytest.mark.parametrize(
    "prime", [None, 2, 7, 65521, 2**31 - 1], ids=lambda p: f"F{p}" if p else "set"
)
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_les_exactness_agrees_with_the_rank_reference(prime, seed):
    # The structural verdict and the verdict by ranks of the flattened
    # transitions agree at every position, on the LES and on copies that
    # lose one nonzero step and so are not exact.  No prime means sets.
    cfg = GenConfig(seed=seed)
    if prime is not None:
        cfg = replace(cfg, instance="linear", prime=prime)
    zz = les_of_ses(gen_ses(cfg))
    assert rank_zigzag_exactness_reference(zz) == zigzag_exactness(zz) == [True] * len(zz.objects)
    for copy in _zeroed_copies(zz):
        verdict = zigzag_exactness(copy)
        assert rank_zigzag_exactness_reference(copy) == verdict
        assert not all(verdict)


@pytest.mark.parametrize("build", [snake_weak, snake_strong], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "prime", [None, 2, 7, 65521, 2**31 - 1], ids=lambda p: f"F{p}" if p else "set"
)
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_snake_exactness_agrees_with_the_rank_reference(build, prime, seed):
    # As for the LES: the two verdicts agree at every position of a weak
    # or strong snake and of its copies that lose one nonzero step, and the
    # snake is exact wherever it claims to be.  No prime means sets.
    cfg = GenConfig(seed=seed)
    if prime is not None:
        cfg = replace(cfg, instance="linear", prime=prime)
    gen = gen_snake_weak if build is snake_weak else gen_snake_strong
    zz = build(gen(cfg))
    verdict = zigzag_exactness(zz)
    assert rank_zigzag_exactness_reference(zz) == verdict
    assert all(ok for j, ok in enumerate(verdict) if j not in zz.non_exact_positions)
    for copy in _zeroed_copies(zz):
        verdict = zigzag_exactness(copy)
        assert rank_zigzag_exactness_reference(copy) == verdict
        assert not all(verdict)


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


@pytest.mark.parametrize(
    "gen,check",
    [(gen_snake_weak, validate_snake_weak), (gen_snake_strong, validate_snake_strong)],
)
@pytest.mark.parametrize("instance", ["set", "linear"])
def test_snake_inputs_keep_their_problems_out_of_pickles_and_copies(gen, check, instance):
    inp = gen(GenConfig(seed=3, instance=instance, prime=3))
    fresh = replace(inp)
    problems = check(inp)
    # checked once per object; the list sits beside the declared fields
    assert problems == [] and check(inp) is problems
    assert len(vars(inp)) == len(vars(fresh)) + 1
    assert inp == fresh and repr(inp) == repr(fresh)
    assert pickle.dumps(inp) == pickle.dumps(fresh)
    for copied in (pickle.loads(pickle.dumps(inp)), copy.copy(inp), copy.deepcopy(inp)):
        assert type(copied) is type(inp) and copied == inp
        assert vars(copied).keys() == vars(fresh).keys()
        assert check(copied) == [] and check(copied) is not problems
