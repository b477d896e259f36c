"""Instance primitives per call: each answer is computed once.

A delegating wrapper counts the primitive calls an instance receives, so
accidental extra work (a second route to the same answer) shows up as a
changed count.
"""

import argparse
import contextlib
import importlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from importlib.resources import files
from pathlib import Path
from unittest import mock

import pytest

import acgw
import acgw.finset as finset
import acgw.linear as linear

from acgw import (
    Document,
    FinSetInstance,
    GenConfig,
    HorMor,
    LinearInstance,
    SquareClass,
    gen_complex,
    homology,
    homology_size,
    les_of_ses,
    parse,
    qiso_iff_complement_exact,
    serialize,
    snake_weak,
    validate_document,
)
from acgw.cli import build_parser, main

from conftest import corpus_doc, corpus_text
from reference import rref_reference

PRIMITIVES = (
    "ker",
    "coker",
    "mixed_pullback",
    "classify_mixed",
    "factor_hor",
    "factor_ver",
    "hor_between_cokers",
    "ver_between_kernels",
    "compose_hor",
    "compose_ver",
    "validate_hor",
    "validate_ver",
    "validate_payload",
    "validate_obj",
    "is_complement_pair",
    "meets_trivially",
)


class CountingInstance:
    """Delegates every attribute to ``inner`` and counts primitive calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in PRIMITIVES:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def test_homology_calls_three_primitives():
    X = corpus_doc("inclusion_pair").complex_named("X")
    counting = CountingInstance(X.inst)
    assert homology(replace(X, inst=counting), 2).h == ("a",)
    # Computing both complement orders took 6 primitives.
    assert counting.calls == Counter(ker=1, factor_hor=1, coker=1)


def test_snake_weak_builds_the_connecting_object_once():
    inp = corpus_doc("snake_weak_small").snake_weak_named("S")
    counting = CountingInstance(inp.inst)
    zz = snake_weak(replace(inp, inst=counting))
    assert zz.transitions[2].obj == ()
    # Building the connecting object a second way took 27 primitives.
    assert sum(counting.calls.values()) == 25


def test_map_homology_computes_each_span_once(monkeypatch, capsys, tmp_path):
    path = tmp_path / "span_legs.acgw"
    path.write_text(corpus_text("span_legs"), encoding="utf-8")
    module = importlib.import_module("acgw.homology")
    calls = Counter()

    def counted(cx, i):
        calls[i] += 1
        return homology(cx, i)

    monkeypatch.setattr(module, "homology", counted)
    assert main(["map-homology", "--map", "F", str(path)]) == 0
    assert "quasi-isomorphism: yes" in capsys.readouterr().out
    # One span per degree, each from the homology of source and target;
    # recomputing every span for the verdict took 12.
    assert sum(calls.values()) == 6


def test_validate_document_checks_each_morphism_once(monkeypatch):
    counting = CountingInstance(FinSetInstance())
    monkeypatch.setattr(FinSetInstance, "from_header", classmethod(lambda cls, prime: counting))
    doc = parse(corpus_text("inclusion_pair"))
    counting.calls.clear()
    assert validate_document(doc) == []
    # The legs of X and Y (2 + 2 transitions, one hor and one ver leg
    # each) and the 3 levels and 2 bar levels of f, with one upper square
    # per transition of f.  The ses S is checked as f, its sub morphism;
    # validating the quotient of S as well took 18 checks and 4
    # classify_mixed calls, and validating f again as the sub morphism of
    # S took 23 checks and 6 classify_mixed calls.  Each morphism runs
    # between objects checked before it, so only its payload is checked.
    checks = ("validate_hor", "validate_ver", "validate_payload")
    assert sum(counting.calls[name] for name in checks) == counting.calls["validate_payload"] == 13
    assert counting.calls["classify_mixed"] == 2
    # The reader checked the objects of X and Y as it read them.  Checking
    # the 3 objects and 2 transition objects of the quotient took 5;
    # checking those of X and Y again as well took 15, and checking both
    # endpoints of every morphism 42.
    assert counting.calls["validate_obj"] == 0


def test_validate_document_builds_no_quotient(monkeypatch):
    counting = CountingInstance(FinSetInstance())
    monkeypatch.setattr(FinSetInstance, "from_header", classmethod(lambda cls, prime: counting))
    doc = parse(corpus_text("inclusion_pair"))
    counting.calls.clear()
    assert validate_document(doc) == []
    # A valid sub morphism has a valid quotient, so the ses section is
    # checked as its sub morphism.  Building the quotient of S and checking
    # it took 3 coker, 2 mixed_pullback, 2 factor_ver, 5 validate_obj and 3
    # is_complement_pair calls.
    built = ("coker", "mixed_pullback", "factor_ver", "validate_obj", "is_complement_pair")
    assert {name: counting.calls[name] for name in built} == dict.fromkeys(built, 0)


@pytest.mark.parametrize(
    "name", ["inclusion_pair", "span_legs", "three_term_ses", "linear_small", "snake_weak_small"]
)
def test_a_second_validate_document_checks_nothing_again(monkeypatch, name):
    inst = corpus_doc(name).inst
    counting = CountingInstance(inst)
    monkeypatch.setattr(type(inst), "from_header", classmethod(lambda cls, prime: counting))
    doc = parse(corpus_text(name))
    assert validate_document(doc) == []
    assert sum(counting.calls.values()) > 0
    counting.calls.clear()
    # each complex, chain morphism and snake input keeps its problems,
    # and an ses section is its sub morphism's, so the second call asks
    # the instance nothing (checking the snake of snake_weak_small again
    # took 17 primitives)
    assert validate_document(doc) == []
    assert counting.calls == Counter()


def test_les_of_ses_primitive_counts(monkeypatch):
    counting = CountingInstance(FinSetInstance())
    monkeypatch.setattr(FinSetInstance, "from_header", classmethod(lambda cls, prime: counting))
    doc = parse(corpus_text("three_term_ses"))
    counting.calls.clear()
    zz = les_of_ses(doc.ses_named("S"))
    assert [len(obj) for obj in zz.objects] == [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0]
    # The homology of the three complexes at degrees 2 and 1 (a ker, a
    # factor_hor and a coker each), and one connecting chase from 2 to 1;
    # nothing is validated, and nothing is computed at 3 and 0, outside
    # the range.  The one mixed pullback builds the quotient complex.
    # Computing degrees 3..0 took 80 calls; splicing one strong snake per
    # degree took 178.
    assert counting.calls == Counter(
        coker=9,
        ker=8,
        factor_hor=7,
        factor_ver=4,
        compose_hor=2,
        compose_ver=2,
        hor_between_cokers=1,
        ver_between_kernels=2,
        mixed_pullback=1,
    )


def test_les_of_ses_computes_only_the_grids_not_kept():
    grids = importlib.import_module("acgw.homology")._grids
    doc = parse(corpus_text("three_term_ses"))
    ses = doc.ses_named("S")
    x, y, z = complexes = ses.sub.source, ses.sub.target, ses.quot.source
    assert [[homology_size(cx, i) for i in cx.degrees()] for cx in (x, y)] == [[1, 0], [1, 0]]
    kept = [dict(grids(cx)) for cx in complexes]
    les_of_ses(ses)
    # The LES reads the homology of X and Y at degrees 2 and 1 from the
    # grids the sizes computed, and computes the quotient's at the same
    # degrees.  Outside the range every object is initial, and it computes
    # no grid there; it computed all 12 grids of degrees 3..0 before.
    new = [sorted(grids(cx).keys() - before.keys()) for cx, before in zip(complexes, kept)]
    assert new == [[], [], [1, 2]]
    for cx, before in zip(complexes, kept):
        assert all(grids(cx)[i] is grid for i, grid in before.items())


def test_one_quotient_per_chain_morphism(monkeypatch):
    counting = CountingInstance(FinSetInstance())
    monkeypatch.setattr(FinSetInstance, "from_header", classmethod(lambda cls, prime: counting))
    doc = parse(corpus_text("three_term_ses"))
    counting.calls.clear()
    assert validate_document(doc) == []
    assert qiso_iff_complement_exact(doc.hor_named("f")) == (False, False)
    les_of_ses(doc.ses_named("S"))
    # The exactness test builds the quotient of f with one mixed pullback
    # (Y has one transition) and les_of_ses reuses it; validate_document
    # builds none.  Building the quotient in each of the three calls took
    # 3, and splicing strong snakes 6 more.
    assert counting.calls["mixed_pullback"] == 1


class _RecordingInstance(CountingInstance):
    """Also records the name and arguments of every call to one of
    ``names``."""

    def __init__(self, inner, names=("ker", "coker")):
        super().__init__(inner)
        self.names = names
        self.recorded = []

    def __getattr__(self, name):
        attr = super().__getattr__(name)
        if name not in self.names:
            return attr

        def recorded(*args):
            self.recorded.append((name, *args))
            return attr(*args)

        return recorded


def _benchmark_shaped_documents() -> list[str]:
    from perfbench.generate import set_ses_doc  # the set_les documents

    return [set_ses_doc(random.Random(seed), 100, seed % 2 == 0).text for seed in range(4)]


@pytest.mark.parametrize(
    "text",
    [corpus_text("three_term_ses"), corpus_text("inclusion_pair"), *_benchmark_shaped_documents()],
    ids=["three_term_ses", "inclusion_pair", "bench0", "bench1", "bench2", "bench3"],
)
def test_les_of_ses_takes_each_complement_once(monkeypatch, text):
    recording = _RecordingInstance(FinSetInstance())
    monkeypatch.setattr(FinSetInstance, "from_header", classmethod(lambda cls, prime: recording))
    doc = parse(text)
    ses = doc.ses_named("S")
    recording.recorded.clear()
    les_of_ses(ses)
    # A call may repeat an earlier one only on a zero morphism or an
    # identity: the empty morphism between initial objects, or equal
    # objects that two complexes or degrees happen to share (X_1 and Z_2
    # are both {c} in three_term_ses).  On the seed-1 set_les pool, 8 of
    # 1,275 calls repeat.  Computing the degrees outside the range as well
    # repeated 412 of 1,725, 404 of them on () -> (), and splicing strong
    # snakes 900 of 3,375, 232 of them on other morphisms.
    seen, repeats = set(), []
    for name, f in recording.recorded:
        key = (name, type(f), f.source, f.target, f.data)
        if key in seen and f.source != () and f.data != (f.target, f.target):
            repeats.append(key)
        seen.add(key)
    assert len(recording.recorded) > 0 and repeats == []


@pytest.mark.parametrize("seed", [1, 3])
def test_les_of_ses_does_no_work_where_every_object_is_initial(monkeypatch, seed):
    from perfbench.generate import set_ses_doc

    # These documents are not quasi-isomorphic inclusions: within the range
    # every object, transition and level is nonempty, so only the degrees
    # hi + 1 and lo - 1 hold the empty morphism () -> ().
    text = set_ses_doc(random.Random(seed), 100, False).text
    names = ("ker", "coker", "factor_hor", "factor_ver")
    recording = _RecordingInstance(FinSetInstance(), names)
    monkeypatch.setattr(FinSetInstance, "from_header", classmethod(lambda cls, prime: recording))
    ses = parse(text).ses_named("S")
    recording.recorded.clear()
    zz = les_of_ses(ses)
    assert len(zz.objects) == 3 * (ses.sub.source.hi + 2 - ses.sub.source.lo) + 3
    assert {name for name, *_ in recording.recorded} == set(names)
    # Computing those degrees took 29 such calls on either document.
    empty = [
        name
        for name, *args in recording.recorded
        if all(f.source == () and f.target == () for f in args)
    ]
    assert empty == []


def test_validation_keeps_the_complement_that_coker_returns():
    doc = parse(corpus_text("three_term_ses"))
    assert validate_document(doc) == []
    f = doc.hor_named("f")
    legs = [
        leg
        for _, cx in doc.complexes
        for t in cx.transitions
        for leg in (t.into_upper, t.into_lower)
    ]
    checked = [*legs, *f.levels, *f.bar_levels]
    assert len(checked) == 7
    # every payload that passed keeps the rest of its target, and coker
    # returns that tuple instead of filtering the target again
    assert all(finset._REST in vars(mor) for mor in checked)
    for mor in checked:
        assert doc.inst.coker(mor)[0] is vars(mor)[finset._REST]


def _count_dicts(monkeypatch) -> Counter:
    """Count the dicts the finite-set primitives ask for, by name and by
    whether the morphism is a literal inclusion."""
    calls = Counter()
    for name in ("_mapping", "_inverse"):
        memo = getattr(finset, name)

        def counted(f, memo=memo, name=name):
            calls[name, f.data[0] is f.data[1]] += 1
            return memo(f)

        monkeypatch.setattr(finset, name, counted)
    return calls


def test_a_literal_inclusion_builds_no_dict(monkeypatch):
    calls = _count_dicts(monkeypatch)
    doc = parse(corpus_text("three_term_ses"))
    assert validate_document(doc) == []
    assert qiso_iff_complement_exact(doc.hor_named("f")) == (False, False)
    les_of_ses(doc.ses_named("S"))
    assert not calls[("_mapping", True)] and not calls[("_inverse", True)]
    # Every morphism of the document, of its homology spans and of its long
    # exact sequence is a literal inclusion, read by the primitives as the
    # identity.  Looking each id up in a dict of an inclusion took 154
    # calls, 139 of them on (sub, sub) payloads; after that, the bar level
    # the reader lifts still took 3 and the homology spans 2.
    assert sum(calls.values()) == 0


def test_a_spelled_inclusion_is_read_without_the_pair_regex():
    inst = FinSetInstance()
    src, tgt = inst.obj_from_text("a b c"), inst.obj_from_text("a b c d")
    refused = mock.Mock(fullmatch=mock.Mock(side_effect=AssertionError("pair regex")))
    with mock.patch.object(finset, "_PAIRS_LINE_RE", refused):
        got = inst.mor_from_text(HorMor, src, tgt, "a->a b->b c->c")
    assert got.data[0] is got.data[1] is src
    # in other whitespace the line takes the regex, and still reads as the
    # source's tuple
    regex = mock.Mock(wraps=finset._PAIRS_LINE_RE)
    with mock.patch.object(finset, "_PAIRS_LINE_RE", regex):
        tabbed = inst.mor_from_text(HorMor, src, tgt, "a->a\tb->b c->c")
    assert regex.fullmatch.call_count == 1
    assert tabbed == got and tabbed.data[0] is tabbed.data[1] is src


@pytest.mark.parametrize(
    "inst,ambient",
    [(FinSetInstance(), "a b"), (LinearInstance(3), "dim 2")],
    ids=["set", "linear"],
)
def test_classify_mixed_does_not_validate(monkeypatch, inst, ambient):
    m = inst.zero_hor(inst.obj_from_text(ambient))
    _, e = inst.coker(m)
    sq = inst.mixed_pullback(m, e)

    def refuse(self, f):
        raise AssertionError("classify_mixed validated a morphism")

    monkeypatch.setattr(type(inst), "validate_hor", refuse)
    monkeypatch.setattr(type(inst), "validate_ver", refuse)
    cls = inst.classify_mixed(sq.to_epi_source, sq.to_mono_source, sq.epi, sq.mono)
    assert cls is SquareClass.CARTESIAN


#: a complex over F_7 whose legs into X_1 are ``[I; A]`` and ``M[-A | I]``
#: (A = [[1, 2], [3, 4]], M a scaled swap), so their composite is zero,
#: and whose other legs are monomial: every leg holds a monomial submatrix
BLOCK_LEGS = """\
instance linear
prime 7

complex X:
  object 0: dim 2
  object 1: dim 4
  object 2: dim 2
  transition 1: dim 2
    up: [[1, 6, 0, 2], [4, 1, 3, 0]]
    down: [[1, 0], [0, 1]]
  transition 2: dim 2
    up: [[0, 3], [5, 0]]
    down: [[1, 0], [0, 1], [1, 2], [3, 4]]
"""


def _count_eliminations(monkeypatch) -> Counter:
    """Count the row reductions of ``acgw.linear``, by whether they are
    full (rref) or forward only (rank)."""
    calls = Counter()
    eliminate = linear._eliminate

    def counted(r, p, reduced):
        calls["rref" if reduced else "rank"] += 1
        return eliminate(r, p, reduced)

    monkeypatch.setattr(linear, "_eliminate", counted)
    return calls


def test_legs_holding_an_identity_are_not_row_reduced_for_their_rank(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    assert validate_document(parse(BLOCK_LEGS)) == []
    # The chain condition is one product, not a pullback: building it took
    # one rref for its column basis.  Eliminating each of the four legs for
    # its rank took four rank reductions more.
    assert calls == Counter()


def _generated_set_complex() -> str:
    cx, _ = gen_complex(GenConfig(3))
    return serialize(Document(cx.inst, (("X", cx),)))


@pytest.mark.parametrize("text", [_generated_set_complex(), BLOCK_LEGS], ids=["set", "linear"])
def test_validate_document_builds_no_mixed_pullback(monkeypatch, text):
    inst = parse(text).inst
    counting = CountingInstance(inst)
    monkeypatch.setattr(type(inst), "from_header", classmethod(lambda cls, prime: counting))
    doc = parse(text)
    counting.calls.clear()
    assert validate_document(doc) == []
    # The chain condition asks, at each degree with a transition on both
    # sides, whether the square with an initial corner over the two legs
    # is Cartesian; building their mixed pullback took one per degree.
    (_, cx), = doc.complexes
    assert counting.calls["meets_trivially"] == len(cx.transitions) - 1 > 0
    assert counting.calls["mixed_pullback"] == 0


def _reference_rank(a, p):
    return len(rref_reference(a, p)[1])


def _spoiled(cx):
    """``cx`` with the lower leg of its first nonzero transition made
    non-injective, its last column a copy of its first or, when it has
    one column, zero; None when every transition is zero."""
    inst = cx.inst
    for k, t in enumerate(cx.transitions):
        leg = inst.hor_matrix(t.into_lower)
        if leg.shape[1]:
            bad = leg.copy()
            bad[:, -1] = bad[:, 0] if leg.shape[1] > 1 else 0
            t = replace(t, into_lower=inst.hor(t.obj, t.into_lower.target, bad))
            return replace(cx, transitions=cx.transitions[:k] + (t,) + cx.transitions[k + 1 :])
    return None


@pytest.mark.parametrize("seed", range(12))
def test_random_basis_complexes_validate_as_with_elimination(monkeypatch, seed):
    cx, _ = gen_complex(GenConfig(seed, instance="linear", prime=(2, 5, 65521)[seed % 3]))
    docs = [Document(cx.inst, (("X", cx),))]
    spoiled = _spoiled(cx)
    if spoiled is not None:
        docs.append(Document(cx.inst, (("X", spoiled),)))
    got = [validate_document(doc) for doc in docs]
    monkeypatch.setattr(linear, "mat_rank", _reference_rank)
    assert got == [validate_document(doc) for doc in docs]
    assert got[0] == []
    if spoiled is not None:
        assert "horizontal matrix is not injective" in " ".join(got[1])


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(acgw.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "acgw.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return run.returncode, run.stdout, run.stderr


def test_main_builds_the_parser_once_and_reuses_it(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built = Counter()
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built["parsers"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    ses = str(files("acgw") / "corpus" / "three_term_ses.acgw")
    # A usage error and a help request end parsing early; the call after
    # them must see the parser as it was built.
    argvs = [
        ["homology", "-", "--no-such-flag"],
        ["validate", "--help"],
        ["les", ses, "--ses", "S"],
    ]
    got = [_in_process(argv) for argv in argvs]
    assert [code for code, _, _ in got] == [2, 0, 0]
    # The parser and its nine subparsers; each call built all ten.
    assert built["parsers"] == 10
    assert got == [_fresh_process(argv) for argv in argvs]
