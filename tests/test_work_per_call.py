"""Instance primitives per call: each answer is computed once.

A delegating wrapper counts the primitive calls an instance receives, so
accidental extra work (a second route to the same answer) shows up as a
changed count.
"""

import importlib
from collections import Counter
from dataclasses import replace

from acgw import homology, snake_weak
from acgw.cli import main

from conftest import corpus_doc, corpus_text

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
    "is_complement_pair",
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
