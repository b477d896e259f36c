"""Self-tests of the benchmark: generators, checks, tracer, declared metrics.

Run from the root of the repository with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import random

import pytest

import acgw
from acgw import (
    homology_size,
    is_quasi_iso,
    les_of_ses,
    parse,
    qiso_iff_complement_exact,
    rank_homology_dims,
    serialize,
    snake_strong,
    snake_weak,
    validate_document,
    zigzag_is_exact,
)
from perfbench import generate as gen
from perfbench import hostspeed, run, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SMALL_GENERATORS = {
    "ses": lambda r: gen.set_ses_doc(r, 30, qiso=False),
    "ses-qiso": lambda r: gen.set_ses_doc(r, 30, qiso=True),
    "complex": lambda r: gen.set_complex_doc(r, 20),
    "ver": lambda r: gen.set_ver_doc(r, 8),
    "map-qiso": lambda r: gen.set_map_doc(r, 6, qiso=True),
    "map": lambda r: gen.set_map_doc(r, 6, qiso=False),
    "snake-weak": lambda r: gen.snake_doc(r, 8, strong=False),
    "snake-strong": lambda r: gen.snake_doc(r, 8, strong=True),
    **{f"linear-{p}": (lambda r, p=p: gen.linear_complex_doc(r, 12, p)) for p in gen.SAFE_PRIMES},
    "linear-overflow": lambda r: gen.linear_complex_doc(r, 12, gen.OVERFLOW_PRIME),
}


def sizes(cx):
    return {i: homology_size(cx, i) for i in cx.degrees()}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(SMALL_GENERATORS))
def test_generators_are_deterministic_per_seed(kind):
    make = SMALL_GENERATORS[kind]
    first, again, other = (make(random.Random(s)) for s in (5, 5, 6))
    assert first == again
    assert first.text != other.text


@pytest.mark.parametrize("name", ["cli_small", "set_oracle"])
def test_workload_pools_are_deterministic_per_seed(name):
    build = workloads.WORKLOADS[name].build
    first = [(op.slice, op.answers) for op in build(random.Random(3), ROOT)]
    again = [(op.slice, op.answers) for op in build(random.Random(3), ROOT)]
    assert first == again


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(k for k in SMALL_GENERATORS if k != "linear-overflow"))
def test_small_documents_validate_and_give_known_answers(kind, seed):
    g = SMALL_GENERATORS[kind](random.Random(seed))
    doc = parse(g.text)
    assert serialize(doc) == g.text
    assert validate_document(doc) == []
    for name, want in g.answers.get("homology", {}).items():
        assert sizes(doc.complex_named(name)) == want
        assert rank_homology_dims(doc.complex_named(name)) == want
    if kind.startswith("ses"):
        assert qiso_iff_complement_exact(doc.hor_named("f")) == g.answers["qiso"]
        zz = les_of_ses(doc.ses_named("S"))
        assert zigzag_is_exact(zz)
        assert len(zz.objects) == g.answers["les_length"]
    if kind.startswith("map"):
        assert is_quasi_iso(doc.map_named("F")) == g.answers["qiso"]
    if kind.startswith("snake"):
        construct = snake_strong if kind == "snake-strong" else snake_weak
        inp = (doc.snakes_strong or doc.snakes_weak)[0][1]
        zz = construct(inp)
        assert [len(o) for o in zz.objects] == g.answers["zigzag_sizes"]


def test_set_ses_verdicts_cover_both_sides():
    verdicts = {
        gen.set_ses_doc(random.Random(s), 30, qiso=q).answers["qiso"]
        for s in range(3)
        for q in (False, True)
    }
    assert verdicts == {(True, True), (False, False)}


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


def lib():
    import importlib
    import types

    return types.SimpleNamespace(**{n: importlib.import_module(f"acgw.{n}") for n in tracer.LAYERS})


def test_operations_pass_on_small_inputs_and_catch_wrong_answers():
    L = lib()
    g = gen.set_ses_doc(random.Random(1), 20, qiso=False)
    op = workloads.Op("w20", g.text, g.answers)
    workloads.run_set_les(L, op)
    wrong = dict(g.answers, homology={**g.answers["homology"], "X": {i: 0 for i in range(6)}})
    with pytest.raises(workloads.Failed):
        workloads.run_set_les(L, workloads.Op("w20", g.text, wrong))
    g = gen.linear_complex_doc(random.Random(1), 10, 7)
    workloads.run_linear(L, workloads.Op("d10", g.text, g.answers))
    g = gen.set_complex_doc(random.Random(1), 20)
    workloads.run_set_oracle(L, workloads.Op("w20", g.text, g.answers))


def test_cli_pool_valid_calls_pass_and_invalid_ones_are_one_in_ten():
    L = lib()
    ops = workloads.build_cli(random.Random(2), ROOT)
    invalid = [op for op in ops if op.slice == "invalid"]
    assert 0.07 <= len(invalid) / len(ops) <= 0.13
    for op in ops:
        if op.slice == "valid":
            workloads.run_cli(L, op)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    #   0: [0, 10]          self 10 - (1..4 merged: 1..5) - 6..8 = 4
    #     1: [1, 4]         self 3 - 2..3 = 2
    #       3: [2, 3]       self 1
    #     2: [3, 5]         overlaps 1; self 2
    #     4: [6, 8]         self 2
    #   5: [11, 12]         root, self 1
    spans = [
        ("a", 0.0, 10.0, -1, 0, False),
        ("b", 1.0, 4.0, 0, 0, False),
        ("c", 3.0, 5.0, 0, 0, False),
        ("d", 2.0, 3.0, 1, 0, False),
        ("e", 6.0, 8.0, 0, 0, False),
        ("f", 11.0, 12.0, -1, 1, False),
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 2.0, 1.0, 2.0, 1.0]


def test_tracer_counts_six_primitives_per_homology_call_and_restores_bindings():
    L = lib()
    original = L.homology.homology
    g = gen.set_complex_doc(random.Random(4), 30)
    doc = parse(g.text)
    cx = doc.complex_named("X")
    plain = sizes(cx)
    t = tracer.Tracer()
    with t:
        assert L.homology.homology is not original
        traced = {i: L.homology.homology_size(cx, i) for i in cx.degrees()}
    assert L.homology.homology is original and acgw.homology is original
    assert traced == plain
    agg = tracer.aggregate(t.spans)
    assert agg["calls"]["homology.homology"] == len(plain)
    assert agg["prims_per_call"] == 6
    assert agg["calls"]["finset.ker"] > 0


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


def test_host_speed_scales_by_the_kernel_samples_near_an_interval():
    speed = hostspeed.HostSpeed()
    ref, w = hostspeed.REF_S, hostspeed.WINDOW_S
    # a quiet stretch, then one where the kernel takes twice as long
    speed.at = [0.0, 0.1 * w, 0.2 * w, 10 * w, 10.1 * w, 10.2 * w]
    speed.took = [ref, ref, 1.5 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert speed.scale(0.05 * w, 0.15 * w) == pytest.approx(1.0)
    assert speed.reference_s(10 * w, 10.1 * w) == pytest.approx(0.05 * w)
    # only the sample at 0.2 w lies within the window of [1.15 w, 1.2 w]
    assert speed.scale(1.15 * w, 1.2 * w) == pytest.approx(1 / 1.5)
    with pytest.raises(ValueError):
        speed.scale(5 * w, 5.1 * w)


def test_host_speed_samples_once_per_gap_and_catches_up_after_a_long_wait():
    speed = hostspeed.HostSpeed()
    speed.tick()
    assert len(speed.at) == hostspeed.CATCH_UP and min(speed.took) > 0
    assert speed.at == sorted(speed.at)
    speed.tick()
    assert len(speed.at) == hostspeed.CATCH_UP
    speed.at[-1] -= 2.5 * hostspeed.GAP_S
    speed.tick()
    assert hostspeed.CATCH_UP + 2 <= len(speed.at) <= hostspeed.CATCH_UP + 3


# ---------------------------------------------------------------------------
# Declared metrics
# ---------------------------------------------------------------------------


def test_every_emitted_metric_is_declared_in_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == {name: run.unit_of(name) for name in run.END_TO_END}
    emitted = tracer.per_layer_metric_names()
    assert len(emitted) == len(set(emitted))
    assert declared_layer == {name: run.unit_of(name) for name in emitted}
    for w in bench["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
