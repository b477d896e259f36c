"""Acceptance suite: the eleven headline guarantees of the package.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` to see
them live) and asserts both correctness and its runtime budget.
"""

import io
import time
from contextlib import redirect_stdout

from acgw import (
    GenConfig,
    LinearInstance,
    SnakeInputWeak,
    chain_map_of_hor,
    chain_map_of_ver,
    check_functoriality,
    flat_is_iso,
    gen_complex,
    gen_composable_chain_maps,
    gen_hor_mor,
    gen_ses,
    gen_snake_strong,
    gen_snake_weak,
    gen_ver_mor,
    h_on_map,
    homology,
    homology_obj,
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
    validate_hor_chain_mor,
    validate_ver_chain_mor,
    zigzag_is_exact,
)
from acgw.cli import main as cli_main

from conftest import CORPUS_NAMES, corpus_doc, corpus_text
from reference import (
    connecting_object_dual,
    homology_quotient_first,
    qiso_at_degree,
    weak_closed_forms,
)


def report(n: int, ok: bool, desc: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {n:2d} ({elapsed:6.2f}s): {desc}")


def finish(n: int, ok: bool, desc: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    report(n, ok and elapsed < budget, desc, elapsed)
    assert ok, f"criterion {n} failed: {desc}"
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_worked_inclusion_pair():
    t0 = time.perf_counter()
    doc = corpus_doc("inclusion_pair")
    X, Y = doc.complex_named("X"), doc.complex_named("Y")
    ok = homology_obj(X, 2) == ("a",)
    ok = ok and homology_obj(Y, 2) == ()
    ok = ok and validate_hor_chain_mor(doc.hor_named("f")) == []
    finish(1, ok, "bundled inclusion pair: H_2(X)={a}, H_2(Y)={} and the "
                  "inclusion validates", t0, 1.0)


def test_criterion_02_quasi_iso_counterexample():
    t0 = time.perf_counter()
    m = corpus_doc("span_legs").map_named("F")
    ok = is_quasi_iso(m)
    ok = ok and not is_quasi_iso(chain_map_of_ver(m.back))
    ok = ok and not is_quasi_iso(chain_map_of_hor(m.front))
    finish(2, ok, "bundled span: composite is a quasi-iso, both legs are not",
           t0, 1.0)


def test_criterion_03_order_independence_and_size_law():
    t0 = time.perf_counter()
    failures = 0
    for k in range(1000):
        cfg = GenConfig(seed=300_000 + k)
        assert cfg.max_size == 8 and cfg.max_support == 6
        cx, _ = gen_complex(cfg)
        n = cx.inst.obj_size
        try:
            for i in cx.degrees():
                g = homology(cx, i)
                if not cx.inst.obj_eq(g.h, homology_quotient_first(cx, i)):
                    failures += 1
                if n(g.h) != n(cx.obj(i)) - n(cx.transition(i).obj) - n(
                    cx.transition(i + 1).obj
                ):
                    failures += 1
        except Exception:
            failures += 1
    finish(3, failures == 0, "1000 random set complexes: homology agrees with "
                             "the quotient-first reference and the size law "
                             "holds", t0, 10.0)


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    failures = 0
    for k in range(500):
        cx, _ = gen_complex(GenConfig(seed=400_000 + k))
        dims = rank_homology_dims(cx)
        for i in cx.degrees():
            if dims[i] != homology_size(cx, i):
                failures += 1
    finish(4, failures == 0, "500 random set complexes: rank homology over "
                             "F_2 equals structural homology", t0, 30.0)


def test_criterion_05_snake_exactness():
    t0 = time.perf_counter()
    failures = 0
    for k in range(300):
        inp = gen_snake_weak(GenConfig(seed=500_000 + k, max_size=6))
        zz = snake_weak(inp)
        d, w, d_prime = weak_closed_forms(inp)
        if not zigzag_is_exact(zz):
            failures += 1
        if zz.transitions[2].obj != connecting_object_dual(inp):
            failures += 1
        if (set(zz.transitions[1].obj), set(zz.transitions[2].obj),
                set(zz.transitions[3].obj)) != (d, w, d_prime):
            failures += 1
    for k in range(100):
        inp = gen_snake_strong(GenConfig(seed=510_000 + k, max_size=6))
        zz = snake_strong(inp)
        d, w, d_prime = weak_closed_forms(inp.inner_weak())
        if not zigzag_is_exact(zz):
            failures += 1
        if zz.transitions[2].obj != connecting_object_dual(inp.inner_weak()):
            failures += 1
        if (set(zz.transitions[1].obj), set(zz.transitions[2].obj),
                set(zz.transitions[3].obj)) != (d, w, d_prime):
            failures += 1
    finish(5, failures == 0, "300 weak + 100 strong snake inputs: exact "
                             "zigzags with closed-form middle objects and the "
                             "dual connecting object", t0, 30.0)


def test_criterion_06_les_exactness():
    t0 = time.perf_counter()
    failures = 0
    for k in range(200):
        ses = gen_ses(GenConfig(seed=600_000 + k))
        try:
            zz = les_of_ses(ses)
        except Exception:
            failures += 1
            continue
        if not zigzag_is_exact(zz):
            failures += 1
        lo, hi = ses.sub.source.lo, ses.sub.source.hi
        if len(zz.objects) != 3 * ((hi + 1) - lo + 1) + 3:
            failures += 1
    finish(6, failures == 0, "200 random chain SESs: long exact sequence is "
                             "exact everywhere, three objects per degree", t0, 30.0)


def test_criterion_07_functoriality():
    t0 = time.perf_counter()
    failures = 0
    for k in range(500):
        f, g = gen_composable_chain_maps(GenConfig(seed=700_000 + k))
        if not check_functoriality(f, g):
            failures += 1
    finish(7, failures == 0, "500 composable chain-map pairs: H(g∘f) is "
                             "span-equivalent to H(g)∘H(f)", t0, 30.0)


def _qiso_disagreements(m) -> int:
    """Degrees where the homology span's invertibility differs from the
    element-by-element reference."""
    inst = m.source.inst
    return sum(
        flat_is_iso(inst, h_on_map(m, i)) != qiso_at_degree(m, i)
        for i in m.source.degrees()
    )


def test_criterion_08_qiso_iff_complement_exact():
    t0 = time.perf_counter()
    failures = 0
    for k in range(300):
        mor = gen_hor_mor(GenConfig(seed=800_000 + k))
        a, b = qiso_iff_complement_exact(mor)
        if a != b:
            failures += 1
        failures += _qiso_disagreements(chain_map_of_hor(mor))
    for k in range(300):
        mor = gen_ver_mor(GenConfig(seed=810_000 + k))
        a, b = qiso_iff_complement_exact(mor)
        if a != b:
            failures += 1
        failures += _qiso_disagreements(chain_map_of_ver(mor))
    finish(8, failures == 0, "300 horizontal + 300 vertical chain morphisms: "
                             "quasi-iso iff complement complex exact, and the "
                             "element criterion agrees at every degree", t0, 30.0)


def test_criterion_09_homology_inclusion():
    t0 = time.perf_counter()
    from acgw import homology_complex

    failures = 0
    for k in range(200):
        cx, _ = gen_complex(GenConfig(seed=900_000 + k))
        h, hor, ver = homology_complex(cx)
        if validate_hor_chain_mor(hor) or validate_ver_chain_mor(ver):
            failures += 1
        if not (is_quasi_iso(chain_map_of_hor(hor))
                and is_quasi_iso(chain_map_of_ver(ver))):
            failures += 1
    finish(9, failures == 0, "200 random complexes: homology embeds both "
                             "ways as validating quasi-isomorphisms", t0, 10.0)


def _hand_built_linear_snake() -> SnakeInputWeak:
    L = LinearInstance(p=2)
    X, Y, Z = L.obj(1), L.obj(3), L.obj(1)
    A, B, C = L.obj(2), L.obj(4), L.obj(2)
    Ap, Bp, Cp = L.obj(2), L.obj(4), L.obj(2)
    return SnakeInputWeak(
        L,
        top_mono=L.hor(A, B, [[1, 1], [1, 0], [0, 1], [0, 1]]),
        top_epi=L.ver(C, B, [[1, 1, 0, 1], [0, 0, 1, 1]]),
        mid_mono=L.hor(X, Y, [[1], [1], [0]]),
        mid_epi=L.ver(Z, Y, [[0, 0, 1]]),
        bot_mono=L.hor(Ap, Bp, [[1, 0], [0, 1], [0, 0], [0, 1]]),
        bot_epi=L.ver(Cp, Bp, [[0, 0, 1, 0], [0, 1, 1, 1]]),
        left_up=L.ver(X, A, [[1, 0]]),
        left_down=L.hor(X, Ap, [[1], [1]]),
        mid_up=L.ver(Y, B, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1]]),
        mid_down=L.hor(Y, Bp, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]),
        right_up=L.ver(Z, C, [[0, 1]]),
        right_down=L.hor(Z, Cp, [[1], [0]]),
    )


def test_criterion_10_linear_instance_parity():
    t0 = time.perf_counter()
    failures = 0
    for k in range(100):
        cx, _ = gen_complex(GenConfig(seed=950_000 + k, instance="linear"))
        for i in cx.degrees():
            expected = (
                cx.obj(i).dim
                - cx.transition(i).obj.dim
                - cx.transition(i + 1).obj.dim
            )
            if homology_size(cx, i) != expected:
                failures += 1
    from acgw import validate_snake_weak

    inp = _hand_built_linear_snake()
    if validate_snake_weak(inp):
        failures += 1
    zz = snake_weak(inp)
    if not zigzag_is_exact(zz):
        failures += 1
    if not inp.inst.obj_eq(zz.transitions[2].obj, connecting_object_dual(inp)):
        failures += 1
    if sum((-1) ** i * o.dim for i, o in enumerate(zz.objects)) != 0:
        failures += 1
    finish(10, failures == 0, "100 random F_2 complexes obey the dimension "
                              "law; hand-built F_2 snake zigzag is exact with "
                              "zero alternating sum", t0, 10.0)


def test_criterion_11_format_round_trip():
    t0 = time.perf_counter()
    ok = True
    for name in CORPUS_NAMES:
        doc = parse(corpus_text(name))
        ok = ok and parse(serialize(doc)) == doc
        ok = ok and serialize(parse(serialize(doc))) == serialize(doc)
    gen_cases = [
        ["gen", "--kind", kind, "--seed", str(seed)]
        for kind in ("complex", "exact", "hor", "ver", "map", "pair", "ses",
                     "snake-weak", "snake-strong")
        for seed in (1, 2, 3)
    ] + [
        ["gen", "--kind", kind, "--instance", "linear", "--prime", "2",
         "--seed", str(seed)]
        for kind in ("complex", "exact", "hor", "ver", "map", "pair", "ses")
        for seed in (1, 2)
    ]
    for argv in gen_cases:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(argv)
        text = buf.getvalue()
        ok = ok and rc == 0
        doc = parse(text)
        ok = ok and validate_document(doc) == []
        ok = ok and serialize(doc) == text
    finish(11, ok, "document format round-trips on the corpus and every "
                   "generated document validates", t0, 5.0)
