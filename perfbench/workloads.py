"""The four workloads: their input pools and one checked operation each.

A workload builds a fixed pool of operations from the seed.  The timed
loop runs the pool in order, in whole passes, so every run sees the same
mix of sizes and its percentiles fall in the same size class.  Each
operation calls the library through module attributes looked up at call
time (``acgw.documents.parse`` and so on), so the tracer's patches take
effect, and checks every result against the answer the generator knows
by construction.  A failed check raises :class:`Failed`; the operation
is timed until that point.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench import generate as gen


class Failed(Exception):
    """An operation returned a wrong answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Failed(what)


@dataclass(frozen=True)
class Op:
    """One operation of a pool.

    ``slice`` names the input class; failures inside a slice the workload
    lists in ``known_defects`` are counted but do not make the run
    incorrect."""

    slice: str
    payload: Any
    answers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, str], list[Op]]
    run: Callable[[Any, Op], Any]
    #: layers that must record calls in a traced run
    active_layers: tuple[str, ...]
    #: slices whose failures are known defects of the parent program
    known_defects: frozenset[str] = frozenset()


def _degree_sizes(A, cx) -> dict[int, int]:
    return {i: A.homology.homology_size(cx, i) for i in cx.degrees()}


# ---------------------------------------------------------------------------
# set_les: finite-set short exact sequences, parse to serialize.
# ---------------------------------------------------------------------------

#: (ids per degree, copies per pass, quasi-isomorphic copies); of the 25
#: operations sorted by cost the 50th percentile falls on the 13th, the
#: middle one of the 400 class, and the 90th on the 23rd, inside the
#: 1600 class, so that neither sits on the edge between two inputs
SET_LES_MIX = ((100, 5, 2), (200, 5, 2), (400, 5, 0), (800, 4, 0), (1600, 5, 0), (3200, 1, 0))


def interleave(ops: list[Op]) -> list[Op]:
    """The pool in an order that spreads every slice evenly over a pass,
    so that a slow stretch of the machine does not fall on the
    operations of one slice alone."""
    slices: dict[str, list[Op]] = {}
    for op in ops:
        slices.setdefault(op.slice, []).append(op)
    keyed = [
        ((k + 0.5) / len(group), n, op)
        for n, group in enumerate(slices.values())
        for k, op in enumerate(group)
    ]
    return [op for *_, op in sorted(keyed, key=lambda e: e[:2])]


def build_set_les(rng: random.Random, root: str) -> list[Op]:
    ops = []
    for width, copies, qiso in SET_LES_MIX:
        for k in range(copies):
            g = gen.set_ses_doc(rng, width, qiso=k < qiso)
            ops.append(Op(f"w{width}", g.text, g.answers))
    return interleave(ops)


def run_set_les(A, op: Op):
    ans = op.answers
    doc = A.documents.parse(op.payload)
    problems = A.documents.validate_document(doc)
    expect(problems == [], f"valid document reported invalid: {problems[:2]}")
    sizes = {n: _degree_sizes(A, doc.complex_named(n)) for n in ("X", "Y")}
    expect(sizes == ans["homology"], "homology sizes differ from the construction")
    verdict = A.homology.qiso_iff_complement_exact(doc.hor_named("f"))
    expect(tuple(verdict) == ans["qiso"], f"qiso verdict {verdict}, want {ans['qiso']}")
    zz = A.snake.les_of_ses(doc.ses_named("S"))
    expect(A.snake.zigzag_is_exact(zz), "long exact sequence is not exact")
    got = [doc.inst.obj_size(o) for o in zz.objects]
    want = []
    for d in range(ans["hi"] + 1, ans["lo"] - 2, -1):
        want += [ans["homology"]["X"].get(d, 0), ans["homology"]["Y"].get(d, 0), ans["quotient"].get(d, 0)]
    expect(len(got) == ans["les_length"] and got == want, "LES objects differ from homology")
    expect(A.documents.serialize(doc) == op.payload, "serialize is not the canonical text")
    return sizes, tuple(verdict), tuple(got)


# ---------------------------------------------------------------------------
# linear_homology: F_p complexes over a prime mix.
# ---------------------------------------------------------------------------

#: (dimension per degree, primes cycled over the copies); with the two
#: complexes of the overflow slice, the cheapest, a pass holds 15
#: operations, and of them sorted by cost the 50th percentile falls on
#: the 8th, the middle one of the 40 class, and the 90th on the 14th,
#: the dearest of the 80 class, so that neither sits on the edge between
#: two inputs
LINEAR_MIX = (
    (20, (2, 7, 65521)),
    (40, (65521, 33554393, 65521, 33554393, 65521)),
    (80, (65521, 33554393, 65521, 33554393)),
    (200, (65521,)),
)
#: the slice whose dot products overflow int64
LINEAR_OVERFLOW = ((24, gen.OVERFLOW_PRIME), (32, gen.OVERFLOW_PRIME))


def build_linear(rng: random.Random, root: str) -> list[Op]:
    ops = []
    for dim, primes in LINEAR_MIX:
        for p in primes:
            g = gen.linear_complex_doc(rng, dim, p)
            ops.append(Op(f"d{dim}", g.text, g.answers))
    for dim, p in LINEAR_OVERFLOW:
        g = gen.linear_complex_doc(rng, dim, p)
        ops.append(Op(f"p{p}", g.text, g.answers))
    return interleave(ops)


def run_linear(A, op: Op):
    want = op.answers["homology"]["X"]
    doc = A.documents.parse(op.payload)
    problems = A.documents.validate_document(doc)
    expect(problems == [], f"valid document reported invalid: {problems[:2]}")
    cx = doc.complex_named("X")
    sizes = _degree_sizes(A, cx)
    expect(sizes == want, f"homology dims {sizes}, want {want}")
    ranks = A.oracle.rank_homology_dims(cx)
    expect(ranks == want, f"rank oracle dims {ranks}, want {want}")
    expect(A.documents.serialize(doc) == op.payload, "serialize is not the canonical text")
    return sizes


# ---------------------------------------------------------------------------
# set_oracle: the rank oracle on finite-set complexes, like `acgw oracle`.
# ---------------------------------------------------------------------------

#: (ids per degree, copies per pass); the 50th and 90th percentiles fall
#: inside the 150 and 300 classes
SET_ORACLE_MIX = ((150, 13), (225, 4), (300, 2), (750, 1))


def build_set_oracle(rng: random.Random, root: str) -> list[Op]:
    ops = []
    for width, copies in SET_ORACLE_MIX:
        for _ in range(copies):
            g = gen.set_complex_doc(rng, width)
            ops.append(Op(f"w{width}", g.text, g.answers))
    return interleave(ops)


def run_set_oracle(A, op: Op):
    want = op.answers["homology"]["X"]
    doc = A.documents.parse(op.payload)
    cx = doc.complex_named("X")
    by_rank = A.oracle.rank_homology_dims(cx)
    structural = _degree_sizes(A, cx)
    expect(by_rank == structural, "oracle and structural homology disagree")
    expect(structural == want, f"homology sizes {structural}, want {want}")
    return by_rank


# ---------------------------------------------------------------------------
# cli_small: in-process CLI calls on corpus-sized documents.
# ---------------------------------------------------------------------------

def label_size(label: str) -> int:
    """Size of an object from its label: ``{a b}`` or ``F7^3``."""
    if label.startswith("{"):
        return len(label[1:-1].split())
    return int(label.rsplit("^", 1)[1])


def _nonzero(sizes: dict[int, int]) -> list[int]:
    return [i for i, s in sorted(sizes.items()) if s]


def _check_homology(homology: dict):
    def check(out: str, as_json: bool) -> None:
        if as_json:
            got = {
                name: {int(i): r["size"] for i, r in rec["homology"].items()}
                for name, rec in json.loads(out).items()
            }
            expect(got == homology, "homology sizes differ from the construction")
        else:
            for name in homology:
                expect(f"{name}: size law" in out and "holds" in out, "size law line missing")
            rows = sum(line.startswith("H_") for line in out.splitlines())
            expect(rows == sum(map(len, homology.values())), "wrong number of H_ lines")
    return check


def _check_exact(homology: dict):
    def check(out: str, as_json: bool) -> None:
        if as_json:
            got = {n: r["nonzero_degrees"] for n, r in json.loads(out).items()}
            expect(got == {n: _nonzero(h) for n, h in homology.items()}, "exactness differs")
        else:
            for name, h in homology.items():
                line = f"{name}: exact" if not _nonzero(h) else f"{name}: not exact"
                expect(line in out, f"missing verdict {line!r}")
    return check


def _check_oracle(homology: dict):
    def check(out: str, as_json: bool) -> None:
        if as_json:
            data = json.loads(out)
            expect(all(r["agree"] for r in data.values()), "oracle disagrees")
            got = {n: {int(i): v for i, v in r["rank"].items()} for n, r in data.items()}
            expect(got == homology, "rank dims differ from the construction")
        else:
            expect(out.rstrip().endswith("oracle and framework agree at all degrees"), "no agreement")
    return check


def _check_zigzag(sizes: list[int] | None, length: int | None, key: str | None):
    def check(out: str, as_json: bool) -> None:
        if as_json:
            data = json.loads(out)
            rec = data[key] if key else data
            expect(rec["exact"], "zigzag not exact")
            got = [label_size(lbl) for lbl in rec["objects"]]
            expect(sizes is None or got == sizes, "zigzag objects differ from the construction")
            expect(length is None or len(got) == length, "wrong zigzag length")
        else:
            expect("zigzag exact at all claimed positions" in out, "zigzag not exact")
    return check


def _check_map(homology: dict, qiso: bool):
    def check(out: str, as_json: bool) -> None:
        if as_json:
            data = json.loads(out)
            expect(data["quasi_isomorphism"] == qiso, "quasi-isomorphism verdict differs")
            for i, rec in data["degrees"].items():
                expect(label_size(rec["source"]) == homology["X"][int(i)], "source size differs")
                expect(label_size(rec["target"]) == homology["Y"][int(i)], "target size differs")
        else:
            expect(f"quasi-isomorphism: {'yes' if qiso else 'no'}" in out, "qiso verdict differs")
    return check


def _check_validate(out: str, as_json: bool) -> None:
    if as_json:
        expect(json.loads(out) == {"ok": True, "problems": []}, "valid document reported invalid")
    else:
        expect(out.strip() == "ok", "valid document reported invalid")


def _check_render(homology: dict):
    def check(out: str, as_json: bool) -> None:
        boxes = sum(map(len, homology.values()))
        gold = sum(len(_nonzero(h)) for h in homology.values())
        expect(out.count("[shape=box") == boxes, "wrong number of object nodes")
        expect(out.count('fillcolor="gold"') == gold, "wrong number of homology highlights")
    return check


def _no_check(out: str, as_json: bool) -> None:
    """Invalid inputs are judged by their exit code alone."""


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    stdin: str
    code: int
    check: Callable[[str, bool], None]


def _calls(text: str, specs) -> list[CliCall]:
    """``specs``: (argv without the file, check, json too?) triples, run on
    stdin text."""
    out = []
    for argv, check, both in specs:
        cmd, rest = argv[0], tuple(argv[1:])
        out.append(CliCall((cmd, "-") + rest, text, 0, check))
        if both:
            out.append(CliCall((cmd, "-") + rest + ("--output", "json"), text, 0, check))
    return out


def _invalid_docs(rng: random.Random) -> dict[str, str]:
    """One deliberately invalid document per kind; every command should
    exit 1 on each."""
    ids = gen.Ids(rng)
    cx = gen.set_complex(rng, ids, 1, 3, 6, relabel=False)
    good = gen.document(["instance set"], [gen.set_complex_lines("X", cx)])
    first2 = sorted(cx.transitions[2])[0]
    first3 = sorted(cx.transitions[3])[0]
    missing = ids.fresh()

    def variant(degree: int, tid: str, up: str | None, down: str | None) -> str:
        tr = dict(cx.transitions)
        tr[degree] = dict(tr[degree])
        old_up, old_down = tr[degree][tid]
        tr[degree][tid] = (up or old_up, down or old_down)
        bad = gen.SetComplex(cx.lo, cx.hi, cx.objects, tr)
        return gen.document(["instance set"], [gen.set_complex_lines("X", bad)])

    lin = gen.linear_complex_doc(rng, 4, 7, degrees=3).text
    return {
        "bad-id": good.replace(first2, first2 + "!", 1),
        # T_3 lands on the id T_2 hits: the chain condition fails
        "chain-overlap": variant(3, first3, None, first2),
        "leg-misses-target": variant(2, first2, missing, None),
        "unknown-complex": good + "\nhor f: X -> Q\n",
        "bad-prime": lin.replace("prime 7", "prime 4"),
        "bad-level-shape": lin
        + "\ncomplex W:\n  object 0: dim 4\n  object 1: dim 4\n  object 2: dim 4\n"
        + "\nhor f: W -> X\n  level 1: [[1, 0], [0, 1]]\n",
    }


def build_cli(rng: random.Random, root: str) -> list[Op]:
    calls: list[CliCall] = []
    cx = gen.set_complex_doc(rng, 6, degrees=4)
    h = cx.answers["homology"]
    calls += _calls(cx.text, [
        (("validate",), _check_validate, True),
        (("homology",), _check_homology(h), True),
        (("exact",), _check_exact(h), True),
        (("oracle",), _check_oracle(h), True),
        (("render",), _check_render(h), False),
    ])
    for qiso in (False, True):
        ses = gen.set_ses_doc(rng, 6, qiso, degrees=4)
        h, a = ses.answers["homology"], ses.answers
        calls += _calls(ses.text, [
            (("validate",), _check_validate, not qiso),
            (("homology",), _check_homology(h), True),
            (("les", "--ses", "S"), _check_zigzag(None, a["les_length"], None), True),
            (("render",), _check_render(h), False),
        ])
    ver = gen.set_ver_doc(rng, 6)
    h = ver.answers["homology"]
    calls += _calls(ver.text, [
        (("validate",), _check_validate, True),
        (("homology",), _check_homology(h), True),
        (("render",), _check_render(h), False),
    ])
    for qiso in (True, False):
        mp = gen.set_map_doc(rng, 5, qiso)
        h = mp.answers["homology"]
        calls += _calls(mp.text, [
            (("validate",), _check_validate, qiso),
            (("homology",), _check_homology(h), not qiso),
            (("map-homology", "--map", "F"), _check_map(h, qiso), True),
        ])
    for strong in (False, True):
        sn = gen.snake_doc(rng, 6, strong)
        sizes = sn.answers["zigzag_sizes"]
        calls += _calls(sn.text, [
            (("validate",), _check_validate, True),
            (("snake",), _check_zigzag(sizes, 6, "S"), True),
            (("render",), _check_render({}), False),
        ])
    for dim, p in ((6, 7), (5, 2)):
        lin = gen.linear_complex_doc(rng, dim, p, degrees=4)
        h = lin.answers["homology"]
        calls += _calls(lin.text, [
            (("validate",), _check_validate, True),
            (("homology",), _check_homology(h), True),
            (("exact",), _check_exact(h), p == 7),
            (("oracle",), _check_oracle(h), True),
            (("render",), _check_render(h), False),
        ])
    # the natural command of each corpus file, checked against the verdict
    # its header comment states
    natural = {
        "inclusion_pair": (("les", "--ses", "S"), _check_zigzag(None, None, None)),
        "linear_small": (("oracle",), _check_oracle({})),
        "snake_weak_small": (("snake", "--output", "json"), _check_zigzag(None, 6, "S")),
        "span_legs": (("map-homology", "--map", "F"), _check_map({}, True)),
        "three_term_ses": (
            ("les", "--ses", "S", "--output", "json"),
            _check_zigzag(None, gen.les_length(1, 2), None),
        ),
    }
    for name, (argv, check) in natural.items():
        path = f"{root}/src/acgw/corpus/{name}.acgw"
        calls.append(CliCall(("validate", path), "", 0, _check_validate))
        calls.append(CliCall((argv[0], path) + argv[1:], "", 0, check))
    ops = [Op("valid", c) for c in calls]

    invalid = _invalid_docs(rng)
    commands = ("validate", "homology", "oracle", "render", "exact")
    bad = [
        Op("invalid", CliCall((commands[k % len(commands)], "-"), text, 1, _no_check))
        for k, text in enumerate(invalid.values())
    ]
    bad.append(Op("invalid", CliCall(("homology", "-", "--no-such-flag"), "", 2, _no_check)))
    # spread the invalid calls evenly, about one call in ten
    step = max(len(ops) // len(bad), 1)
    for k, op in enumerate(bad):
        ops.insert(k * (step + 1), op)
    return ops


def run_cli(A, op: Op):
    call: CliCall = op.payload
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(call.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = A.cli.main(list(call.argv))
    finally:
        sys.stdin = saved
    expect(code == call.code, f"exit code {code}, want {call.code}: {err.getvalue()[:120]}")
    text = out.getvalue()
    call.check(text, "json" in call.argv)
    return code, text


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "set_les",
            "finite-set SES documents, 100 to 3200 ids per degree: documents, chains, "
            "homology, snake and finset primitives, no linear algebra",
            build_set_les,
            run_set_les,
            ("documents", "chains", "homology", "snake", "finset"),
        ),
        Workload(
            "linear_homology",
            "F_p complexes of dimension 20 to 200 over a prime mix plus a 2^31-1 slice: "
            "linear.rref dominates",
            build_linear,
            run_linear,
            ("documents", "chains", "homology", "oracle", "linear"),
            frozenset({f"p{gen.OVERFLOW_PRIME}"}),
        ),
        Workload(
            "set_oracle",
            "finite-set complexes, 150 to 750 ids per degree, through the rank oracle: "
            "free_complex dominates",
            build_set_oracle,
            run_set_oracle,
            ("documents", "homology", "oracle", "finset"),
        ),
        Workload(
            "cli_small",
            "in-process CLI calls on corpus-sized documents: fixed per-call cost dominates",
            build_cli,
            run_cli,
            ("cli", "render", "documents", "chains", "homology", "snake", "oracle", "finset", "linear"),
            frozenset({"invalid"}),
        ),
    )
}
