"""Command-line interface.

Exit codes: 0 for success (including negative verdicts such as "not
exact"), 1 for semantic failures (invalid documents, unknown names), 2
for usage errors (bad arguments, missing files).  Any other exception is a defect: it is reported as ``internal
error: <type>: <message>`` with exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .chains import ChainComplex, validate_complex
from .core import AcgwError, ValidationError, flat_is_iso, parse_decimal
from .documents import (
    Document,
    ParseError,
    parse,
    section_complexes,
    section_problems,
    serialize,
    validate_document,
)
from .homology import h_on_map, homology_obj, homology_size
from .linear import LinearInstance
from .oracle import (
    GenConfig,
    _MAX_SIZE,
    gen_chain_map,
    gen_complex,
    gen_composable_chain_maps,
    gen_exact_complex,
    gen_hor_mor,
    gen_ses,
    gen_snake_strong,
    gen_snake_weak,
    gen_ver_mor,
    rank_homology_dims,
)
from .render import render_dot
from .snake import (
    ExactZigzag,
    les_of_ses,
    snake_strong,
    snake_weak,
    zigzag_exactness,
    zigzag_is_exact,
)

__all__ = ["main"]


def _read_text(path: str) -> str:
    """The document at ``path``, or on stdin for ``-``, read as bytes and
    decoded as UTF-8; a byte that is not UTF-8 is a :class:`ParseError`
    at its line.  A stdin that is a text stream with no bytes beneath it
    is read as text."""
    if path == "-":
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:
            return sys.stdin.read()
        data = stream.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; the parser splits lines so too
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})") from None


def _load(path: str) -> Document:
    return parse(_read_text(path))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "output", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        doc = _load(args.file)
        problems = validate_document(doc)
    except ParseError as exc:
        problems = [str(exc)]
    payload = {"ok": not problems, "problems": problems}
    lines = problems if problems else ["ok"]
    _emit(args, payload, lines)
    return 0 if not problems else 1


def _require_valid(doc: Document, section: str, complexes) -> None:
    """Raise, naming ``section`` and then the problems of the first invalid
    one of ``complexes``, unless all are valid: the constructions take
    valid complexes."""
    for cx in complexes:
        problems = validate_complex(cx)
        if problems:
            name = doc.name_of(cx)
            raise AcgwError(
                "\n  ".join(
                    [f"{section}: not checked, complex {name} is invalid"]
                    + [f"complex {name}: {p}" for p in problems]
                )
            )


def _require_section(doc: Document, head: str, name: str) -> None:
    """Raise the lines ``validate`` prints for the section ``head name``,
    if any, and the problems of an invalid complex it lies over."""
    _require_valid(doc, f"{head} {name}", section_complexes(doc, head, name))
    problems = section_problems(doc, head, name)
    if problems:
        raise AcgwError("\n  ".join(problems))


def _selected_complexes(doc: Document, name: str | None, command: str) -> list:
    """The complexes ``command`` reports on, each named and valid."""
    chosen = list(doc.complexes) if name is None else [(name, doc.complex_named(name))]
    _require_valid(doc, command, (cx for _, cx in chosen))
    return chosen


def cmd_homology(args) -> int:
    doc = _load(args.file)
    inst = doc.inst
    lines: list[str] = []
    payload: dict = {}
    failed_law = False
    for name, cx in _selected_complexes(doc, args.name, "homology"):
        record: dict = {"homology": {}, "size_law": True}
        for i in cx.degrees():
            h = homology_obj(cx, i)
            lines.append(f"H_{i}({name}) = {inst.obj_label(h)}")
            record["homology"][str(i)] = {
                "size": inst.obj_size(h),
                "label": inst.obj_label(h),
            }
            expected = (
                inst.obj_size(cx.obj(i))
                - inst.obj_size(cx.transition(i).obj)
                - inst.obj_size(cx.transition(i + 1).obj)
            )
            if inst.obj_size(h) != expected:
                record["size_law"] = False
        if record["size_law"]:
            lines.append(f"{name}: size law |H_i| = |X_i| - |T_i| - |T_i+1| holds")
        else:
            lines.append(f"{name}: size law VIOLATED")
            failed_law = True
        payload[name] = record
    _emit(args, payload, lines)
    return 1 if failed_law else 0


def cmd_exact(args) -> int:
    doc = _load(args.file)
    lines = []
    payload = {}
    for name, cx in _selected_complexes(doc, args.name, "exact"):
        bad = [i for i in cx.degrees() if homology_size(cx, i) > 0]
        payload[name] = {"exact": not bad, "nonzero_degrees": bad}
        if bad:
            lines.append(f"{name}: not exact (homology at {', '.join(map(str, bad))})")
        else:
            lines.append(f"{name}: exact")
    _emit(args, payload, lines)
    return 0


def _zigzag_report(inst, zz: ExactZigzag) -> tuple[dict, list[str]]:
    lines = []
    flags = zigzag_exactness(zz)
    for j, obj in enumerate(zz.objects):
        if j in zz.non_exact_positions:
            verdict = "(exactness not claimed)"
        else:
            verdict = "exact" if flags[j] else "NOT exact"
        lines.append(f"{zz.labels[j]}: {inst.obj_label(obj)}  [{verdict}]")
        if j < len(zz.transitions):
            t = zz.transitions[j]
            lines.append(
                f"  --[{zz.transition_labels[j]}: {inst.obj_label(t.obj)}]-->"
            )
    ok = zigzag_is_exact(zz)
    lines.append(
        "zigzag exact at all claimed positions" if ok else "zigzag NOT exact"
    )
    payload = {
        "objects": [inst.obj_label(o) for o in zz.objects],
        "labels": list(zz.labels),
        "transition_objects": [inst.obj_label(t.obj) for t in zz.transitions],
        "exact_at": flags,
        "not_claimed": sorted(zz.non_exact_positions),
        "exact": ok,
    }
    return payload, lines


def cmd_snake(args) -> int:
    doc = _load(args.file)
    chosen = [("weak", *pair) for pair in doc.snakes_weak]
    chosen += [("strong", *pair) for pair in doc.snakes_strong]
    if args.name is not None:
        chosen = [c for c in chosen if c[1] == args.name]
        if not chosen:
            raise AcgwError(f"document has no snake named {args.name!r}")
    lines: list[str] = []
    payload: dict = {}
    status = 0
    for kind, name, inp in chosen:
        section = f"snake {kind} {name}"
        lines.append(f"{section}:")
        found = section_problems(doc, f"snake {kind}", name)
        problems = [p.removeprefix(f"{section}: ") for p in found]
        if problems:
            payload[name] = {"problems": problems}
            lines += [f"  {p}" for p in problems]
            status = 1
            continue
        zz = snake_weak(inp) if kind == "weak" else snake_strong(inp)
        record, sub = _zigzag_report(doc.inst, zz)
        payload[name] = record
        lines += ["  " + s for s in sub]
    _emit(args, payload, lines)
    return status


def cmd_les(args) -> int:
    doc = _load(args.file)
    _require_section(doc, "ses", args.ses)
    zz = les_of_ses(doc.ses_named(args.ses))
    payload, lines = _zigzag_report(doc.inst, zz)
    _emit(args, payload, lines)
    return 0


def cmd_map_homology(args) -> int:
    doc = _load(args.file)
    _require_section(doc, "map", args.map)
    f = doc.map_named(args.map)
    inst = doc.inst
    spans: dict = {}

    def span_at(i: int):
        if i not in spans:
            spans[i] = h_on_map(f, i)
        return spans[i]

    degrees = [args.degree] if args.degree is not None else list(f.source.degrees())
    lines = []
    payload: dict = {"degrees": {}}
    for i in degrees:
        span = span_at(i)
        lines.append(
            f"H_{i}: {inst.obj_label(span.source)} <= "
            f"{inst.obj_label(span.middle)} -> {inst.obj_label(span.target)}"
        )
        payload["degrees"][str(i)] = {
            "source": inst.obj_label(span.source),
            "middle": inst.obj_label(span.middle),
            "target": inst.obj_label(span.target),
        }
    # The verdict of is_quasi_iso, from the spans already computed.
    qiso = all(flat_is_iso(inst, span_at(i)) for i in f.source.degrees())
    payload["quasi_isomorphism"] = qiso
    lines.append(f"quasi-isomorphism: {'yes' if qiso else 'no'}")
    _emit(args, payload, lines)
    return 0


def cmd_oracle(args) -> int:
    doc = _load(args.file)
    lines = []
    payload = {}
    all_agree = True
    for name, cx in _selected_complexes(doc, args.name, "oracle"):
        by_rank = rank_homology_dims(cx)
        structural = {i: homology_size(cx, i) for i in cx.degrees()}
        agree = by_rank == structural
        all_agree = all_agree and agree
        payload[name] = {
            "rank": {str(i): v for i, v in by_rank.items()},
            "structural": {str(i): v for i, v in structural.items()},
            "agree": agree,
        }
        for i in cx.degrees():
            lines.append(
                f"{name} degree {i}: structural {structural[i]}, rank {by_rank[i]}"
            )
        if not agree:
            lines.append(f"{name}: MISMATCH between structural homology and ranks")
    lines.append(
        "oracle and framework agree at all degrees"
        if all_agree
        else "oracle and framework DISAGREE"
    )
    _emit(args, payload, lines)
    return 0 if all_agree else 1


def cmd_render(args) -> int:
    doc = _load(args.file)
    _selected_complexes(doc, None, "render")
    dot = render_dot(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def _one_complex(cx: ChainComplex) -> Document:
    return Document(cx.inst, complexes=(("X", cx),))


def _gen_hor(cfg: GenConfig) -> Document:
    f = gen_hor_mor(cfg)
    return Document(
        f.source.inst, complexes=(("X", f.source), ("Y", f.target)), hors=(("f", f),)
    )


def _gen_ver(cfg: GenConfig) -> Document:
    g = gen_ver_mor(cfg)
    return Document(
        g.source.inst, complexes=(("Z", g.source), ("Y", g.target)), vers=(("g", g),)
    )


def _gen_map(cfg: GenConfig) -> Document:
    f = gen_chain_map(cfg)
    complexes = (("X", f.source), ("Z", f.middle), ("Y", f.target))
    return Document(f.source.inst, complexes=complexes, maps=(("F", f),))


def _gen_pair(cfg: GenConfig) -> Document:
    f, g = gen_composable_chain_maps(cfg)
    complexes = (
        ("X", f.source),
        ("U", f.middle),
        ("Y", f.target),
        ("V", g.middle),
        ("W", g.target),
    )
    return Document(f.source.inst, complexes=complexes, maps=(("F", f), ("G", g)))


def _gen_ses(cfg: GenConfig) -> Document:
    ses = gen_ses(cfg)
    x, y = ses.sub.source, ses.sub.target
    return Document(
        x.inst, complexes=(("X", x), ("Y", y)), hors=(("f", ses.sub),), seses=(("S", "f"),)
    )


def _gen_snake_weak(cfg: GenConfig) -> Document:
    s = gen_snake_weak(cfg)
    return Document(s.inst, snakes_weak=(("S", s),))


def _gen_snake_strong(cfg: GenConfig) -> Document:
    s = gen_snake_strong(cfg)
    return Document(s.inst, snakes_strong=(("S", s),))


#: document builders for ``gen --kind``
_GEN = {
    "complex": lambda cfg: _one_complex(gen_complex(cfg)[0]),
    "exact": lambda cfg: _one_complex(gen_exact_complex(cfg)),
    "hor": _gen_hor,
    "ver": _gen_ver,
    "map": _gen_map,
    "pair": _gen_pair,
    "ses": _gen_ses,
    "snake-weak": _gen_snake_weak,
    "snake-strong": _gen_snake_strong,
}


def cmd_gen(args) -> int:
    cfg = GenConfig(args.seed, max_size=args.size, instance=args.instance, prime=args.prime)
    sys.stdout.write(serialize(_GEN[args.kind](cfg)))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


def _integer(text: str) -> int:
    """An integer option's value: ASCII decimal digits after an optional
    ``-``.  ``--seed`` and ``--degree`` take any; ``--size`` and
    ``--prime`` check more."""
    value = parse_decimal(text, signed=True)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _size(text: str) -> int:
    """A ``--size`` value: an integer from 0 to the generators' cap, past
    which no document changes."""
    size = _integer(text)
    if size < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {size}")
    if size > _MAX_SIZE:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_SIZE}, got {size}")
    return size


def _prime(text: str) -> int:
    """A ``--prime`` value: a field order that :class:`LinearInstance`
    accepts, whose check words the error."""
    try:
        return LinearInstance(_integer(text)).prime
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--output", choices=("text", "json"), default="text", help="report format"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``acgw`` parser, built on first use and then shared by every
    ``main`` call: ``parse_args`` leaves it unchanged and returns a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="acgw",
        description="Complexes and homology over double-exact instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document for problems")
    p.add_argument("file", help="document path, or - for stdin")
    _add_output(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="homology of every complex")
    p.add_argument("file")
    p.add_argument("--name", help="restrict to one complex")
    _add_output(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("exact", help="exactness verdict for every complex")
    p.add_argument("file")
    p.add_argument("--name", help="restrict to one complex")
    _add_output(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("snake", help="run the snake construction of a document")
    p.add_argument("file")
    p.add_argument("--name", help="restrict to one snake input")
    _add_output(p)
    p.set_defaults(func=cmd_snake)

    p = sub.add_parser("les", help="long exact sequence of a short exact sequence")
    p.add_argument("file")
    p.add_argument("--ses", required=True, help="name of the ses section")
    _add_output(p)
    p.set_defaults(func=cmd_les)

    p = sub.add_parser("map-homology", help="induced homology span of a chain map")
    p.add_argument("file")
    p.add_argument("--map", required=True, help="name of the map section")
    p.add_argument("--degree", type=_integer, help="restrict to one degree")
    _add_output(p)
    p.set_defaults(func=cmd_map_homology)

    p = sub.add_parser("oracle", help="cross-check homology against matrix ranks")
    p.add_argument("file")
    p.add_argument("--name", help="restrict to one complex")
    _add_output(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="emit Graphviz dot source")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gen", help="emit a random document")
    p.add_argument("--kind", choices=tuple(_GEN), required=True)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument(
        "--size",
        type=_size,
        default=_MAX_SIZE,
        help=f"object size bound, at most {_MAX_SIZE}; exact complexes and snake "
        "inputs stop growing at 6",
    )
    p.add_argument("--instance", choices=("set", "linear"), default="set")
    p.add_argument("--prime", type=_prime, default=2)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except AcgwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect of acgw: bad input gets an ``error:`` line above.
        # SystemExit and KeyboardInterrupt are not Exceptions: they propagate.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
