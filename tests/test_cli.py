"""End-to-end coverage of the command-line interface."""

import contextlib
import io
import json
import re
import sys
import time
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgw import ParseError, parse, serialize, validate_complex, validate_document
from acgw.cli import main
from acgw.documents import section_complexes, section_problems

from conftest import CORPUS_NAMES, corpus_text

CORPUS_DIR = files("acgw") / "corpus"


def corpus_path(name: str) -> str:
    return str(CORPUS_DIR / f"{name}.acgw")


SET_GEN_KINDS = (
    "complex",
    "exact",
    "hor",
    "ver",
    "map",
    "pair",
    "ses",
    "snake-weak",
    "snake-strong",
)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_corpus_ok(capsys, corpus_name):
    assert main(["validate", corpus_path(corpus_name)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_parse_error_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.acgw"
    bad.write_text("instance set\ncomplex X:\n  object 0: a{b\n")
    assert main(["validate", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().out


def test_validate_reports_semantic_problems(tmp_path, capsys):
    bad = tmp_path / "bad.acgw"
    bad.write_text(
        "instance set\n"
        "complex X:\n"
        "  object 0: p\n"
        "  object 1: p q\n"
        "  object 2: p\n"
        "  transition 1: p\n"
        "  transition 2: p\n"
    )
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.strip()


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/nowhere.acgw"]) == 2
    assert capsys.readouterr().err


def test_an_unexpected_exception_is_an_internal_error_line(monkeypatch, capsys):
    def broken(doc):
        raise RuntimeError("boom")

    monkeypatch.setattr("acgw.cli.validate_document", broken)
    assert main(["validate", corpus_path("inclusion_pair")]) == 1
    assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")


def test_an_interrupt_is_not_caught(monkeypatch):
    def interrupted(doc):
        raise KeyboardInterrupt

    monkeypatch.setattr("acgw.cli.validate_document", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["validate", corpus_path("inclusion_pair")])


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    import io
    import sys

    text = (CORPUS_DIR / "inclusion_pair.acgw").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["validate", "-"]) == 0


#: documents with bytes that are not UTF-8, and the problem each gives,
#: at the line of the first such byte; one has CRLF line ends
NOT_UTF8 = {
    "invalid_start": (
        b"instance set\ncomplex X:\n  object 1: \xff\xfe\n",
        "line 3: not UTF-8: byte 0xff (invalid start byte)",
    ),
    "crlf_truncated": (
        b"instance set\r\ncomplex X:\r\n  object 1: a\xc3\r\n",
        "line 3: not UTF-8: byte 0xc3 (invalid continuation byte)",
    ),
    "first_line": (b"\x80instance set\n", "line 1: not UTF-8: byte 0x80 (invalid start byte)"),
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8))
@pytest.mark.parametrize("source", ["path", "stdin"])
def test_a_document_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch, name, source):
    data, problem = NOT_UTF8[name]
    path = tmp_path / "bad.acgw"
    path.write_bytes(data)
    # stdin decoded as a locale might, which the reader must not follow
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    file = str(path) if source == "path" else "-"
    assert main(["validate", file]) == 1
    assert capsys.readouterr() == (f"{problem}\n", "")
    stdin.seek(0)
    assert main(["homology", file]) == 1
    assert capsys.readouterr() == ("", f"error: {problem}\n")


def test_empty_complex_validates(tmp_path, capsys):
    doc = tmp_path / "empty.acgw"
    doc.write_text("instance set\ncomplex X:\n  object 0:\n")
    assert main(["validate", str(doc)]) == 0


# ---------------------------------------------------------------------------
# homology / exact / oracle
# ---------------------------------------------------------------------------


def test_homology_worked_example(capsys):
    assert main(["homology", corpus_path("inclusion_pair")]) == 0
    out = capsys.readouterr().out
    assert "H_2(X) = {a}" in out
    assert "H_2(Y) = {}" in out
    assert out.count("size law") == 2


def test_homology_single_named_complex(capsys):
    assert main(["homology", "--name", "X", corpus_path("inclusion_pair")]) == 0
    out = capsys.readouterr().out
    assert "H_2(X) = {a}" in out and "H_2(Y)" not in out


def test_homology_json_mode(capsys):
    assert main(["homology", "--output", "json", corpus_path("inclusion_pair")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["X"]["homology"]["2"] == {"label": "{a}", "size": 1}
    assert payload["X"]["size_law"] is True


def test_homology_linear_labels(capsys):
    assert main(["homology", corpus_path("linear_small")]) == 0
    out = capsys.readouterr().out
    assert "H_0(X) = F2^1" in out
    assert "H_1(X) = F2^0" in out


def test_exact_verdicts(capsys):
    assert main(["exact", corpus_path("inclusion_pair")]) == 0
    out = capsys.readouterr().out
    assert "X: not exact (homology at 2)" in out
    assert "Y: exact" in out


def test_oracle_agreement(capsys, corpus_name):
    assert main(["oracle", corpus_path(corpus_name)]) == 0
    assert "agree at all degrees" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# snake / les / map-homology
# ---------------------------------------------------------------------------


def test_snake_listing(capsys):
    assert main(["snake", corpus_path("snake_weak_small")]) == 0
    out = capsys.readouterr().out
    assert "ker of left column: {a2}  [exact]" in out
    assert "--[kernel pullback: {c1}]-->" in out
    assert "zigzag exact at all claimed positions" in out


def test_les_listing(capsys):
    assert main(["les", "--ses", "S", corpus_path("three_term_ses")]) == 0
    out = capsys.readouterr().out
    assert "H_2(quot): {c}" in out
    assert "--[connecting 2 to 1: {c}]-->" in out
    assert "zigzag exact at all claimed positions" in out


@pytest.mark.parametrize("prime", [2, 3, 7])
@pytest.mark.parametrize("seed", [1, 5, 9])
def test_les_of_a_generated_linear_ses(capsys, prime, seed):
    gen = ["gen", "--kind", "ses", "--instance", "linear", "--prime", str(prime)]
    assert main([*gen, "--seed", str(seed)]) == 0
    code, out, err = run_on_stdin(["les", "-", "--ses", "S"], capsys.readouterr().out)
    assert (code, err) == (0, "")
    assert out.endswith("zigzag exact at all claimed positions\n")


def test_les_unknown_ses_name(capsys):
    assert main(["les", "--ses", "missing", corpus_path("three_term_ses")]) == 1
    assert capsys.readouterr().err


def test_map_homology_verdict(capsys):
    assert main(["map-homology", "--map", "F", corpus_path("span_legs")]) == 0
    out = capsys.readouterr().out
    assert "quasi-isomorphism: yes" in out
    assert "H_2:" in out


def test_map_homology_single_degree(capsys):
    rc = main(["map-homology", "--map", "F", "--degree", "2", corpus_path("span_legs")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H_2:" in out and "H_1:" not in out


@pytest.mark.parametrize("degree", ["1_0", "\u0663", "+2", "2.0"])
def test_map_homology_degree_is_ascii_digits(capsys, degree):
    argv = ["map-homology", "--map", "F", corpus_path("span_legs")]
    assert main([*argv, "--degree", degree]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(
        f"acgw map-homology: error: argument --degree: invalid int value: {degree!r}\n"
    )
    # a negative degree is outside the complexes and reads as empty
    assert main([*argv, "--degree", "-1"]) == 0
    assert capsys.readouterr().out == "H_-1: {} <= {} -> {}\nquasi-isomorphism: yes\n"


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_emits_dot(capsys):
    assert main(["render", corpus_path("inclusion_pair")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "cluster" in out and "label" in out


def test_render_to_file(tmp_path, capsys):
    target = tmp_path / "out.dot"
    assert main(["render", "-o", str(target), corpus_path("span_legs")]) == 0
    assert target.read_text().startswith("digraph")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", SET_GEN_KINDS)
def test_gen_output_parses_and_validates(capsys, kind):
    assert main(["gen", "--kind", kind, "--seed", "7"]) == 0
    text = capsys.readouterr().out
    doc = parse(text)
    assert validate_document(doc) == []
    # Canonical output: serializing the parsed document reproduces it.
    assert serialize(doc) == text


@pytest.mark.parametrize("kind", SET_GEN_KINDS)
def test_gen_linear_kinds(capsys, kind):
    rc = main(["gen", "--kind", kind, "--instance", "linear", "--prime", "3",
               "--seed", "5"])
    assert rc == 0
    text = capsys.readouterr().out
    doc = parse(text)
    assert doc.kind == "linear" and doc.prime == 3
    assert validate_document(doc) == []
    assert serialize(doc) == text


def test_gen_linear_map_pipe(tmp_path, capsys):
    assert main(["gen", "--kind", "map", "--instance", "linear", "--prime", "5",
                 "--seed", "3"]) == 0
    path = tmp_path / "map.acgw"
    path.write_text(capsys.readouterr().out)
    assert main(["map-homology", str(path), "--map", "F"]) == 0
    assert "quasi-isomorphism:" in capsys.readouterr().out
    assert main(["oracle", str(path)]) == 0
    assert "agree at all degrees" in capsys.readouterr().out


@pytest.mark.parametrize("kind", SET_GEN_KINDS)
def test_gen_negative_size_is_usage_error(capsys, kind):
    assert main(["gen", "--kind", kind, "--seed", "1", "--size", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("acgw gen: error: argument --size: must be at least 0, got -1\n")
    assert main(["gen", "--kind", kind, "--seed", "1", "--size", "0"]) == 0
    assert validate_document(parse(capsys.readouterr().out)) == []


@pytest.mark.parametrize("size", ["1_0", "\u0663", "+3", " 3"])
def test_gen_size_is_ascii_digits(capsys, size):
    assert main(["gen", "--kind", "complex", "--seed", "1", "--size", size]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"acgw gen: error: argument --size: invalid int value: {size!r}\n")


@pytest.mark.parametrize("seed", ["1_0", "\u0663", "+3", " 3", "3.0", ""])
def test_gen_seed_is_ascii_digits(capsys, seed):
    # ``int`` reads all but the last two
    assert main(["gen", "--kind", "complex", "--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"acgw gen: error: argument --seed: invalid int value: {seed!r}\n")


def test_gen_seed_may_be_negative(capsys):
    for seed in ("-1", "-01"):
        assert main(["gen", "--kind", "complex", "--seed", seed]) == 0
        assert validate_document(parse(capsys.readouterr().out)) == []


@pytest.mark.parametrize("kind", SET_GEN_KINDS)
def test_gen_size_above_the_cap_is_usage_error(capsys, kind):
    # No generator grows past size 8, so a larger --size would write the
    # size-8 document under a larger name.
    assert main(["gen", "--kind", kind, "--seed", "1", "--size", "9"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("acgw gen: error: argument --size: must be at most 8, got 9\n")
    outputs = []
    for size in (["--size", "8"], []):
        assert main(["gen", "--kind", kind, "--seed", "1", *size]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert validate_document(parse(outputs[0])) == []


def test_gen_help_names_both_size_caps(capsys):
    assert main(["gen", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "at most 8" in help_text and "stop growing at 6" in help_text


@pytest.mark.parametrize(
    "prime,problem",
    [
        ("4", "field order must be prime, got 4"),
        ("1", "field order must be prime, got 1"),
        ("-7", "field order must be prime, got -7"),
        (str(2**63 + 29), f"field order must be below 2^63, got {2**63 + 29}"),
        ("x", "invalid int value: 'x'"),
        # spellings ``int`` reads but a document refuses
        ("6_5_5_2_1", "invalid int value: '6_5_5_2_1'"),
        ("\u0663", "invalid int value: '\u0663'"),
        ("+3", "invalid int value: '+3'"),
    ],
)
@pytest.mark.parametrize("instance", ["linear", "set"])
def test_gen_bad_prime_is_usage_error(capsys, instance, prime, problem):
    # the linear instance's own check words it, whichever instance is asked for
    argv = ["gen", "--kind", "complex", "--seed", "1", "--instance", instance]
    assert main([*argv, "--prime", prime]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"acgw gen: error: argument --prime: {problem}\n")
    assert main([*argv, "--prime", "3"]) == 0
    assert validate_document(parse(capsys.readouterr().out)) == []


def test_gen_deterministic(capsys):
    assert main(["gen", "--kind", "map", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "map", "--seed", "42"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--kind", "map", "--seed", "43"]) == 0
    assert capsys.readouterr().out != first


def test_gen_pipe_into_commands(tmp_path, capsys):
    assert main(["gen", "--kind", "ses", "--seed", "11"]) == 0
    doc_text = capsys.readouterr().out
    path = tmp_path / "gen.acgw"
    path.write_text(doc_text)
    assert main(["les", "--ses", "S", str(path)]) == 0
    assert "zigzag exact" in capsys.readouterr().out
    assert main(["oracle", str(path)]) == 0
    assert "agree at all degrees" in capsys.readouterr().out


def test_gen_snake_pipe(tmp_path, capsys):
    assert main(["gen", "--kind", "snake-weak", "--seed", "3"]) == 0
    path = tmp_path / "snake.acgw"
    path.write_text(capsys.readouterr().out)
    assert main(["snake", str(path)]) == 0
    assert "zigzag exact at all claimed positions" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes for broken inputs
# ---------------------------------------------------------------------------


def test_homology_size_law_failure_unreachable_by_validated_docs(tmp_path, capsys):
    # A document that parses but fails validation still reports homology
    # only after validation passes elsewhere; the homology command itself
    # recomputes the law and exits nonzero on violation.  Valid corpus
    # documents never trip it.
    for name in CORPUS_NAMES:
        assert main(["homology", corpus_path(name)]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# inputs that reach the instance hooks with bad data: an error line, no
# traceback
# ---------------------------------------------------------------------------


def run_on_stdin(argv, text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI on ``argv`` with ``text`` as
    standard input, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ("validate", "homology", "oracle", "render"))
def test_a_huge_degree_range_is_refused_promptly(command):
    text = "instance set\ncomplex X:\n  object 1: a\n  object 1000000000000: b\n"
    started = time.perf_counter()
    code, out, err = run_on_stdin([command, "-"], text)
    assert time.perf_counter() - started < 1.0
    assert code == 1
    message = "line 2: complex 'X' spans degrees 1..1000000000000, more than 10,000\n"
    assert out + err == (message if command == "validate" else f"error: {message}")


def test_the_widest_allowed_degree_range_is_read():
    text = "instance set\ncomplex X:\n  object -5000: a\n  object 4999: b\n"
    assert run_on_stdin(["validate", "-"], text) == (0, "ok\n", "")
    wider = text.replace("4999", "5000")
    code, out, _ = run_on_stdin(["validate", "-"], wider)
    assert (code, out) == (1, "line 2: complex 'X' spans degrees -5000..5000, more than 10,000\n")


@pytest.mark.parametrize("command", ("validate", "homology", "oracle", "render"))
def test_a_huge_dimension_is_refused_promptly(command):
    text = "instance linear\nprime 2\ncomplex X:\n  object 0: dim 100000\n  object 1: dim 2\n"
    started = time.perf_counter()
    code, out, err = run_on_stdin([command, "-"], text)
    assert time.perf_counter() - started < 1.0
    assert code == 1
    message = "line 4: object 0: dimension 100000 exceeds 4096\n"
    assert out + err == (message if command == "validate" else f"error: {message}")


def test_the_largest_allowed_dimension_is_read():
    text = (
        "instance linear\nprime 2\ncomplex X:\n"
        "  object 0: dim 4096\n  object 1: dim 1\n  transition 1: dim 0\n"
    )
    assert run_on_stdin(["validate", "-"], text) == (0, "ok\n", "")
    code, out, _ = run_on_stdin(["validate", "-"], text.replace("dim 0", "dim 4097"))
    assert (code, out) == (1, "line 6: transition 1: dimension 4097 exceeds 4096\n")


def test_a_degree_with_a_no_break_space_is_a_bad_degree():
    text = "instance set\ncomplex X:\n  object 1\u00a0: a\n"
    code, out, err = run_on_stdin(["validate", "-"], text)
    assert (code, out + err) == (1, "line 3: bad degree '1\\xa0'\n")


def test_non_prime_field_order_is_an_error_line():
    text = (CORPUS_DIR / "linear_small.acgw").read_text().replace("prime 2", "prime 4")
    code, _, err = run_on_stdin(["exact", "-"], text)
    assert code == 1
    assert err == "error: line 4: field order must be prime, got 4\n"


def test_oracle_on_a_leg_that_misses_its_target_is_an_error_line():
    text = (
        "instance set\n"
        "complex X:\n"
        "  object 1: p\n"
        "  object 2: q\n"
        "  transition 2: t\n"
        "    up: t->missing\n"
        "    down: t->p\n"
    )
    # the complex is checked before the ranks are taken
    assert run_on_stdin(["oracle", "-"], text) == (
        1,
        "",
        "error: oracle: not checked, complex X is invalid\n"
        "  complex X: transition 2 upper leg: morphism maps outside its target: ['missing']\n",
    )


#: an F_3 complex whose upper leg is not surjective, though both legs have
#: the right shape
NOT_SURJECTIVE = (
    "instance linear\n"
    "prime 3\n"
    "complex X:\n"
    "  object 1: dim 1\n"
    "  object 2: dim 1\n"
    "  transition 2: dim 1\n"
    "    up: [[0]]\n"
    "    down: [[1]]\n"
)

#: a set complex whose legs into X_1 overlap in ``a``
OVERLAPPING_LEGS = (
    "instance set\n"
    "complex X:\n"
    "  object 0: p\n"
    "  object 1: a\n"
    "  object 2: b\n"
    "  transition 1: s\n"
    "    up: s->a\n"
    "    down: s->p\n"
    "  transition 2: t\n"
    "    up: t->b\n"
    "    down: t->a\n"
)


@pytest.mark.parametrize(
    "text,problem",
    [
        (NOT_SURJECTIVE, "transition 2 upper leg: vertical matrix is not surjective"),
        (OVERLAPPING_LEGS, "chain condition fails at degree 1: transition images overlap in {a}"),
    ],
    ids=["linear", "set"],
)
def test_oracle_on_an_invalid_complex_is_not_checked(text, problem):
    # Neither the ranks nor the structural homology are computed; the
    # error names the command and the complex, as homology and render do.
    code, out, err = run_on_stdin(["oracle", "-"], text)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: oracle: not checked, complex X is invalid",
        f"  complex X: {problem}",
    ]


@pytest.mark.parametrize(
    "text,problem",
    [
        (NOT_SURJECTIVE, "transition 2 upper leg: vertical matrix is not surjective"),
        (OVERLAPPING_LEGS, "chain condition fails at degree 1: transition images overlap in {a}"),
    ],
    ids=["linear", "set"],
)
def test_render_of_an_invalid_complex_is_not_checked(tmp_path, text, problem):
    # Rendering colours the degrees with homology, which is computed only
    # on a valid complex: nothing is written to stdout or to the -o file.
    source, target = tmp_path / "in.acgw", tmp_path / "out.dot"
    source.write_text(text, encoding="utf-8")
    expected = ["error: render: not checked, complex X is invalid", f"  complex X: {problem}"]
    code, out, err = run_on_stdin(["render", "-"], text)
    assert (code, out, err.splitlines()) == (1, "", expected)
    code, out, err = run_on_stdin(["render", "-o", str(target), str(source)], "")
    assert (code, out, err.splitlines()) == (1, "", expected)
    assert not target.exists()


def test_level_matrix_of_the_wrong_shape_is_an_error_line():
    text = (
        "instance linear\n"
        "prime 7\n"
        "complex X:\n"
        "  object 0: dim 4\n"
        "  object 1: dim 4\n"
        "complex W:\n"
        "  object 0: dim 4\n"
        "  object 1: dim 4\n"
        "hor f: W -> X\n"
        "  level 1: [[1, 0], [0, 1]]\n"
    )
    code, _, err = run_on_stdin(["homology", "-"], text)
    assert (code, err) == (1, "error: line 10: level 1: matrix must be 4x4, got ((1, 0), (0, 1))\n")
    text = (
        "instance linear\n"
        "prime 7\n"
        "complex X:\n"
        "  object 0: dim 2\n"
        "  object 1: dim 2\n"
        "complex W:\n"
        "  object 0: dim 2\n"
        "  object 1: dim 2\n"
        "ver g: W -> X\n"
        "  level 0: [[1]]\n"
    )
    code, _, err = run_on_stdin(["homology", "-"], text)
    assert (code, err) == (1, "error: line 10: level 0: matrix must be 2x2, got ((1,),)\n")


LINEAR_LEG = (
    "instance linear\n"
    "prime 7\n"
    "complex X:\n"
    "  object 0: dim 2\n"
    "  object 1: dim 2\n"
    "  transition 1: dim 1\n"
    "    up: {up}\n"
    "    down: [[0], [1]]\n"
)


@pytest.mark.parametrize(
    "command,up",
    [
        ("homology", "[[100000000000000000000000, 0]]"),
        ("homology", "[[1, 0, 0]]"),
        ("oracle", "[[1, 0, 0]]"),
        ("render", "[[1, 0, 0]]"),
    ],
)
def test_bad_transition_matrix_is_an_error_line(command, up):
    code, _, err = run_on_stdin([command, "-"], LINEAR_LEG.format(up=up))
    assert code == 1
    assert err.startswith("error:") and "matrix" in err


def test_a_leg_matrix_of_the_wrong_shape_is_refused_at_its_line():
    code, out, _ = run_on_stdin(["validate", "-"], LINEAR_LEG.format(up="[[1, 0, 0]]"))
    assert (code, out) == (1, "line 7: up: matrix must be 1x2, got ((1, 0, 0),)\n")


#: a leg nested far deeper than the JSON decoder recurses
DEEP_LEG = LINEAR_LEG.format(up="[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("command", ("validate", "homology", "oracle"))
def test_a_deeply_nested_matrix_is_an_error_line(command):
    code, out, err = run_on_stdin([command, "-"], DEEP_LEG)
    assert code == 1 and "internal error" not in err
    # validate reports the problem on stdout, the others as an error
    message = out if command == "validate" else err.removeprefix("error: ")
    assert message.startswith("line 7: up: bad matrix: maximum recursion depth exceeded")


# ---------------------------------------------------------------------------
# invalid SES documents: each problem of the hor section is reported again
# under the ses built on it, and no quotient is built on an invalid sub
# morphism, by validate as by les
# ---------------------------------------------------------------------------

SES_DOCS = {
    # level 1 of f sends c and e to the same id
    "non_injective_level": (
        "instance set\n"
        "complex X:\n"
        "  object 1: c e\n"
        "  object 2:\n"
        "complex Y:\n"
        "  object 1: c d\n"
        "  object 2: c\n"
        "  transition 2: c\n"
        "hor f: X -> Y\n"
        "  level 1: c->c e->c\n"
        "ses S: f\n",
        ["hor f: level 1: morphism is not injective"],
    ),
    # the transition c of Y sits over the image of f, but no transition of
    # X maps onto it, so the upper square is only commuting
    "bad_bar_square": (
        "instance set\n"
        "complex X:\n"
        "  object 1: c\n"
        "  object 2: c\n"
        "complex Y:\n"
        "  object 1: c\n"
        "  object 2: c\n"
        "  transition 2: c\n"
        "hor f: X -> Y\n"
        "  level 1: c->c\n"
        "  level 2: c->c\n"
        "ses S: f\n",
        ["hor f: upper square at degree 2 is not distinguished (COMMUTING)"],
    ),
    # the corpus pair with its level 2 sent outside the sub-complex: the
    # upper square is only commuting, and no quotient is built on that level
    "level_outside_the_sub": (
        corpus_text("inclusion_pair").replace("level 2: a->a", "level 2: a->b"),
        ["hor f: upper square at degree 2 is not distinguished (COMMUTING)"],
    ),
}


@pytest.mark.parametrize("name", sorted(SES_DOCS))
def test_invalid_ses_document_reports_sub_problems_twice(tmp_path, capsys, name):
    text, hor_problems = SES_DOCS[name]
    path = tmp_path / f"{name}.acgw"
    path.write_text(text)
    expected = hor_problems + [
        p.replace("hor f: ", "ses S: sub: ", 1) for p in hor_problems
    ]
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "".join(f"{p}\n" for p in expected)
    assert main(["validate", str(path), "--output", "json"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == {"ok": False, "problems": expected}
    assert out == json.dumps({"ok": False, "problems": expected}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# F_p matrix entries in documents: integers are reduced mod p, anything else
# is a parse error naming the level
# ---------------------------------------------------------------------------

LINEAR_LEVEL = (
    "instance linear\n"
    "prime 7\n"
    "complex X:\n"
    "  object 0: dim 2\n"
    "complex W:\n"
    "  object 0: dim 2\n"
    "hor f: W -> X\n"
    "  level 0: {level}\n"
)


@pytest.mark.parametrize(
    "level,reduced",
    [
        ("[[-6, 0], [0, 1]]", [[1, 0], [0, 1]]),  # negative entry
        ("[[8, 0], [0, 15]]", [[1, 0], [0, 1]]),  # entries >= p
        ("[[true, 0], [0, 1]]", [[1, 0], [0, 1]]),  # JSON true is the integer 1
    ],
)
def test_integer_matrix_entries_are_reduced_mod_p(tmp_path, capsys, level, reduced):
    path = tmp_path / "lin.acgw"
    path.write_text(LINEAR_LEVEL.format(level=level))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"
    doc = parse(path.read_text())
    assert doc.inst.hor_matrix(doc.hor_named("f").levels[0]).tolist() == reduced


@pytest.mark.parametrize(
    "level,message",
    [
        ("[[1.0, 0], [0, 1]]", "matrix must be a JSON list of integer rows"),
        ("[[1, 0], [0]]", "bad matrix: setting an array element with a sequence."),
        (
            "[[100000000000000000000000, 0], [0, 1]]",
            "bad matrix: Python int too large to convert to C long",
        ),
    ],
    ids=["float", "ragged", "beyond_int64"],
)
def test_bad_matrix_entries_are_parse_errors(tmp_path, capsys, level, message):
    path = tmp_path / "lin.acgw"
    path.write_text(LINEAR_LEVEL.format(level=level))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"line 8: level 0: {message}")
    assert out.count("\n") == 1


def test_hor_over_a_complex_with_a_partial_leg_is_reported(tmp_path, capsys):
    # The upper leg of Y's transition 2 misses z.  The squares of f are
    # classified on that leg, which must not raise.
    path = tmp_path / "partial_leg.acgw"
    path.write_text(
        "instance set\n"
        "complex X:\n"
        "  object 1:\n"
        "  object 2: a\n"
        "complex Y:\n"
        "  object 1: b y\n"
        "  object 2: a b\n"
        "  transition 2: b z\n"
        "    up: b->a\n"
        "    down: b->b z->y\n"
        "hor f: X -> Y\n"
        "  level 2: a->a\n"
    )
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(
        "complex Y: transition 2 upper leg: morphism is not total on its source"
    )


# ---------------------------------------------------------------------------
# sections over an invalid complex are reported as not checked, not
# computed on
# ---------------------------------------------------------------------------

INVALID_COMPLEX_DOCS = {
    # the upper leg of Y's transition 2 misses u; the quotient of S would
    # compose along it
    "partial_upper_leg": (
        "instance set\n"
        "complex X:\n"
        "  object 1: a\n"
        "  object 2: c\n"
        "complex Y:\n"
        "  object 1: a b\n"
        "  object 2: c d\n"
        "  transition 2: t u\n"
        "    up: t->c\n"
        "    down: t->a u->b\n"
        "hor f: X -> Y\n"
        "  level 1: a->a\n"
        "  level 2: c->c\n"
        "ver g: X -> Y\n"
        "  level 1: a->a\n"
        "  level 2: c->c\n"
        "map F: X <- X -> Y\n"
        "  back 1: a->a\n"
        "  back 2: c->c\n"
        "  front 1: a->a\n"
        "  front 2: c->c\n"
        "ses S: f\n",
        [
            "complex Y: transition 2 upper leg: morphism is not total on its "
            "source: defined on ['t'], source is ['t', 'u']",
            "hor f: not checked, complex Y is invalid",
            "ver g: not checked, complex Y is invalid",
            "map F: not checked, complex Y is invalid",
            "ses S: not checked, complex Y is invalid",
        ],
    ),
    # the lower leg of Y's transition 2 is empty; the lower square of f
    # would be checked along it
    "empty_lower_leg": (
        "instance set\n"
        "complex X:\n"
        "  object 1: a\n"
        "  object 2: c\n"
        "  transition 2: t\n"
        "    up: t->c\n"
        "    down: t->a\n"
        "complex Y:\n"
        "  object 1: a\n"
        "  object 2: c\n"
        "  transition 2: t\n"
        "    up: t->c\n"
        "    down:\n"
        "hor f: X -> Y\n"
        "  level 1: a->a\n"
        "  level 2: c->c\n",
        [
            "complex Y: transition 2 lower leg: morphism is not total on its "
            "source: defined on [], source is ['t']",
            "hor f: not checked, complex Y is invalid",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_COMPLEX_DOCS))
def test_sections_over_an_invalid_complex_are_not_checked(tmp_path, capsys, name):
    text, expected = INVALID_COMPLEX_DOCS[name]
    path = tmp_path / f"{name}.acgw"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("".join(f"{p}\n" for p in expected), "")
    assert main(["validate", str(path), "--output", "json"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (json.dumps({"ok": False, "problems": expected}, indent=2) + "\n", "")


#: the stderr lines, after ``error: <section>: ``, of a command that would
#: compute on the invalid complex Y of ``partial_upper_leg``: the verdict,
#: then Y's problems as ``validate`` prints them
PARTIAL_UPPER_LEG_Y = (
    "not checked, complex Y is invalid\n"
    f"  {INVALID_COMPLEX_DOCS['partial_upper_leg'][1][0]}\n"
)


def test_les_over_an_invalid_complex_is_not_checked(tmp_path, capsys):
    text, _ = INVALID_COMPLEX_DOCS["partial_upper_leg"]
    path = tmp_path / "partial_upper_leg.acgw"
    path.write_text(text)
    for output in ("text", "json"):
        assert main(["les", str(path), "--ses", "S", "--output", output]) == 1
        assert capsys.readouterr() == ("", f"error: ses S: {PARTIAL_UPPER_LEG_Y}")


@pytest.mark.parametrize(
    "argv, section",
    [
        (["homology"], "homology"),
        (["homology", "--name", "Y"], "homology"),
        (["exact"], "exact"),
        (["map-homology", "--map", "F"], "map F"),
        (["map-homology", "--map", "F", "--degree", "1"], "map F"),
    ],
)
def test_reports_over_an_invalid_complex_are_not_computed(tmp_path, capsys, argv, section):
    text, _ = INVALID_COMPLEX_DOCS["partial_upper_leg"]
    path = tmp_path / "partial_upper_leg.acgw"
    path.write_text(text)
    for output in ("text", "json"):
        assert main([argv[0], str(path), *argv[1:], "--output", output]) == 1
        assert capsys.readouterr() == ("", f"error: {section}: {PARTIAL_UPPER_LEG_Y}")


def test_reports_over_the_valid_complex_of_a_document_still_run(tmp_path, capsys):
    text, _ = INVALID_COMPLEX_DOCS["partial_upper_leg"]
    path = tmp_path / "partial_upper_leg.acgw"
    path.write_text(text)
    assert main(["homology", str(path), "--name", "X"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "X: size law |H_i| = |X_i| - |T_i| - |T_i+1| holds"
    )
    assert main(["exact", str(path), "--name", "X"]) == 0
    assert capsys.readouterr().out == "X: not exact (homology at 1, 2)\n"


# ---------------------------------------------------------------------------
# a map or ses section over valid complexes is checked before computing on
# it; fuzzing: every subcommand on mutated corpus documents exits 0, 1 or 2
# with no exception reaching the last-resort handler
# ---------------------------------------------------------------------------

SPAN_LEGS_WITHOUT_BACK_2 = corpus_text("span_legs").replace("  back 2: b->b\n", "")
INCLUSION_PAIR_WITHOUT_LEVEL_2 = corpus_text("inclusion_pair").replace("  level 2: a->a\n", "")


@pytest.mark.parametrize(
    "text, argv, line",
    [
        (
            SPAN_LEGS_WITHOUT_BACK_2,
            ["map-homology", "-", "--map", "F"],
            "map F: back: level 2: morphism is not total on its source: "
            "defined on [], source is ['b']",
        ),
        (
            INCLUSION_PAIR_WITHOUT_LEVEL_2,
            ["les", "-", "--ses", "S"],
            "ses S: sub: level 2: morphism is not total on its source: "
            "defined on [], source is ['a']",
        ),
    ],
    ids=["map", "ses"],
)
def test_section_over_valid_complexes_is_checked_before_computing(text, argv, line):
    # The complexes are valid, but a level of the section is not total,
    # and the construction would index it.
    code, out, _ = run_on_stdin(["validate", "-"], text)
    assert code == 1 and line in out.splitlines()
    for output in ("text", "json"):
        assert run_on_stdin([*argv, "--output", output], text) == (1, "", f"error: {line}\n")


FUZZ_ARGVS = (
    ("validate", "-"),
    ("homology", "-"),
    ("exact", "-"),
    ("oracle", "-"),
    ("render", "-"),
    ("snake", "-"),
    ("les", "-", "--ses", "S"),
    ("map-homology", "-", "--map", "F"),
)

ID = re.compile(r"[A-Za-z]\w*")
NUMBER = re.compile(r"-?\d+")


def _replace_one(draw, line: str, pattern: re.Pattern, replacement: str) -> str:
    found = list(pattern.finditer(line))
    if not found:
        return line
    m = draw(st.sampled_from(found))
    return line[: m.start()] + replacement + line[m.end():]


def _reshape(draw, line: str) -> str:
    """``line`` with the shape of its matrix changed, if it has one."""
    head, bracket, body = line.partition("[")
    try:
        rows = json.loads(bracket + body)
    except ValueError:
        return line
    if not rows or not all(isinstance(r, list) for r in rows):
        return line
    k = draw(st.integers(0, len(rows) - 1))
    rows = draw(st.sampled_from([
        rows[:k] + rows[k + 1:],
        rows[: k + 1] + rows[k:],
        [r[:-1] for r in rows],
        [r + [1] for r in rows],
    ]))
    return head + json.dumps(rows)


@st.composite
def mutated_corpus_text(draw) -> str:
    """A corpus document with lines dropped or duplicated, and ids, numbers
    (matrix entries, degrees, dimensions, primes) or matrix shapes
    perturbed."""
    lines = corpus_text(draw(st.sampled_from(CORPUS_NAMES))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "id", "number", "shape")))
        if kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "id":
            new_id = draw(st.sampled_from(("a", "b", "c", "p", "q", "z", "F", "S", "X", "Y")))
            lines[k] = _replace_one(draw, lines[k], ID, new_id)
        elif kind == "number":
            number = draw(st.one_of(st.integers(-1, 4), st.just(100_000)))
            lines[k] = _replace_one(draw, lines[k], NUMBER, str(number))
        else:
            lines[k] = _reshape(draw, lines[k])
        if not lines:
            break
    return "".join(f"{line}\n" for line in lines)


@settings(deadline=None, max_examples=150)
@given(mutated_corpus_text())
@example(SPAN_LEGS_WITHOUT_BACK_2)
@example(INCLUSION_PAIR_WITHOUT_LEVEL_2)
def test_every_command_survives_mutated_corpus_documents(text):
    for argv in FUZZ_ARGVS:
        code, _, err = run_on_stdin(argv, text)
        assert code in (0, 1, 2), (argv, code)
        assert "internal error" not in err, (argv, err)


@pytest.mark.parametrize("name", sorted(SES_DOCS))
def test_les_checks_the_sub_morphism_before_building_the_quotient(name):
    text, hor_problems = SES_DOCS[name]
    code, out, err = run_on_stdin(["les", "-", "--ses", "S"], text)
    # the lines validate prints under the ses, not a factorization error
    # from the quotient that names no section
    lines = [p.replace("hor f: ", "ses S: sub: ", 1) for p in hor_problems]
    assert (code, out, err) == (1, "", "error: " + "\n  ".join(lines) + "\n")


# ---------------------------------------------------------------------------
# one section checker: validate prints each complex's problems and then the
# lines of section_problems for every section; les and map-homology raise
# those lines for a section over valid complexes
# ---------------------------------------------------------------------------

#: each section head and the document field that holds its sections
SECTION_FIELDS = {
    "hor": "hors",
    "ver": "vers",
    "map": "maps",
    "ses": "seses",
    "snake weak": "snakes_weak",
    "snake strong": "snakes_strong",
}

#: the command that computes on a section of each head, and its name flag
SECTION_COMMANDS = {"ses": ("les", "--ses"), "map": ("map-homology", "--map")}


def _check_the_one_section_checker(text: str) -> None:
    try:
        doc = parse(text)
    except ParseError:
        return
    # a second parse, whose complexes and morphisms have kept no problems
    fresh = parse(text)
    expected = [f"complex {n}: {p}" for n, cx in fresh.complexes for p in validate_complex(cx)]
    for head, field in SECTION_FIELDS.items():
        for name, _ in getattr(fresh, field):
            expected += section_problems(fresh, head, name)
    assert validate_document(doc) == expected
    for head, (command, flag) in SECTION_COMMANDS.items():
        for name, _ in getattr(doc, SECTION_FIELDS[head]):
            if any(validate_complex(cx) for cx in section_complexes(doc, head, name)):
                continue
            lines = section_problems(doc, head, name)
            code, out, err = run_on_stdin([command, "-", flag, name], text)
            if lines:
                assert (code, out, err) == (1, "", "error: " + "\n  ".join(lines) + "\n")
            else:
                assert (code, err) == (0, "")


#: documents with every kind of section, with and without problems
CHECKER_DOCS = {
    **{name: corpus_text(name) for name in CORPUS_NAMES},
    **{f"ses-{name}": text for name, (text, _) in SES_DOCS.items()},
    **{f"invalid-{name}": text for name, (text, _) in INVALID_COMPLEX_DOCS.items()},
    "span_legs_without_back_2": SPAN_LEGS_WITHOUT_BACK_2,
    "inclusion_pair_without_level_2": INCLUSION_PAIR_WITHOUT_LEVEL_2,
}


@pytest.mark.parametrize("name", sorted(CHECKER_DOCS))
def test_validate_and_the_commands_print_the_lines_of_one_section_checker(name):
    _check_the_one_section_checker(CHECKER_DOCS[name])


@settings(deadline=None, max_examples=100)
@given(mutated_corpus_text())
def test_one_section_checker_on_mutated_corpus_documents(text):
    _check_the_one_section_checker(text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["les", "-", "--ses", "NOPE"], "document has no short exact sequence named 'NOPE'"),
        (["map-homology", "-", "--map", "NOPE"], "document has no chain map named 'NOPE'"),
    ],
    ids=["les", "map-homology"],
)
def test_an_unknown_section_name_is_an_error_line(argv, message):
    for name in CHECKER_DOCS:
        assert run_on_stdin(argv, CHECKER_DOCS[name]) == (1, "", f"error: {message}\n")
