"""End-to-end coverage of the command-line interface."""

import json
from importlib.resources import files

import pytest

from acgw import parse, serialize, validate_document
from acgw.cli import main

from conftest import CORPUS_NAMES

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


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    import io
    import sys

    text = (CORPUS_DIR / "inclusion_pair.acgw").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["validate", "-"]) == 0


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


@pytest.mark.parametrize("kind", ("complex", "exact"))
def test_gen_linear_kinds(capsys, kind):
    rc = main(["gen", "--kind", kind, "--instance", "linear", "--prime", "3",
               "--seed", "5"])
    assert rc == 0
    doc = parse(capsys.readouterr().out)
    assert doc.kind == "linear" and doc.prime == 3
    assert validate_document(doc) == []


def test_gen_linear_unsupported_kind_is_usage_error(capsys):
    rc = main(["gen", "--kind", "ses", "--instance", "linear", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err


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


def run_stdin(monkeypatch, capsys, argv, text):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    return code, err


def test_non_prime_field_order_is_an_error_line(monkeypatch, capsys):
    text = (CORPUS_DIR / "linear_small.acgw").read_text().replace("prime 2", "prime 4")
    code, err = run_stdin(monkeypatch, capsys, ["exact", "-"], text)
    assert code == 1
    assert err == "error: line 4: field order must be prime, got 4\n"


def test_oracle_on_a_leg_that_misses_its_target_is_an_error_line(monkeypatch, capsys):
    text = (
        "instance set\n"
        "complex X:\n"
        "  object 1: p\n"
        "  object 2: q\n"
        "  transition 2: t\n"
        "    up: t->missing\n"
        "    down: t->p\n"
    )
    code, err = run_stdin(monkeypatch, capsys, ["oracle", "-"], text)
    assert code == 1
    assert err.startswith("error: transition 2:") and "'t'" in err


def test_level_matrix_of_the_wrong_shape_is_an_error_line(monkeypatch, capsys):
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
    code, err = run_stdin(monkeypatch, capsys, ["homology", "-"], text)
    assert code == 1
    assert err.startswith("error: line 9: degree 1:") and "4x4" in err


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
def test_bad_transition_matrix_is_an_error_line(monkeypatch, capsys, command, up):
    code, err = run_stdin(monkeypatch, capsys, [command, "-"], LINEAR_LEG.format(up=up))
    assert code == 1
    assert err.startswith("error:") and "matrix" in err


# ---------------------------------------------------------------------------
# invalid SES documents: each problem of the hor section is reported again
# under the ses built on it, exactly as before the sub morphism was checked
# only once
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
        ("[[-6, 0], [0, 1]]", ((1, 0), (0, 1))),  # negative entry
        ("[[8, 0], [0, 15]]", ((1, 0), (0, 1))),  # entries >= p
        ("[[true, 0], [0, 1]]", ((1, 0), (0, 1))),  # JSON true is the integer 1
    ],
)
def test_integer_matrix_entries_are_reduced_mod_p(tmp_path, capsys, level, reduced):
    path = tmp_path / "lin.acgw"
    path.write_text(LINEAR_LEVEL.format(level=level))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert parse(path.read_text()).hor_named("f").levels[0].data == reduced


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
