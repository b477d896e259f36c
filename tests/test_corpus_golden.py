"""Golden CLI outputs: exit code and stdout of every subcommand on every
corpus document, text and ``--output json``, plus ``render`` and ``gen``.

A change that should not alter behaviour must leave these byte-identical.
The data lives in ``corpus_golden.json`` next to this file; after a
deliberate change of output, rewrite it with::

    PYTHONPATH=src python tests/test_corpus_golden.py
"""

import contextlib
import io
import json
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from acgw.cli import main

GOLDEN = Path(__file__).with_name("corpus_golden.json")
CORPUS_DIR = files("acgw") / "corpus"
CORPUS_FILES = (
    "inclusion_pair.acgw",
    "linear_small.acgw",
    "snake_weak_small.acgw",
    "span_legs.acgw",
    "three_term_ses.acgw",
)
SET_GEN_KINDS = (
    "complex", "exact", "hor", "ver", "map", "pair", "ses", "snake-weak", "snake-strong"
)
LINEAR_GEN_KINDS = SET_GEN_KINDS


def golden_argvs() -> list[list[str]]:
    """Every argv the golden file records; corpus files by bare name."""
    argvs = []
    for f in CORPUS_FILES:
        for out in ("text", "json"):
            for cmd in ("validate", "homology", "exact", "snake", "oracle"):
                argvs.append([cmd, f, "--output", out])
            argvs.append(["les", f, "--ses", "S", "--output", out])
            argvs.append(["map-homology", f, "--map", "F", "--output", out])
            for d in range(4):
                argvs.append(["map-homology", f, "--map", "F", "--degree", str(d), "--output", out])
        argvs.append(["render", f])
    for seed in range(3):
        for kind in SET_GEN_KINDS:
            argvs.append(["gen", "--kind", kind, "--seed", str(seed)])
        for kind in LINEAR_GEN_KINDS:
            linear = ["--instance", "linear", "--prime", "3"]
            argvs.append(["gen", "--kind", kind, "--seed", str(seed), *linear])
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the CLI on ``argv``, run in-process."""
    real = [str(CORPUS_DIR / a) if a in CORPUS_FILES else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(real)
    return code, out.getvalue()


def _load() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _load()[" ".join(argv)]
    code, out = run(argv)
    assert (code, out) == (want["exit"], want["stdout"])


def test_golden_file_covers_exactly_the_argv_list():
    assert sorted(_load()) == sorted(" ".join(a) for a in golden_argvs())


if __name__ == "__main__":
    data = {}
    for argv in golden_argvs():
        code, out = run(argv)
        data[" ".join(argv)] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
