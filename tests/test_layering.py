"""Layering: sets and F_p differ only behind the instance interface.

Parses the package sources and checks that the generic layers import
nothing from the two instance modules, that the document format imports
only the two instance classes, that no module outside the instance
modules compares an instance kind, that every matrix product goes
through the exact mod-p kernel ``linear.matmul_mod``, that each
instance writes every hor/ver primitive pair as one function, that only
the instance modules and the pickling in ``core`` read a morphism's
payload, that each instance module alone spells the keys of its
per-morphism memo, ``chains`` alone the keys of a chain morphism's
quotient, of the reader's mark on a complex and of the problems of
either, and ``homology`` alone the key of a complex's homology grids,
and that the public names of the package and of the finite-set module
stay as they are.
"""

import ast
import importlib
from pathlib import Path

import pytest

import acgw
from acgw import (
    ChainComplex,
    FinSetInstance,
    HorChainMor,
    HorMor,
    LinearInstance,
    SnakeInputStrong,
    SnakeInputWeak,
    VerMor,
    chains,
    finset,
    linear,
)

SRC = Path(acgw.__file__).parent
INSTANCE_MODULES = {"finset", "linear"}
GENERIC = ("chains", "homology", "snake", "render")


def parsed(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def instance_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` for every name imported from an instance module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            if module in INSTANCE_MODULES:
                out |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in INSTANCE_MODULES:
                    out.add((alias.name, "*"))
    return out


def kind_comparisons(tree: ast.Module) -> list[int]:
    """Line numbers of comparisons with a ``.kind`` attribute operand."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Attribute) and operand.attr == "kind"
            for operand in [node.left, *node.comparators]
        )
    ]


def test_generic_layers_import_no_instance_module():
    for name in GENERIC:
        assert instance_imports(parsed(name)) == set(), name


def test_documents_imports_only_the_two_instance_classes():
    assert instance_imports(parsed("documents")) == {
        ("finset", "FinSetInstance"),
        ("linear", "LinearInstance"),
    }


def test_only_instance_modules_compare_kinds():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert {"documents", "oracle", "cli", "homology"} <= set(modules)
    for name in modules:
        if name not in INSTANCE_MODULES:
            assert kind_comparisons(parsed(name)) == [], name


def matmul_operators(tree: ast.Module) -> list[int]:
    """Line numbers of ``@`` operators outside a function named
    ``matmul_mod``."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "matmul_mod"
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.MatMult)
        and id(node) not in inside
    ]


def test_matrix_products_go_through_matmul_mod():
    # numpy's integer @ wraps silently on int64 overflow; matmul_mod is exact.
    for path in sorted(SRC.glob("*.py")):
        assert matmul_operators(parsed(path.stem)) == [], path.name


#: hor/ver primitive pairs: the second name is an alias of the first
MIRROR_PAIRS = (
    ("validate_hor", "validate_ver"),
    ("compose_hor", "compose_ver"),
    ("is_iso_hor", "is_iso_ver"),
    ("hor_square_commutes", "ver_square_commutes"),
    ("factor_hor", "factor_ver"),
    ("coker", "ker"),
    ("hor_between_cokers", "ver_between_kernels"),
)


@pytest.mark.parametrize("cls", [FinSetInstance, LinearInstance], ids=lambda c: c.kind)
@pytest.mark.parametrize("pair", MIRROR_PAIRS, ids=lambda p: p[1])
def test_each_mirror_pair_is_one_function(cls, pair):
    first, second = pair
    assert getattr(cls, second) is getattr(cls, first)


def data_reads(tree: ast.Module) -> list[int]:
    """Line numbers of ``.data`` attribute reads."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "data"
    ]


def test_only_the_instances_and_pickling_read_a_payload():
    modules = {p.stem for p in SRC.glob("*.py")}
    readers = {name for name in modules if data_reads(parsed(name))}
    assert readers == INSTANCE_MODULES | {"core"}
    # core reads it once, to pickle a morphism by its declared fields
    assert len(data_reads(parsed("core"))) == 1


#: each module's memo keys: the finite-set dict, inverse dict, image set,
#: rest of the target and a complement leg's kept image; a horizontal
#: chain morphism's quotient, the reader's mark on a complex and the
#: problems of a complex or chain morphism; a complex's homology grids;
#: and the problems of a snake input.  An ``F_p`` morphism keeps nothing
#: beside its payload
MEMO_KEYS = {
    "finset": (finset._MEMO_KEYS, 5),
    "chains": ((chains._COKER, chains._READ, chains._PROBLEMS), 3),
    "homology": ((importlib.import_module("acgw.homology")._GRIDS,), 1),
    "snake": ((importlib.import_module("acgw.snake")._PROBLEMS,), 1),
}


def test_each_instance_alone_spells_its_memo_keys():
    every = [key for keys, _ in MEMO_KEYS.values() for key in keys]
    assert len(set(every)) == len(every)
    for keys, count in MEMO_KEYS.values():
        assert len(keys) == count and all(key.startswith("_") for key in keys)
    # the memo sits beside the declared fields, never on one of them
    fields = (
        set(HorMor.__dataclass_fields__)
        | set(VerMor.__dataclass_fields__)
        | set(HorChainMor.__dataclass_fields__)
        | set(ChainComplex.__dataclass_fields__)
        | set(SnakeInputWeak.__dataclass_fields__)
        | set(SnakeInputStrong.__dataclass_fields__)
    )
    assert not set(every) & fields
    # an F_p morphism's payload is its array: the instance memoizes nothing
    assert "_memoized" not in (SRC / "linear.py").read_text(encoding="utf-8")
    sources = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for owner, (keys, _) in MEMO_KEYS.items():
            for key in keys:
                assert text.count(key) == (1 if path.stem == owner else 0), (path.name, key)


#: the public names of the package and of the finite-set module
PUBLIC = {
    "acgw": [
        "__version__",
        "AcgwError",
        "AcgwInstance",
        "CompositionError",
        "FactorizationError",
        "FlatMor",
        "HorMor",
        "PullbackSquare",
        "SquareClass",
        "ValidationError",
        "VerMor",
        "compose_flat",
        "flat_is_iso",
        "flat_is_zero",
        "flat_of_hor",
        "flat_of_ver",
        "id_flat",
        "span_equiv",
        "validate_flat",
        "zero_flat",
        "FinSetInstance",
        "finset_obj",
        "LinearInstance",
        "VectObj",
        "ChainComplex",
        "ChainMap",
        "ChainSES",
        "HorChainMor",
        "Transition",
        "VerChainMor",
        "chain_map_of_hor",
        "chain_map_of_ver",
        "coker_hor",
        "compose_chain_maps",
        "id_chain_map",
        "id_hor_chain",
        "id_ver_chain",
        "ker_ver",
        "ses_from_injection",
        "ses_from_projection",
        "validate_chain_map",
        "validate_chain_ses",
        "validate_complex",
        "validate_hor_chain_mor",
        "validate_ver_chain_mor",
        "HomologyGrid",
        "check_functoriality",
        "h_on_map",
        "homology",
        "homology_complex",
        "homology_obj",
        "homology_size",
        "is_exact",
        "is_quasi_iso",
        "qiso_iff_complement_exact",
        "ExactZigzag",
        "SnakeInputStrong",
        "SnakeInputWeak",
        "flat_morphism",
        "les_of_ses",
        "snake_strong",
        "snake_weak",
        "validate_snake_strong",
        "validate_snake_weak",
        "validate_zigzag",
        "zigzag_exactness",
        "zigzag_is_exact",
        "GenConfig",
        "free_complex",
        "gen_chain_map",
        "gen_complex",
        "gen_composable_chain_maps",
        "gen_exact_complex",
        "gen_hor_mor",
        "gen_ses",
        "gen_snake_strong",
        "gen_snake_weak",
        "gen_ver_mor",
        "rank_homology_dims",
        "Document",
        "ParseError",
        "parse",
        "serialize",
        "validate_document",
    ],
    "acgw.finset": ["FinSetObj", "finset_obj", "FinSetInstance", "mapping_of", "apply_to"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_unchanged(module):
    assert importlib.import_module(module).__all__ == PUBLIC[module]
