"""Rank-based homology oracle and the seeded generators."""

import hashlib
import importlib
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acgw.oracle as oracle
from acgw import (
    GenConfig,
    HorChainMor,
    VerChainMor,
    ValidationError,
    free_complex,
    gen_chain_map,
    gen_complex,
    gen_composable_chain_maps,
    gen_exact_complex,
    gen_hor_mor,
    gen_ses,
    gen_snake_strong,
    gen_snake_weak,
    gen_ver_mor,
    homology_size,
    is_exact,
    parse,
    rank_homology_dims,
    serialize,
    validate_chain_map,
    validate_chain_ses,
    validate_complex,
    validate_hor_chain_mor,
    validate_snake_strong,
    validate_snake_weak,
    validate_ver_chain_mor,
)
from acgw.cli import _GEN

from conftest import INSTANCES, PRIMES, corpus_doc


# ---------------------------------------------------------------------------
# The free-module functor.
# ---------------------------------------------------------------------------


def test_free_complex_on_corpus_ambient():
    Y = corpus_doc("inclusion_pair").complex_named("Y")
    mats = free_complex(Y)
    # Y_1 = {b}, Y_2 = {a, b}, Y_3 = {a}; transitions {b} then {a}.
    assert mats[2].tolist() == [[0, 1]]
    assert mats[3].tolist() == [[1], [0]]
    assert not np.mod(mats[2] @ mats[3], 2).any()


def test_free_complex_zero_transitions():
    X = corpus_doc("inclusion_pair").complex_named("X")
    mats = free_complex(X)
    assert all(not m.any() for m in mats.values())


def test_free_complex_partial_permutation_shape():
    for seed in range(30):
        cx, _ = gen_complex(GenConfig(seed=seed))
        mats = free_complex(cx)
        for i, d in mats.items():
            assert d.shape == (len(cx.obj(i - 1)), len(cx.obj(i)))
            assert set(np.unique(d)) <= {0, 1}
            assert (d.sum(axis=0) <= 1).all() and (d.sum(axis=1) <= 1).all()
            nxt = mats.get(i + 1)
            if nxt is not None:
                assert not np.mod(d @ nxt, 2).any()


def test_rank_dims_on_corpus():
    doc = corpus_doc("inclusion_pair")
    assert rank_homology_dims(doc.complex_named("X")) == {1: 0, 2: 1, 3: 0}
    Y = doc.complex_named("Y")
    assert set(rank_homology_dims(Y).values()) == {0}


@pytest.mark.parametrize(
    "cx",
    [corpus_doc("inclusion_pair").complex_named("X"), gen_complex(GenConfig(seed=3, instance="linear", prime=7))[0]],
    ids=["set", "linear"],
)
def test_rank_dims_ranks_each_boundary_matrix_once(monkeypatch, cx):
    oracle = importlib.import_module("acgw.oracle")
    ranked = []

    def mat_rank(d, p):
        ranked.append(d.shape)
        return rank(d, p)

    rank = oracle.mat_rank
    monkeypatch.setattr(oracle, "mat_rank", mat_rank)
    dims = rank_homology_dims(cx)
    # one rank per matrix of the free complex, degrees lo..hi+1
    assert len(ranked) == cx.hi + 2 - cx.lo
    assert dims == {i: homology_size(cx, i) for i in cx.degrees()}


def test_rank_dims_on_exact_generator():
    for seed in range(20):
        cx = gen_exact_complex(GenConfig(seed=seed))
        assert set(rank_homology_dims(cx).values()) <= {0}


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_oracle_agreement_property(instance, seed, prime):
    cx, expected = gen_complex(GenConfig(seed=seed, instance=instance, prime=prime))
    dims = rank_homology_dims(cx)
    for i in cx.degrees():
        assert dims[i] == homology_size(cx, i) == expected[i]


def test_oracle_agreement_other_primes():
    for p in (3, 5):
        for seed in range(20):
            cx, _ = gen_complex(GenConfig(seed=seed, prime=p))
            dims = rank_homology_dims(cx)
            for i in cx.degrees():
                assert dims[i] == homology_size(cx, i)


# ---------------------------------------------------------------------------
# Generators: soundness, determinism, degenerate configurations.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("instance", INSTANCES)
def test_generator_soundness_all_kinds(instance):
    for seed in range(30):
        cfg = GenConfig(seed=seed, instance=instance, prime=(2, 3, 5, 7)[seed % 4])
        assert validate_complex(gen_complex(cfg)[0]) == []
        assert validate_complex(gen_exact_complex(cfg)) == []
        assert validate_hor_chain_mor(gen_hor_mor(cfg)) == []
        assert validate_ver_chain_mor(gen_ver_mor(cfg)) == []
        assert validate_chain_map(gen_chain_map(cfg)) == []
        f, g = gen_composable_chain_maps(cfg)
        assert validate_chain_map(f) == [] and validate_chain_map(g) == []
        assert f.target == g.source
        assert validate_chain_ses(gen_ses(cfg)) == []
        assert validate_snake_weak(gen_snake_weak(cfg)) == []
        assert validate_snake_strong(gen_snake_strong(cfg)) == []


@pytest.mark.parametrize("instance", INSTANCES)
def test_generator_determinism(instance):
    cfg = GenConfig(seed=42, instance=instance, prime=5)
    assert gen_complex(cfg) == gen_complex(cfg)
    assert gen_exact_complex(cfg) == gen_exact_complex(cfg)
    assert gen_hor_mor(cfg) == gen_hor_mor(cfg)
    assert gen_ver_mor(cfg) == gen_ver_mor(cfg)
    assert gen_chain_map(cfg) == gen_chain_map(cfg)
    assert gen_ses(cfg) == gen_ses(cfg)
    assert gen_snake_weak(cfg) == gen_snake_weak(cfg)
    assert gen_snake_strong(cfg) == gen_snake_strong(cfg)


@pytest.mark.parametrize("instance", ("Set", None))
def test_unknown_instance_is_rejected(instance):
    with pytest.raises(ValidationError, match="instance must be 'set' or 'linear'"):
        gen_ses(GenConfig(seed=1, instance=instance))


def test_linear_prime_must_be_prime():
    with pytest.raises(ValidationError, match="field order must be prime"):
        gen_complex(GenConfig(seed=1, instance="linear", prime=4))


def test_distinct_seeds_differ_somewhere():
    outputs = {gen_complex(GenConfig(seed=s))[0] for s in range(25)}
    assert len(outputs) > 1


def test_size_zero_gives_empty_complex():
    cx, homs = gen_complex(GenConfig(seed=7, max_size=0))
    assert validate_complex(cx) == []
    assert all(cx.obj(i) == () for i in cx.degrees())
    assert set(homs.values()) <= {0}
    assert is_exact(cx)


# ---------------------------------------------------------------------------
# The linearized generators.
# ---------------------------------------------------------------------------


def test_linear_generator_dims_and_law():
    for p in (2, 3):
        for seed in range(25):
            cx, dims = gen_complex(GenConfig(seed=seed, instance="linear", prime=p))
            assert validate_complex(cx) == []
            assert cx.inst.prime == p
            for i in cx.degrees():
                assert homology_size(cx, i) == dims[i]
                assert dims[i] == (
                    cx.obj(i).dim
                    - cx.transition(i).obj.dim
                    - cx.transition(i + 1).obj.dim
                )
            assert rank_homology_dims(cx) == dims


def test_linear_generator_beyond_int64_products():
    # At 2^32 - 5 the products of two entries exceed int64; the generator
    # conjugates by random invertible matrices, so every product counts.
    cx, dims = gen_complex(GenConfig(seed=1, instance="linear", prime=4294967291))
    assert validate_complex(cx) == []
    big = max(int(cx.inst.hor_matrix(t.into_lower).max(initial=0)) for t in cx.transitions)
    assert big * big > 2**63
    by_rank = rank_homology_dims(cx)
    for i in cx.degrees():
        assert by_rank[i] == homology_size(cx, i) == dims[i]


def test_linear_generator_exact_variant():
    for seed in range(15):
        cx = gen_exact_complex(GenConfig(seed=seed, instance="linear"))
        assert validate_complex(cx) == []
        assert set(rank_homology_dims(cx).values()) <= {0}
        assert is_exact(cx)


def _sizes(cx):
    size = cx.inst.obj_size
    return [size(cx.obj(i)) for i in cx.degrees()], [
        size(cx.transition(i).obj) for i in cx.transition_degrees()
    ]


def test_linear_diagram_is_the_set_one_in_other_coordinates():
    # The linearization is drawn after the set diagram of the same seed,
    # so it keeps that diagram's degrees and sizes.
    for seed in range(20):
        set_cx, set_dims = gen_complex(GenConfig(seed=seed))
        lin_cx, lin_dims = gen_complex(GenConfig(seed=seed, instance="linear", prime=7))
        assert lin_dims == set_dims
        assert (lin_cx.lo, lin_cx.hi) == (set_cx.lo, set_cx.hi)
        assert _sizes(lin_cx) == _sizes(set_cx)
        set_f = gen_chain_map(GenConfig(seed=seed))
        lin_f = gen_chain_map(GenConfig(seed=seed, instance="linear", prime=3))
        for part in ("source", "middle", "target"):
            assert _sizes(getattr(lin_f, part)) == _sizes(getattr(set_f, part))


def test_linear_diagrams_share_their_complexes():
    for seed in range(20):
        f = gen_chain_map(GenConfig(seed=seed, instance="linear", prime=3))
        assert f.front.source is f.middle is f.back.source
        assert f.back.target is f.source and f.front.target is f.target
        f, g = gen_composable_chain_maps(GenConfig(seed=seed, instance="linear", prime=5))
        assert f.target is g.source


# ---------------------------------------------------------------------------
# Generator output, pinned for seeds 0-49.
# ---------------------------------------------------------------------------

#: sha256 over the serialized documents of ``gen --kind`` for seeds 0-49, by
#: instance (``F_3`` for linear) and kind.  A set snake section omits the
#: morphisms that are literal inclusions, so the payloads of every snake
#: morphism are hashed after the document.
GEN_DIGESTS = {
    ("set", "complex"): "24943f73926b1eb6a216fd76282d8780b4b04e2656e8223193aeb62b2570ff7c",
    ("set", "exact"): "7769fc16300d512845a34ebb68b7b52fb05f16a435cafd0a5327157d884ea72e",
    ("set", "hor"): "edd3ffd18c972c1295b7168683045c1bd63ca0dc4347950c0f5cab92bf5eddd6",
    ("set", "ver"): "5e3733db0067bd61c093c79488db5ecd653ac4777f90eece09f21fb42cfce8d9",
    ("set", "map"): "67ab2f11c44047031020307cd7a67654791c9b70ae448fbe5c84df8bdea26ecf",
    ("set", "pair"): "fe4c0bfdeb09a81cf3760efbe54420619e003a7519bbb146567809c780237482",
    ("set", "ses"): "04af6d040d91611573d9cee0ef7313a359a3982b495e4a0a769dffd8c3fc937e",
    ("set", "snake-weak"): "b35fad929256523dd7ec9f195ce9e03ef499498d7903e2153ef92f86009acdd6",
    ("set", "snake-strong"): "4d8f10caf0d7963c715a6541ed3c7611c07bf978afea087ac2dd577080f9a882",
    ("linear", "complex"): "ca420c51a59bea2bf27cce57624363e9d10d4696550f8738bd75b59649d769fa",
    ("linear", "exact"): "e28e215756781a3c4101a7a1644d363e811913982c92f5e16a3cad10192fcd52",
    ("linear", "hor"): "ef5bfd5eb8d1c030e053a5f2b40d60d1722105b7d6ac3abd760cc7732aa2fac3",
    ("linear", "ver"): "b3548bb5442854ffd1c30d383eb04d01b8c7e09122e3b6c339f034d1d79f8296",
    ("linear", "map"): "0050940ce7b8cb6473e6ce7b3980dad992d5be5c87b0ae6dee2de5b25f215057",
    ("linear", "pair"): "9d2d4e851a6c76b862d24b736285f6650bf715d895aa6a11de14c46219283509",
    ("linear", "ses"): "a238223834acdae102079e2ab3ed4df6f9f44d6598e783dfe5b30e953e76bd88",
    ("linear", "snake-weak"): "951b25b055e9d392662c779c8822de51d6c86f44e07cbd28ddbf01491f8acb12",
    ("linear", "snake-strong"): "a390a14e84c356f76ab893f1a4ba2e792a5e3dcff1831b7a4016003dd98a2d1d",
}


@pytest.mark.parametrize("instance,kind", GEN_DIGESTS, ids="-".join)
def test_generated_documents_match_their_digest(instance, kind):
    build = _GEN[kind]
    digest = hashlib.sha256()
    for seed in range(50):
        doc = build(GenConfig(seed, instance=instance, prime=3))
        digest.update(serialize(doc).encode())
        for _, snake in doc.snakes_weak + doc.snakes_strong:
            for f in fields(snake):
                if f.name != "inst":
                    digest.update(repr(getattr(snake, f.name).data).encode())
    assert digest.hexdigest() == GEN_DIGESTS[instance, kind]


#: a set complex whose transition elements land on different ids up and
#: down (``t`` up at ``a``, down at ``p``), so a sub-complex drawn along
#: the wrong leg of a transition is not a sub-complex
DISTINCT_LEG_IDS = parse(
    "instance set\n"
    "complex Y:\n"
    "  object 0: x y\n"
    "  object 1: d p q r\n"
    "  object 2: a b c\n"
    "  transition 1: s\n"
    "    up: s->r\n"
    "    down: s->x\n"
    "  transition 2: t u\n"
    "    up: t->a u->b\n"
    "    down: t->p u->q\n"
).complex_named("Y")


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize(
    "chain,validate",
    [(HorChainMor, validate_hor_chain_mor), (VerChainMor, validate_ver_chain_mor)],
    ids=["hor", "ver"],
)
def test_sub_complexes_follow_each_leg_to_its_own_ids(seed, chain, validate):
    assert validate_complex(DISTINCT_LEG_IDS) == []
    f = oracle._sub(random.Random(seed), DISTINCT_LEG_IDS, chain)
    assert validate_complex(f.source) == []
    assert validate(f) == []
