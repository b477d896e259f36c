"""Homology via double complements, induced spans, quasi-isomorphisms."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgw import (
    ChainMap,
    FinSetInstance,
    GenConfig,
    chain_map_of_hor,
    chain_map_of_ver,
    check_functoriality,
    compose_chain_maps,
    flat_is_iso,
    gen_chain_map,
    gen_complex,
    gen_composable_chain_maps,
    gen_exact_complex,
    gen_hor_mor,
    gen_ses,
    gen_ver_mor,
    h_on_map,
    homology,
    homology_complex,
    homology_obj,
    homology_size,
    is_exact,
    is_quasi_iso,
    qiso_iff_complement_exact,
    ses_from_injection,
    ses_from_projection,
    span_equiv,
    validate_hor_chain_mor,
    validate_ver_chain_mor,
)
from acgw.oracle import _extend

from conftest import CORPUS_NAMES, INSTANCES, PRIMES, corpus_doc
from reference import (
    h_on_map_via_les,
    homology_quotient_first,
    renamed_sub,
    set_homology_span_reference,
)


# ---------------------------------------------------------------------------
# Worked values on the bundled corpus.
# ---------------------------------------------------------------------------


def test_inclusion_pair_homology_values():
    doc = corpus_doc("inclusion_pair")
    X = doc.complex_named("X")
    Y = doc.complex_named("Y")
    assert homology_obj(X, 2) == ("a",)
    assert {i: homology_size(X, i) for i in X.degrees()} == {1: 0, 2: 1, 3: 0}
    assert homology_obj(Y, 2) == ()
    assert is_exact(Y)
    assert not is_exact(X)


def test_homology_grid_legs_consistent():
    doc = corpus_doc("inclusion_pair")
    X = doc.complex_named("X")
    g = homology(X, 2)
    assert g.degree == 2
    assert g.h == ("a",)
    inst = X.inst
    assert inst.obj_size(g.cycles) >= inst.obj_size(g.h)
    assert not inst.validate_hor(g.cycles_hor)
    assert not inst.validate_ver(g.h_to_cycles)
    assert g.h_to_cycles.target == g.cycles
    assert g.h == homology_quotient_first(X, 2)


def test_span_legs_quasi_iso_verdicts():
    doc = corpus_doc("span_legs")
    m = doc.map_named("F")
    assert is_quasi_iso(m)
    assert not is_quasi_iso(chain_map_of_ver(m.back))
    assert not is_quasi_iso(chain_map_of_hor(m.front))


def test_h_on_map_cross_validation_matches_fast_path():
    doc = corpus_doc("span_legs")
    m = doc.map_named("F")
    inst = m.source.inst
    degrees = set(m.source.degrees()) | set(m.target.degrees()) | set(m.middle.degrees())
    for i in sorted(degrees):
        assert span_equiv(inst, h_on_map(m, i), h_on_map_via_les(m, i))


def test_qiso_iff_on_corpus_inclusion():
    doc = corpus_doc("inclusion_pair")
    f = doc.hor_named("f")
    qiso, complement_exact = qiso_iff_complement_exact(f)
    assert (qiso, complement_exact) == (False, False)


def test_homology_complex_concentrated_in_one_degree():
    doc = corpus_doc("inclusion_pair")
    X = doc.complex_named("X")
    h, hor, ver = homology_complex(X)
    assert h.obj(2) == ("a",)
    assert all(not h.transition(i).obj for i in h.transition_degrees())
    assert validate_hor_chain_mor(hor) == []
    assert validate_ver_chain_mor(ver) == []
    assert (hor.source, hor.target) == (h, X)
    assert (ver.source, ver.target) == (h, X)
    assert is_quasi_iso(chain_map_of_hor(hor))
    assert is_quasi_iso(chain_map_of_ver(ver))


def test_linear_corpus_homology_dimensions():
    doc = corpus_doc("linear_small")
    X = doc.complex_named("X")
    assert {i: homology_size(X, i) for i in X.degrees()} == {0: 1, 1: 0, 2: 1}


def _complexes() -> list:
    """The corpus complexes, and generated complexes of both instances."""
    out = [cx for name in CORPUS_NAMES for _, cx in corpus_doc(name).complexes]
    for instance in INSTANCES:
        out += [gen_complex(GenConfig(seed, instance=instance, prime=5))[0] for seed in range(8)]
    return out


def test_a_complex_computes_each_grid_once():
    for cx in _complexes():
        degrees = range(cx.lo - 1, cx.hi + 2)
        grids = [homology(cx, i) for i in degrees]
        assert all(homology(cx, i) is grid for i, grid in zip(degrees, grids))
        # a new complex object with the same fields computes each again,
        # to an equal grid
        again = [homology(replace(cx), i) for i in degrees]
        assert again == grids and all(a is not g for a, g in zip(again, grids))


# ---------------------------------------------------------------------------
# Properties over generated complexes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_size_law_and_order_independence(instance, seed, prime):
    cx, expected = gen_complex(GenConfig(seed=seed, instance=instance, prime=prime))
    n = cx.inst.obj_size
    for i in cx.degrees():
        g = homology(cx, i)
        assert g.h == homology_quotient_first(cx, i)
        assert n(g.h) == expected[i]
        assert n(g.h) == n(cx.obj(i)) - n(cx.transition(i).obj) - n(
            cx.transition(i + 1).obj
        )


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_exact_generator_yields_exact(instance, seed, prime):
    assert is_exact(gen_exact_complex(GenConfig(seed=seed, instance=instance, prime=prime)))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_identity_map_is_quasi_iso(seed):
    from acgw import id_chain_map

    cx, _ = gen_complex(GenConfig(seed=seed))
    assert is_quasi_iso(id_chain_map(cx))


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_functoriality_property(instance, seed, prime):
    f, g = gen_composable_chain_maps(GenConfig(seed=seed, instance=instance, prime=prime))
    assert check_functoriality(f, g)


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_qiso_iff_complement_exact_agrees(instance, seed, prime):
    cfg = GenConfig(seed=seed, instance=instance, prime=prime)
    set_cfg = GenConfig(seed=seed)
    for gen in (gen_hor_mor, gen_ver_mor):
        a, b = qiso_iff_complement_exact(gen(cfg))
        assert a == b
        # The linearization keeps the verdicts of the set morphism.
        assert (a, b) == qiso_iff_complement_exact(gen(set_cfg))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_h_on_map_double_route(seed):
    m = gen_chain_map_for(seed)
    inst = m.source.inst
    for i in sorted(set(m.source.degrees()) | set(m.target.degrees())):
        assert span_equiv(inst, h_on_map(m, i), h_on_map_via_les(m, i))


def gen_chain_map_for(seed):
    return gen_chain_map(GenConfig(seed=seed))


def _set_span_inputs(seed):
    """The arguments ``(gx, gy, back, front)`` of every finite-set homology
    span that a generated chain map, two composable ones, their composite
    and a complex extended both ways (whose source and target share the
    homology outside it) induce at each degree, and that three long exact
    sequences take: those of a generated sub-complex, of a vertical one,
    and of a sub-complex with renamed ids, whose levels are not literal
    inclusions."""
    cfg = GenConfig(seed=seed)
    inst = FinSetInstance()
    out = []
    first = gen_chain_map(cfg)
    big, hor, ver = _extend(random.Random(seed), first.middle, "s")
    f, g = gen_composable_chain_maps(cfg)
    for m in (first, ChainMap(big, first.middle, big, ver, hor), f, g, compose_chain_maps(f, g)):
        for i in m.source.degrees():
            grids = homology(m.source, i), homology(m.target, i)
            out.append((*grids, m.back.level(i), m.front.level(i)))
    for ses in (
        gen_ses(cfg),
        ses_from_projection(gen_ver_mor(cfg)),
        ses_from_injection(renamed_sub(gen_hor_mor(cfg))),
    ):
        x, y, z = ses.sub.source, ses.sub.target, ses.quot.source
        for i in x.degrees():
            gx, gy, gz = homology(x, i), homology(y, i), homology(z, i)
            out.append((gx, gy, inst.id_ver(x.obj(i)), ses.sub.level(i)))
            out.append((gy, gz, ses.quot.level(i), inst.id_hor(z.obj(i))))
    return out


def _renamed_levels(inst, back, front, rng):
    """``back`` and ``front`` with their shared source renamed in a random
    order: neither is a literal inclusion or a complement leg."""
    names = [f"renamed.{k}" for k in range(len(back.source))]
    rng.shuffle(names)
    new = dict(zip(back.source, names))
    source = tuple(new.values())

    def moved(make, mor):
        sources, images = mor.data
        return make(source, mor.target, dict(zip(map(new.get, sources), images)))

    return moved(inst.ver, back), moved(inst.hor, front)


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 149), rng=st.randoms(use_true_random=False))
def test_set_homology_span_matches_the_element_chase(seed, rng):
    inst = FinSetInstance()
    for gx, gy, back, front in _set_span_inputs(seed):
        for levels in ((back, front), _renamed_levels(inst, back, front, rng)):
            span = inst.homology_span(gx, gy, *levels)
            assert span == set_homology_span_reference(gx, gy, *levels)
            # a front that fixes the ids of the middle is a literal inclusion
            sources, images = span.front.data
            assert (sources is images) == (sources == images)


@pytest.mark.parametrize("instance", INSTANCES)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), prime=PRIMES)
def test_homology_complex_property(instance, seed, prime):
    cx, _ = gen_complex(GenConfig(seed=seed, instance=instance, prime=prime))
    h, hor, ver = homology_complex(cx)
    assert validate_hor_chain_mor(hor) == []
    assert validate_ver_chain_mor(ver) == []
    assert is_quasi_iso(chain_map_of_hor(hor))
    assert is_quasi_iso(chain_map_of_ver(ver))
    # The homology complex has no transitions, so it equals its own homology.
    for i in h.degrees():
        assert homology_obj(h, i) == h.obj(i)


def test_quasi_iso_composition_with_homology_inclusion():
    from acgw import id_hor_chain, validate_chain_map

    cx, _ = gen_complex(GenConfig(seed=77))
    h, hor, ver = homology_complex(cx)
    # The span cx <= h -> h collapses cx onto its homology.
    m = ChainMap(source=cx, middle=h, target=h, back=ver, front=id_hor_chain(h))
    assert validate_chain_map(m) == []
    assert is_quasi_iso(m)
