"""Homology of transition-presented complexes, computed by complements.

At each degree, homology is the complement of the boundaries inside the
cycles: :func:`homology` takes the kernel of the upper transition leg
(the cycles), factors the next lower leg through it (the boundaries) and
takes the cokernel — three instance primitives.  Taking the complements
the other way round, the cokernel of the lower leg first, lands on the
same object; the test suite checks that against a reference
implementation instead of recomputing it here.  Everything is generic
over the instance: inducing spans on homology (:func:`h_on_map`) and
embedding homology back into the complex (:func:`homology_complex`) read
the instance's data through :meth:`AcgwInstance.homology_span` and
:meth:`AcgwInstance.homology_embedding`.  A complex keeps each grid it
has computed, so every reader of one degree's homology shares one grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .chains import (
    ChainComplex,
    ChainMap,
    HorChainMor,
    Transition,
    VerChainMor,
    chain_map_of_hor,
    chain_map_of_ver,
    coker_hor,
    ker_ver,
)
from .core import (
    FlatMor,
    HorMor,
    VerMor,
    _memoized,
    compose_flat,
    flat_is_iso,
    span_equiv,
)

__all__ = [
    "HomologyGrid",
    "homology",
    "homology_obj",
    "homology_size",
    "is_exact",
    "h_on_map",
    "check_functoriality",
    "is_quasi_iso",
    "qiso_iff_complement_exact",
    "homology_complex",
]


@dataclass(frozen=True)
class HomologyGrid:
    """Homology at one degree with its complement presentation.

    Attributes:
        degree: the degree computed.
        h: the homology object.
        cycles: complement of the upper leg in ``X_i``.
        cycles_hor: horizontal presentation ``cycles -> X_i``.
        h_to_cycles: vertical presentation ``h => cycles``.
    """

    degree: int
    h: Any
    cycles: Any
    cycles_hor: HorMor
    h_to_cycles: VerMor


#: the key under which a complex keeps its homology grids, by degree
_GRIDS = "_homology_grids"


@_memoized(_GRIDS)
def _grids(cx: ChainComplex) -> dict[int, HomologyGrid]:
    return {}


def homology(cx: ChainComplex, i: int) -> HomologyGrid:
    """Homology at degree ``i``: the cokernel of the boundaries inside the
    cycles.  Each grid is computed once per complex object and degree and
    kept in the complex's ``__dict__``, outside ``==``, ``hash``,
    ``repr``, pickling and copying, so the sizes, the spans on homology,
    the exactness test and the long exact sequence of one complex share
    it."""
    grids = _grids(cx)
    grid = grids.get(i)
    if grid is None:
        inst = cx.inst
        cycles, cycles_hor = inst.ker(cx.transition(i).into_upper)
        boundaries = inst.factor_hor(cx.transition(i + 1).into_lower, cycles_hor)
        h, h_to_cycles = inst.coker(boundaries)
        grid = grids[i] = HomologyGrid(i, h, cycles, cycles_hor, h_to_cycles)
    return grid


def homology_obj(cx: ChainComplex, i: int) -> Any:
    return homology(cx, i).h


def homology_size(cx: ChainComplex, i: int) -> int:
    return cx.inst.obj_size(homology(cx, i).h)


def is_exact(cx: ChainComplex) -> bool:
    return all(cx.inst.is_initial(homology_obj(cx, i)) for i in cx.degrees())


# ---------------------------------------------------------------------------
# The span induced on homology by a chain map.
# ---------------------------------------------------------------------------


def h_on_map(f: ChainMap, i: int) -> FlatMor:
    """The span ``H_i(source) <= M -> H_i(target)`` induced by ``f``.

    The instance reads it off the homology grids of source and target and
    the levels of ``f`` at degree ``i``: an element chase from the ids of
    ``H_i(source)`` for finite sets, the classical induced map through its
    epi-mono factorization for the linear instance.  Outside the degrees
    of the complexes every object is initial, and so is each object of the
    span; :func:`acgw.les_of_ses` writes those zero steps itself, without
    a grid or a span.
    """
    return f.source.inst.homology_span(
        homology(f.source, i), homology(f.target, i), f.back.level(i), f.front.level(i)
    )


def check_functoriality(f: ChainMap, g: ChainMap) -> bool:
    """Whether homology sends the composite of two chain maps to the
    composite of their homology spans, at every degree."""
    from .chains import compose_chain_maps

    inst = f.source.inst
    composite = compose_chain_maps(f, g)
    degrees: set[int] = set()
    for cx in (f.source, f.middle, f.target, g.middle, g.target, composite.middle):
        degrees.update(cx.degrees())
    for i in sorted(degrees):
        direct = h_on_map(composite, i)
        stepwise = compose_flat(inst, h_on_map(f, i), h_on_map(g, i))
        if not span_equiv(inst, direct, stepwise):
            return False
    return True


# ---------------------------------------------------------------------------
# Quasi-isomorphisms.
# ---------------------------------------------------------------------------


def is_quasi_iso(f: ChainMap) -> bool:
    """Whether the induced span on homology is invertible at every degree
    of the source."""
    inst = f.source.inst
    return all(flat_is_iso(inst, h_on_map(f, i)) for i in f.source.degrees())


def qiso_iff_complement_exact(
    mor: HorChainMor | VerChainMor,
) -> tuple[bool, bool]:
    """The two sides of the exactness criterion for one chain morphism.

    Returns ``(quasi_iso, complement_exact)``: whether the morphism is a
    quasi-isomorphism, and whether its complement complex is exact.  The
    two booleans agree for every valid chain morphism.
    """
    if isinstance(mor, HorChainMor):
        verdict = is_quasi_iso(chain_map_of_hor(mor))
        complement = coker_hor(mor).source
    else:
        verdict = is_quasi_iso(chain_map_of_ver(mor))
        complement = ker_ver(mor).source
    return verdict, is_exact(complement)


# ---------------------------------------------------------------------------
# Homology as a complex, embedded both ways.
# ---------------------------------------------------------------------------


def homology_complex(
    cx: ChainComplex,
) -> tuple[ChainComplex, HorChainMor, VerChainMor]:
    """The homology of ``cx`` as a complex with trivial transitions,
    together with a horizontal and a vertical chain morphism into ``cx``,
    both quasi-isomorphisms."""
    inst = cx.inst
    levels = [
        inst.homology_embedding(homology(cx, i), cx.transition(i + 1).into_lower)
        for i in cx.degrees()
    ]
    objects = tuple(hor.source for hor, _ in levels)
    transitions = tuple(
        Transition(
            inst.initial(),
            inst.zero_ver(objects[i - cx.lo]),
            inst.zero_hor(objects[i - 1 - cx.lo]),
        )
        for i in cx.transition_degrees()
    )
    h = ChainComplex(inst, cx.lo, cx.hi, objects, transitions)
    hor = HorChainMor(
        h,
        cx,
        tuple(hor for hor, _ in levels),
        tuple(inst.zero_hor(cx.transition(i).obj) for i in cx.transition_degrees()),
    )
    ver = VerChainMor(
        h,
        cx,
        tuple(ver for _, ver in levels),
        tuple(inst.zero_ver(cx.transition(i).obj) for i in cx.transition_degrees()),
    )
    return h, hor, ver
