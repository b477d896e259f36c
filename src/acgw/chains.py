"""Chain complexes presented by transition objects, and their morphisms.

A complex is a finite row of objects ``X_lo .. X_hi`` together with one
*transition object* ``T_i`` between each consecutive pair, mapping
vertically into the upper object (``T_i => X_i``) and horizontally into
the lower one (``T_i -> X_{i-1}``).  The pair of legs is an epi-mono
presentation of the usual differential; the chain condition asks that the
mixed pullback of consecutive legs over ``X_i`` is trivial (the images
are independent), which replaces ``d . d == 0``.  :func:`validate_complex`
tests it without building that pullback, by
:meth:`~acgw.core.AcgwInstance.meets_trivially`: the square with an
initial corner over the two legs must be Cartesian.

Morphisms of complexes come in the same two flavours as morphisms of
objects.  A horizontal chain morphism carries levelwise horizontal
morphisms plus *bar levels* between transition objects, subject to a
distinguished mixed square on the upper legs and a commuting square on
the lower legs; vertical chain morphisms are the mirror image.  A
:class:`ChainMap` is a span of those, one leg of each kind, and is the
general notion of map between complexes.

The two flavours are written once where they agree.  They share one
class body (fields, levels and bar levels; only the zero morphism outside
the range differs), one levelwise builder, and every validation step but
the two squares per transition degree: the distinguished square, which
both classify with ``classify_mixed`` on transposed arguments, and the
commuting square, checked by ``hor_square_commutes`` or
``ver_square_commutes``.  :func:`ker_ver` and :func:`compose_chain_maps`
pull the target's transitions back along horizontal levels through one
helper; :func:`coker_hor` pulls back along vertical levels and has its
own loop.

Validation checks each object once.  :func:`validate_complex` checks the
objects and transition objects, then only the payloads of the legs
between them (:meth:`AcgwInstance.validate_payload`); the chain
morphism validators take valid complexes and check only the payloads of
levels that run between their objects.  A morphism with other endpoints
is checked in full, so each message is the one ``validate_hor`` gives.
The complexes a sequence or a composite builds, which no
:func:`validate_complex` covers, have their objects checked once each.
The document reader checks each object as it reads it and marks the
complex it builds, so :func:`validate_complex` checks only the legs and
the chain condition of a complex read from a document.

The quasi-isomorphism test of a pair
(:func:`acgw.homology.qiso_iff_complement_exact`) and its long exact
sequence both take the quotient of one horizontal chain morphism, so
:func:`coker_hor` keeps the quotient it builds in that morphism's
``__dict__`` (by :func:`acgw.core._memoized`), as the finite-set
instance keeps a morphism's dicts; the validators of complexes and chain
morphisms keep their problems so.  A document's ``ses`` section is
checked as its sub morphism: the quotient of a valid one is valid, so
validation builds none.  A chain morphism pickles and copies by its
four declared fields, so neither leaves the process; a complex pickles
and copies by its five, without its mark, its problems and the
homology grids that :func:`acgw.homology.homology` keeps in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from .core import (
    AcgwInstance,
    CompositionError,
    HorMor,
    SquareClass,
    VerMor,
    _memoized,
)

__all__ = [
    "Transition",
    "ChainComplex",
    "validate_complex",
    "HorChainMor",
    "VerChainMor",
    "ChainMap",
    "ChainSES",
    "validate_hor_chain_mor",
    "validate_ver_chain_mor",
    "validate_chain_map",
    "validate_chain_ses",
    "id_hor_chain",
    "id_ver_chain",
    "id_chain_map",
    "chain_map_of_hor",
    "chain_map_of_ver",
    "coker_hor",
    "ker_ver",
    "ses_from_injection",
    "ses_from_projection",
    "compose_chain_maps",
]


@dataclass(frozen=True)
class Transition:
    """The connecting object between two consecutive degrees.

    Attributes:
        obj: the transition object ``T_i``.
        into_upper: vertical leg ``T_i => X_i``.
        into_lower: horizontal leg ``T_i -> X_{i-1}``.
    """

    obj: Any
    into_upper: VerMor
    into_lower: HorMor


@dataclass(frozen=True)
class ChainComplex:
    """Objects ``X_lo..X_hi`` with transitions ``T_{lo+1}..T_hi``."""

    inst: AcgwInstance = field(compare=False)
    lo: int = 0
    hi: int = 0
    objects: tuple = ()
    transitions: tuple[Transition, ...] = ()

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def transition_degrees(self) -> range:
        return range(self.lo + 1, self.hi + 1)

    def obj(self, i: int) -> Any:
        """Object at degree ``i``; the initial object outside the range."""
        if self.lo <= i <= self.hi:
            return self.objects[i - self.lo]
        return self.inst.initial()

    def transition(self, i: int) -> Transition:
        """Transition at degree ``i``; a synthesized trivial transition
        outside ``lo+1..hi``."""
        if self.lo + 1 <= i <= self.hi:
            return self.transitions[i - self.lo - 1]
        return Transition(
            self.inst.initial(),
            self.inst.zero_ver(self.obj(i)),
            self.inst.zero_hor(self.obj(i - 1)),
        )

    def __reduce__(self):
        # pickle and copy by the declared fields, without the homology
        # grids, the mark and the problems that a complex keeps beside them
        return type(self), (self.inst, self.lo, self.hi, self.objects, self.transitions)


#: the key under which a complex read from a document is marked: the
#: reader built each of its objects and transition objects canonical
_READ = "_chain_objects_read"

#: the key under which a complex or chain morphism keeps its problems
_PROBLEMS = "_chain_problems"


def _mor_problems(
    inst: AcgwInstance, validate, f, source: Any, source_problems: list[str], target: Any
) -> list[str]:
    """The problems of ``f`` as ``validate`` would give them, for ``f``
    meant to run from ``source``, whose problems are ``source_problems``,
    to ``target``, a valid object.  When ``f`` has those endpoints only its
    payload is checked; otherwise ``validate`` checks all of it."""
    if inst.obj_eq(f.source, source) and inst.obj_eq(f.target, target):
        return source_problems or inst.validate_payload(f)
    return validate(f)


@_memoized(_PROBLEMS)
def validate_complex(cx: ChainComplex) -> list[str]:
    """The problems of a complex, kept in it: a caller must not change
    the list.  Each object and transition object is checked once; a
    transition leg between them has only its payload checked.  The objects
    of a complex the document reader built are not checked again: the
    reader checked each one as it read it, and marked it (``_READ``)."""
    inst = cx.inst
    problems: list[str] = []
    if cx.hi < cx.lo:
        return [f"degree range is empty: {cx.lo}..{cx.hi}"]
    if len(cx.objects) != cx.hi - cx.lo + 1:
        return [f"expected {cx.hi - cx.lo + 1} objects, got {len(cx.objects)}"]
    if len(cx.transitions) != cx.hi - cx.lo:
        return [f"expected {cx.hi - cx.lo} transitions, got {len(cx.transitions)}"]
    read = _READ in vars(cx)
    if not read:
        for i in cx.degrees():
            problems += [f"object {i}: {p}" for p in inst.validate_obj(cx.obj(i))]
        if problems:
            return problems
    for i in cx.transition_degrees():
        t = cx.transition(i)
        found = [] if read else inst.validate_obj(t.obj)
        for p in _mor_problems(inst, inst.validate_ver, t.into_upper, t.obj, found, cx.obj(i)):
            problems.append(f"transition {i} upper leg: {p}")
        for p in _mor_problems(inst, inst.validate_hor, t.into_lower, t.obj, found, cx.obj(i - 1)):
            problems.append(f"transition {i} lower leg: {p}")
        if problems:
            continue
        if not inst.obj_eq(t.into_upper.source, t.obj):
            problems.append(f"transition {i}: upper leg does not start at T_{i}")
        if not inst.obj_eq(t.into_lower.source, t.obj):
            problems.append(f"transition {i}: lower leg does not start at T_{i}")
        if not inst.obj_eq(t.into_upper.target, cx.obj(i)):
            problems.append(f"transition {i}: upper leg does not land in X_{i}")
        if not inst.obj_eq(t.into_lower.target, cx.obj(i - 1)):
            problems.append(f"transition {i}: lower leg does not land in X_{i - 1}")
    if problems:
        return problems
    for i in cx.transition_degrees():
        if i + 1 > cx.hi:
            continue
        if not inst.meets_trivially(cx.transition(i + 1).into_lower, cx.transition(i).into_upper):
            problems.append(
                f"chain condition fails at degree {i}: transition images overlap "
                f"in {inst.obj_label(cx.obj(i))}"
            )
    return problems


@dataclass(frozen=True)
class _ChainMor:
    """What horizontal and vertical chain morphisms share: levels
    ``f_i`` for ``i`` in ``lo..hi`` and bar levels between the transition
    objects for ``i`` in ``lo+1..hi``, each a zero morphism outside."""

    source: ChainComplex
    target: ChainComplex
    levels: tuple
    bar_levels: tuple

    def level(self, i: int):
        if self.source.lo <= i <= self.source.hi:
            return self.levels[i - self.source.lo]
        return self._zero(self.target.obj(i))

    def bar_level(self, i: int):
        if self.source.lo + 1 <= i <= self.source.hi:
            return self.bar_levels[i - self.source.lo - 1]
        return self._zero(self.target.transition(i).obj)

    def __reduce__(self):
        # pickle and copy by the declared fields, without the quotient
        # and the problems kept beside them
        return type(self), (self.source, self.target, self.levels, self.bar_levels)


class HorChainMor(_ChainMor):
    """A horizontal morphism of complexes ``source -> target``: its levels
    and bar levels are :class:`HorMor`."""

    def _zero(self, obj: Any) -> HorMor:
        return self.source.inst.zero_hor(obj)


class VerChainMor(_ChainMor):
    """A vertical morphism of complexes ``source => target``: its levels
    and bar levels are :class:`VerMor`."""

    def _zero(self, obj: Any) -> VerMor:
        return self.source.inst.zero_ver(obj)


@_memoized(_PROBLEMS)
def validate_hor_chain_mor(f: HorChainMor) -> list[str]:
    """The problems of a horizontal chain morphism between valid
    complexes, kept in it.  At each transition degree the upper square
    must be distinguished and the lower one must commute."""
    return _chain_mor_problems(f, True)


@_memoized(_PROBLEMS)
def validate_ver_chain_mor(g: VerChainMor) -> list[str]:
    """The problems of a vertical chain morphism between valid complexes,
    kept in it.  At each transition degree the lower square must be
    distinguished and the upper one must commute."""
    return _chain_mor_problems(g, True)


def _squares(f: _ChainMor, i: int, tx: Transition, ty: Transition) -> tuple[SquareClass, bool]:
    """The class of the distinguished square of ``f`` at transition degree
    ``i`` and whether its commuting square commutes, from the transitions
    ``tx`` of its source and ``ty`` of its target there."""
    inst, bar = f.source.inst, f.bar_level(i)
    if isinstance(f, HorChainMor):
        return (
            inst.classify_mixed(bar, tx.into_upper, ty.into_upper, f.level(i)),
            inst.hor_square_commutes(tx.into_lower, bar, f.level(i - 1), ty.into_lower),
        )
    return (
        inst.classify_mixed(tx.into_lower, bar, f.level(i - 1), ty.into_lower),
        inst.ver_square_commutes(tx.into_upper, bar, f.level(i), ty.into_upper),
    )


def _chain_mor_problems(f: _ChainMor, source_checked: bool) -> list[str]:
    """Range, count, level and endpoint checks, then the two squares of
    :func:`_squares` at each transition degree.  The target's objects are
    valid, and so are the source's when ``source_checked``; otherwise
    each is checked here once."""
    x, y, inst = f.source, f.target, f.source.inst
    hor = isinstance(f, HorChainMor)
    validate = inst.validate_hor if hor else inst.validate_ver
    distinguished, commuting = ("upper", "lower") if hor else ("lower", "upper")
    if (x.lo, x.hi) != (y.lo, y.hi):
        return [f"degree ranges differ: {x.lo}..{x.hi} vs {y.lo}..{y.hi}"]
    if len(f.levels) != x.hi - x.lo + 1 or len(f.bar_levels) != x.hi - x.lo:
        return ["wrong number of levels or bar levels"]

    def problems_of(g, a, b) -> list[str]:
        found = [] if source_checked else inst.validate_obj(a)
        return _mor_problems(inst, validate, g, a, found, b)

    problems: list[str] = []
    for i in x.degrees():
        for p in problems_of(f.level(i), x.obj(i), y.obj(i)):
            problems.append(f"level {i}: {p}")
    for i in x.transition_degrees():
        for p in problems_of(f.bar_level(i), x.transition(i).obj, y.transition(i).obj):
            problems.append(f"bar level {i}: {p}")
    if problems:
        return problems
    for i in x.degrees():
        g = f.level(i)
        if not (inst.obj_eq(g.source, x.obj(i)) and inst.obj_eq(g.target, y.obj(i))):
            problems.append(f"level {i} has wrong endpoints")
    for i in x.transition_degrees():
        g = f.bar_level(i)
        if not (
            inst.obj_eq(g.source, x.transition(i).obj)
            and inst.obj_eq(g.target, y.transition(i).obj)
        ):
            problems.append(f"bar level {i} has wrong endpoints")
    if problems:
        return problems
    for i in x.transition_degrees():
        cls, commutes = _squares(f, i, x.transition(i), y.transition(i))
        if not cls.is_distinguished:
            problems.append(
                f"{distinguished} square at degree {i} is not distinguished ({cls.name})"
            )
        if not commutes:
            problems.append(f"{commuting} square at degree {i} does not commute")
    return problems


@dataclass(frozen=True)
class ChainMap:
    """A span of chain morphisms ``source <= middle -> target``."""

    source: ChainComplex
    middle: ChainComplex
    target: ChainComplex
    back: VerChainMor
    front: HorChainMor


def validate_chain_map(f: ChainMap) -> list[str]:
    return _chain_map_problems(f, validate_ver_chain_mor, validate_hor_chain_mor)


def _chain_map_problems(f: ChainMap, back_problems, front_problems) -> list[str]:
    """:func:`validate_chain_map` between valid complexes, the back and
    front legs checked by ``back_problems`` and ``front_problems``, which
    for a composite also check the objects of its middle complex."""
    problems: list[str] = []
    if f.back.source != f.middle or f.front.source != f.middle:
        problems.append("legs do not start at the middle complex")
    if f.back.target != f.source:
        problems.append("back leg does not land in the source complex")
    if f.front.target != f.target:
        problems.append("front leg does not land in the target complex")
    problems += [f"back: {p}" for p in back_problems(f.back)]
    problems += [f"front: {p}" for p in front_problems(f.front)]
    return problems


@dataclass(frozen=True)
class ChainSES:
    """A levelwise complement pair of chain morphisms into one complex."""

    sub: HorChainMor
    quot: VerChainMor


def validate_chain_ses(ses: ChainSES) -> list[str]:
    """The problems of a short exact sequence into a valid complex; the
    objects of the sub and quotient complexes are checked here, once each.
    A sub morphism with problems gets only those, as ``sub:`` lines."""
    sub = _chain_mor_problems(ses.sub, False)
    if sub:
        return [f"sub: {p}" for p in sub]
    problems = [f"quot: {p}" for p in _chain_mor_problems(ses.quot, False)]
    if problems:
        return problems
    if ses.sub.target != ses.quot.target:
        return ["sub and quot do not land in the same complex"]
    inst = ses.sub.source.inst
    return [
        f"levels at degree {i} are not a complement pair"
        for i in ses.sub.source.degrees()
        if not inst.is_complement_pair(ses.sub.level(i), ses.quot.level(i))
    ]


# ---------------------------------------------------------------------------
# Identities and embeddings into chain maps.
# ---------------------------------------------------------------------------


def id_hor_chain(cx: ChainComplex) -> HorChainMor:
    return _levelwise(HorChainMor, lambda obj, _: cx.inst.id_hor(obj), cx, cx)


def id_ver_chain(cx: ChainComplex) -> VerChainMor:
    return _levelwise(VerChainMor, lambda obj, _: cx.inst.id_ver(obj), cx, cx)


def _levelwise(chain: type[_ChainMor], mor, x: ChainComplex, y: ChainComplex):
    """The chain morphism ``x -> y`` of class ``chain`` whose level at each
    degree, and bar level at each transition degree, is ``mor(a, b)`` on
    the objects ``a`` of ``x`` and ``b`` of ``y`` there."""
    return chain(
        x,
        y,
        tuple(mor(x.obj(i), y.obj(i)) for i in x.degrees()),
        tuple(mor(x.transition(i).obj, y.transition(i).obj) for i in x.transition_degrees()),
    )


def id_chain_map(cx: ChainComplex) -> ChainMap:
    return ChainMap(cx, cx, cx, id_ver_chain(cx), id_hor_chain(cx))


def chain_map_of_hor(f: HorChainMor) -> ChainMap:
    """A horizontal chain morphism as a span with identity back leg."""
    return ChainMap(f.source, f.source, f.target, id_ver_chain(f.source), f)


def chain_map_of_ver(g: VerChainMor) -> ChainMap:
    """A vertical chain morphism ``Z => Y`` as a span from ``Y`` to ``Z``."""
    return ChainMap(g.target, g.source, g.source, g, id_hor_chain(g.source))


# ---------------------------------------------------------------------------
# Complements of chain morphisms.
# ---------------------------------------------------------------------------


#: the key under which a horizontal chain morphism keeps its quotient
_COKER = "_chain_coker"


@_memoized(_COKER)
def coker_hor(f: HorChainMor) -> VerChainMor:
    """Levelwise complement of a horizontal chain morphism.

    Produces the quotient-side complex ``Z`` with ``Z_i`` the complement
    of ``f_i`` and transition objects obtained by pulling the target's
    lower legs back along the complement presentations.  The quotient is
    built once per chain morphism object and kept in its ``__dict__``,
    outside ``==``, ``hash``, ``repr``, pickling and copying.
    """
    inst = f.source.inst
    y = f.target
    quots = [inst.coker(f.level(i)) for i in y.degrees()]
    legs = tuple(leg for _, leg in quots)

    transitions = []
    bars = []
    for i in y.transition_degrees():
        ty = y.transition(i)
        sq = inst.mixed_pullback(ty.into_lower, legs[i - 1 - y.lo])
        into_lower = sq.to_epi_source  # already lands in Z_{i-1}
        bar = sq.to_mono_source  # corner => transition object of Y
        lifted = inst.compose_ver(bar, ty.into_upper)
        into_upper = inst.factor_ver(lifted, legs[i - y.lo])
        transitions.append(Transition(sq.corner, into_upper, into_lower))
        bars.append(bar)
    z = ChainComplex(
        inst, y.lo, y.hi, tuple(obj for obj, _ in quots), tuple(transitions)
    )
    return VerChainMor(z, y, legs, tuple(bars))


def ker_ver(g: VerChainMor) -> HorChainMor:
    """Levelwise complement of a vertical chain morphism.

    Produces the sub-side complex ``K`` with ``K_i`` the complement of
    ``g_i`` and transition objects pulled back from the target's.
    """
    inst = g.source.inst
    y = g.target
    kers = [inst.ker(g.level(i)) for i in y.degrees()]
    legs = tuple(leg for _, leg in kers)
    transitions, bars = _pull_back_transitions(inst, legs, y)
    k = ChainComplex(inst, y.lo, y.hi, tuple(obj for obj, _ in kers), transitions)
    return HorChainMor(k, y, legs, bars)


def _pull_back_transitions(
    inst: AcgwInstance, legs: tuple[HorMor, ...], y: ChainComplex
) -> tuple[tuple[Transition, ...], tuple[HorMor, ...]]:
    """Transitions for the sources ``P_i`` of horizontal ``legs[i - lo]:
    P_i -> Y_i``, pulled back from those of ``y`` along the legs, and the
    bar levels from them into the transition objects of ``y``."""
    transitions = []
    bars = []
    for i in y.transition_degrees():
        ty = y.transition(i)
        sq = inst.mixed_pullback(legs[i - y.lo], ty.into_upper)
        bar = sq.to_epi_source  # corner -> transition object of Y
        into_upper = sq.to_mono_source  # corner => P_i
        dropped = inst.compose_hor(bar, ty.into_lower)
        into_lower = inst.factor_hor(dropped, legs[i - 1 - y.lo])
        transitions.append(Transition(sq.corner, into_upper, into_lower))
        bars.append(bar)
    return tuple(transitions), tuple(bars)


def ses_from_injection(f: HorChainMor) -> ChainSES:
    """Complete a horizontal chain morphism to a short exact sequence."""
    return ChainSES(f, coker_hor(f))


def ses_from_projection(g: VerChainMor) -> ChainSES:
    """Complete a vertical chain morphism to a short exact sequence."""
    return ChainSES(ker_ver(g), g)


# ---------------------------------------------------------------------------
# Composition of chain maps.
# ---------------------------------------------------------------------------


def compose_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """Compose spans of complexes via levelwise mixed pullbacks.

    The composite's middle complex is assembled from the levelwise
    pullback corners of ``f.front`` against ``g.back``; its transitions
    are pulled back from the final target.  Raises
    :class:`CompositionError` if the result does not validate.
    """
    inst = f.source.inst
    if f.target != g.source:
        raise CompositionError("chain maps are not composable")
    w = g.target

    corners = []
    fronts: list[HorMor] = []  # P_i -> W_i
    backs: list[VerMor] = []  # P_i => X_i
    for i in w.degrees():
        sq = inst.mixed_pullback(f.front.level(i), g.back.level(i))
        corners.append(sq.corner)
        fronts.append(inst.compose_hor(sq.to_epi_source, g.front.level(i)))
        backs.append(inst.compose_ver(sq.to_mono_source, f.back.level(i)))

    transitions, front_bars = _pull_back_transitions(inst, tuple(fronts), w)
    back_bars = tuple(
        inst.factor_ver(
            inst.compose_ver(t.into_upper, backs[i - w.lo]),
            f.source.transition(i).into_upper,
        )
        for i, t in zip(w.transition_degrees(), transitions)
    )
    middle = ChainComplex(inst, w.lo, w.hi, tuple(corners), transitions)
    out = ChainMap(
        f.source,
        middle,
        w,
        VerChainMor(middle, f.source, tuple(backs), back_bars),
        HorChainMor(middle, w, tuple(fronts), front_bars),
    )
    unchecked = partial(_chain_mor_problems, source_checked=False)
    problems = _chain_map_problems(out, unchecked, unchecked)
    if problems:
        raise CompositionError(
            "composite chain map is not valid: " + "; ".join(problems[:5])
        )
    return out
