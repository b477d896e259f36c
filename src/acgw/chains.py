"""Chain complexes presented by transition objects, and their morphisms.

A complex is a finite row of objects ``X_lo .. X_hi`` together with one
*transition object* ``T_i`` between each consecutive pair, mapping
vertically into the upper object (``T_i => X_i``) and horizontally into
the lower one (``T_i -> X_{i-1}``).  The pair of legs is an epi-mono
presentation of the usual differential; the chain condition asks that the
mixed pullback of consecutive legs over ``X_i`` is trivial (the images
are independent), which replaces ``d . d == 0``.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .core import (
    AcgwInstance,
    CompositionError,
    HorMor,
    SquareClass,
    VerMor,
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
    "is_inclusion_mor",
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


def validate_complex(cx: ChainComplex) -> list[str]:
    inst = cx.inst
    problems: list[str] = []
    if cx.hi < cx.lo:
        return [f"degree range is empty: {cx.lo}..{cx.hi}"]
    if len(cx.objects) != cx.hi - cx.lo + 1:
        return [f"expected {cx.hi - cx.lo + 1} objects, got {len(cx.objects)}"]
    if len(cx.transitions) != cx.hi - cx.lo:
        return [f"expected {cx.hi - cx.lo} transitions, got {len(cx.transitions)}"]
    for i in cx.degrees():
        problems += [f"object {i}: {p}" for p in inst.validate_obj(cx.obj(i))]
    if problems:
        return problems
    for i in cx.transition_degrees():
        t = cx.transition(i)
        for p in inst.validate_ver(t.into_upper):
            problems.append(f"transition {i} upper leg: {p}")
        for p in inst.validate_hor(t.into_lower):
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
        sq = inst.mixed_pullback(cx.transition(i + 1).into_lower, cx.transition(i).into_upper)
        if not inst.is_initial(sq.corner):
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


def validate_hor_chain_mor(f: HorChainMor) -> list[str]:
    """The problems of a horizontal chain morphism between valid
    complexes.  At each transition degree the upper square must be
    distinguished and the lower one must commute."""
    inst = f.source.inst

    def squares(i: int, tx: Transition, ty: Transition) -> tuple[SquareClass, bool]:
        return (
            inst.classify_mixed(f.bar_level(i), tx.into_upper, ty.into_upper, f.level(i)),
            inst.hor_square_commutes(
                tx.into_lower, f.bar_level(i), f.level(i - 1), ty.into_lower
            ),
        )

    return _chain_mor_problems(f, inst.validate_hor, squares, "upper", "lower")


def validate_ver_chain_mor(g: VerChainMor) -> list[str]:
    """The problems of a vertical chain morphism between valid complexes.
    At each transition degree the lower square must be distinguished and
    the upper one must commute."""
    inst = g.source.inst

    def squares(i: int, tz: Transition, ty: Transition) -> tuple[SquareClass, bool]:
        return (
            inst.classify_mixed(tz.into_lower, g.bar_level(i), g.level(i - 1), ty.into_lower),
            inst.ver_square_commutes(
                tz.into_upper, g.bar_level(i), g.level(i), ty.into_upper
            ),
        )

    return _chain_mor_problems(g, inst.validate_ver, squares, "lower", "upper")


def _chain_mor_problems(
    f: _ChainMor, validate, squares, distinguished: str, commuting: str
) -> list[str]:
    """Range, count, level and endpoint checks, then the two squares that
    ``squares(i, source transition, target transition)`` returns: the
    class of the ``distinguished`` one and whether the ``commuting`` one
    commutes."""
    x, y, inst = f.source, f.target, f.source.inst
    if (x.lo, x.hi) != (y.lo, y.hi):
        return [f"degree ranges differ: {x.lo}..{x.hi} vs {y.lo}..{y.hi}"]
    if len(f.levels) != x.hi - x.lo + 1 or len(f.bar_levels) != x.hi - x.lo:
        return ["wrong number of levels or bar levels"]
    problems: list[str] = []
    for i in x.degrees():
        for p in validate(f.level(i)):
            problems.append(f"level {i}: {p}")
    for i in x.transition_degrees():
        for p in validate(f.bar_level(i)):
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
        cls, commutes = squares(i, x.transition(i), y.transition(i))
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
    problems: list[str] = []
    if f.back.source != f.middle or f.front.source != f.middle:
        problems.append("legs do not start at the middle complex")
    if f.back.target != f.source:
        problems.append("back leg does not land in the source complex")
    if f.front.target != f.target:
        problems.append("front leg does not land in the target complex")
    problems += [f"back: {p}" for p in validate_ver_chain_mor(f.back)]
    problems += [f"front: {p}" for p in validate_hor_chain_mor(f.front)]
    return problems


@dataclass(frozen=True)
class ChainSES:
    """A levelwise complement pair of chain morphisms into one complex."""

    sub: HorChainMor
    quot: VerChainMor


def validate_chain_ses(ses: ChainSES) -> list[str]:
    return _ses_problems(ses, validate_hor_chain_mor(ses.sub))


def _ses_problems(ses: ChainSES, sub_problems: list[str]) -> list[str]:
    """The problems of ``ses``, given those of its sub morphism (a
    document that names the sub morphism has them already)."""
    problems = [f"sub: {p}" for p in sub_problems]
    problems += [f"quot: {p}" for p in validate_ver_chain_mor(ses.quot)]
    if problems:
        return problems
    if ses.sub.target != ses.quot.target:
        return ["sub and quot do not land in the same complex"]
    inst = ses.sub.source.inst
    for i in ses.sub.source.degrees():
        if not inst.is_complement_pair(ses.sub.level(i), ses.quot.level(i)):
            problems.append(f"levels at degree {i} are not a complement pair")
    return problems


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


def coker_hor(f: HorChainMor) -> VerChainMor:
    """Levelwise complement of a horizontal chain morphism.

    Produces the quotient-side complex ``Z`` with ``Z_i`` the complement
    of ``f_i`` and transition objects obtained by pulling the target's
    lower legs back along the complement presentations.
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


def is_inclusion_mor(mor: HorMor | VerMor) -> bool:
    """Whether a finite-set morphism is a literal identity-pair inclusion."""
    return all(a == b for a, b in mor.data)


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
    problems = validate_chain_map(out)
    if problems:
        raise CompositionError(
            "composite chain map is not valid: " + "; ".join(problems[:5])
        )
    return out
