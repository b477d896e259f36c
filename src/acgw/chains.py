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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .core import (
    AcgwInstance,
    CompositionError,
    HorMor,
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
class HorChainMor:
    """A horizontal morphism of complexes ``source -> target``.

    ``levels[i]`` is ``f_i: X_i -> Y_i`` for ``i`` in ``lo..hi``;
    ``bar_levels[i]`` connects the transition objects for ``i`` in
    ``lo+1..hi``.
    """

    source: ChainComplex
    target: ChainComplex
    levels: tuple[HorMor, ...]
    bar_levels: tuple[HorMor, ...]

    def level(self, i: int) -> HorMor:
        if self.source.lo <= i <= self.source.hi:
            return self.levels[i - self.source.lo]
        return self.source.inst.zero_hor(self.target.obj(i))

    def bar_level(self, i: int) -> HorMor:
        if self.source.lo + 1 <= i <= self.source.hi:
            return self.bar_levels[i - self.source.lo - 1]
        return self.source.inst.zero_hor(self.target.transition(i).obj)


@dataclass(frozen=True)
class VerChainMor:
    """A vertical morphism of complexes ``source => target``."""

    source: ChainComplex
    target: ChainComplex
    levels: tuple[VerMor, ...]
    bar_levels: tuple[VerMor, ...]

    def level(self, i: int) -> VerMor:
        if self.source.lo <= i <= self.source.hi:
            return self.levels[i - self.source.lo]
        return self.source.inst.zero_ver(self.target.obj(i))

    def bar_level(self, i: int) -> VerMor:
        if self.source.lo + 1 <= i <= self.source.hi:
            return self.bar_levels[i - self.source.lo - 1]
        return self.source.inst.zero_ver(self.target.transition(i).obj)


def _ranges_match(a: ChainComplex, b: ChainComplex) -> bool:
    return a.lo == b.lo and a.hi == b.hi


def validate_hor_chain_mor(f: HorChainMor) -> list[str]:
    x, y, inst = f.source, f.target, f.source.inst
    if not _ranges_match(x, y):
        return [f"degree ranges differ: {x.lo}..{x.hi} vs {y.lo}..{y.hi}"]
    if len(f.levels) != x.hi - x.lo + 1 or len(f.bar_levels) != x.hi - x.lo:
        return ["wrong number of levels or bar levels"]
    problems: list[str] = []
    for i in x.degrees():
        for p in inst.validate_hor(f.level(i)):
            problems.append(f"level {i}: {p}")
    for i in x.transition_degrees():
        for p in inst.validate_hor(f.bar_level(i)):
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
        tx, ty = x.transition(i), y.transition(i)
        cls = inst.classify_mixed(
            f.bar_level(i), tx.into_upper, ty.into_upper, f.level(i)
        )
        if not cls.is_distinguished:
            problems.append(
                f"upper square at degree {i} is not distinguished ({cls.name})"
            )
        if not inst.hor_square_commutes(
            tx.into_lower, f.bar_level(i), f.level(i - 1), ty.into_lower
        ):
            problems.append(f"lower square at degree {i} does not commute")
    return problems


def validate_ver_chain_mor(g: VerChainMor) -> list[str]:
    z, y, inst = g.source, g.target, g.source.inst
    if not _ranges_match(z, y):
        return [f"degree ranges differ: {z.lo}..{z.hi} vs {y.lo}..{y.hi}"]
    if len(g.levels) != z.hi - z.lo + 1 or len(g.bar_levels) != z.hi - z.lo:
        return ["wrong number of levels or bar levels"]
    problems: list[str] = []
    for i in z.degrees():
        for p in inst.validate_ver(g.level(i)):
            problems.append(f"level {i}: {p}")
    for i in z.transition_degrees():
        for p in inst.validate_ver(g.bar_level(i)):
            problems.append(f"bar level {i}: {p}")
    if problems:
        return problems
    for i in z.degrees():
        h = g.level(i)
        if not (inst.obj_eq(h.source, z.obj(i)) and inst.obj_eq(h.target, y.obj(i))):
            problems.append(f"level {i} has wrong endpoints")
    for i in z.transition_degrees():
        h = g.bar_level(i)
        if not (
            inst.obj_eq(h.source, z.transition(i).obj)
            and inst.obj_eq(h.target, y.transition(i).obj)
        ):
            problems.append(f"bar level {i} has wrong endpoints")
    if problems:
        return problems
    for i in z.transition_degrees():
        tz, ty = z.transition(i), y.transition(i)
        cls = inst.classify_mixed(
            tz.into_lower, g.bar_level(i), g.level(i - 1), ty.into_lower
        )
        if not cls.is_distinguished:
            problems.append(
                f"lower square at degree {i} is not distinguished ({cls.name})"
            )
        if not inst.ver_square_commutes(
            tz.into_upper, g.bar_level(i), g.level(i), ty.into_upper
        ):
            problems.append(f"upper square at degree {i} does not commute")
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
    inst = cx.inst
    return HorChainMor(
        cx,
        cx,
        tuple(inst.id_hor(cx.obj(i)) for i in cx.degrees()),
        tuple(inst.id_hor(cx.transition(i).obj) for i in cx.transition_degrees()),
    )


def id_ver_chain(cx: ChainComplex) -> VerChainMor:
    inst = cx.inst
    return VerChainMor(
        cx,
        cx,
        tuple(inst.id_ver(cx.obj(i)) for i in cx.degrees()),
        tuple(inst.id_ver(cx.transition(i).obj) for i in cx.transition_degrees()),
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

    def cleg(i: int) -> VerMor:
        if y.lo <= i <= y.hi:
            return quots[i - y.lo][1]
        return inst.zero_ver(y.obj(i))

    transitions = []
    bars = []
    for i in y.transition_degrees():
        ty = y.transition(i)
        sq = inst.mixed_pullback(ty.into_lower, cleg(i - 1))
        into_lower = sq.to_epi_source  # already lands in Z_{i-1}
        bar = sq.to_mono_source  # corner => transition object of Y
        lifted = inst.compose_ver(bar, ty.into_upper)
        into_upper = inst.factor_ver(lifted, cleg(i))
        transitions.append(Transition(sq.corner, into_upper, into_lower))
        bars.append(bar)
    z = ChainComplex(
        inst, y.lo, y.hi, tuple(obj for obj, _ in quots), tuple(transitions)
    )
    return VerChainMor(z, y, tuple(leg for _, leg in quots), tuple(bars))


def ker_ver(g: VerChainMor) -> HorChainMor:
    """Levelwise complement of a vertical chain morphism (mirror of
    :func:`coker_hor`)."""
    inst = g.source.inst
    y = g.target
    kers = [inst.ker(g.level(i)) for i in y.degrees()]

    def kleg(i: int) -> HorMor:
        if y.lo <= i <= y.hi:
            return kers[i - y.lo][1]
        return inst.zero_hor(y.obj(i))

    transitions = []
    bars = []
    for i in y.transition_degrees():
        ty = y.transition(i)
        sq = inst.mixed_pullback(kleg(i), ty.into_upper)
        bar = sq.to_epi_source  # corner -> transition object of Y
        into_upper = sq.to_mono_source  # corner => K_i
        dropped = inst.compose_hor(bar, ty.into_lower)
        into_lower = inst.factor_hor(dropped, kleg(i - 1))
        transitions.append(Transition(sq.corner, into_upper, into_lower))
        bars.append(bar)
    k = ChainComplex(
        inst, y.lo, y.hi, tuple(obj for obj, _ in kers), tuple(transitions)
    )
    return HorChainMor(k, y, tuple(leg for _, leg in kers), tuple(bars))


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
    lo, hi = w.lo, w.hi

    corners: dict[int, Any] = {}
    cf: dict[int, HorMor] = {}  # P_i -> W_i
    cb: dict[int, VerMor] = {}  # P_i => X_i
    for i in range(lo, hi + 1):
        sq = inst.mixed_pullback(f.front.level(i), g.back.level(i))
        corners[i] = sq.corner
        cf[i] = inst.compose_hor(sq.to_epi_source, g.front.level(i))
        cb[i] = inst.compose_ver(sq.to_mono_source, f.back.level(i))

    def cf_at(i: int) -> HorMor:
        if lo <= i <= hi:
            return cf[i]
        return inst.zero_hor(w.obj(i))

    transitions = []
    front_bars = []
    back_bars = []
    for i in range(lo + 1, hi + 1):
        tw = w.transition(i)
        sq = inst.mixed_pullback(cf[i], tw.into_upper)
        front_bar = sq.to_epi_source  # corner -> transition object of W
        into_upper = sq.to_mono_source  # corner => P_i
        dropped = inst.compose_hor(front_bar, tw.into_lower)
        into_lower = inst.factor_hor(dropped, cf_at(i - 1))
        back_bar = inst.factor_ver(
            inst.compose_ver(into_upper, cb[i]),
            f.source.transition(i).into_upper,
        )
        transitions.append(Transition(sq.corner, into_upper, into_lower))
        front_bars.append(front_bar)
        back_bars.append(back_bar)

    middle = ChainComplex(
        inst, lo, hi, tuple(corners[i] for i in range(lo, hi + 1)), tuple(transitions)
    )
    out = ChainMap(
        f.source,
        middle,
        w,
        VerChainMor(
            middle,
            f.source,
            tuple(cb[i] for i in range(lo, hi + 1)),
            tuple(back_bars),
        ),
        HorChainMor(
            middle,
            w,
            tuple(cf[i] for i in range(lo, hi + 1)),
            tuple(front_bars),
        ),
    )
    problems = validate_chain_map(out)
    if problems:
        raise CompositionError(
            "composite chain map is not valid: " + "; ".join(problems[:5])
        )
    return out
