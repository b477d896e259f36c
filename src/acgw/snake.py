"""Snake constructions: six-term zigzags and long exact sequences.

The input of the weak snake is a three-by-three arrangement: a top and a
bottom complement pair, a middle pair whose mixed pullback is trivial,
vertical comparison morphisms into the top row, horizontal ones into the
bottom row, two distinguished mixed squares on the corners and two
commuting squares on the straight sides.  The output is a six-object
zigzag (kernel complements of the three columns, then cokernel
complements) connected by five transitions, exact everywhere.

The strong variant relaxes the outer rows: the top mono and the bottom
epi only exist after restricting along an intermediate object on each
side.  Its zigzag is exact at the four interior positions.

The long exact homology sequence of a short exact sequence of complexes
(:func:`les_of_ses`) is built from the homology of each degree: the
spans the two chain morphisms induce on it, and one connecting step per
degree, chased like the snake's.  The degrees just outside the range
hold initial objects and zero steps, computed from nothing.

:func:`validate_snake_weak` and :func:`validate_snake_strong` keep the
problems of an input in its ``__dict__`` (by :func:`acgw.core._memoized`),
as the validators of complexes and chain morphisms do, so a second check
asks the instance nothing; an input pickles and copies by its declared
fields, without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import ChainSES, Transition
from .core import AcgwInstance, FlatMor, HorMor, VerMor, _memoized
from .homology import HomologyGrid, homology

__all__ = [
    "ExactZigzag",
    "validate_zigzag",
    "zigzag_exactness",
    "zigzag_is_exact",
    "flat_morphism",
    "SnakeInputWeak",
    "SnakeInputStrong",
    "validate_snake_weak",
    "validate_snake_strong",
    "snake_weak",
    "snake_strong",
    "les_of_ses",
]


@dataclass(frozen=True)
class ExactZigzag:
    """A row of objects joined by transitions, with exactness bookkeeping.

    ``transitions[j]`` sits between ``objects[j]`` (via its vertical leg)
    and ``objects[j + 1]`` (via its horizontal leg).
    ``non_exact_positions`` marks object positions where exactness is not
    claimed.
    """

    inst: AcgwInstance = field(compare=False)
    objects: tuple = ()
    transitions: tuple[Transition, ...] = ()
    labels: tuple[str, ...] = ()
    transition_labels: tuple[str, ...] = ()
    non_exact_positions: frozenset[int] = frozenset()


def validate_zigzag(zz: ExactZigzag) -> list[str]:
    inst = zz.inst
    problems: list[str] = []
    if len(zz.transitions) != max(len(zz.objects) - 1, 0):
        problems.append("wrong number of transitions")
    if len(zz.labels) != len(zz.objects):
        problems.append("wrong number of labels")
    if len(zz.transition_labels) != len(zz.transitions):
        problems.append("wrong number of transition labels")
    if problems:
        return problems
    for j, t in enumerate(zz.transitions):
        problems += [f"transition {j} upper leg: {p}" for p in inst.validate_ver(t.into_upper)]
        problems += [f"transition {j} lower leg: {p}" for p in inst.validate_hor(t.into_lower)]
        if problems:
            continue
        if not inst.obj_eq(t.into_upper.source, t.obj) or not inst.obj_eq(
            t.into_lower.source, t.obj
        ):
            problems.append(f"transition {j} legs do not start at its object")
        if not inst.obj_eq(t.into_upper.target, zz.objects[j]):
            problems.append(f"transition {j} upper leg misses object {j}")
        if not inst.obj_eq(t.into_lower.target, zz.objects[j + 1]):
            problems.append(f"transition {j} lower leg misses object {j + 1}")
    return problems


def zigzag_exactness(zz: ExactZigzag) -> list[bool]:
    """Exactness verdict at every object position."""
    inst = zz.inst
    out = []
    last = len(zz.objects) - 1
    for j, obj in enumerate(zz.objects):
        incoming = zz.transitions[j - 1].into_lower if j > 0 else inst.zero_hor(obj)
        outgoing = zz.transitions[j].into_upper if j < last else inst.zero_ver(obj)
        out.append(inst.is_complement_pair(incoming, outgoing))
    return out


def zigzag_is_exact(zz: ExactZigzag) -> bool:
    """Exact at every position not explicitly exempted."""
    return all(
        ok
        for j, ok in enumerate(zigzag_exactness(zz))
        if j not in zz.non_exact_positions
    )


def flat_morphism(zz: ExactZigzag, j: int) -> FlatMor:
    """The span ``objects[j] <= T_j -> objects[j + 1]``."""
    t = zz.transitions[j]
    return FlatMor(zz.objects[j], t.obj, zz.objects[j + 1], t.into_upper, t.into_lower)


# ---------------------------------------------------------------------------
# Weak snake.
# ---------------------------------------------------------------------------


#: the key under which a snake input keeps its problems
_PROBLEMS = "_snake_problems"


def _reduce_input(inp):
    """Pickle and copy a snake input by its declared fields, without the
    problems it keeps beside them."""
    return type(inp), tuple(getattr(inp, f) for f in inp.__dataclass_fields__)


@dataclass(frozen=True)
class SnakeInputWeak:
    """Input of the weak snake construction.

    Rows (objects named for orientation only)::

        A  >->  B  <<=  C        top complement pair
        X  >->  Y  <<=  Z        middle pair, trivial mixed pullback
        A' >->  B' <<=  C'       bottom complement pair

    Columns go up vertically (``X => A`` etc.) and down horizontally
    (``X -> A'`` etc.).  The two corner squares (upper-left mixed on the
    mono side, lower-right mixed on the epi side) must be distinguished;
    the remaining two squares must commute.
    """

    inst: AcgwInstance = field(compare=False)
    top_mono: HorMor = None  # A -> B
    top_epi: VerMor = None  # C => B
    mid_mono: HorMor = None  # X -> Y
    mid_epi: VerMor = None  # Z => Y
    bot_mono: HorMor = None  # A' -> B'
    bot_epi: VerMor = None  # C' => B'
    left_up: VerMor = None  # X => A
    left_down: HorMor = None  # X -> A'
    mid_up: VerMor = None  # Y => B
    mid_down: HorMor = None  # Y -> B'
    right_up: VerMor = None  # Z => C
    right_down: HorMor = None  # Z -> C'

    __reduce__ = _reduce_input


@_memoized(_PROBLEMS)
def validate_snake_weak(inp: SnakeInputWeak) -> list[str]:
    """The problems of a weak snake input, kept in it: a caller must not
    change the list."""
    inst = inp.inst
    problems: list[str] = []
    for flavour, validate in ((HorMor, inst.validate_hor), (VerMor, inst.validate_ver)):
        for name, mor_type, _, _ in _LAYOUT[SnakeInputWeak]:
            if mor_type is flavour:
                problems += [f"{name}: {p}" for p in validate(getattr(inp, name))]
    if problems:
        return problems
    if not inst.is_complement_pair(inp.top_mono, inp.top_epi):
        problems.append("top row is not a complement pair")
    if not inst.is_complement_pair(inp.bot_mono, inp.bot_epi):
        problems.append("bottom row is not a complement pair")
    if not inst.obj_eq(inp.mid_mono.target, inp.mid_epi.target):
        problems.append("middle row morphisms do not share a target")
    elif not inst.meets_trivially(inp.mid_mono, inp.mid_epi):
        problems.append("middle row has a nontrivial mixed pullback")
    cls = inst.classify_mixed(inp.mid_mono, inp.left_up, inp.mid_up, inp.top_mono)
    if not cls.is_distinguished:
        problems.append(f"upper-left square is not distinguished ({cls.name})")
    cls = inst.classify_mixed(inp.right_down, inp.mid_epi, inp.bot_epi, inp.mid_down)
    if not cls.is_distinguished:
        problems.append(f"lower-right square is not distinguished ({cls.name})")
    if not inst.ver_square_commutes(
        inp.mid_epi, inp.right_up, inp.mid_up, inp.top_epi
    ):
        problems.append("upper-right square does not commute")
    if not inst.hor_square_commutes(
        inp.mid_mono, inp.left_down, inp.mid_down, inp.bot_mono
    ):
        problems.append("lower-left square does not commute")
    return problems


#: the object and transition labels of a snake zigzag, weak or strong
_LABELS = (
    "ker of left column",
    "ker of middle column",
    "ker of right column",
    "coker of left column",
    "coker of middle column",
    "coker of right column",
)
_TRANSITION_LABELS = (
    "kernel-side step",
    "kernel pullback",
    "connecting step",
    "cokernel pullback",
    "cokernel-side step",
)


def snake_weak(inp: SnakeInputWeak) -> ExactZigzag:
    """The six-term exact zigzag of a weak snake input."""
    return _snake_weak(inp)[0]


def _snake_weak(inp: SnakeInputWeak) -> tuple[ExactZigzag, HorMor, VerMor]:
    """:func:`snake_weak` with the complement legs of ``left_up`` and
    ``right_down`` it builds."""
    inst = inp.inst

    o1, kleg1 = inst.ker(inp.left_up)
    o2, kleg2 = inst.ker(inp.mid_up)
    o3, kleg3 = inst.ker(inp.right_up)
    o4, cleg4 = inst.coker(inp.left_down)
    o5, cleg5 = inst.coker(inp.mid_down)
    o6, cleg6 = inst.coker(inp.right_down)

    t1 = Transition(
        o1,
        inst.id_ver(o1),
        inst.factor_hor(inst.compose_hor(kleg1, inp.top_mono), kleg2),
    )

    sq = inst.mixed_pullback(kleg2, inp.top_epi)
    t2 = Transition(
        sq.corner,
        sq.to_mono_source,
        inst.factor_hor(sq.to_epi_source, kleg3),
    )

    t3 = _chase(
        inst,
        inp.mid_mono,
        inp.mid_epi,
        (inp.mid_up, inp.top_epi, kleg3),
        (inp.mid_down, inp.bot_mono, cleg4),
    )

    sq2 = inst.mixed_pullback(inp.bot_mono, cleg5)
    t4 = Transition(
        sq2.corner,
        inst.factor_ver(sq2.to_mono_source, cleg4),
        sq2.to_epi_source,
    )

    t5 = Transition(
        o6,
        inst.factor_ver(inst.compose_ver(cleg6, inp.bot_epi), cleg5),
        inst.id_hor(o6),
    )

    zz = ExactZigzag(
        inst, (o1, o2, o3, o4, o5, o6), (t1, t2, t3, t4, t5), _LABELS, _TRANSITION_LABELS
    )
    return zz, kleg1, cleg6


def _chase(inst: AcgwInstance, mono: HorMor, epi: VerMor, up: tuple, down: tuple) -> Transition:
    """The connecting step of a middle row ``mono: X -> Y``, ``epi: Z =>
    Y``: its object ``W`` is the kernel of ``epi`` lifted into the cokernel
    ``R => Y`` of ``mono``.  ``up = (path, through, kleg)`` takes
    ``path: Y => B`` along ``R``, factors it through ``through: C => B``,
    and goes between kernels into ``kleg: K -> C``.  ``down = (path,
    through, cleg)`` takes ``path: Y -> B'`` along the kernel ``KE -> Y``
    of ``epi``, factors it through ``through: A' -> B'``, and goes
    between cokernels into ``cleg: Q => A'``."""
    up_path, up_through, kleg = up
    down_path, down_through, cleg = down
    _, rest = inst.coker(mono)  # R => Y
    w, w_hor = inst.ker(inst.factor_ver(epi, rest))  # W -> R
    _, kleg_epi = inst.ker(epi)  # KE -> Y
    rest_up = inst.factor_ver(inst.compose_ver(rest, up_path), up_through)  # R => C
    ker_down = inst.factor_hor(inst.compose_hor(kleg_epi, down_path), down_through)  # KE -> A'
    low = inst.hor_between_cokers(ker_down, inst.ver_between_kernels(rest, w_hor, kleg_epi), cleg)
    return Transition(w, inst.ver_between_kernels(rest_up, w_hor, kleg), low)


# ---------------------------------------------------------------------------
# Strong snake.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnakeInputStrong:
    """Input of the strong snake construction.

    Compared to the weak input, the top mono only exists on a restriction
    ``top_restricted`` of its source (``restrict_to_top`` projects it back
    to the full left-top object) and the bottom epi only exists from an
    extension ``bot_restricted`` (``extend_to_bot`` embeds it into the
    full right-bottom object)::

        A  <<=  Abar >-> B  <<=  C
        X  >->  Y    <<= Z
        A' >->  B'   <<= Cbar' >-> C'
    """

    inst: AcgwInstance = field(compare=False)
    left_up: VerMor = None  # X => A
    restrict_to_top: VerMor = None  # Abar => A
    top_mono: HorMor = None  # Abar -> B
    left_up_restricted: VerMor = None  # X => Abar
    mid_up: VerMor = None  # Y => B
    top_epi: VerMor = None  # C => B
    right_up: VerMor = None  # Z => C
    mid_mono: HorMor = None  # X -> Y
    mid_epi: VerMor = None  # Z => Y
    bot_mono: HorMor = None  # A' -> B'
    left_down: HorMor = None  # X -> A'
    mid_down: HorMor = None  # Y -> B'
    bot_epi_restricted: VerMor = None  # Cbar' => B'
    right_down_restricted: HorMor = None  # Z -> Cbar'
    extend_to_bot: HorMor = None  # Cbar' -> C'

    def right_down(self) -> HorMor:
        """Derived composite ``Z -> C'``."""
        return self.inst.compose_hor(self.right_down_restricted, self.extend_to_bot)

    def inner_weak(self) -> SnakeInputWeak:
        """The weak input obtained by using the restricted rows as rows."""
        return SnakeInputWeak(
            self.inst,
            top_mono=self.top_mono,
            top_epi=self.top_epi,
            mid_mono=self.mid_mono,
            mid_epi=self.mid_epi,
            bot_mono=self.bot_mono,
            bot_epi=self.bot_epi_restricted,
            left_up=self.left_up_restricted,
            left_down=self.left_down,
            mid_up=self.mid_up,
            mid_down=self.mid_down,
            right_up=self.right_up,
            right_down=self.right_down_restricted,
        )

    __reduce__ = _reduce_input


# ---------------------------------------------------------------------------
# Snake inputs row by row.
# ---------------------------------------------------------------------------

#: the rows of a snake input, in document order, with the objects each one
#: names; a weak input has no ``abar`` and ``cbar`` rows
_ROWS = (
    ("top", ("a", "b", "c")),
    ("abar", ("abar",)),
    ("middle", ("x", "y", "z")),
    ("cbar", ("cbar2",)),
    ("bottom", ("a2", "b2", "c2")),
)

#: per input class, every morphism as ``(field, class, source, target)``
#: with its ends named as in ``_ROWS``.  :func:`_snake_rows` reads each
#: object off the first morphism that has it, and the weak validator
#: checks the horizontal morphisms, then the vertical ones, in this order.
_LAYOUT = {
    SnakeInputWeak: (
        ("top_mono", HorMor, "a", "b"),
        ("top_epi", VerMor, "c", "b"),
        ("mid_mono", HorMor, "x", "y"),
        ("mid_epi", VerMor, "z", "y"),
        ("bot_mono", HorMor, "a2", "b2"),
        ("bot_epi", VerMor, "c2", "b2"),
        ("left_up", VerMor, "x", "a"),
        ("left_down", HorMor, "x", "a2"),
        ("mid_up", VerMor, "y", "b"),
        ("mid_down", HorMor, "y", "b2"),
        ("right_up", VerMor, "z", "c"),
        ("right_down", HorMor, "z", "c2"),
    ),
    SnakeInputStrong: (
        ("mid_mono", HorMor, "x", "y"),
        ("mid_epi", VerMor, "z", "y"),
        ("top_mono", HorMor, "abar", "b"),
        ("top_epi", VerMor, "c", "b"),
        ("left_up", VerMor, "x", "a"),
        ("bot_mono", HorMor, "a2", "b2"),
        ("extend_to_bot", HorMor, "cbar2", "c2"),
        ("restrict_to_top", VerMor, "abar", "a"),
        ("left_up_restricted", VerMor, "x", "abar"),
        ("mid_up", VerMor, "y", "b"),
        ("right_up", VerMor, "z", "c"),
        ("left_down", HorMor, "x", "a2"),
        ("mid_down", HorMor, "y", "b2"),
        ("bot_epi_restricted", VerMor, "cbar2", "b2"),
        ("right_down_restricted", HorMor, "z", "cbar2"),
    ),
}


def _snake_rows(inp: SnakeInputWeak | SnakeInputStrong) -> dict:
    """The objects of each row of a snake input, in document order."""
    objects: dict = {}
    for name, _, source, target in _LAYOUT[type(inp)]:
        mor = getattr(inp, name)
        objects.setdefault(source, mor.source)
        objects.setdefault(target, mor.target)
    return {row: tuple(map(objects.get, names)) for row, names in _ROWS if names[0] in objects}


@_memoized(_PROBLEMS)
def validate_snake_strong(inp: SnakeInputStrong) -> list[str]:
    """The problems of a strong snake input, kept in it: a caller must
    not change the list."""
    inst = inp.inst
    problems = [f"restrict_to_top: {p}" for p in inst.validate_ver(inp.restrict_to_top)]
    problems += [f"left_up: {p}" for p in inst.validate_ver(inp.left_up)]
    problems += [f"extend_to_bot: {p}" for p in inst.validate_hor(inp.extend_to_bot)]
    problems += [f"inner: {p}" for p in validate_snake_weak(inp.inner_weak())]
    if problems:
        return problems
    if inst.compose_ver(inp.left_up_restricted, inp.restrict_to_top) != inp.left_up:
        problems.append("left column does not factor through the top restriction")
    if not inst.obj_eq(inp.extend_to_bot.source, inp.bot_epi_restricted.source):
        problems.append("bottom extension does not start at the restricted object")
    return problems


def snake_strong(inp: SnakeInputStrong) -> ExactZigzag:
    """The six-term zigzag of a strong input, exact at the interior.  The
    inner weak snake builds the complement legs of the restricted outer
    columns."""
    inst = inp.inst
    inner, inner_kleg1, inner_cleg6 = _snake_weak(inp.inner_weak())

    o1, kleg1 = inst.ker(inp.left_up)
    o6, cleg6 = inst.coker(inp.right_down())

    t1 = Transition(
        inner.objects[0],
        inst.ver_between_kernels(inp.restrict_to_top, inner_kleg1, kleg1),
        inner.transitions[0].into_lower,
    )
    t5 = Transition(
        inner.objects[5],
        inner.transitions[4].into_upper,
        inst.hor_between_cokers(inp.extend_to_bot, inner_cleg6, cleg6),
    )
    return ExactZigzag(
        inst,
        (o1,) + inner.objects[1:5] + (o6,),
        (t1,) + inner.transitions[1:4] + (t5,),
        _LABELS,
        _TRANSITION_LABELS,
        frozenset({0, 5}),
    )


# ---------------------------------------------------------------------------
# The long exact sequence of a short exact sequence of complexes.
# ---------------------------------------------------------------------------


def les_of_ses(ses: ChainSES) -> ExactZigzag:
    """The long exact homology sequence of a short exact sequence.

    Its objects are the homology objects of the sub, total and quotient
    complexes at every degree from one above the top of the range down to
    one below its bottom.  Within a degree, the two steps are the spans
    the sub and quotient morphisms induce on homology
    (:meth:`AcgwInstance.homology_span`); the connecting step from
    ``H_i(quot)`` to ``H_{i-1}(sub)`` is chased through the complements of
    the bar levels at ``i``.  It holds on every instance and for any
    levels, and is exact everywhere.

    At ``hi + 1`` and ``lo - 1`` every object of the three complexes is
    initial, and so is its homology: those six objects are
    ``inst.initial()``, and the steps there, with the connecting steps
    out of ``hi + 1`` and into ``lo - 1``, have zero legs.  No grid, span
    or chase is computed outside the range.
    """
    inst = ses.sub.source.inst
    sub, quot = ses.sub, ses.quot
    x, y, z = sub.source, sub.target, quot.source
    lo, hi = x.lo, x.hi

    zero = inst.initial()

    def zero_step(upper, lower) -> Transition:
        return Transition(zero, inst.zero_ver(upper), inst.zero_hor(lower))

    objects: list = [zero] * 3
    transitions = [zero_step(zero, zero)] * 2
    gz = None  # the quotient's grid one degree up
    for i in range(hi, lo - 1, -1):
        gx, gy = homology(x, i), homology(y, i)
        transitions.append(zero_step(zero, gx.h) if gz is None else _connecting(ses, i + 1, gz, gx))
        gz = homology(z, i)
        into = inst.homology_span(gx, gy, inst.id_ver(x.obj(i)), sub.level(i))
        onto = inst.homology_span(gy, gz, quot.level(i), inst.id_hor(z.obj(i)))
        objects += [gx.h, gy.h, gz.h]
        transitions += [Transition(fl.middle, fl.back, fl.front) for fl in (into, onto)]
    transitions.append(zero_step(zero if gz is None else gz.h, zero))
    objects += [zero] * 3
    transitions += [zero_step(zero, zero)] * 2
    degrees = range(hi + 1, lo - 2, -1)
    labels = [f"H_{i}({part})" for i in degrees for part in ("sub", "total", "quot")]
    transition_labels = [
        label
        for i in degrees
        for label in (f"H_{i} into total", f"H_{i} onto quotient", f"connecting {i} to {i - 1}")
    ][:-1]  # nothing connects out of the last degree
    return ExactZigzag(
        inst, tuple(objects), tuple(transitions), tuple(labels), tuple(transition_labels)
    )


def _connecting(ses: ChainSES, i: int, gz: HomologyGrid, gx_below: HomologyGrid) -> Transition:
    """The connecting step ``H_i(quot) <= W -> H_{i-1}(sub)``, from the
    homology grids of the quotient at ``i`` and of the sub-complex at
    ``i - 1``.  ``W`` is the kernel of the quotient's bar level lifted into
    the cokernel of the sub's: on literal subsets, the transition elements
    of the total complex at ``i`` whose upper image lies outside the
    sub-complex and whose lower image lies inside it."""
    inst, sub, quot = ses.sub.source.inst, ses.sub, ses.quot
    ty = sub.target.transition(i)
    into_x = inst.compose_hor(gx_below.cycles_hor, sub.level(i - 1))  # cycles -> Y_{i-1}
    t = _chase(
        inst,
        sub.bar_level(i),
        quot.bar_level(i),
        (ty.into_upper, quot.level(i), gz.cycles_hor),
        (ty.into_lower, into_x, gx_below.h_to_cycles),
    )
    return Transition(t.obj, inst.factor_ver(t.into_upper, gz.h_to_cycles), t.into_lower)
