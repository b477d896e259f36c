"""Core interfaces for categories with two interlocking morphism classes.

The library works inside categories that carry two distinguished classes of
morphisms — *horizontal* arrows (inclusion-like monics, written ``A -> B``)
and *vertical* arrows (projection-like, written ``A => B``) — sharing a
single initial object.  Horizontal and vertical morphisms into a fixed
object correspond to each other through a pair of mutually inverse
complement operations (:meth:`AcgwInstance.coker` and
:meth:`AcgwInstance.ker`), and mixed cospans complete to canonical pullback
squares (:meth:`AcgwInstance.mixed_pullback`).

Everything downstream — chain complexes, homology, snake constructions,
long exact sequences, the document format and the rank oracle — is written
against the abstract primitive inventory and hooks declared here, so adding
an instance only requires implementing :class:`AcgwInstance`.  Two
instances ship with the library: finite sets with injections on both sides
(:mod:`acgw.finset`) and finite-dimensional vector spaces over a prime field
(:mod:`acgw.linear`).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Hashable, Iterable

__all__ = [
    "AcgwError",
    "ValidationError",
    "CompositionError",
    "FactorizationError",
    "SquareClass",
    "HorMor",
    "VerMor",
    "PullbackSquare",
    "FlatMor",
    "AcgwInstance",
    "id_flat",
    "zero_flat",
    "flat_of_hor",
    "flat_of_ver",
    "flat_is_zero",
    "flat_is_iso",
    "compose_flat",
    "span_equiv",
    "validate_flat",
]


class AcgwError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(AcgwError):
    """A structure failed validation.

    Attributes:
        problems: human-readable descriptions of every violation found.
    """

    def __init__(self, problems: Iterable[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems) or "invalid structure")


class CompositionError(AcgwError):
    """A composite could not be assembled into a valid structure."""


class FactorizationError(AcgwError):
    """A required (unique) factorization does not exist."""


class SquareClass(IntEnum):
    """Classification of a mixed square, ordered by strength.

    ``NOT_SQUARE`` covers shape mismatches and non-commuting diagrams; a
    square is *distinguished* exactly when its class is at least
    ``PSEUDO_COMMUTATIVE``.
    """

    NOT_SQUARE = 0
    COMMUTING = 1
    PSEUDO_COMMUTATIVE = 2
    CARTESIAN = 3

    @property
    def is_distinguished(self) -> bool:
        return self >= SquareClass.PSEUDO_COMMUTATIVE


def parse_decimal(token: str, signed: bool = False) -> int | None:
    """``token`` as ASCII decimal digits, after a ``-`` when ``signed``;
    None for any other spelling, which ``int`` alone may also read
    (``1_0``, ``+1``, spaces, other scripts' digits), and for more
    digits than ``int`` converts."""
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:
        return None


def _reduce_to_fields(mor):
    """Pickle and copy a morphism by its declared fields alone, leaving
    out whatever an instance keeps beside them in its ``__dict__``."""
    return type(mor), (mor.source, mor.target, mor.data)


def _memoized(key: str):
    """Compute a value of a morphism or complex once per object and keep
    it under ``key`` in the object's ``__dict__``, as
    ``functools.cached_property`` does on a frozen dataclass: ``==``,
    ``hash``, ``repr`` and pickling read only the declared fields, so they
    never see it.  A build that returns None stores nothing and runs again
    on the next call.  A value may also be stored under ``key`` when the
    object is built, by whoever builds it."""

    def wrap(build):
        @functools.wraps(build)
        def get(f):
            memo = f.__dict__
            value = memo.get(key)
            if value is None:
                value = build(f)
                if value is not None:
                    memo[key] = value
            return value

        return get

    return wrap


@dataclass(frozen=True)
class HorMor:
    """A horizontal (inclusion-like) morphism ``source -> target``.

    The ``data`` payload is instance-specific but always hashable: for
    finite sets a ``(sources, images)`` pair of equal-length id tuples,
    the sources in increasing order; for the linear instance a
    full-column-rank matrix, held as a read-only int64 array whose
    ``repr`` is its tuple of rows.  Beside ``data``, in the instance
    ``__dict__`` and outside ``==``, ``hash``, ``repr`` and pickling, the
    finite-set instance memoizes the morphism's dict, inverse dict, image
    set and the rest of its target (and a complement leg keeps the image
    it complements), and both instances keep its document text.
    """

    source: Any
    target: Any
    data: Hashable

    __reduce__ = _reduce_to_fields


@dataclass(frozen=True)
class VerMor:
    """A vertical (projection-like) morphism ``source => target``.

    For finite sets the payload is again an injection of ids as
    ``(sources, images)``; for the linear instance it is the matrix of the
    underlying surjection ``target ->> source`` (shape
    ``source.dim x target.dim``), held as for :class:`HorMor`.  Each
    instance keeps the same memos beside ``data`` as for :class:`HorMor`.
    """

    source: Any
    target: Any
    data: Hashable

    __reduce__ = _reduce_to_fields


@dataclass(frozen=True)
class PullbackSquare:
    """The canonical square completing ``mono: A -> C  <=  epi: B => C``.

    Attributes:
        corner: the pullback object ``P``.
        to_epi_source: horizontal leg ``P -> B``.
        to_mono_source: vertical leg ``P => A``.
        mono: the original bottom horizontal morphism ``A -> C``.
        epi: the original right vertical morphism ``B => C``.
    """

    corner: Any
    to_epi_source: HorMor
    to_mono_source: VerMor
    mono: HorMor
    epi: VerMor


@dataclass(frozen=True)
class FlatMor:
    """A span ``source <= middle -> target`` acting as a single morphism.

    ``back`` is vertical with ``back.source == middle`` and
    ``back.target == source``; ``front`` is horizontal from ``middle`` to
    ``target``.  In finite sets these are exactly partial injections from
    ``source`` to ``target``.
    """

    source: Any
    middle: Any
    target: Any
    back: VerMor
    front: HorMor


class AcgwInstance(ABC):
    """Primitive inventory one concrete category must provide.

    Implementations must be pure: every method returns fresh immutable
    values and never mutates its arguments.  Two instances are equal when
    they have the same class and the same document header.

    Besides the double-exact primitives, an instance implements the hooks
    through which the rest of the library reads its data layout:

    * document format: :meth:`from_header` and :meth:`header` (the lines
      after ``instance KIND``), :meth:`obj_from_text`/:meth:`obj_text`
      (object payloads), :meth:`mor_from_text`/:meth:`mor_text` (leg and
      level payloads, with their defaults); the reader forces the bar levels
      of a ``hor``/``ver`` section with :meth:`hor_between_cokers`/
      :meth:`ver_between_kernels`, which raise :class:`AcgwError` on legs
      and levels not yet validated; a section whose bar levels cannot be
      forced over an invalid complex is kept without them, unchecked;
    * rank oracle: :attr:`prime` and :meth:`boundary_matrix`;
    * homology: :meth:`homology_span` (the span :func:`acgw.h_on_map`
      returns) and :meth:`homology_embedding` (the levels of
      :func:`acgw.homology_complex`).

    The checks that follow from those primitives are derived here, and an
    instance does not write them: :meth:`is_initial`, :meth:`obj_eq`,
    :meth:`validate_hor`, :meth:`is_iso_hor`, :meth:`square_fits`,
    :meth:`hor_square_commutes` (each ``ver`` name an alias),
    :meth:`meets_trivially` and :meth:`is_complement_pair`.
    """

    #: short tag used by documents and the CLI ("set" or "linear")
    kind: str = "abstract"
    #: characteristic of the field the rank oracle counts ranks over
    prime: int

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.header() == other.header()

    def __hash__(self) -> int:
        return hash((type(self), tuple(self.header())))

    # ----- objects -------------------------------------------------
    @abstractmethod
    def initial(self) -> Any:
        """The shared initial object of both morphism classes."""

    def is_initial(self, obj: Any) -> bool:
        """Whether ``obj`` is initial: the one object of size zero."""
        return self.obj_size(obj) == 0

    def obj_eq(self, a: Any, b: Any) -> bool:
        """Objects are values: equal objects are one object."""
        return a == b

    @abstractmethod
    def obj_size(self, obj: Any) -> int:
        """Cardinality (sets) or dimension (linear) of ``obj``."""

    @abstractmethod
    def obj_label(self, obj: Any) -> str:
        """Short human-readable rendering of ``obj``."""

    @abstractmethod
    def validate_obj(self, obj: Any) -> list[str]: ...

    # ----- morphisms ------------------------------------------------
    @abstractmethod
    def id_hor(self, obj: Any) -> HorMor: ...

    @abstractmethod
    def id_ver(self, obj: Any) -> VerMor: ...

    @abstractmethod
    def zero_hor(self, obj: Any) -> HorMor:
        """The unique horizontal morphism from the initial object."""

    @abstractmethod
    def zero_ver(self, obj: Any) -> VerMor:
        """The unique vertical morphism from the initial object."""

    def validate_hor(self, f: HorMor | VerMor) -> list[str]:
        """The problems of a morphism of either flavour: those of its two
        endpoint objects or, when they have none, those of its payload."""
        return (
            self.validate_obj(f.source) + self.validate_obj(f.target)
            or self.validate_payload(f)
        )

    validate_ver = validate_hor

    def is_iso_hor(self, f: HorMor | VerMor) -> bool:
        """Whether ``f`` is invertible.  It takes valid morphisms, like the
        other primitives: a valid horizontal morphism is a mono and a valid
        vertical one an epi, so either is an iso exactly when its two ends
        have one size.  On an invalid morphism the answer is unspecified."""
        return self.obj_size(f.source) == self.obj_size(f.target)

    is_iso_ver = is_iso_hor

    @abstractmethod
    def validate_payload(self, f: HorMor | VerMor) -> list[str]:
        """The problems of the payload of a morphism of either flavour whose
        endpoints are valid objects.  The chain validators call it alone
        on a morphism whose endpoints equal objects they have checked."""

    @abstractmethod
    def compose_hor(self, f: HorMor, g: HorMor) -> HorMor:
        """``f: A -> B`` then ``g: B -> C``, giving ``A -> C``."""

    @abstractmethod
    def compose_ver(self, f: VerMor, g: VerMor) -> VerMor:
        """``f: A => B`` then ``g: B => C``, giving ``A => C``."""

    # ----- complement structure ------------------------------------
    @abstractmethod
    def coker(self, m: HorMor) -> tuple[Any, VerMor]:
        """Complement of ``m: A -> B``: object ``B // A`` with its
        canonical vertical morphism into ``B``."""

    @abstractmethod
    def ker(self, e: VerMor) -> tuple[Any, HorMor]:
        """Complement of ``e: A => B``: object ``B \\ A`` with its
        canonical horizontal morphism into ``B``."""

    def is_complement_pair(self, m: HorMor, e: VerMor) -> bool:
        """Whether valid ``m: A -> B`` and ``e: C => B`` are complements of
        each other in ``B`` (the two-sided exactness condition): their
        sizes add up to that of ``B`` and they meet trivially."""
        sizes = self.obj_size(m.source) + self.obj_size(e.source)
        return sizes == self.obj_size(m.target) and self.meets_trivially(m, e)

    def meets_trivially(self, m: HorMor, e: VerMor) -> bool:
        """Whether valid ``m: A -> C`` and ``e: B => C`` have an initial
        pullback corner, without building the pullback: whether the square
        with an initial corner over the cospan is Cartesian.  On finite
        sets no element of ``e`` lands in the image of ``m``; over ``F_p``
        ``ver(e) @ hor(m)`` is zero."""
        top, left = self.zero_hor(e.source), self.zero_ver(m.source)
        return self.classify_mixed(top, left, e, m) is SquareClass.CARTESIAN

    @abstractmethod
    def mixed_pullback(self, m: HorMor, e: VerMor) -> PullbackSquare:
        """Complete ``m: A -> C`` and ``e: B => C`` to the canonical
        distinguished square with corner ``P``, horizontal leg
        ``P -> B`` and vertical leg ``P => A``."""

    @abstractmethod
    def classify_mixed(
        self, top: HorMor, left: VerMor, right: VerMor, bottom: HorMor
    ) -> SquareClass:
        """Classify a mixed square of valid morphisms.

        Orientation: ``top: P -> B``, ``left: P => A``, ``right: B => C``,
        ``bottom: A -> C``.  Returns ``NOT_SQUARE`` only when the shape is
        wrong (the endpoints do not match) or the square fails to commute.
        Like every other primitive it does not validate its morphisms:
        validation lives in :meth:`validate_hor`/:meth:`validate_ver` and
        in the chain and snake validators, which check the levels (or
        snake rows and columns) they pass before they call it.  On invalid
        morphisms the class is unspecified.
        """

    def square_fits(self, top, left, right, bottom) -> bool:
        """Whether the ends of a square's morphisms meet, in the
        orientation ``top: P -> B``, ``left: P -> A``, ``right: B -> C``,
        ``bottom: A -> C``, of any flavours."""
        return (
            top.source == left.source
            and top.target == right.source
            and left.target == bottom.source
            and right.target == bottom.target
        )

    def hor_square_commutes(self, top, left, right, bottom) -> bool:
        """Whether a square of valid morphisms of one flavour, oriented as
        for :meth:`square_fits`, commutes: ``right . top == bottom . left``
        as morphisms."""
        compose = self.compose_hor if isinstance(top, HorMor) else self.compose_ver
        fits = self.square_fits(top, left, right, bottom)
        return fits and compose(top, right) == compose(left, bottom)

    ver_square_commutes = hor_square_commutes

    # ----- factorization and induced morphisms ---------------------
    @abstractmethod
    def factor_hor(self, f: HorMor, through: HorMor) -> HorMor:
        """Unique ``h`` with ``through . h == f`` for ``f: A -> C`` and
        ``through: B -> C``; raises :class:`FactorizationError` if the
        image of ``f`` does not lie inside ``through``."""

    @abstractmethod
    def factor_ver(self, f: VerMor, through: VerMor) -> VerMor:
        """Unique ``h`` with ``through . h == f`` for ``f: A => C`` and
        ``through: B => C``."""

    @abstractmethod
    def hor_between_cokers(self, m: HorMor, cp: VerMor, cq: VerMor) -> HorMor:
        """Horizontal morphism induced by ``m: P -> Q`` between complement
        presentations ``cp: CP => P`` and ``cq: CQ => Q``; raises
        :class:`FactorizationError` when ``m`` does not descend."""

    @abstractmethod
    def ver_between_kernels(self, e: VerMor, kp: HorMor, kq: HorMor) -> VerMor:
        """Vertical morphism induced by ``e: P => Q`` between complement
        presentations ``kp: KP -> P`` and ``kq: KQ -> Q``."""

    # ----- spans ----------------------------------------------------
    @abstractmethod
    def flat_key(self, back: VerMor, front: HorMor) -> Hashable:
        """Canonical invariant of the span ``back.target <= middle ->
        front.target``; two spans between the same endpoints are
        equivalent iff their keys agree."""

    # ----- document format -------------------------------------------
    @classmethod
    @abstractmethod
    def from_header(cls, prime: int | None) -> "AcgwInstance":
        """The instance a document header declares; ``prime`` is the value
        of its ``prime`` line, or ``None`` without one.  Raises
        :class:`AcgwError` for a header the instance does not accept."""

    @abstractmethod
    def header(self) -> list[str]:
        """The header lines that follow ``instance KIND``."""

    @abstractmethod
    def obj_from_text(self, text: str) -> Any:
        """The object an ``object``/``transition`` payload describes;
        raises :class:`AcgwError` on malformed text."""

    @abstractmethod
    def obj_text(self, obj: Any) -> str:
        """Payload text of ``obj`` (possibly empty)."""

    @abstractmethod
    def mor_from_text(
        self, mor_type: type, source: Any, target: Any, text: str | None, leg: bool = False
    ) -> HorMor | VerMor:
        """The morphism of class ``mor_type`` (:class:`HorMor` or
        :class:`VerMor`) a payload describes.  ``text`` is ``None`` when
        the line is omitted: ``leg`` selects the default of a transition
        leg or a snake morphism rather than that of a level.  Raises
        :class:`AcgwError` on malformed text."""

    @abstractmethod
    def mor_text(self, mor: HorMor | VerMor, leg: bool = False) -> str | None:
        """Payload text of ``mor``, or ``None`` when the line is omitted
        because the parser's default (see :meth:`mor_from_text`) gives
        ``mor`` back."""

    # ----- rank oracle -----------------------------------------------
    @abstractmethod
    def boundary_matrix(self, up: VerMor, low: HorMor) -> Any:
        """The plain boundary matrix ``X_i -> X_{i-1}`` over ``F_prime``
        (a numpy array) of the transition with legs ``up: T => X_i`` and
        ``low: T -> X_{i-1}``; raises :class:`ValidationError` when a leg
        cannot be read."""

    # ----- homology --------------------------------------------------
    @abstractmethod
    def homology_span(self, gx: Any, gy: Any, back: VerMor, front: HorMor) -> FlatMor:
        """The span ``H_i(X) <= M -> H_i(Y)`` a chain map induces, from
        the homology grids ``gx``, ``gy`` (:class:`acgw.HomologyGrid`) of
        its source and target and its levels ``back: Z_i => X_i`` and
        ``front: Z_i -> Y_i`` at the degree."""

    @abstractmethod
    def homology_embedding(self, grid: Any, boundaries: HorMor) -> tuple[HorMor, VerMor]:
        """Horizontal and vertical levels ``H_i -> X_i`` and ``H_i => X_i``
        that embed homology into the complex, both inducing the identity
        on homology, from the grid at degree ``i`` and the lower leg
        ``boundaries: T_{i+1} -> X_i``."""


# ---------------------------------------------------------------------------
# Span (flat morphism) calculus, generic over the instance.
# ---------------------------------------------------------------------------


def id_flat(inst: AcgwInstance, obj: Any) -> FlatMor:
    """Identity span on ``obj``."""
    return FlatMor(obj, obj, obj, inst.id_ver(obj), inst.id_hor(obj))


def zero_flat(inst: AcgwInstance, source: Any, target: Any) -> FlatMor:
    """The zero span ``source <= initial -> target``."""
    return FlatMor(
        source, inst.initial(), target, inst.zero_ver(source), inst.zero_hor(target)
    )


def flat_of_hor(inst: AcgwInstance, f: HorMor) -> FlatMor:
    """View a horizontal morphism as the span with identity back leg."""
    return FlatMor(f.source, f.source, f.target, inst.id_ver(f.source), f)


def flat_of_ver(inst: AcgwInstance, v: VerMor) -> FlatMor:
    """View a vertical morphism ``Z => Y`` as a span from ``Y`` to ``Z``.

    Note the direction flip: vertical morphisms act like projections, so
    the induced span runs from the vertical target to the vertical source.
    """
    return FlatMor(v.target, v.source, v.source, v, inst.id_hor(v.source))


def validate_flat(inst: AcgwInstance, fl: FlatMor) -> list[str]:
    problems: list[str] = []
    problems += [f"back: {p}" for p in inst.validate_ver(fl.back)]
    problems += [f"front: {p}" for p in inst.validate_hor(fl.front)]
    if problems:
        return problems
    if not inst.obj_eq(fl.back.source, fl.middle):
        problems.append("back leg does not start at the middle object")
    if not inst.obj_eq(fl.front.source, fl.middle):
        problems.append("front leg does not start at the middle object")
    if not inst.obj_eq(fl.back.target, fl.source):
        problems.append("back leg does not land in the source object")
    if not inst.obj_eq(fl.front.target, fl.target):
        problems.append("front leg does not land in the target object")
    return problems


def flat_is_zero(inst: AcgwInstance, fl: FlatMor) -> bool:
    return inst.is_initial(fl.middle)


def flat_is_iso(inst: AcgwInstance, fl: FlatMor) -> bool:
    """A span is invertible exactly when both of its legs are."""
    return inst.is_iso_ver(fl.back) and inst.is_iso_hor(fl.front)


def compose_flat(inst: AcgwInstance, f: FlatMor, g: FlatMor) -> FlatMor:
    """Compose spans ``f: X -> Y`` and ``g: Y -> Z`` via the mixed pullback
    of ``f.front`` against ``g.back``."""
    if not inst.obj_eq(f.target, g.source):
        raise CompositionError(
            f"span composition mismatch: {inst.obj_label(f.target)} vs "
            f"{inst.obj_label(g.source)}"
        )
    sq = inst.mixed_pullback(f.front, g.back)
    back = inst.compose_ver(sq.to_mono_source, f.back)
    front = inst.compose_hor(sq.to_epi_source, g.front)
    return FlatMor(f.source, sq.corner, g.target, back, front)


def span_equiv(inst: AcgwInstance, f: FlatMor, g: FlatMor) -> bool:
    """Whether two spans between the same endpoints are equivalent (equal up
    to unique isomorphism of middles)."""
    if not (inst.obj_eq(f.source, g.source) and inst.obj_eq(f.target, g.target)):
        return False
    return inst.flat_key(f.back, f.front) == inst.flat_key(g.back, g.front)
