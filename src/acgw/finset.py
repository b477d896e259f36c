"""Finite sets with injections as both horizontal and vertical morphisms.

Objects are finite sets of string identifiers, canonically stored as
sorted tuples.  A morphism's payload is ``(sources, images)``: two
tuples of equal length, the sources in increasing order and each image
at the position of its source.  A horizontal morphism is such an
injection; a vertical morphism ``A => B`` is also backed by an injection
of ``A`` into ``B`` — the two classes differ only in the role they play.
A literal inclusion is ``(sub, sub)``: it shares its object's tuple.
Complements are literal set differences, which makes every canonical
construction a genuine subset of its ambient object.  In documents an
object is written as its ids and a morphism as ``src->tgt`` pairs; an
omitted leg or snake morphism is the literal inclusion.  The rank oracle
reads a complex over ``F_2`` with one basis vector per id.

Only the entry points whose input order is arbitrary sort:
:func:`finset_obj`, :meth:`FinSetInstance.hor`/:meth:`~FinSetInstance.ver`
and the document readers.  The primitives take canonical inputs and keep
canonical order rather than sort again: they filter a sorted object, or
map the images of a payload in source order.

A primitive builds a morphism's dict, inverse dict, image set and the
rest of its target (the ids outside the image) at most once: they are
memoized in the morphism's instance ``__dict__`` by
:func:`acgw.core._memoized`, as ``functools.cached_property`` does on a
frozen dataclass, so dataclass ``==``, ``hash`` and ``repr``, which read
only the declared fields, never see them.  The primitives only read
these values; a caller gets a fresh dict from :func:`mapping_of`.  Each
primitive maps ids forward or back along a morphism in one pass
(``_forward``, ``_backward``).  A literal inclusion, whose two tuples
are one object, maps ids to themselves and builds no dict: mapping
forward returns the ids as they are, and mapping back checks them
against its image set.  The leg that ``coker``/``ker`` return keeps the
image set of its argument, the image it complements: mapping back along
the leg checks ids against that set, and the leg's own complement is
that image, so no set is built from the leg.  When a lookup fails, a
scan names the first element at fault.

The span a chain map ``X <= Z -> Y`` induces on homology
(:meth:`FinSetInstance.homology_span`) is chased from ``H_i(X)``: each
of its ids goes back along the back level and forward along the front,
and stays when it lands in ``H_i(Y)``.  A chain map sends cycles to
cycles and boundaries to boundaries, so these are the ids of ``Z_i``
that are cycles of ``X`` and not boundaries of ``Y``, found in work
that grows with ``H_i`` rather than with the degree.

The document readers check a whole line at once; they walk its tokens
only to name the first bad one.  An object line is accepted when it is
ASCII and ``bytes.translate`` deletes every byte of it as an id
character or whitespace; any other line goes through the token loop.
A pair line that is exactly its source's literal inclusion as a
document writes it, ``a->a b->b …`` (``_pairs_text`` spells it for the
reader and for :meth:`~FinSetInstance.mor_text`), is found by one
string comparison, after a look at its first pair, and reads as
``(source, source)``.  Any other pair line is accepted with one regex
match.  A line whose ids, or pair sources, are already strictly
increasing, as every written document's are, is taken as it stands,
without a dict or a sort.  A pair line's sources equal to its source
object are that object's tuple, and images equal to its sources are
the sources tuple, so an inclusion spelled with other whitespace reads
as one too.

:meth:`FinSetInstance.validate_payload` checks a payload whose endpoints
are valid: sources equal to that source tuple are sorted, total
and of strings in one comparison.  Their images are distinct ids of the
target exactly when the pairs and the rest of the target add up to the
target's size; validation keeps that rest, so ``coker``/``ker`` of a
checked morphism return it.  Only a payload that fails goes through a
dict of its pairs and set differences to name what is wrong.
"""

from __future__ import annotations

import re
from itertools import chain, compress, filterfalse, islice, repeat
from operator import lt
from typing import Any, Hashable

import numpy as np

from .core import (
    AcgwInstance,
    CompositionError,
    FactorizationError,
    FlatMor,
    HorMor,
    PullbackSquare,
    SquareClass,
    ValidationError,
    VerMor,
    _memoized,
)

__all__ = ["FinSetObj", "finset_obj", "FinSetInstance", "mapping_of", "apply_to"]

FinSetObj = tuple[str, ...]

_ID_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")
#: the bytes of an ASCII object line: id characters and the whitespace
#: that ``str.split`` splits on; ``bytes.translate`` deletes them all
#: from a line of ids
_ID_LINE_BYTES = bytes(c for c in range(128) if _ID_RE.match(chr(c)) or chr(c).isspace())
#: a whole pair line: ``src->tgt`` tokens of id characters separated by
#: whitespace.  An id holds no ``>``, so a token's one ``->`` sits before
#: its only ``>``; a failed match retries each position at most once,
#: which keeps it linear in the line.
_PAIRS_LINE_RE = re.compile(r"\s*(?:[A-Za-z0-9_.+-]+->[A-Za-z0-9_.+-]+(?:\s+|\Z))*")


def finset_obj(ids: Any) -> FinSetObj:
    """Build the canonical object on the given ids (sorted, deduplicated)."""
    return tuple(sorted(set(map(str, ids))))


def mapping_of(f: HorMor | VerMor) -> dict[str, str]:
    """The underlying injection of a finite-set morphism as a dict."""
    return dict(zip(*f.data))


def apply_to(f: HorMor | VerMor, x: str) -> str:
    return _mapping(f)[x]


def _payload(mapping: dict[str, str]) -> tuple[FinSetObj, FinSetObj]:
    """The ``(sources, images)`` payload of an injection given as a dict."""
    sources = tuple(sorted(mapping))
    return sources, tuple(map(mapping.__getitem__, sources))


#: the memo keys of a morphism's derived values and of a complement leg's kept image
_MEMO_KEYS = _MAP, _INVERSE, _IMAGE, _REST, _KEPT = (
    "_finset_map", "_finset_inverse", "_finset_image", "_finset_rest", "_finset_kept"
)


@_memoized(_MAP)
def _mapping(f: HorMor | VerMor) -> dict[str, str]:
    return dict(zip(*f.data))


@_memoized(_INVERSE)
def _inverse(f: HorMor | VerMor) -> dict[str, str]:
    sources, images = f.data
    return dict(zip(images, sources))


@_memoized(_IMAGE)
def _image(f: HorMor | VerMor) -> frozenset[str]:
    return frozenset(f.data[1])


@_memoized(_REST)
def _rest(f: HorMor | VerMor) -> FinSetObj:
    """The ids of ``f``'s target outside its image, in target order: the
    complement that ``coker``/``ker`` return."""
    image = _image(f)
    return tuple(filterfalse(image.__contains__, f.target)) if image else f.target


def _forward(g: HorMor | VerMor, xs: FinSetObj) -> FinSetObj:
    """The images under ``g`` of ids ``xs`` of its source; a literal
    inclusion maps them to themselves, and no ids map to none."""
    sources, images = g.data
    if sources is images or not xs:
        return xs
    return tuple(map(_mapping(g).__getitem__, xs))


def _partial(g: HorMor | VerMor, xs: FinSetObj, table) -> FinSetObj | None:
    """``xs`` looked up in ``table(g)``, or None when one is missing; a
    literal inclusion looks the ids of its image up as themselves."""
    sources, images = g.data
    if sources is images:
        return xs if _image(g).issuperset(xs) else None
    lookup = table(g)
    try:
        return tuple(map(lookup.__getitem__, xs))
    except KeyError:
        return None


def _backward(g: HorMor | VerMor, ys: FinSetObj) -> FinSetObj | None:
    """The ids of ``g``'s source that ``g`` maps to ``ys`` (ids of its
    target), or None when one of ``ys`` is not an image.  A complement
    leg's images are the target ids outside the image it complements."""
    kept = g.__dict__.get(_KEPT)
    if kept is not None:
        return ys if kept.isdisjoint(ys) else None
    return _partial(g, ys, _inverse)


def _inclusion(mor_type: type, sub: FinSetObj, ambient: FinSetObj) -> HorMor | VerMor:
    """The literal inclusion of ``sub`` into ``ambient``."""
    return mor_type(sub, ambient, (sub, sub))


def _pairs_text(sources, images) -> str:
    """A payload as a document writes it: ``src->tgt`` pairs."""
    return " ".join(map("->".join, zip(sources, images)))


def _increasing(xs) -> bool:
    """Whether ``xs`` (a sequence) is strictly increasing: sorted and
    without repeats, in one pass."""
    return all(map(lt, xs, islice(xs, 1, None)))


class FinSetInstance(AcgwInstance):
    """The finite-set model.  All canonical constructions return literal
    subsets of the ambient object with inclusion legs."""

    kind = "set"
    prime = 2

    # ----- objects -------------------------------------------------
    def initial(self) -> FinSetObj:
        return ()

    def obj_size(self, obj: FinSetObj) -> int:
        return len(obj)

    def obj_label(self, obj: FinSetObj) -> str:
        return "{" + " ".join(obj) + "}" if obj else "{}"

    def validate_obj(self, obj: Any) -> list[str]:
        if not isinstance(obj, tuple):
            return [f"object is not a tuple: {obj!r}"]
        if not all(map(isinstance, obj, repeat(str))):
            return [f"object has non-string ids: {obj!r}"]
        if not _increasing(obj):
            return [f"object ids are not sorted and unique: {obj!r}"]
        return []

    # ----- morphism helpers -----------------------------------------
    def inclusion_hor(self, sub: FinSetObj, ambient: FinSetObj) -> HorMor:
        """Literal inclusion of a subset as a horizontal morphism."""
        return _inclusion(HorMor, sub, ambient)

    def inclusion_ver(self, sub: FinSetObj, ambient: FinSetObj) -> VerMor:
        """Literal inclusion of a subset as a vertical morphism."""
        return _inclusion(VerMor, sub, ambient)

    def hor(self, source, target, mapping: dict[str, str]) -> HorMor:
        return HorMor(finset_obj(source), finset_obj(target), _payload(mapping))

    def ver(self, source, target, mapping: dict[str, str]) -> VerMor:
        return VerMor(finset_obj(source), finset_obj(target), _payload(mapping))

    # ----- identities and zeros -------------------------------------
    def id_hor(self, obj: FinSetObj) -> HorMor:
        return _inclusion(HorMor, obj, obj)

    def id_ver(self, obj: FinSetObj) -> VerMor:
        return _inclusion(VerMor, obj, obj)

    def zero_hor(self, obj: FinSetObj) -> HorMor:
        return _inclusion(HorMor, (), obj)

    def zero_ver(self, obj: FinSetObj) -> VerMor:
        return _inclusion(VerMor, (), obj)

    # ----- validation ------------------------------------------------
    def validate_payload(self, f: HorMor | VerMor) -> list[str]:
        """Both flavours are injections; the checks are the same."""
        if not isinstance(f.data, tuple):
            return [f"morphism data is not a tuple: {f.data!r}"]
        if not (
            len(f.data) == 2
            and all(map(isinstance, f.data, repeat(tuple)))
            and len(f.data[0]) == len(f.data[1])
        ):
            return [f"morphism data is not sources and images of one length: {f.data!r}"]
        problems = []
        sources, images = f.data
        # sources equal to the valid source are string ids, sorted and
        # total; only other sources go through a dict of the pairs to name
        # what is wrong.  An inclusion's images are the sources tuple too.
        if sources != f.source:
            if not all(map(isinstance, chain(sources, images), repeat(str))):
                return [f"morphism has non-string ids: {f.data!r}"]
            if not _increasing(sources):
                problems.append("morphism pairs are not sorted by source id")
            mapping = dict(zip(sources, images))
            if set(mapping) != set(f.source):
                problems.append(
                    f"morphism is not total on its source: defined on "
                    f"{sorted(mapping)}, source is {list(f.source)}"
                )
            images = tuple(mapping.values())
        elif images is not sources and not all(map(isinstance, images, repeat(str))):
            return [f"morphism has non-string ids: {f.data!r}"]
        elif len(images) + len(_rest(f)) == len(f.target):
            # the target's ids are distinct: the rest leaves exactly one
            # target id per pair only when the images are distinct and in it
            return []
        image = set(images)
        if len(image) != len(images):
            problems.append("morphism is not injective")
        stray = image.difference(f.target)
        if stray:
            problems.append(f"morphism maps outside its target: {sorted(stray)}")
        return problems

    # ----- composition -----------------------------------------------
    def compose_hor(self, f: HorMor | VerMor, g: HorMor | VerMor) -> HorMor | VerMor:
        """``g . f`` for two morphisms of one flavour, of that flavour."""
        if f.target != g.source:
            raise CompositionError(
                f"cannot compose: {self.obj_label(f.target)} != "
                f"{self.obj_label(g.source)}"
            )
        sources, images = f.data
        return type(f)(f.source, g.target, (sources, _forward(g, images)))

    compose_ver = compose_hor

    # ----- complement structure ---------------------------------------
    def coker(self, f: HorMor | VerMor) -> tuple[FinSetObj, HorMor | VerMor]:
        """The complement of either flavour: the rest of its target,
        included by a morphism of the other flavour.  The leg keeps the
        image of ``f``; the complement of a leg that keeps one is that
        image, which becomes the image set of the new leg."""
        kept = f.__dict__.get(_KEPT)
        if kept is not None:
            rest, memo = tuple(filter(kept.__contains__, f.target)), {_IMAGE: kept}
        else:
            kept, rest = _image(f), _rest(f)
            memo = {_KEPT: kept}
        leg = _inclusion(VerMor if isinstance(f, HorMor) else HorMor, rest, f.target)
        leg.__dict__.update(memo)
        return rest, leg

    ker = coker

    def mixed_pullback(self, m: HorMor, e: VerMor) -> PullbackSquare:
        if m.target != e.target:
            raise FactorizationError(
                "mixed pullback needs a shared target: "
                f"{self.obj_label(m.target)} vs {self.obj_label(e.target)}"
            )
        # keep the elements of ``e`` that land in the image of ``m``
        sources, images = e.data
        kept = m.__dict__.get(_KEPT)  # a complement leg's image: the rest of its target
        inside = _image(m).__contains__ if kept is None else lambda y: y not in kept
        over = list(map(inside, images))
        corner = tuple(compress(sources, over))
        pulled = _backward(m, corner if images is sources else tuple(compress(images, over)))
        hor_leg = self.inclusion_hor(corner, e.source)
        return PullbackSquare(corner, hor_leg, VerMor(corner, m.source, (corner, pulled)), m, e)

    def classify_mixed(
        self, top: HorMor, left: VerMor, right: VerMor, bottom: HorMor
    ) -> SquareClass:
        # both flavours are injections: it commutes when both paths send
        # the corner's ids to the same ids
        if not (
            self.square_fits(top, left, right, bottom)
            and _forward(right, top.data[1]) == _forward(bottom, left.data[1])
        ):
            return SquareClass.NOT_SQUARE
        # Cartesian: the top picks out exactly the part of the right source
        # sitting over the bottom image.  A commuting square's top already
        # lands in that part, so it is Cartesian when the sizes agree.
        over = sum(map(_image(bottom).__contains__, right.data[1]))
        if over == len(top.source):
            return SquareClass.CARTESIAN
        return SquareClass.COMMUTING

    # ----- factorization -----------------------------------------------
    def factor_hor(self, f: HorMor | VerMor, through: HorMor | VerMor) -> HorMor | VerMor:
        """``h`` with ``through . h == f`` for two morphisms of one flavour."""
        if f.target != through.target:
            raise FactorizationError(
                "factorization targets differ: "
                f"{self.obj_label(f.target)} vs {self.obj_label(through.target)}"
            )
        sources, images = f.data
        out = _backward(through, images)
        if out is None:
            image = _image(through)
            x, y = next((x, y) for x, y in zip(sources, images) if y not in image)
            raise FactorizationError(
                f"no factorization: {x} lands at {y}, outside "
                f"the image of the given morphism"
            )
        return type(f)(f.source, through.source, (sources, out))

    factor_ver = factor_hor

    def hor_between_cokers(self, f, p_leg, q_leg) -> HorMor | VerMor:
        """Chase either flavour ``f: P -> Q`` along complement presentations
        ``p_leg`` of ``P`` and ``q_leg`` of ``Q``, of the other flavour.  The
        reader forces bar levels with it before validation: the result has
        ``p_leg``'s pairs, and ``f`` may be undefined at their images."""
        hor = isinstance(f, HorMor)
        if p_leg.target != f.source or q_leg.target != f.target:
            raise FactorizationError(
                f"complement presentations do not match {'m' if hor else 'e'}"
            )
        sources, images = p_leg.data
        reached = _partial(f, images, _mapping)
        out = None if reached is None else _backward(q_leg, reached)
        if out is None:
            fmap, over = _mapping(f), _inverse(q_leg)
            x, y = next((x, y) for x, y in zip(sources, images) if fmap.get(y) not in over)
            q = fmap.get(y)
            why = f"image of {x} is {q}, not in the target complement"
            if q is None:
                why = f"it is undefined at {y}, the image of {x}"
            raise FactorizationError(
                f"morphism does not {'descend' if hor else 'restrict'} to complements: {why}"
            )
        return type(f)(p_leg.source, q_leg.source, (sources, out))

    ver_between_kernels = hor_between_cokers

    # ----- spans ---------------------------------------------------------
    def flat_key(self, back: VerMor, front: HorMor) -> Hashable:
        sources, images = back.data
        return frozenset(zip(images, map(_mapping(front).__getitem__, sources)))

    # ----- document format ---------------------------------------------
    @classmethod
    def from_header(cls, prime: int | None) -> FinSetInstance:
        if prime is not None:
            raise ValidationError(["prime is only meaningful for linear instances"])
        return cls()

    def header(self) -> list[str]:
        return []

    def obj_from_text(self, text: str) -> FinSetObj:
        ids = text.split()
        if text.isascii() and not text.encode().translate(None, _ID_LINE_BYTES):
            # a line written in canonical order needs no sort
            return tuple(ids) if _increasing(ids) else finset_obj(ids)
        # name the first bad id
        for x in ids:
            if not _ID_RE.match(x):
                raise ValidationError([f"bad id {x!r}"])
        return finset_obj(ids)

    def obj_text(self, obj: FinSetObj) -> str:
        return " ".join(obj)

    def mor_from_text(self, mor_type, source, target, text, leg=False):
        """Pairs ``src->tgt``; an omitted leg is the identity on the ids of
        its source, an omitted level has no pairs."""
        if text is None:
            if leg:
                return _inclusion(mor_type, source, target)
            return mor_type(source, target, ((), ()))
        if (
            source
            and text.startswith(f"{source[0]}->{source[0]}")
            and text == _pairs_text(source, source)
        ):
            # the source's inclusion as mor_text writes it; the source, an
            # object the reader built, is canonical, so these pairs are
            # valid and in order
            return mor_type(source, target, (source, source))
        if _PAIRS_LINE_RE.fullmatch(text):
            # every token holds one ``->``: its ids alternate source, image
            ids = text.replace("->", " ").split()
            sources, images = tuple(ids[::2]), tuple(ids[1::2])
            if _increasing(sources):
                # a line written in canonical order needs no dict or sort;
                # an inclusion shares its source's tuple
                if sources == source:
                    sources = source
                if images == sources:
                    images = sources
                return mor_type(source, target, (sources, images))
            out = dict(zip(sources, images))
            if len(out) == len(sources):
                return mor_type(source, target, _payload(out))
        # name the first bad token or repeated source
        out = {}
        for chunk in text.split():
            src, sep, tgt = chunk.partition("->")
            if not sep or not _ID_RE.match(src) or not _ID_RE.match(tgt):
                raise ValidationError([f"bad pair {chunk!r} (want src->tgt)"])
            if src in out:
                raise ValidationError([f"repeated pair source {src!r}"])
            out[src] = tgt
        return mor_type(source, target, _payload(out))

    def mor_text(self, mor, leg=False):
        sources, images = mor.data
        default = sources == images if leg else not sources
        return None if default else _pairs_text(sources, images)

    # ----- rank oracle ---------------------------------------------------
    def boundary_matrix(self, up: VerMor, low: HorMor) -> np.ndarray:
        """Incidence matrix over ``F_2``: each transition element puts a 1
        where its two legs land."""
        cols = {x: k for k, x in enumerate(up.target)}
        rows = {x: k for k, x in enumerate(low.target)}
        um, lm = _mapping(up), _mapping(low)
        d = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for t in up.source:
            r, c = rows.get(lm.get(t)), cols.get(um.get(t))
            if r is None or c is None:
                raise ValidationError(
                    [f"a leg of transition element {t!r} misses its target"]
                )
            d[r, c] = 1
        return d

    # ----- homology --------------------------------------------------------
    def homology_span(self, gx, gy, back: VerMor, front: HorMor) -> FlatMor:
        """Element chase from ``H_i(X)``: the middle keeps the ids of
        ``H_i(X)`` that ``back`` reaches from an id of ``Z_i`` whose front
        image lies in ``H_i(Y)``.  A chain map sends cycles to cycles and
        boundaries to boundaries, so these are exactly the back images of
        the ids of ``Z_i`` that are cycles of ``X`` and not boundaries of
        ``Y``.  The middle is in ``H_i(X)``'s order; a front that fixes
        its ids gives the literal inclusion."""
        sources, images = back.data
        kept = back.__dict__.get(_KEPT)
        if kept is not None:
            # a complement leg's images are the ids outside the image it keeps
            xs = zs = tuple(filterfalse(kept.__contains__, gx.h))
        elif sources is not images:
            inverse = _inverse(back)
            xs = tuple(filter(inverse.__contains__, gx.h))
            zs = tuple(map(inverse.__getitem__, xs))
        elif len(sources) == len(back.target):
            # an identity: every id of H_i(X) is its own image
            xs = zs = gx.h
        else:
            # a literal inclusion names its ids as they are
            xs = zs = tuple(filter(_image(back).__contains__, gx.h))
        ys = _forward(front, zs)
        over = list(map(frozenset(gy.h).__contains__, ys))
        middle, images = tuple(compress(xs, over)), tuple(compress(ys, over))
        if images == middle:
            images = middle
        return FlatMor(
            gx.h,
            middle,
            gy.h,
            self.inclusion_ver(middle, gx.h),
            HorMor(middle, gy.h, (middle, images)),
        )

    def homology_embedding(self, grid, boundaries: HorMor) -> tuple[HorMor, VerMor]:
        """``H_i`` is a literal subset of ``X_i``: both levels include it."""
        ambient = grid.cycles_hor.target
        return self.inclusion_hor(grid.h, ambient), self.inclusion_ver(grid.h, ambient)
