"""Finite sets with injections as both horizontal and vertical morphisms.

Objects are finite sets of string identifiers, canonically stored as
sorted tuples.  A horizontal morphism is an injection recorded as sorted
``(source_id, target_id)`` pairs; a vertical morphism ``A => B`` is also
backed by an injection of ``A`` into ``B`` — the two classes differ only
in the role they play.  Complements are literal set differences, which
makes every canonical construction a genuine subset of its ambient object
(``has_canonical_subobjects`` is true).  In documents an object is written
as its ids and a morphism as ``src->tgt`` pairs; the rank oracle reads a
complex over ``F_2`` with one basis vector per id.

Only the entry points whose input order is arbitrary sort:
:func:`finset_obj`, :meth:`FinSetInstance.hor`/:meth:`~FinSetInstance.ver`
and the document readers.  The primitives take canonical inputs and keep
canonical order rather than sort again: they filter a sorted object, or
walk pairs in source order, so their results come out sorted.
"""

from __future__ import annotations

import re
from itertools import filterfalse, islice, repeat
from operator import itemgetter, lt
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
)

__all__ = ["FinSetObj", "finset_obj", "FinSetInstance", "mapping_of", "apply_to"]

FinSetObj = tuple[str, ...]

_ID_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")


def finset_obj(ids: Any) -> FinSetObj:
    """Build the canonical object on the given ids (sorted, deduplicated)."""
    out = tuple(sorted(set(map(str, ids))))
    return out


def mapping_of(f: HorMor | VerMor) -> dict[str, str]:
    """The underlying injection of a finite-set morphism as a dict."""
    return dict(f.data)


def apply_to(f: HorMor | VerMor, x: str) -> str:
    return mapping_of(f)[x]


def _pairs(mapping: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(mapping.items()))


_first, _second = itemgetter(0), itemgetter(1)


def _image(f: HorMor | VerMor) -> frozenset[str]:
    return frozenset(map(_second, f.data))


def _inverse(f: HorMor | VerMor) -> dict[str, str]:
    return dict(zip(map(_second, f.data), map(_first, f.data)))


def _increasing(xs) -> bool:
    """Whether ``xs`` (a sequence) is strictly increasing: sorted and
    without repeats, in one pass."""
    return all(map(lt, xs, islice(xs, 1, None)))


class FinSetInstance(AcgwInstance):
    """The finite-set model.  All canonical constructions return literal
    subsets of the ambient object with inclusion legs."""

    kind = "set"
    has_canonical_subobjects = True
    prime = 2

    # ----- objects -------------------------------------------------
    def initial(self) -> FinSetObj:
        return ()

    def is_initial(self, obj: FinSetObj) -> bool:
        return obj == ()

    def obj_eq(self, a: FinSetObj, b: FinSetObj) -> bool:
        return a == b

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
    def _inclusion_pairs(self, sub: FinSetObj) -> tuple[tuple[str, str], ...]:
        return tuple(zip(sub, sub))

    def inclusion_hor(self, sub: FinSetObj, ambient: FinSetObj) -> HorMor:
        """Literal inclusion of a subset as a horizontal morphism."""
        return HorMor(sub, ambient, self._inclusion_pairs(sub))

    def inclusion_ver(self, sub: FinSetObj, ambient: FinSetObj) -> VerMor:
        """Literal inclusion of a subset as a vertical morphism."""
        return VerMor(sub, ambient, self._inclusion_pairs(sub))

    def hor(self, source, target, mapping: dict[str, str]) -> HorMor:
        return HorMor(finset_obj(source), finset_obj(target), _pairs(mapping))

    def ver(self, source, target, mapping: dict[str, str]) -> VerMor:
        return VerMor(finset_obj(source), finset_obj(target), _pairs(mapping))

    # ----- identities and zeros -------------------------------------
    def id_hor(self, obj: FinSetObj) -> HorMor:
        return HorMor(obj, obj, self._inclusion_pairs(obj))

    def id_ver(self, obj: FinSetObj) -> VerMor:
        return VerMor(obj, obj, self._inclusion_pairs(obj))

    def zero_hor(self, obj: FinSetObj) -> HorMor:
        return HorMor((), obj, ())

    def zero_ver(self, obj: FinSetObj) -> VerMor:
        return VerMor((), obj, ())

    # ----- validation ------------------------------------------------
    def validate_hor(self, f: HorMor | VerMor) -> list[str]:
        """Both flavours are injections; the checks are the same."""
        problems = self.validate_obj(f.source) + self.validate_obj(f.target)
        if problems:
            return problems
        if not isinstance(f.data, tuple):
            return [f"morphism data is not a tuple: {f.data!r}"]
        try:
            mapping = dict(f.data)
        except (TypeError, ValueError):
            return [f"morphism data is not a pair list: {f.data!r}"]
        # The pairs are sorted exactly when they are tuples whose sources
        # strictly increase (then no source repeats and ``mapping`` keeps
        # every pair).
        sources = list(mapping)
        if not (
            len(sources) == len(f.data)
            and all(map(isinstance, f.data, repeat(tuple)))
            and _increasing(sources)
        ):
            problems.append("morphism pairs are not sorted by source id")
        if set(mapping) != set(f.source):
            problems.append(
                f"morphism is not total on its source: defined on "
                f"{sorted(mapping)}, source is {list(f.source)}"
            )
        values = list(mapping.values())
        if len(set(values)) != len(values):
            problems.append("morphism is not injective")
        stray = set(values) - set(f.target)
        if stray:
            problems.append(f"morphism maps outside its target: {sorted(stray)}")
        return problems

    validate_ver = validate_hor

    # ----- composition -----------------------------------------------
    def _compose(self, f, g):
        gm = mapping_of(g)
        return tuple((x, gm[y]) for x, y in f.data)

    def compose_hor(self, f: HorMor | VerMor, g: HorMor | VerMor) -> HorMor | VerMor:
        """``g . f`` for two morphisms of one flavour, of that flavour."""
        if f.target != g.source:
            raise CompositionError(
                f"cannot compose: {self.obj_label(f.target)} != "
                f"{self.obj_label(g.source)}"
            )
        return type(f)(f.source, g.target, self._compose(f, g))

    compose_ver = compose_hor

    def is_iso_hor(self, f: HorMor | VerMor) -> bool:
        return len(f.source) == len(f.target)

    is_iso_ver = is_iso_hor

    # ----- complement structure ---------------------------------------
    def coker(self, m: HorMor) -> tuple[FinSetObj, VerMor]:
        rest = tuple(filterfalse(_image(m).__contains__, m.target))
        return rest, self.inclusion_ver(rest, m.target)

    def ker(self, e: VerMor) -> tuple[FinSetObj, HorMor]:
        rest = tuple(filterfalse(_image(e).__contains__, e.target))
        return rest, self.inclusion_hor(rest, e.target)

    def is_complement_pair(self, m: HorMor, e: VerMor) -> bool:
        if m.target != e.target:
            return False
        im_m, im_e = _image(m), _image(e)
        return not (im_m & im_e) and (im_m | im_e) == set(m.target)

    def mixed_pullback(self, m: HorMor, e: VerMor) -> PullbackSquare:
        if m.target != e.target:
            raise FactorizationError(
                "mixed pullback needs a shared target: "
                f"{self.obj_label(m.target)} vs {self.obj_label(e.target)}"
            )
        m_inv = _inverse(m)
        pairs = tuple((b, m_inv[y]) for b, y in e.data if y in m_inv)
        corner = tuple(map(_first, pairs))
        hor_leg = self.inclusion_hor(corner, e.source)
        return PullbackSquare(corner, hor_leg, VerMor(corner, m.source, pairs), m, e)

    def classify_mixed(
        self, top: HorMor, left: VerMor, right: VerMor, bottom: HorMor
    ) -> SquareClass:
        if (
            top.source != left.source
            or top.target != right.source
            or left.target != bottom.source
            or right.target != bottom.target
        ):
            return SquareClass.NOT_SQUARE
        tm, lm, rm, bm = (mapping_of(x) for x in (top, left, right, bottom))
        if any(rm[tm[x]] != bm[lm[x]] for x in top.source):
            return SquareClass.NOT_SQUARE
        # Cartesian: the top picks out exactly the part of the right source
        # sitting over the bottom image.
        bottom_image = set(bm.values())
        over = {b for b in right.source if rm[b] in bottom_image}
        if _image(top) == over:
            return SquareClass.CARTESIAN
        return SquareClass.COMMUTING

    def hor_square_commutes(
        self,
        top: HorMor | VerMor,
        left: HorMor | VerMor,
        right: HorMor | VerMor,
        bottom: HorMor | VerMor,
    ) -> bool:
        """Whether a square of morphisms of one flavour commutes."""
        if (
            top.source != left.source
            or top.target != right.source
            or left.target != bottom.source
            or right.target != bottom.target
        ):
            return False
        tm, lm, rm, bm = (mapping_of(x) for x in (top, left, right, bottom))
        return all(rm[tm[x]] == bm[lm[x]] for x in top.source)

    ver_square_commutes = hor_square_commutes

    # ----- factorization -----------------------------------------------
    def _factor(self, f, through):
        if f.target != through.target:
            raise FactorizationError(
                "factorization targets differ: "
                f"{self.obj_label(f.target)} vs {self.obj_label(through.target)}"
            )
        t_inv = _inverse(through)
        out: dict[str, str] = {}
        for x, y in f.data:
            if y not in t_inv:
                raise FactorizationError(
                    f"no factorization: {x} lands at {y}, outside "
                    f"the image of the given morphism"
                )
            out[x] = t_inv[y]
        return tuple(out.items())

    def factor_hor(self, f: HorMor, through: HorMor) -> HorMor:
        return HorMor(f.source, through.source, self._factor(f, through))

    def factor_ver(self, f: VerMor, through: VerMor) -> VerMor:
        return VerMor(f.source, through.source, self._factor(f, through))

    def hor_between_cokers(self, m: HorMor, cp: VerMor, cq: VerMor) -> HorMor:
        """Chase ``m: P -> Q`` along complement presentations ``cp: CP => P``
        and ``cq: CQ => Q``."""
        if cp.target != m.source or cq.target != m.target:
            raise FactorizationError("complement presentations do not match m")
        mm, cqi = mapping_of(m), _inverse(cq)
        out: dict[str, str] = {}
        for x, p in cp.data:
            q = mm[p]
            if q not in cqi:
                raise FactorizationError(
                    f"morphism does not descend to complements: image of {x} "
                    f"is {q}, not in the target complement"
                )
            out[x] = cqi[q]
        return HorMor(cp.source, cq.source, tuple(out.items()))

    def ver_between_kernels(self, e: VerMor, kp: HorMor, kq: HorMor) -> VerMor:
        """Chase ``e: P => Q`` along complement presentations ``kp: KP -> P``
        and ``kq: KQ -> Q``."""
        if kp.target != e.source or kq.target != e.target:
            raise FactorizationError("complement presentations do not match e")
        em, kqi = mapping_of(e), _inverse(kq)
        out: dict[str, str] = {}
        for x, p in kp.data:
            q = em[p]
            if q not in kqi:
                raise FactorizationError(
                    f"morphism does not restrict to complements: image of {x} "
                    f"is {q}, not in the target complement"
                )
            out[x] = kqi[q]
        return VerMor(kp.source, kq.source, tuple(out.items()))

    # ----- spans ---------------------------------------------------------
    def flat_key(self, back: VerMor, front: HorMor) -> Hashable:
        fm = mapping_of(front)
        return frozenset((y, fm[x]) for x, y in back.data)

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
            return mor_type(source, target, self._inclusion_pairs(source) if leg else ())
        out: dict[str, str] = {}
        for chunk in text.split():
            src, sep, tgt = chunk.partition("->")
            if not sep or not _ID_RE.match(src) or not _ID_RE.match(tgt):
                raise ValidationError([f"bad pair {chunk!r} (want src->tgt)"])
            if src in out:
                raise ValidationError([f"repeated pair source {src!r}"])
            out[src] = tgt
        return mor_type(source, target, _pairs(out))

    def mor_text(self, mor, leg=False):
        default = all(a == b for a, b in mor.data) if leg else not mor.data
        return None if default else " ".join(f"{a}->{b}" for a, b in mor.data)

    def lift_hor_bar(self, level: HorMor, src_up: VerMor, tgt_up: VerMor) -> HorMor:
        up, fmap, above = mapping_of(src_up), mapping_of(level), _inverse(tgt_up)
        out: dict[str, str] = {}
        for t in src_up.source:
            img = fmap.get(up.get(t))
            if img is None:
                raise FactorizationError(f"level is undefined on the image of {t!r}")
            if img not in above:
                raise FactorizationError(f"no transition element above {img!r}")
            out[t] = above[img]
        return HorMor(src_up.source, tgt_up.source, _pairs(out))

    def lift_ver_bar(self, level: VerMor, src_low: HorMor, tgt_low: HorMor) -> VerMor:
        low, gmap, below = mapping_of(src_low), mapping_of(level), _inverse(tgt_low)
        out: dict[str, str] = {}
        for t in src_low.source:
            img = gmap.get(low.get(t))
            if img is None:
                raise FactorizationError(f"level is undefined on the image of {t!r}")
            if img not in below:
                raise FactorizationError(f"no transition element below {img!r}")
            out[t] = below[img]
        return VerMor(src_low.source, tgt_low.source, _pairs(out))

    # ----- rank oracle ---------------------------------------------------
    def boundary_matrix(self, up: VerMor, low: HorMor) -> np.ndarray:
        """Incidence matrix over ``F_2``: each transition element puts a 1
        where its two legs land."""
        cols = {x: k for k, x in enumerate(up.target)}
        rows = {x: k for k, x in enumerate(low.target)}
        um, lm = mapping_of(up), mapping_of(low)
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
        """Element chase: the middle keeps the ids of ``Z_i`` whose back
        image is a cycle of ``X`` and whose front image is not a boundary
        of ``Y``, renamed to their back images (a subset of ``H_i(X)``)."""
        bm, fm = mapping_of(back), mapping_of(front)
        cycles_x = set(gx.cycles)
        boundaries_y = set(gy.cycles) - set(gy.h)
        kept = {
            bm[z]: fm[z]
            for z in back.source
            if bm[z] in cycles_x and fm[z] not in boundaries_y
        }
        middle = finset_obj(kept)
        return FlatMor(
            gx.h,
            middle,
            gy.h,
            self.inclusion_ver(middle, gx.h),
            HorMor(middle, gy.h, _pairs(kept)),
        )

    def homology_embedding(self, grid, boundaries: HorMor) -> tuple[HorMor, VerMor]:
        """``H_i`` is a literal subset of ``X_i``: both levels include it."""
        ambient = grid.cycles_hor.target
        return self.inclusion_hor(grid.h, ambient), self.inclusion_ver(grid.h, ambient)
