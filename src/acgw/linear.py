"""Finite-dimensional vector spaces over a prime field.

Objects are :class:`VectObj` values recording a dimension and the prime.
A horizontal morphism ``A -> B`` is backed by a full-column-rank matrix
``B x A`` (a mono); a vertical morphism ``A => B`` is backed by a
full-row-rank matrix ``A x B``, the underlying surjection ``B ->> A``.
A morphism's payload is its matrix as a read-only int64 array, with
entries reduced mod p (so the prime must lie below 2^63), wrapped so
that ``==`` and ``hash`` read its shape and entries and ``repr`` shows
its rows as tuples.
Operations that do not mix the flavours read a vertical morphism as its
transposed matrix, a ``B x A`` injection like a horizontal one's, so
each of their hor/ver pairs is one function under two names.
A commuting mixed square of valid morphisms is Cartesian: its mono top
after its epi left leg is an epi-mono factorization of the diagonal, as
the canonical pullback's is, and such a factorization is unique up to a
unique isomorphism; so :meth:`LinearInstance.classify_mixed` only tests
that the square commutes.

Every product and row reduction goes through the mod-p kernel below
(:func:`matmul_mod`, :func:`rref`, :func:`mat_rank`), which picks the
cheapest arithmetic that stays exact for the prime and the inner
dimension k.  A product's operands are reduced to [0, p), so each of
its partial sums is a non-negative integer no larger than the whole,
and float64 holds every one exactly below 2^53, whatever order BLAS
adds in:

* one float64 BLAS product when k (p-1)^2 < 2^53;
* else float64 BLAS products, one per limb of s >= 8 bits of the right
  factor, with k (p-1) (2^s-1) < 2^53 (every product at p < 2^32 and
  k <= 4096), combined in int64;
* else int64 products in such limbs, with 2^63 for 2^53 (2^40-87 from
  k = 33);
* else Python integers (object arrays), as at 2^61-1;
* int64 for row reduction while (p-1)^2 < 2^63, Python integers past it.

Each array is reduced mod p once.  A morphism's payload is reduced when
it is stored, and the kernel reduces an input of more than 256 entries
only when some entry lies outside [0, p): reading the bound costs a
pass that is cheaper than a division per entry.  A smaller input is
divided at once, which costs less than the reading.  The kernel never
writes to an input: :func:`rref` reduces a copy, and a payload is never
the caller's array, which wrapping would mark read-only.

Row reduction delays the reduction mod p.  Each pivot reduces only its
own column, whose entries become the multipliers, and its own row when
that row is scaled or subtracted, then subtracts one rank-1 product from
the rows it clears, in place: from every row at once when most of the
column is nonzero, else from the nonzero rows only.  Each product term lies in [0, (p-1)^2], so a bound
with ``|entry| <= bound`` grows by (p-1)^2 per pivot; when the next
update could pass 2^63 - 1, the block that later pivots still update
(the columns right of the pivot, in every row for :func:`rref` and in
the rows below it for :func:`mat_rank`) is reduced and the bound falls
back to p-1.  At p = 65521 or 33554393 that takes billions or thousands
of updates; at 2^31-1 it comes before every third update.  The
Python-integer path reduces the updated rows at every pivot.
:func:`rref` clears each pivot column above and below a pivot scaled to
one; :func:`mat_rank` only counts pivots, so it clears below the pivot
only and scales the multipliers instead of the row.

Both kernels skip what cannot matter, which is exact for any p.
:func:`mat_rank` drops the all-zero rows and columns, then eliminates
nothing when, oriented tall, every column holds the one nonzero entry of
some row, as in a leg ``[I; A]``: that monomial submatrix proves full
rank.  Else it eliminates at most ``_BLOCK`` rows at once: a taller
matrix is ranked block by block against the reduced rows of the blocks
above it, each block reduced mod p after each product, so that no entry
leaves int64 near p = 2^63.  A rank-70 product of 200 x 200 then
eliminates two blocks of 40 rows, and its other blocks cost products
only.  :func:`matmul_mod` keeps only the inner indices k where column k
of the left factor and row k of the right one are both nonzero, with the
rows and columns they touch, when those indices are at most half of the
inner range; a product of incidence matrices then costs its support
rather than its shape.

:func:`solve` row-reduces nothing when every column j of its matrix has
a row equal to ``e_j`` mod p, as the bases from :func:`nullspace` and
:func:`colbasis` do: the matrix then has full column rank, so the one
candidate solution, those rows of the right-hand side, is checked by one
product.  Factoring through cycles, kernels and column bases takes that
path.

In documents an object is written ``dim N``, with N at most 4,096, and a
morphism as its stored matrix in JSON, of the stored shape; an omitted
leg, level or snake morphism is zero.  Kernels and complements come in
fresh coordinates, so a snake section gives each of its morphisms.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from .core import (
    AcgwError,
    AcgwInstance,
    CompositionError,
    FactorizationError,
    FlatMor,
    HorMor,
    PullbackSquare,
    SquareClass,
    ValidationError,
    VerMor,
    parse_decimal,
)

__all__ = [
    "VectObj",
    "LinearInstance",
    "matmul_mod",
    "rref",
    "mat_rank",
    "solve",
    "nullspace",
    "colbasis",
]

_INT64_MAX = 2**63 - 1

#: the largest dimension a document may give an object: the kernel holds
#: dense n x n int64 matrices, 128 MiB each at this bound
_MAX_DIM = 4096


@dataclass(frozen=True)
class VectObj:
    """A vector space ``F_p^dim``."""

    dim: int
    p: int


# ---------------------------------------------------------------------------
# Matrix arithmetic mod p.
# ---------------------------------------------------------------------------


#: the most entries an array may have for :func:`_reduced` to divide them
#: all without reading their bound first: one pass of either costs about
#: 2 us there, and the division grows to 170 us at 200 x 200 entries
#: while reading the bound takes 7 us
_SMALL = 256

#: the most rows :func:`mat_rank` eliminates at once.  In three runs on
#: a shared 2-vCPU Xeon, the 255 matrices a seed-1 ``linear_homology``
#: pass ranks (dimension 20 to 200, ranks about a third of it) took 62 to
#: 101 ms eliminated whole and 47 to 80 ms in blocks of 40 rows (the
#: fastest of 7 calls each); blocks of 32, 48 and 64 rows were slower in
#: every run.  At 40, a 40 x 40 boundary is one block and takes no product
_BLOCK = 40


def _reduced(a, p: int, copy: bool = False) -> np.ndarray:
    """``a`` mod p as an int64 array.  An array of more than ``_SMALL``
    entries is reduced only when some entry lies outside [0, p): else it
    is returned itself, unless ``copy`` asks for an array the caller may
    write or keep."""
    arr = np.asarray(a, dtype=np.int64)
    # read as unsigned, a negative entry lies above every prime
    if arr.size <= _SMALL or arr.view(np.uint64).max() >= p:
        return arr % p
    return arr.copy() if copy else arr


def _limb_width(k: int, p: int, room: int) -> int:
    """The largest s with k (p-1) (2^s-1) < ``room``: the width of the
    limbs of a right factor whose products with k columns of entries in
    [0, p) stay below ``room``."""
    return ((room - 1) // (k * (p - 1)) + 1).bit_length() - 1


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``a @ b`` mod p as an int64 array.

    When at most half of the inner indices carry both a nonzero column of
    ``a`` and a nonzero row of ``b``, only those indices enter the
    product, with only the rows of ``a`` and columns of ``b`` they touch.
    The operands are reduced next (by :func:`_reduced`, which leaves a
    large one as it is when it is already reduced).  Each dot product is
    then a sum of k integer terms in [0, (p-1)^2], so in whatever order
    BLAS adds them every partial sum lies in [0, k (p-1)^2]: below 2^53,
    one float64 product is exact.  Above that, ``b`` is split into limbs
    of s bits, with the largest s such that k (p-1) (2^s-1) < 2^53: if
    s >= 8, each ``a @ limb`` is an exact float64 product, and the limbs
    are combined from the top in int64, the sum reduced mod p before each
    shift.  Else int64 products take the limbs, with 2^63 for 2^53 (k
    counted as at least 2, so each step of the combination fits too), and
    Python integers take over when no limb of 8 bits fits there either.
    """
    shape = (a.shape[0], b.shape[1])
    inner = (a.any(axis=0) & b.any(axis=1)).nonzero()[0]
    if not inner.size:
        return np.zeros(shape, dtype=np.int64)
    trim = 2 * inner.size <= a.shape[1]
    if trim:
        a, b = a[:, inner], b[inner]
        rows, cols = a.any(axis=1).nonzero()[0], b.any(axis=0).nonzero()[0]
        a, b = a[rows], b[:, cols]
    a, b = _reduced(a, p), _reduced(b, p)
    k = a.shape[1]
    wide = _limb_width(k, p, 2**53) < 8
    s = _limb_width(max(k, 2), p, 2**63) if wide else _limb_width(k, p, 2**53)
    if k * (p - 1) ** 2 < 2**53:
        prod = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    elif s >= 8:
        dtype = np.int64 if wide else np.float64
        mask = (1 << s) - 1
        limbs = [(b >> shift) & mask for shift in range(0, (p - 1).bit_length(), s)]
        a = a.astype(dtype, copy=False)
        prod = (a @ limbs.pop().astype(dtype, copy=False)).astype(np.int64, copy=False)
        for limb in reversed(limbs):
            term = (a @ limb.astype(dtype, copy=False)).astype(np.int64, copy=False)
            # a float64 term lies below 2^53; an int64 one may lie near
            # 2^63, and reduced it leaves room for the shifted sum
            prod = ((prod % p) << s) + (term % p if wide else term)
    else:
        prod = a.astype(object) @ b.astype(object)
    prod = (prod % p).astype(np.int64, copy=False)
    if not trim:
        return prod
    out = np.zeros(shape, dtype=np.int64)
    out[np.ix_(rows, cols)] = prod
    return out


def _eliminate(r: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row-reduce ``r``, an int64 array reduced mod p, in place (or a copy
    in Python integers when (p-1)^2 passes int64); return the working
    array, whose entries are right only mod p, and the pivot columns.

    With ``reduced``, each pivot row is scaled to a leading one and its
    column cleared in every other row (``r % p`` is then the rref);
    without, the pivot column is cleared below the pivot only, by
    multipliers scaled instead of the row (the pivots are the rank's).
    """
    wide = (p - 1) ** 2 > _INT64_MAX
    if wide:
        r = r.astype(object)
    rows, cols = r.shape
    step, bound = (p - 1) ** 2, p - 1
    pivots: list[int] = []
    for col in range(cols):
        row = len(pivots)
        if row == rows:
            break
        top = 0 if reduced else row
        column = r[top:, col] % p
        nonzero = column.nonzero()[0]
        k = nonzero.searchsorted(row - top)
        if k == nonzero.size:
            continue
        hit = top + int(nonzero[k])
        if hit != row:
            swap = r[hit].copy()
            r[hit] = r[row]
            r[row] = swap
        # ``column`` is not swapped: it is zero at ``row``, which now holds
        # the old row; zeroed at ``hit`` too, it holds the multipliers of
        # the rows to clear.
        inverse = pow(int(column[hit - top]), -1, p)
        column[hit - top] = 0
        pivots.append(col)
        # A pivot row is reduced only to be scaled or subtracted: ``r % p``
        # is taken at the end.
        if reduced and inverse != 1:
            prow = r[row, col:] % p * inverse % p
            r[row, col:] = prow
        elif nonzero.size > 1:
            prow = r[row, col:] % p
        if nonzero.size == 1:
            continue
        if not wide and bound > _INT64_MAX - step:
            # Rows above ``top`` and columns before ``col`` never change again.
            active = r[top:, col:]
            np.remainder(active, p, out=active)
            bound = p - 1
        if 2 * (nonzero.size - 1) > column.size:
            sel, mult = slice(top, None), column
        else:
            others = column.nonzero()[0]
            sel, mult = others + top, column[others]
        if not reduced and inverse != 1:
            mult = mult * inverse % p
        # The pivot column becomes a multiple of p in the cleared rows.
        r[sel, col:] -= mult[:, None] * prow
        if wide:
            r[sel, col:] %= p
        else:
            bound += step
    return r, pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p, with the pivot column indices."""
    r, pivots = _eliminate(_reduced(a, p, copy=True), p, reduced=True)
    return (r % p).astype(np.int64, copy=False), pivots


def mat_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p.

    The all-zero rows and columns are dropped and the rest is oriented
    tall.  Its rank is full, with nothing row-reduced, when it holds a
    monomial submatrix (a row whose one nonzero entry lies in each
    column).  Else a matrix of at most ``_BLOCK`` rows is eliminated
    forward.  A taller one is ranked one block of ``_BLOCK`` rows at a
    time: each block subtracts its projection on the reduced basis of
    every block above it, one product per basis, which leaves it zero on
    their pivot columns, so its rank adds to theirs.  A block with nothing
    left costs no elimination; another drops its zero columns and is
    reduced to the next basis, and the last one is eliminated forward,
    transposed when that gives it fewer columns.  The count stops once it
    reaches the column count.
    """
    r = np.asarray(a, dtype=np.int64)
    r = r[r.any(axis=1)]
    # boolean indexing copies: the elimination may work on ``r`` in place
    r = _reduced(r[:, r.any(axis=0)], p)
    tall = r if r.shape[0] >= r.shape[1] else r.T
    if tall[np.count_nonzero(tall, axis=1) == 1].any(axis=0).all():
        return tall.shape[1]
    if len(tall) <= _BLOCK:
        return len(_eliminate(r, p, reduced=False)[1])
    rank, bases = 0, []
    for start in range(0, len(tall), _BLOCK):
        block = tall[start : start + _BLOCK]
        for basis, pivots in bases:
            # reduced at once: unreduced differences of several bases
            # would pass int64 near p = 2^63
            block = (block - matmul_mod(block[:, pivots], basis, p)) % p
        live = block.any(axis=0).nonzero()[0]
        if not live.size:
            continue
        block = block[:, live]
        if start + _BLOCK >= len(tall):
            if block.shape[0] < block.shape[1]:
                block = np.ascontiguousarray(block.T)
            return rank + len(_eliminate(block, p, reduced=False)[1])
        reduced, pivots = rref(block, p)
        rank += len(pivots)
        if rank == tall.shape[1]:
            break
        basis = np.zeros((len(pivots), tall.shape[1]), dtype=np.int64)
        basis[:, live] = reduced[: len(pivots)]
        bases.append((basis, live[pivots]))
    return rank


def _unit_rows(r: np.ndarray) -> np.ndarray | None:
    """For each column j of ``r``, reduced mod p, the first row equal to
    ``e_j``; None when some column has no such row."""
    units = (r == 1) & (np.count_nonzero(r, axis=1) == 1)[:, None]
    if not units.any(axis=0).all():
        return None
    # with no rows, only a matrix with no columns gets here
    return units.argmax(axis=0) if len(units) else np.zeros(0, dtype=np.intp)


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Some ``x`` with ``a @ x == b`` mod p (free variables zero), or None.

    When every column j of ``a`` has a row equal to ``e_j`` mod p, as in
    every basis :func:`nullspace` and :func:`colbasis` return, ``a`` has
    full column rank: a solution is unique, and must be those rows of
    ``b``.  One product checks it.  Any other ``a`` is row-reduced with
    ``b``.
    """
    m, n = a.shape
    k = b.shape[1]
    reduced = _reduced(a, p)
    units = _unit_rows(reduced)
    if units is not None:
        b = _reduced(b, p)
        x = b[units]
        return x if np.array_equal(matmul_mod(reduced, x, p), b) else None
    r, pivots = rref(np.hstack([a, b]), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, k), dtype=np.int64)
    x[pivots] = r[: len(pivots), n:]
    return x


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical kernel basis (one column per free variable of the rref)."""
    _, n = a.shape
    r, pivots = rref(a, p)
    free = sorted(set(range(n)) - set(pivots))
    out = np.zeros((n, len(free)), dtype=np.int64)
    out[free, range(len(free))] = 1
    out[pivots] = np.mod(-r[: len(pivots), free], p)
    return out


def colbasis(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the column space (rref rows of the transpose)."""
    r, pivots = rref(a.T, p)
    return r[: len(pivots)].T.copy()


@dataclass(frozen=True, eq=False, repr=False)
class _Matrix:
    """The payload of an ``F_p`` morphism: its matrix as a read-only int64
    array.  ``==`` compares shape and entries, ``hash`` reads the shape
    and bytes, and ``repr`` shows the rows as tuples, so a message that
    quotes a payload names its entries."""

    array: np.ndarray

    def __post_init__(self):
        self.array.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, _Matrix) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.array.shape, self.array.tobytes()))

    def __repr__(self):
        return repr(tuple(map(tuple, self.array.tolist())))

    def __reduce__(self):
        # an unpickled or deep-copied array is writable until wrapped again
        return _Matrix, (self.array,)


def _shape(mor_type: type, source: VectObj, target: VectObj) -> tuple[int, int]:
    """The shape of the stored matrix: ``target x source`` for a horizontal
    morphism, ``source x target`` for a vertical one."""
    return (target.dim, source.dim) if issubclass(mor_type, HorMor) else (source.dim, target.dim)


def _matrix(f: HorMor | VerMor, rows: int, cols: int) -> np.ndarray:
    """The array of ``f``, after one check that it is ``rows x cols``: the
    reader refuses a matrix of another shape with this text, and the
    primitives may be handed morphisms that were never validated."""
    arr = f.data.array
    if arr.shape != (rows, cols):
        raise ValidationError([f"matrix must be {rows}x{cols}, got {f.data!r}"])
    return arr


def _extend_basis(base: np.ndarray, pool: np.ndarray, target_rank: int, p: int):
    """Columns of ``pool`` that extend ``base`` to rank ``target_rank``: the
    pivot columns past ``base`` of one elimination of ``[base | pool]``,
    which are the columns a left-to-right greedy choice keeps."""
    pivots = _eliminate(_reduced(np.hstack([base, pool]), p), p, reduced=False)[1]
    if len(pivots) != target_rank:
        raise AcgwError("could not extend basis to the requested rank")
    return pool[:, [c - base.shape[1] for c in pivots if c >= base.shape[1]]]


#: the first thirteen primes: as Miller–Rabin witnesses they decide every
#: n < 3.3e24 exactly
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin primality test."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class LinearInstance(AcgwInstance):
    """The prime-field model ``F_p``."""

    kind = "linear"

    def __init__(self, p: int = 2):
        if not _is_prime(p):
            raise ValidationError([f"field order must be prime, got {p}"])
        if p >= 2**63:
            raise ValidationError([f"field order must be below 2^63, got {p}"])
        self.p = p

    @property
    def prime(self) -> int:
        return self.p

    # ----- objects -------------------------------------------------
    def obj(self, dim: int) -> VectObj:
        return VectObj(dim, self.p)

    def initial(self) -> VectObj:
        return VectObj(0, self.p)

    def obj_size(self, obj: VectObj) -> int:
        return obj.dim

    def obj_label(self, obj: VectObj) -> str:
        return f"F{obj.p}^{obj.dim}"

    def validate_obj(self, obj: Any) -> list[str]:
        if not isinstance(obj, VectObj):
            return [f"object is not a vector space: {obj!r}"]
        if obj.p != self.p:
            return [f"object lives over F{obj.p}, instance over F{self.p}"]
        if obj.dim < 0:
            return [f"negative dimension: {obj.dim}"]
        return []

    # ----- matrix access --------------------------------------------
    def hor_matrix(self, f: HorMor) -> np.ndarray:
        """The mono ``source -> target`` as a read-only ``target.dim x
        source.dim`` array."""
        return _matrix(f, f.target.dim, f.source.dim)

    def ver_matrix(self, f: VerMor) -> np.ndarray:
        """The underlying surjection ``target ->> source`` as a read-only
        ``source.dim x target.dim`` array."""
        return _matrix(f, f.source.dim, f.target.dim)

    def _mor(self, mor_type: type, source, target, arr) -> HorMor | VerMor:
        """The morphism of class ``mor_type`` storing ``arr`` mod p, in an
        array of its own: wrapping marks it read-only."""
        return mor_type(source, target, _Matrix(_reduced(arr, self.p, copy=True)))

    def hor(self, source: VectObj, target: VectObj, arr) -> HorMor:
        return self._mor(HorMor, source, target, arr)

    def ver(self, source: VectObj, target: VectObj, arr) -> VerMor:
        return self._mor(VerMor, source, target, arr)

    def _inj(self, f: HorMor | VerMor) -> np.ndarray:
        """Either flavour as an injection matrix ``target.dim x source.dim``:
        a horizontal morphism's matrix, a vertical one's transposed."""
        return self.hor_matrix(f) if isinstance(f, HorMor) else self.ver_matrix(f).T

    def _of_inj(self, mor_type: type, source: VectObj, target: VectObj, inj) -> HorMor | VerMor:
        """The morphism of class ``mor_type`` whose injection matrix is
        ``inj``, stored in the layout of its class."""
        return self._mor(mor_type, source, target, inj if mor_type is HorMor else inj.T)

    # ----- identities and zeros ---------------------------------------
    def id_hor(self, obj: VectObj) -> HorMor:
        return self.hor(obj, obj, np.eye(obj.dim, dtype=np.int64))

    def id_ver(self, obj: VectObj) -> VerMor:
        return self.ver(obj, obj, np.eye(obj.dim, dtype=np.int64))

    def zero_hor(self, obj: VectObj) -> HorMor:
        return self.hor(self.initial(), obj, np.zeros((obj.dim, 0), np.int64))

    def zero_ver(self, obj: VectObj) -> VerMor:
        return self.ver(self.initial(), obj, np.zeros((0, obj.dim), np.int64))

    # ----- validation --------------------------------------------------
    def validate_payload(self, f: HorMor | VerMor) -> list[str]:
        """Both flavours store a matrix of rank ``source.dim``: ``target x
        source`` for a horizontal morphism, ``source x target`` for a
        vertical one.  The objects are valid, so their dimensions pick the
        shape."""
        data = f.data
        if not isinstance(data, _Matrix):
            return [f"payload is not a matrix: {data!r}"]
        rows, cols = _shape(type(f), f.source, f.target)
        arr = data.array
        if len(arr) != rows:
            return [f"matrix must have {rows} rows, got {data!r}"]
        if arr.shape != (rows, cols):
            # rows of one array have one length: name the first, if any
            if not rows:
                return [f"matrix must be 0x{cols}, got {data!r}"]
            return [f"matrix rows must have {cols} entries, got {tuple(arr[0].tolist())!r}"]
        # read as unsigned, a negative entry lies above every prime
        out = arr.view(np.uint64) >= self.p
        if out.any():
            return [f"matrix entry out of F{self.p}: {int(arr[out][0])!r}"]
        if mat_rank(arr, self.p) == f.source.dim:
            return []
        hor = isinstance(f, HorMor)
        return ["horizontal matrix is not injective" if hor else "vertical matrix is not surjective"]

    # ----- composition ----------------------------------------------------
    def compose_hor(self, f: HorMor | VerMor, g: HorMor | VerMor) -> HorMor | VerMor:
        """``g . f`` for two morphisms of one flavour, of that flavour."""
        if f.target != g.source:
            flavour = "horizontal" if isinstance(f, HorMor) else "vertical"
            raise CompositionError(f"{flavour} composition mismatch")
        inj = matmul_mod(self._inj(g), self._inj(f), self.p)
        return self._of_inj(type(f), f.source, g.target, inj)

    compose_ver = compose_hor

    # ----- complement structure ---------------------------------------------
    def coker(self, f: HorMor | VerMor) -> tuple[VectObj, HorMor | VerMor]:
        """The complement of either flavour: the kernel of its transposed
        injection matrix, as a morphism of the other flavour."""
        n = nullspace(self._inj(f).T, self.p)
        obj = self.obj(n.shape[1])
        other = VerMor if isinstance(f, HorMor) else HorMor
        return obj, self._of_inj(other, obj, f.target, n)

    ker = coker

    def mixed_pullback(self, m: HorMor, e: VerMor) -> PullbackSquare:
        if m.target != e.target:
            raise FactorizationError("mixed pullback needs a shared target")
        t = matmul_mod(self.ver_matrix(e), self.hor_matrix(m), self.p)
        basis = colbasis(t, self.p)
        corner = self.obj(basis.shape[1])
        onto = solve(basis, t, self.p)
        assert onto is not None
        return PullbackSquare(
            corner,
            self.hor(corner, e.source, basis),
            self.ver(corner, m.source, onto),
            m,
            e,
        )

    def classify_mixed(
        self, top: HorMor, left: VerMor, right: VerMor, bottom: HorMor
    ) -> SquareClass:
        """A commuting square is Cartesian: ``top . left`` is then an
        epi-mono factorization of ``right . bottom``, which is unique up to
        a unique isomorphism, so it is the canonical pullback's."""
        if not self.square_fits(top, left, right, bottom):
            return SquareClass.NOT_SQUARE
        lhs = matmul_mod(self.hor_matrix(top), self.ver_matrix(left), self.p)
        rhs = matmul_mod(self.ver_matrix(right), self.hor_matrix(bottom), self.p)
        return SquareClass.CARTESIAN if np.array_equal(lhs, rhs) else SquareClass.NOT_SQUARE

    # ----- factorization -----------------------------------------------------
    def factor_hor(self, f: HorMor | VerMor, through: HorMor | VerMor) -> HorMor | VerMor:
        """One solve against the injection matrix of ``through``; its
        solution is unique."""
        if f.target != through.target:
            raise FactorizationError("factorization targets differ")
        h = solve(self._inj(through), self._inj(f), self.p)
        if h is None:
            raise FactorizationError(
                "image does not lie inside the given horizontal morphism"
                if isinstance(f, HorMor)
                else "vertical morphism does not factor: kernels are incompatible"
            )
        return self._of_inj(type(f), f.source, through.source, h)

    factor_ver = factor_hor

    def _induced(self, f, src_leg, tgt_leg) -> np.ndarray | None:
        """The ``x`` with ``inj(src_leg) @ x == inj(f).T @ inj(tgt_leg)``, or
        None: ``x.T`` is the injection matrix of the morphism
        ``src_leg.source -> tgt_leg.source`` that ``f`` induces between legs
        of the other flavour into its two ends."""
        rhs = matmul_mod(self._inj(f).T, self._inj(tgt_leg), self.p)
        return solve(self._inj(src_leg), rhs, self.p)

    def hor_between_cokers(self, f, p_leg, q_leg) -> HorMor | VerMor:
        """Either flavour ``f: P -> Q`` between the complement presentations
        ``p_leg`` of ``P`` and ``q_leg`` of ``Q``, of the other flavour."""
        hor = isinstance(f, HorMor)
        if p_leg.target != f.source or q_leg.target != f.target:
            raise FactorizationError(
                f"complement presentations do not match {'m' if hor else 'e'}"
            )
        x = self._induced(f, p_leg, q_leg)
        if x is None:
            raise FactorizationError(
                f"morphism does not {'descend' if hor else 'restrict'} to complements"
            )
        if mat_rank(x, self.p) != p_leg.source.dim:
            raise FactorizationError(
                "induced complement morphism is not "
                + ("injective" if hor else "surjective")
            )
        return self._of_inj(type(f), p_leg.source, q_leg.source, x.T)

    ver_between_kernels = hor_between_cokers

    # ----- spans ---------------------------------------------------------------
    def flat_key(self, back: VerMor, front: HorMor) -> Hashable:
        return _Matrix(matmul_mod(self.hor_matrix(front), self.ver_matrix(back), self.p))

    # ----- document format -----------------------------------------------------
    @classmethod
    def from_header(cls, prime: int | None) -> LinearInstance:
        return cls(2 if prime is None else prime)

    def header(self) -> list[str]:
        return [f"prime {self.p}"]

    def obj_from_text(self, text: str) -> VectObj:
        m = re.match(r"dim\s+(\S+)\Z", text)
        dim = parse_decimal(m.group(1)) if m else None
        if dim is None:
            raise ValidationError([f"want: dim N, got {text!r}"])
        if dim > _MAX_DIM:
            raise ValidationError([f"dimension {dim} exceeds {_MAX_DIM}"])
        return self.obj(dim)

    def obj_text(self, obj: VectObj) -> str:
        return f"dim {obj.dim}"

    def mor_from_text(self, mor_type, source, target, text, leg=False):
        """A JSON list of integer rows of the stored shape; an omitted leg
        or level is zero, and ``[]`` a matrix with no rows."""
        shape = _shape(mor_type, source, target)
        if text is None:
            return self._mor(mor_type, source, target, np.zeros(shape, np.int64))
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # a RecursionError is a list nested too deeply to decode
            raise ValidationError([f"bad matrix: {exc}"]) from None
        # numpy infers int64 for a 2-D list of JSON integers (true and false
        # among them count as 1 and 0) that fit in int64.  Anything else is
        # walked entry by entry to accept it or name what is wrong.
        try:
            arr = np.zeros((0, shape[1]), np.int64) if data == [] else np.asarray(data)
        except ValueError:  # rows of different lengths
            arr = None
        if arr is None or arr.dtype != np.int64 or arr.ndim != 2:
            if not isinstance(data, list) or not all(
                isinstance(r, list) and all(isinstance(v, int) for v in r) for r in data
            ):
                raise ValidationError(["matrix must be a JSON list of integer rows"])
            try:
                arr = np.asarray(data, dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise ValidationError([f"bad matrix: {exc}"]) from None
        mor = self._mor(mor_type, source, target, arr)
        _matrix(mor, *shape)
        return mor

    def mor_text(self, mor, leg=False):
        return json.dumps(mor.data.array.tolist())

    # ----- rank oracle -----------------------------------------------------------
    def boundary_matrix(self, up: VerMor, low: HorMor) -> np.ndarray:
        """The composite of the two legs, ``low . up``."""
        return matmul_mod(self.hor_matrix(low), self.ver_matrix(up), self.p)

    # ----- homology --------------------------------------------------------------
    def homology_span(self, gx, gy, back: VerMor, front: HorMor) -> FlatMor:
        """The induced linear map on homology, computed classically and
        returned through its epi-mono factorization."""
        p = self.p
        phi = matmul_mod(self.hor_matrix(front), self.ver_matrix(back), p)
        n_kx = self.hor_matrix(gx.cycles_hor)
        n_ky = self.hor_matrix(gy.cycles_hor)
        v = solve(n_ky, matmul_mod(phi, n_kx, p), p)
        if v is None:
            raise AcgwError(f"chain map does not preserve cycles at degree {gx.degree}")
        eps_x = self.ver_matrix(gx.h_to_cycles)
        eps_y = self.ver_matrix(gy.h_to_cycles)
        section = solve(eps_x, np.eye(gx.h.dim, dtype=np.int64), p)
        assert section is not None
        eps_v = matmul_mod(eps_y, v, p)
        psi = matmul_mod(eps_v, section, p)
        if not np.array_equal(matmul_mod(psi, eps_x, p), eps_v):
            raise AcgwError(
                f"chain map does not preserve boundaries at degree {gx.degree}"
            )
        basis = colbasis(psi, p)
        onto = solve(basis, psi, p)
        assert onto is not None
        middle = self.obj(basis.shape[1])
        return FlatMor(
            gx.h, middle, gy.h, self.ver(middle, gx.h, onto), self.hor(middle, gy.h, basis)
        )

    def homology_embedding(self, grid, boundaries: HorMor) -> tuple[HorMor, VerMor]:
        """A basis of cycles complementing the boundaries spans ``H_i``
        (horizontal level); the matching rows of the inverse of a basis
        ``boundaries | H_i | rest`` of ``X_i`` project onto it (vertical
        level)."""
        p = self.p
        ambient = grid.cycles_hor.target
        n = ambient.dim
        bnd = self.hor_matrix(boundaries)
        cycles = self.hor_matrix(grid.cycles_hor)
        h_section = _extend_basis(bnd, cycles, cycles.shape[1], p)
        spanning = np.hstack([bnd, h_section])
        rest = _extend_basis(spanning, np.eye(n, dtype=np.int64), n, p)
        inverse = solve(np.hstack([spanning, rest]), np.eye(n, dtype=np.int64), p)
        assert inverse is not None
        t_low, h_dim = bnd.shape[1], h_section.shape[1]
        h_obj = self.obj(h_dim)
        return (
            self.hor(h_obj, ambient, h_section),
            self.ver(h_obj, ambient, inverse[t_low : t_low + h_dim, :]),
        )
