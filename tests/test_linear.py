"""Exact linear algebra over prime fields and the linear instance."""

import copy
import json
import pickle
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgw import (
    CompositionError,
    FactorizationError,
    GenConfig,
    HorMor,
    LinearInstance,
    SquareClass,
    ValidationError,
    VerMor,
    gen_complex,
    gen_hor_mor,
    gen_ver_mor,
    homology,
    homology_complex,
)
from acgw import linear
from acgw.linear import (
    _Matrix,
    _unit_rows,
    colbasis,
    mat_rank,
    matmul_mod,
    nullspace,
    rref,
    solve,
)
from acgw.oracle import rand_gl

from reference import (
    classify_mixed_via_pullback,
    factor_ver_via_section,
    homology_embedding_greedy,
    hor_between_cokers_via_section,
    is_complement_pair_by_product,
    is_iso_by_rank,
    matmul_mod_reference,
    rref_reference,
    square_commutes_by_products,
)

PRIMES = (2, 3, 5)

#: pairs of primes just below and just above (p-1)^2 = 2^53 (one float64
#: product at k = 1) and (p-1)^2 = 2^63 (int64 row reduction), with
#: 2^31-1, whose products take float64 limbs, and primes beyond both
#: thresholds
THRESHOLD_PRIMES = (
    2,
    65521,
    94906249,
    94906297,
    2147483647,
    3037000493,
    3037000507,
    4294967291,
    2**61 - 1,
)


@st.composite
def matrix_and_prime(draw, max_dim=5):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(entries, dtype=np.int64).reshape(rows, cols), p


# ---------------------------------------------------------------------------
# Row reduction.
# ---------------------------------------------------------------------------


def test_rref_known_example():
    R, pivots = rref(np.array([[1, 2], [2, 4], [0, 1]]), 5)
    assert R.tolist() == [[1, 0], [0, 1], [0, 0]]
    assert pivots == [0, 1]


def test_rref_mod_two_wraps():
    R, pivots = rref(np.array([[2, 1], [1, 1]]), 2)
    assert R.tolist() == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


@settings(deadline=None, max_examples=150)
@given(matrix_and_prime())
def test_rref_properties(mp):
    a, p = mp
    R, pivots = rref(a, p)
    assert R.shape == a.shape
    assert pivots == sorted(pivots)
    # Idempotent, and each pivot column is a standard basis vector.
    R2, pivots2 = rref(R, p)
    assert np.array_equal(R2, R) and pivots2 == pivots
    for k, c in enumerate(pivots):
        col = R[:, c]
        assert col[k] == 1 and np.count_nonzero(col) == 1


@settings(deadline=None, max_examples=150)
@given(matrix_and_prime())
def test_rank_properties(mp):
    a, p = mp
    r = mat_rank(a, p)
    assert 0 <= r <= min(a.shape)
    assert mat_rank(a.T, p) == r
    doubled = np.concatenate([a, a], axis=1) if a.size or a.shape[0] else a
    if a.shape[0] > 0:
        assert mat_rank(doubled, p) == r


# ---------------------------------------------------------------------------
# Solving, kernels, column bases.
# ---------------------------------------------------------------------------


def test_solve_exact_and_unsolvable():
    A = np.array([[1, 2], [2, 4], [0, 1]])
    b = np.array([[1], [2], [0]])
    X = solve(A, b, 5)
    assert X is not None and np.array_equal(np.mod(A @ X, 5), np.mod(b, 5))
    assert solve(np.array([[1], [1]]), np.array([[1], [0]]), 2) is None


@settings(deadline=None, max_examples=150)
@given(matrix_and_prime(), st.data())
def test_solve_recovers_consistent_systems(mp, data):
    a, p = mp
    k = data.draw(st.integers(0, 3))
    x = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                min_size=a.shape[1],
                max_size=a.shape[1],
            )
        ),
        dtype=np.int64,
    ).reshape(a.shape[1], k)
    b = np.mod(a @ x, p)
    sol = solve(a, b, p)
    assert sol is not None
    assert np.array_equal(np.mod(a @ sol, p), b)


@settings(deadline=None, max_examples=150)
@given(matrix_and_prime())
def test_nullspace_and_colbasis(mp):
    a, p = mp
    N = nullspace(a, p)
    assert N.shape[0] == a.shape[1]
    assert not np.mod(a @ N, p).any()
    assert mat_rank(a, p) + N.shape[1] == a.shape[1]
    C = colbasis(a, p)
    assert mat_rank(C, p) == C.shape[1] == mat_rank(a, p)


# ---------------------------------------------------------------------------
# The mod-p kernel against the pure-Python references, at every threshold.
# ---------------------------------------------------------------------------


@st.composite
def threshold_matrix(draw, rows, cols, p):
    """A ``rows x cols`` matrix mod p, rich in the extreme entries 0, 1 and
    p-1, whose last row is sometimes a combination of two others."""
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 1)))
    grid = draw(
        st.lists(
            st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )
    if rows >= 3 and draw(st.booleans()):
        c0, c1 = draw(entry), draw(entry)
        grid[-1] = [(c0 * x + c1 * y) % p for x, y in zip(grid[0], grid[1])]
    return np.array(grid, dtype=np.int64).reshape(rows, cols)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(THRESHOLD_PRIMES), st.data())
def test_kernel_agrees_with_reference_at_thresholds(p, data):
    m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = data.draw(threshold_matrix(m, k, p))
    b = data.draw(threshold_matrix(k, n, p))
    prod = matmul_mod(a, b, p)
    assert prod.dtype == np.int64 and prod.shape == (m, n)
    assert prod.tolist() == matmul_mod_reference(a, b, p)

    r, pivots = rref(a, p)
    want_r, want_pivots = rref_reference(a, p)
    assert r.dtype == np.int64 and r.shape == a.shape
    assert (r.tolist(), pivots) == (want_r, want_pivots)

    nullity = k - len(want_pivots)
    null = nullspace(a, p)
    assert null.shape == (k, nullity)
    assert matmul_mod_reference(a, null, p) == [[0] * nullity for _ in range(m)]
    free = [c for c in range(k) if c not in want_pivots]
    assert null[free].tolist() == np.eye(nullity, dtype=np.int64).tolist()

    rhs = data.draw(threshold_matrix(m, 2, p))
    solvable = all(c < k for c in rref_reference(np.hstack([a, rhs]), p)[1])
    x = solve(a, rhs, p)
    assert (x is not None) == solvable
    if x is not None:
        assert matmul_mod_reference(a, x, p) == rhs.tolist()
    consistent = np.array(matmul_mod_reference(a, b, p), dtype=np.int64).reshape(m, n)
    x = solve(a, consistent, p)
    assert x is not None
    assert matmul_mod_reference(a, x, p) == consistent.tolist()


#: primes whose int64 room lasts a few rank-1 updates of (p-1)^2 each:
#: about nine at 10^9+7, two at 2^31-1 and one at 3037000493, so the
#: elimination reduces its active block in mid-run; 3037000507 takes the
#: Python-integer path, which reduces every step
ROOM_PRIMES = (1000000007, 2147483647, 3037000493, 3037000507)


@st.composite
def kernel_matrix(draw, rows, cols, p):
    """A ``rows x cols`` matrix mod p: dense, of rank at most three, or a
    0/1 incidence matrix with at most one nonzero per column."""
    kind = draw(st.sampled_from(("dense", "low rank", "incidence")))
    if kind == "dense":
        return draw(threshold_matrix(rows, cols, p))
    if kind == "low rank":
        rank = draw(st.integers(0, min(rows, cols, 3)))
        left = draw(threshold_matrix(rows, rank, p))
        right = draw(threshold_matrix(rank, cols, p))
        prod = matmul_mod_reference(left, right, p)
        return np.array(prod, dtype=np.int64).reshape(rows, cols)
    out = np.zeros((rows, cols), dtype=np.int64)
    if rows:
        hits = draw(st.lists(st.none() | st.integers(0, rows - 1), min_size=cols, max_size=cols))
        for col, row in enumerate(hits):
            if row is not None:
                out[row, col] = 1
    return out


def canonical_nullspace(r, pivots, p):
    """The kernel basis read off a reference rref: one column per free
    variable, that variable one and the other free ones zero."""
    cols = len(r[0]) if r else 0
    free = [c for c in range(cols) if c not in pivots]
    out = [[int(c == f) for f in free] for c in range(cols)]
    for k, c in enumerate(pivots):
        out[c] = [-r[k][f] % p for f in free]
    return out


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((2, 65521) + ROOM_PRIMES), st.data())
def test_kernel_agrees_with_reference_up_to_24_by_24(p, data):
    m, k, n = (data.draw(st.integers(0, 24)) for _ in range(3))
    a = data.draw(kernel_matrix(m, k, p))
    b = data.draw(kernel_matrix(k, n, p))
    assert matmul_mod(a, b, p).tolist() == matmul_mod_reference(a, b, p)

    want_r, want_pivots = rref_reference(a, p)
    r, pivots = rref(a, p)
    assert r.dtype == np.int64 and (r.tolist(), pivots) == (want_r, want_pivots)
    assert mat_rank(a, p) == len(want_pivots)
    null = nullspace(a, p)
    assert null.shape == (k, k - len(want_pivots))
    if m:
        assert null.tolist() == canonical_nullspace(want_r, want_pivots, p)

    # The reference's solution of ``a x = rhs`` sets the free variables
    # to zero, like ``solve``.
    width = min(n, 2)
    rhs = np.array(matmul_mod_reference(a, b[:, :width], p), dtype=np.int64).reshape(m, width)
    if m and data.draw(st.booleans()):
        rhs = data.draw(kernel_matrix(m, width, p))
    aug_r, aug_pivots = rref_reference(np.hstack([a, rhs]), p)
    x = solve(a, rhs, p)
    if any(c >= k for c in aug_pivots):
        assert x is None
    else:
        want_x = np.zeros((k, width), dtype=np.int64)
        for row, c in enumerate(aug_pivots):
            want_x[c] = aug_r[row][k:]
        assert x is not None and x.tolist() == want_x.tolist()


#: primes at the two ends of the float64 product path and past it
UNIT_ROW_PRIMES = (2, 65521, 2**31 - 1)


@st.composite
def unit_row_matrix(draw, p):
    """A matrix with a row equal to ``e_j`` mod p for every column j: the
    rows of ``I_c``, some of them repeated, over random rows, in a random
    row order, each entry sometimes raised by p."""
    c = draw(st.integers(0, 6))
    units = list(range(c)) + draw(st.lists(st.integers(0, c - 1), max_size=3) if c else st.just([]))
    extra = draw(threshold_matrix(draw(st.integers(0, 5)), c, p))
    a = np.vstack([np.eye(c, dtype=np.int64)[units], extra])
    a = a[draw(st.permutations(range(a.shape[0])))] if a.shape[0] else a
    lift = draw(st.lists(st.integers(0, 1), min_size=a.size, max_size=a.size))
    return a + p * np.array(lift, dtype=np.int64).reshape(a.shape)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(UNIT_ROW_PRIMES), st.data())
def test_solve_against_unit_rows_agrees_with_the_reference(p, data):
    a = data.draw(unit_row_matrix(p))
    m, c = a.shape
    assert _unit_rows(a % p) is not None
    k = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        # inside the column span
        x = data.draw(threshold_matrix(c, k, p))
        b = np.array(matmul_mod_reference(a, x, p), dtype=np.int64).reshape(m, k)
    else:
        b = data.draw(threshold_matrix(m, k, p))
    r, pivots = rref_reference(np.hstack([a, b]), p)
    x = solve(a, b, p)
    if any(col >= c for col in pivots):
        assert x is None
    else:
        # every column of ``a`` is a pivot: the solution is unique
        assert pivots == list(range(c))
        assert x is not None and x.dtype == np.int64
        assert x.tolist() == [row[c:] for row in r[:c]]
        assert matmul_mod_reference(a, x, p) == (b % p).tolist()


def test_elimination_runs_out_of_int64_room_at_ten_to_the_nine():
    p = 10**9 + 7
    n = 40
    full = np.full((n, n), p - 1, dtype=np.int64)
    # Every pivot updates every other row.
    dense = full + np.eye(n, dtype=np.int64)
    # Ones on the diagonal, p-1 below it and in a right-hand block: every
    # multiplier is p-1 and the first pivot rows end in entries near p,
    # so each update subtracts close to (p-1)^2 and the room of about nine
    # updates runs out again and again.  Without the mid-run reduction the
    # entries wrap.
    stair = np.hstack([np.tril(full, -1) + np.eye(n, dtype=np.int64), full])
    for a in (dense, stair):
        r, pivots = rref(a, p)
        assert (r.tolist(), pivots) == rref_reference(a, p)
        assert pivots == list(range(n))
    assert mat_rank(dense, p) == n
    dependent = np.vstack([stair, np.mod(stair[-1] + stair[-2], p)])
    assert mat_rank(dependent, p) == mat_rank(dependent.T, p) == n


def test_matmul_mod_does_not_overflow_at_two_to_the_31():
    p = 2**31 - 1
    full = np.full((3, 3), p - 1, dtype=np.int64)
    # (p-1)^2 = 1 mod p, summed three times; int64 products wrap here.
    assert matmul_mod(full, full, p).tolist() == [[3] * 3] * 3


#: the primes of the rank certificate: one float64 product and float64
#: limbs, delayed-reduction elimination with little int64 room, and the
#: Python-integer elimination
CERTIFICATE_PRIMES = (2, 65521, 2**31 - 1, 3037000507)


@st.composite
def monomial_matrix(draw, p):
    """A matrix whose nonzero rows and columns hold a monomial submatrix
    (one row with a single nonzero entry per column, scaled by non-units),
    under dense rows, permuted, with zero rows and columns added and maybe
    transposed; or a near miss, where one column loses its single row or
    two single rows gain a second entry.  Returns the matrix and the size
    of the monomial submatrix, or None for a near miss."""
    c = draw(st.integers(0, 5))
    scales = np.array(draw(st.lists(st.integers(1, p - 1), min_size=c, max_size=c)), dtype=np.int64)
    dense = draw(threshold_matrix(draw(st.integers(0, 4)), c, p))
    a = np.vstack([np.diag(scales).reshape(c, c), dense])
    miss = draw(st.sampled_from(("none", "uncovered", "second entry"))) if c else "none"
    if miss == "uncovered":
        a[draw(st.integers(0, c - 1))] = 0
    elif miss == "second entry":
        # a second entry in column k, and the single row of k a multiple of
        # the result: without dense rows the rank falls by one
        j = draw(st.integers(0, c - 1))
        k = (j + draw(st.integers(1, max(c - 1, 1)))) % c
        a[j, k] = draw(st.integers(1, p - 1))
        if k != j:
            scale = draw(st.integers(1, p - 1))
            a[k] = [v * scale % p for v in a[j].tolist()]
    # an entry raised by p is the same entry mod p
    lift = draw(st.lists(st.integers(0, 1), min_size=a.size, max_size=a.size))
    a = a + p * np.array(lift, dtype=np.int64).reshape(a.shape)
    a = a[draw(st.permutations(range(a.shape[0])))][:, draw(st.permutations(range(c)))]
    for axis in (0, 1):
        at = draw(st.lists(st.integers(0, a.shape[axis]), max_size=3))
        a = np.insert(a, at, 0, axis=axis)
    return (a.T if draw(st.booleans()) else a), c if miss == "none" else None


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(CERTIFICATE_PRIMES), st.data())
def test_rank_certificate_agrees_with_the_reference(p, data):
    a, planted = data.draw(monomial_matrix(p))
    eliminate, calls = linear._eliminate, []

    def counted(r, p, reduced):
        calls.append(r.shape)
        return eliminate(r, p, reduced)

    with mock.patch.object(linear, "_eliminate", counted):
        rank = mat_rank(a, p)
    assert rank == mat_rank(a.T, p) == len(rref_reference(a, p)[1])
    if planted is not None:
        # full rank, certified by the monomial rows without elimination
        assert rank == planted and calls == []


#: the primes of the block rank: one float64 product, float64 limbs and
#: Python integers for the projections, int64 and Python-integer rows;
#: near 2^63 two unreduced projections already pass int64
BLOCK_PRIMES = (2, 3, 65521, 2**31 - 1, 2**61 - 1, 2**63 - 25)


@st.composite
def planted_rank_matrix(draw, p):
    """A product ``left @ right`` of rank r, taller or wider than one block
    of :func:`mat_rank` or square: r rows of ``left`` are the unit rows
    ``e_j`` and r columns of ``right`` the unit columns, so each factor has
    rank r, and the other entries are random.  Zero rows and columns may
    be inserted.  Returns the matrix and r."""
    block = linear._BLOCK
    # up to four blocks, so that a block may project on three bases
    top = 3 * block + 10
    shape = draw(st.sampled_from(("tall", "wide", "square")))
    long = draw(st.integers(block + 1, top))
    short = long if shape == "square" else draw(st.integers(1, long))
    m, n = (long, short) if shape == "tall" else (short, long)
    # a rank past one block makes more than one basis
    low = draw(st.sampled_from((0, max(min(m, n) - block // 2, 0))))
    r = draw(st.integers(low, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((1.0, 0.3)))

    def factor(rows, cols):
        out = rng.integers(0, p, (rows, cols), dtype=np.int64)
        out[rng.random((rows, cols)) >= density] = 0
        units = rng.choice(rows, cols, replace=False)
        out[units] = np.eye(cols, dtype=np.int64)
        return out

    a = matmul_mod(factor(m, r), factor(n, r).T, p)
    for axis in (0, 1):
        at = draw(st.lists(st.integers(0, a.shape[axis]), max_size=4))
        a = np.insert(a, at, 0, axis=axis)
    return a, r


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(BLOCK_PRIMES), st.data())
def test_block_rank_finds_the_planted_rank(p, data):
    a, r = data.draw(planted_rank_matrix(p))
    eliminate, pivots = linear._eliminate, []

    def counted(r, p, reduced):
        out = eliminate(r, p, reduced)
        pivots.append(len(out[1]))
        return out

    with mock.patch.object(linear, "_eliminate", counted):
        assert mat_rank(a, p) == r
    assert mat_rank(a.T, p) == r
    # each elimination finds at most one block's pivots
    assert all(k <= linear._BLOCK for k in pivots)


@pytest.mark.parametrize(
    ("p", "m", "n", "r"),
    # three blocks at 2^63-25, seven at 2^61-1: the last block projects on
    # two or six bases, whose unreduced differences would leave int64
    [(2**63 - 25, 120, 100, 99), (2**61 - 1, 280, 280, 240)],
)
def test_block_projections_stay_in_int64_near_the_top_of_the_field(p, m, n, r):
    rng = np.random.default_rng(0)

    def factor(rows, cols):
        out = rng.integers(0, p, (rows, cols), dtype=np.int64)
        out[rng.choice(rows, cols, replace=False)] = np.eye(cols, dtype=np.int64)
        return out

    a = matmul_mod(factor(m, r), factor(n, r).T, p)
    assert mat_rank(a, p) == mat_rank(a.T, p) == r


def test_a_block_rank_eliminates_no_more_rows_than_one_block():
    p, rng = 65521, np.random.default_rng(0)
    a = matmul_mod(rng.integers(0, p, (200, 70)), rng.integers(0, p, (70, 200)), p)
    eliminate, shapes = linear._eliminate, []

    def counted(r, p, reduced):
        shapes.append(r.shape)
        return eliminate(r, p, reduced)

    with mock.patch.object(linear, "_eliminate", counted):
        assert mat_rank(a, p) == 70
    # two blocks of 40 rows fill the first 80 pivots but 10; the blocks
    # below them project to zero and are not eliminated
    assert shapes and all(rows <= linear._BLOCK for rows, _ in shapes)
    assert len(shapes) == 2


@st.composite
def spanning_pool(draw, p):
    """``[B | I]``, ``[B | B C]`` or ``[B | I | B C]`` with ``B`` of n rows
    whose columns interleave independent ones with combinations of those
    before them, so that pivotless columns fall between pivots; the
    columns of the whole may be shuffled."""
    n = draw(st.integers(1, 24))
    s = draw(st.integers(0, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = np.zeros((n, s), dtype=np.int64)
    for j in range(s):
        if j and rng.random() < 0.4:
            b[:, j] = matmul_mod(b[:, :j], rng.integers(0, p, (j, 1)), p)[:, 0]
        else:
            b[:, j] = rng.integers(0, p, n)
    later = matmul_mod(b, rng.integers(0, p, (s, draw(st.integers(0, 8)))), p)
    eye = np.eye(n, dtype=np.int64)
    kind = draw(st.sampled_from(("[B | I]", "[B | B C]", "[B | I | B C]")))
    a = {"[B | I]": [b, eye], "[B | B C]": [b, later], "[B | I | B C]": [b, eye, later]}[kind]
    a = np.hstack(a)
    if draw(st.booleans()):
        a = a[:, rng.permutation(a.shape[1])]
    return a


@settings(deadline=None, max_examples=150)
@given(st.sampled_from((2, 3, 65521) + ROOM_PRIMES), st.data())
def test_rref_and_nullspace_of_spanning_pools_agree_with_the_reference(p, data):
    a = data.draw(spanning_pool(p))
    want_r, want_pivots = rref_reference(a, p)
    r, pivots = rref(a, p)
    assert (r.tolist(), pivots) == (want_r, want_pivots)
    assert nullspace(a, p).tolist() == canonical_nullspace(want_r, want_pivots, p)
    # forward elimination finds the same pivot columns, as basis
    # extension reads them
    assert linear._eliminate(a % p, p, reduced=False)[1] == want_pivots


#: primes across the product ladder: at 33554393 one float64 product
#: serves up to k = 8, then float64 limbs; 94906249 and 94906297 lie just
#: below and above (p-1)^2 = 2^53, so the second takes limbs from k = 1;
#: at 2^31-1, 3037000507 and 2^32-5 every product up to k = 4096 takes
#: float64 limbs, of 9 or 10 bits at k = 4096; at 2^40-87 no float64 limb
#: of 8 bits fits past k = 32, so int64 limbs take over, of 11 bits at
#: k = 4096; and at 2^61-1 no limb of 8 bits fits, so Python integers
#: multiply
LADDER_PRIMES = (
    33554393,
    94906249,
    94906297,
    2**31 - 1,
    3037000507,
    2**32 - 5,
    2**40 - 87,
    2**61 - 1,
)


def _limb_edges(p, top=4096):
    """Inner dimensions k up to ``top`` on both sides of each bound of the
    product ladder: k (p-1)^2 and k (p-1) (2^s-1), for every limb width
    s, below 2^53 (float64) and below 2^63 (int64)."""
    ks = {1, 2, top}
    for room in (2**53, 2**63):
        for bound in [(p - 1) ** 2] + [(p - 1) * ((1 << s) - 1) for s in range(1, 64)]:
            edge = (room - 1) // bound
            ks |= {edge, edge + 1}
    return sorted(k for k in ks if 1 <= k <= top)


def test_limb_edges_straddle_each_change_of_rung():
    # the last one-product k at 33554393 and at 94906249, and the last
    # float64-limb k at 2^40-87, each with its successor
    assert {8, 9} <= set(_limb_edges(33554393))
    assert {1, 2} <= set(_limb_edges(94906249))
    assert {32, 33} <= set(_limb_edges(2**40 - 87))


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_limb_products_agree_with_the_reference(seed):
    rng = np.random.default_rng(seed)
    for p in LADDER_PRIMES:

        def biased(shape):
            """Entries mostly 0, 1 or p-1, the others uniform."""
            extreme = np.array([0, 1, p - 1], dtype=np.int64)[rng.integers(0, 3, size=shape)]
            return np.where(rng.random(shape) < 0.75, extreme, rng.integers(0, p, size=shape))

        def lifted(x):
            """``x`` with entries moved by -p or +p: negative or at least p."""
            return x + p * rng.integers(-1, 2, size=x.shape)

        for k in _limb_edges(p):
            m, n = rng.integers(1, 4, size=2)
            a, b = biased((m, k)), biased((k, n))
            want = matmul_mod_reference(a, b, p)
            for left, right in ((a, b), (lifted(a), lifted(b))):
                prod = matmul_mod(left, right, p)
                assert prod.dtype == np.int64
                assert prod.tolist() == want, (p, k)


@pytest.mark.parametrize("p", (65521,) + LADDER_PRIMES)
def test_every_rung_multiplies_the_largest_entries_exactly(p):
    # Entries p-1 give the largest sums each rung must hold: k (p-1)^2,
    # which is k mod p, at every k on both sides of a change of rung.
    for k in _limb_edges(p):
        a = np.full((1, k), p - 1, dtype=np.int64)
        assert matmul_mod(a, a.T, p).tolist() == [[k % p]], k


#: zero rows that lift a test matrix past ``linear._SMALL`` entries, so
#: that the kernel reads its bound before reducing it, or none
PADDING = (0, linear._SMALL)


@pytest.mark.parametrize("pad", PADDING)
@pytest.mark.parametrize("p", (2, 65521, 2**31 - 1, 2**61 - 1))
def test_a_stored_matrix_is_reduced_at_both_ends_of_the_field(p, pad):
    # each matrix has one kind of entry outside [0, p): the least
    # negative one, the least at least p, or the largest below 2p
    L = LinearInstance(p)
    for bad, want in ((-1, p - 1), (p, 0), (2 * p - 1, p - 1)):
        m = L.hor(L.obj(1), L.obj(pad + 3), [[0]] * pad + [[0], [p - 1], [bad]])
        assert L.hor_matrix(m).tolist() == [[0]] * pad + [[0], [p - 1], [want]]
    assert L.validate_hor(L.hor(L.obj(1), L.obj(1), [[p + 1]])) == []


@pytest.mark.parametrize("pad", PADDING)
@pytest.mark.parametrize("p", (2, 65521, 2**31 - 1, 2**61 - 1))
def test_the_kernel_leaves_a_reduced_input_as_it_was(p, pad):
    # An input already reduced mod p is not reduced again, and no kernel
    # function writes to it, returns it, or marks it read-only.
    rng = np.random.default_rng(p % 1000)
    a = np.vstack([rng.integers(0, p, size=(6, 4)), np.zeros((pad, 4), dtype=np.int64)])
    a[:, 0] = a[:, 1]
    unit = np.vstack([np.eye(4, dtype=np.int64), rng.integers(0, p, size=(pad + 2, 4))])
    b = matmul_mod(unit, rng.integers(0, p, size=(4, 3)), p)
    inputs = (a, unit, b)
    before = [x.copy() for x in inputs]
    L = LinearInstance(p)
    outputs = [
        rref(a, p)[0],
        mat_rank(a, p),
        solve(a, b, p),
        solve(unit, b, p),
        matmul_mod(a, a.T, p),
        L.hor_matrix(L.hor(L.obj(4), L.obj(pad + 6), unit)),
        L.ver_matrix(L.ver(L.obj(3), L.obj(pad + 6), b.T)),
    ]
    for x, old in zip(inputs, before):
        assert x.flags.writeable and np.array_equal(x, old)
        for out in outputs:
            assert not (isinstance(out, np.ndarray) and np.shares_memory(out, x))


# ---------------------------------------------------------------------------
# The prime-field instance.
# ---------------------------------------------------------------------------


def test_large_prime_field_constructs_quickly():
    start = time.perf_counter()
    assert LinearInstance(2**61 - 1).prime == 2**61 - 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "n",
    [
        0,
        1,
        4,
        561,
        1518500213 * 1518500279,  # two primes near 2^30.5, product near 2^61
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
    ],
)
def test_composite_field_order_is_rejected(n):
    with pytest.raises(ValidationError, match=f"field order must be prime, got {n}"):
        LinearInstance(n)


def test_field_order_beyond_int64_is_rejected():
    # 2^63 + 29 is prime, but entries are stored as int64.
    with pytest.raises(ValidationError, match="below 2\\^63"):
        LinearInstance(2**63 + 29)


def test_objects_and_labels():
    L = LinearInstance(p=2)
    V = L.obj(3)
    assert V.dim == 3 and V.p == 2
    assert L.obj_size(V) == 3
    assert L.obj_label(V) == "F2^3"
    assert L.is_initial(L.obj(0)) and L.initial() == L.obj(0)


def test_hor_ver_matrix_shapes():
    L = LinearInstance(p=2)
    m = L.hor(L.obj(1), L.obj(3), [[1], [0], [1]])
    assert L.hor_matrix(m).shape == (3, 1)
    e = L.ver(L.obj(1), L.obj(3), [[1, 0, 1]])
    assert L.ver_matrix(e).shape == (1, 3)
    assert not L.validate_hor(m) and not L.validate_ver(e)


def test_validate_rejects_rank_deficiency():
    L = LinearInstance(p=2)
    not_mono = L.hor(L.obj(2), L.obj(2), [[1, 1], [1, 1]])
    assert L.validate_hor(not_mono)
    not_epi = L.ver(L.obj(2), L.obj(2), [[1, 1], [1, 1]])
    assert L.validate_ver(not_epi)


def test_complement_round_trip_linear():
    L = LinearInstance(p=3)
    m = L.hor(L.obj(1), L.obj(3), [[1], [2], [0]])
    c_obj, cleg = L.coker(m)
    assert c_obj.dim == 2
    assert L.is_complement_pair(m, cleg)
    k_obj, kleg = L.ker(cleg)
    assert k_obj.dim == 1
    # The recovered kernel spans the same line as the original mono.
    a = L.hor_matrix(m)
    b = L.hor_matrix(kleg)
    assert mat_rank(np.concatenate([a, b], axis=1), 3) == 1


def test_compose_and_errors():
    L = LinearInstance(p=2)
    f = L.hor(L.obj(1), L.obj(2), [[1], [1]])
    g = L.hor(L.obj(2), L.obj(3), [[1, 0], [0, 1], [1, 1]])
    gf = L.compose_hor(f, g)
    assert L.hor_matrix(gf).tolist() == [[1], [1], [0]]
    with pytest.raises(CompositionError):
        L.compose_hor(g, f)
    through = L.hor(L.obj(1), L.obj(2), [[0], [1]])
    with pytest.raises(FactorizationError):
        L.factor_hor(f, through)


def test_factor_hor_linear():
    L = LinearInstance(p=2)
    amb = L.obj(3)
    f = L.hor(L.obj(1), amb, [[1], [1], [0]])
    through = L.hor(L.obj(2), amb, [[1, 0], [0, 1], [0, 0]])
    lifted = L.factor_hor(f, through)
    assert np.array_equal(
        np.mod(L.hor_matrix(through) @ L.hor_matrix(lifted), 2), L.hor_matrix(f)
    )


def test_classify_mixed_linear():
    L = LinearInstance(p=2)
    amb = L.obj(2)
    m = L.hor(L.obj(1), amb, [[1], [0]])
    _, e = L.coker(m)
    sq = L.mixed_pullback(m, e)
    assert sq.corner.dim == 0
    cls = L.classify_mixed(sq.to_epi_source, sq.to_mono_source, sq.epi, sq.mono)
    assert cls is SquareClass.CARTESIAN
    # Zero corner over a complement pair is exactly the canonical pullback.
    zero_top = L.zero_hor(e.source)
    zero_left = L.zero_ver(m.source)
    assert L.classify_mixed(zero_top, zero_left, e, m) is SquareClass.CARTESIAN
    # A commuting square whose legs are genuinely mono / epi always carries
    # the image factorization of the composite, hence is cartesian.
    skew = L.ver(L.obj(1), amb, [[1, 1]])
    assert L.mixed_pullback(m, skew).corner.dim == 1
    one = L.obj(1)
    cls2 = L.classify_mixed(
        L.hor(one, one, [[1]]), L.ver(one, one, [[1]]), skew, m
    )
    assert cls2 is SquareClass.CARTESIAN
    # And a non-commuting one is rejected outright.
    cls3 = L.classify_mixed(zero_top, zero_left, skew, m)
    assert cls3 is SquareClass.NOT_SQUARE


def test_mixed_pullback_dimension_formula():
    # Two transverse planes in F2^3 meet in a line.
    L = LinearInstance(p=2)
    amb = L.obj(3)
    m = L.hor(L.obj(2), amb, [[1, 0], [0, 1], [0, 0]])
    e = L.ver(L.obj(2), amb, [[0, 1, 0], [0, 0, 1]])
    sq = L.mixed_pullback(m, e)
    # dim corner = dim m-source + dim of e-section image meet, here 1.
    assert sq.corner.dim == 1
    assert not L.validate_hor(sq.to_epi_source)
    assert not L.validate_ver(sq.to_mono_source)


#: the primes of the classification properties: 2, a small odd prime, the
#: largest with one float64 product, and one whose products need limbs
CLASSIFY_PRIMES = (2, 7, 65521, 2**31 - 1)


def _cospan_squares(L, rng):
    """A random mono/epi cospan's pullback square with its corner
    conjugated by a random invertible matrix, and the same square with
    one entry of its top or left leg changed, when that leg stays valid."""
    p = L.p
    a, b, extra = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
    c = max(a, b) + extra
    mono = L.hor(L.obj(a), L.obj(c), rand_gl(rng, c, p)[:, :a])
    epi = L.ver(L.obj(b), L.obj(c), rand_gl(rng, c, p)[:b])
    sq = L.mixed_pullback(mono, epi)
    g = rand_gl(rng, sq.corner.dim, p)
    top = L.hor(sq.corner, epi.source, matmul_mod(L.hor_matrix(sq.to_epi_source), g, p))
    g_inv = solve(g, np.eye(len(g), dtype=np.int64), p)
    left = L.ver(sq.corner, mono.source, matmul_mod(g_inv, L.ver_matrix(sq.to_mono_source), p))
    squares = [(top, left, epi, mono)]
    leg = rng.choice(("top", "left"))
    matrix = np.array(L.hor_matrix(top) if leg == "top" else L.ver_matrix(left))
    if matrix.size:
        i, j = rng.randrange(matrix.shape[0]), rng.randrange(matrix.shape[1])
        matrix[i, j] = (matrix[i, j] + rng.randrange(1, p)) % p
        if leg == "top":
            top = L.hor(top.source, top.target, matrix)
        else:
            left = L.ver(left.source, left.target, matrix)
        if not (L.validate_hor(top) or L.validate_ver(left)):
            squares.append((top, left, epi, mono))
    return squares


def _chain_mor_squares(L, seed):
    """The distinguished squares of a generated horizontal and vertical
    chain morphism over ``L``, at each transition degree."""
    cfg = GenConfig(seed=seed, instance="linear", prime=L.p)
    f, g = gen_hor_mor(cfg), gen_ver_mor(cfg)
    squares = []
    for i in f.source.transition_degrees():
        tx, ty = f.source.transition(i), f.target.transition(i)
        squares.append((f.bar_level(i), tx.into_upper, ty.into_upper, f.level(i)))
    for i in g.source.transition_degrees():
        tx, ty = g.source.transition(i), g.target.transition(i)
        squares.append((tx.into_lower, g.bar_level(i), g.level(i - 1), ty.into_lower))
    return squares


@pytest.mark.parametrize("p", CLASSIFY_PRIMES)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_classify_mixed_agrees_with_the_pullback_comparison(p, seed):
    # A commuting square of a mono top and an epi left leg is an epi-mono
    # factorization of its diagonal, so it is the canonical pullback up to
    # one isomorphism: comparing with that pullback finds it Cartesian.
    L = LinearInstance(p)
    rng = random.Random(seed)
    cospan = _cospan_squares(L, rng)
    assert L.classify_mixed(*cospan[0]) is SquareClass.CARTESIAN
    generated = _chain_mor_squares(L, seed)
    for square in cospan + generated:
        assert L.classify_mixed(*square) is classify_mixed_via_pullback(L, *square)
    # Every morphism here is valid, and so are two invertible ones.
    n = L.obj(rng.randint(0, 4))
    gl = [L.hor(n, n, rand_gl(rng, n.dim, p)), L.ver(n, n, rand_gl(rng, n.dim, p))]
    for f in gl + [f for square in cospan + generated for f in square]:
        assert L.is_iso_hor(f) == L.is_iso_ver(f) == is_iso_by_rank(L, f)
    assert all(map(L.is_iso_hor, gl))


def _perturbed(L, f, rng):
    """``f`` with one entry changed, or None when it has no entry or the
    change leaves it invalid."""
    matrix = np.array(L.hor_matrix(f) if isinstance(f, HorMor) else L.ver_matrix(f))
    if not matrix.size:
        return None
    i, j = rng.randrange(matrix.shape[0]), rng.randrange(matrix.shape[1])
    matrix[i, j] = (matrix[i, j] + rng.randrange(1, L.p)) % L.p
    g = (L.hor if isinstance(f, HorMor) else L.ver)(f.source, f.target, matrix)
    return None if L.validate_hor(g) else g


def _complement_pairs(L, rng):
    """A random mono with its ``coker`` leg and a random epi with its
    ``ker`` leg (complement pairs), the mono and epi together, a pair
    whose sizes add up over different targets, and the two complement
    pairs with one entry of a leg changed where it stays valid."""
    p, c = L.p, rng.randint(0, 5)
    a, b = rng.randint(0, c), rng.randint(0, c)
    mono = L.hor(L.obj(a), L.obj(c), rand_gl(rng, c, p)[:, :a])
    epi = L.ver(L.obj(b), L.obj(c), rand_gl(rng, c, p)[:b])
    elsewhere = L.ver(L.obj(c - a), L.obj(c + 1), rand_gl(rng, c + 1, p)[: c - a])
    pairs = [(mono, L.coker(mono)[1]), (L.ker(epi)[1], epi), (mono, epi), (mono, elsewhere)]
    for m, e in pairs[:2]:
        bad_m, bad_e = _perturbed(L, m, rng), _perturbed(L, e, rng)
        if bad_m is not None:
            pairs.append((bad_m, e))
        if bad_e is not None:
            pairs.append((m, bad_e))
    return pairs


def _commuting_squares(L, seed):
    """The commuting one-flavour squares of a generated horizontal and
    vertical chain morphism over ``L``, at each transition degree, as the
    chain morphism validators pass them."""
    cfg = GenConfig(seed=seed, instance="linear", prime=L.p)
    f, g = gen_hor_mor(cfg), gen_ver_mor(cfg)
    squares = []
    for i in f.source.transition_degrees():
        tx, ty = f.source.transition(i), f.target.transition(i)
        squares.append((tx.into_lower, f.bar_level(i), f.level(i - 1), ty.into_lower))
    for i in g.source.transition_degrees():
        tx, ty = g.source.transition(i), g.target.transition(i)
        squares.append((tx.into_upper, g.bar_level(i), g.level(i), ty.into_upper))
    return squares


@pytest.mark.parametrize("p", CLASSIFY_PRIMES)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_derived_checks_agree_with_the_product_references(p, seed):
    # The core checks compare sizes, classify a square and compare
    # composite morphisms; the references multiply matrices.
    L = LinearInstance(p)
    rng = random.Random(seed)
    pairs = _complement_pairs(L, rng)
    assert L.is_complement_pair(*pairs[0]) and L.is_complement_pair(*pairs[1])
    for m, e in pairs:
        assert L.is_complement_pair(m, e) == is_complement_pair_by_product(L, m, e)
    squares = _commuting_squares(L, seed)
    assert all(L.hor_square_commutes(*square) for square in squares)
    for square in squares:
        top = _perturbed(L, square[0], rng)
        for sq in [square] + ([(top, *square[1:])] if top is not None else []):
            got = L.hor_square_commutes(*sq)
            assert got == L.ver_square_commutes(*sq) == square_commutes_by_products(L, *sq)


@pytest.mark.parametrize("p", CLASSIFY_PRIMES)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_meets_trivially_is_an_initial_pullback_corner(p, seed):
    # In a random basis g of the target, a mono spanning columns T of g and
    # an epi reading rows S of g^-1, each in a random basis of its own,
    # meet trivially exactly when S and T are disjoint.
    L = LinearInstance(p)
    rng = random.Random(seed)
    c = rng.randint(0, 5)
    g = rand_gl(rng, c, p)
    g_inv = solve(g, np.eye(c, dtype=np.int64), p)
    cols, rows = rng.sample(range(c), rng.randint(0, c)), rng.sample(range(c), rng.randint(0, c))
    mono_matrix = matmul_mod(g[:, cols], rand_gl(rng, len(cols), p), p)
    epi_matrix = matmul_mod(rand_gl(rng, len(rows), p), g_inv[rows], p)
    mono = L.hor(L.obj(len(cols)), L.obj(c), mono_matrix)
    epi = L.ver(L.obj(len(rows)), L.obj(c), epi_matrix)
    got = L.meets_trivially(mono, epi)
    assert got == L.is_initial(L.mixed_pullback(mono, epi).corner)
    assert got == set(rows).isdisjoint(cols)


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_homology_complex_agrees_with_greedy_basis_extension(p):
    L = LinearInstance(p)
    for seed in range(25):
        cx, _ = gen_complex(GenConfig(seed=seed, max_size=12, instance="linear", prime=p))
        _, hor, ver = homology_complex(cx)
        for i in cx.degrees():
            boundaries = cx.transition(i + 1).into_lower
            h_section, projection = homology_embedding_greedy(L, homology(cx, i), boundaries)
            assert np.array_equal(L.hor_matrix(hor.level(i)), h_section)
            assert np.array_equal(L.ver_matrix(ver.level(i)), projection)


def _payload(rows) -> _Matrix:
    """The payload of an ``F_p`` morphism storing ``rows`` as they are."""
    return _Matrix(np.array(rows, dtype=np.int64))


@pytest.mark.parametrize(
    "data,problem",
    [
        (_payload([[1, 0], [0, 1]]), None),
        (_payload([[1, 0], [0, -1]]), "matrix entry out of F7: -1"),
        (_payload([[1, 0], [0, 7]]), "matrix entry out of F7: 7"),
        (_payload([[1, 0], [0, 2**62]]), "matrix entry out of F7: 4611686018427387904"),
        (_payload([[1, 0], [0, -(2**63)]]), "matrix entry out of F7: -9223372036854775808"),
        (_payload([[7, 0], [0, -1]]), "matrix entry out of F7: 7"),
        (_payload([[1], [0]]), "matrix rows must have 2 entries, got (1,)"),
        (_payload([[1, 0, 0], [0, 1, 0]]), "matrix rows must have 2 entries, got (1, 0, 0)"),
        (_payload([[1, 0]]), "matrix must have 2 rows, got ((1, 0),)"),
        (_payload([[1, 0], [1, 0]]), "horizontal matrix is not injective"),
        # row tuples are not a payload
        (((1, 0), (0, 1)), "payload is not a matrix: ((1, 0), (0, 1))"),
        (None, "payload is not a matrix: None"),
    ],
)
def test_stored_matrix_entries_are_checked(data, problem):
    L = LinearInstance(p=7)
    two = L.obj(2)
    assert L.validate_hor(HorMor(two, two, data)) == ([problem] if problem else [])


def test_a_matrix_with_no_rows_is_checked_by_its_shape():
    L = LinearInstance(p=7)
    none, two = L.obj(0), L.obj(2)
    assert L.validate_ver(L.ver(none, two, np.zeros((0, 2), np.int64))) == []
    wide = VerMor(none, two, _payload(np.zeros((0, 3))))
    assert L.validate_ver(wide) == ["matrix must be 0x2, got ()"]
    with pytest.raises(ValidationError, match=r"matrix must be 0x2, got \(\)"):
        L.ver_matrix(wide)


def test_a_morphism_holds_its_matrix_as_one_read_only_array():
    L = LinearInstance(p=7)
    m = L.hor(L.obj(2), L.obj(3), [[1, 0], [0, 8], [3, -4]])
    arr = m.data.array
    assert L.hor_matrix(m) is arr and arr.tolist() == [[1, 0], [0, 1], [3, 3]]
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0] = 5
    _, leg = L.coker(m)
    assert isinstance(leg, VerMor) and L.ver_matrix(leg) is leg.data.array
    # reading and checking a morphism keeps nothing beside its fields
    assert L.validate_hor(m) == [] and L.validate_ver(leg) == []
    for mor in (m, leg):
        assert set(vars(mor)) == {"source", "target", "data"}
        twin = type(mor)(mor.source, mor.target, _payload(mor.data.array))
        assert mor == twin and twin == mor
        assert (hash(mor), repr(mor)) == (hash(twin), repr(twin))
        assert pickle.dumps(mor) == pickle.dumps(twin)
        for copied in (pickle.loads(pickle.dumps(mor)), copy.copy(mor), copy.deepcopy(mor)):
            assert not copied.data.array.flags.writeable
            assert copied == mor and L.validate_hor(copied) == []
            assert L.coker(copied) == L.coker(twin)


def test_a_read_matrix_of_another_shape_is_refused():
    # Reading checks the stored shape of legs and levels alike, with the
    # text the matrix readers give.
    L = LinearInstance(p=7)
    none, one, two = L.obj(0), L.obj(1), L.obj(2)
    with pytest.raises(ValidationError, match=r"^matrix must be 2x2, got \(\(1, 0\),\)$"):
        L.mor_from_text(HorMor, two, two, "[[1, 0]]")
    with pytest.raises(ValidationError, match=r"^matrix must be 1x2, got \(\(1, 0, 0\),\)$"):
        L.mor_from_text(VerMor, one, two, "[[1, 0, 0]]", leg=True)
    assert L.mor_text(L.mor_from_text(HorMor, two, two, "[[8, 0], [0, 1]]")) == "[[1, 0], [0, 1]]"
    assert L.mor_text(L.zero_hor(two)) == "[[], []]" and L.mor_text(L.zero_ver(two)) == "[]"
    # ``[]`` is a matrix with no rows, whatever its flavour
    assert L.mor_from_text(VerMor, none, two, "[]") == L.zero_ver(two)
    with pytest.raises(ValidationError, match=r"^matrix must be 2x0, got \(\)$"):
        L.mor_from_text(HorMor, none, two, "[]")


def _matrix_outcome(matrix, f):
    try:
        return matrix(f).tolist()
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "mor_type,data,matrix,problem",
    [
        (HorMor, [[1]], "matrix must be 2x1, got ((1,),)", "matrix must have 2 rows, got ((1,),)"),
        (
            HorMor,
            [[1, 0], [0, 1]],
            "matrix must be 2x1, got ((1, 0), (0, 1))",
            "matrix rows must have 1 entries, got (1, 0)",
        ),
        (HorMor, [[1, 0]], "matrix must be 2x1, got ((1, 0),)", "matrix must have 2 rows, got ((1, 0),)"),
        (
            VerMor,
            [[1], [0]],
            "matrix must be 1x2, got ((1,), (0,))",
            "matrix must have 1 rows, got ((1,), (0,))",
        ),
        (HorMor, [[1], [0]], [[1], [0]], None),
        (VerMor, [[1, 0]], [[1, 0]], None),
        (
            VerMor,
            np.zeros((2, 0)),
            "matrix must be 1x2, got ((), ())",
            "matrix must have 1 rows, got ((), ())",
        ),
    ],
)
def test_a_hand_built_matrix_of_another_shape_is_refused(mor_type, data, matrix, problem):
    # a matrix whose entries would fit its shape is not reshaped
    L = LinearInstance(p=7)
    f = mor_type(L.obj(1), L.obj(2), _payload(data))
    read = L.hor_matrix if mor_type is HorMor else L.ver_matrix
    assert _matrix_outcome(read, f) == matrix
    assert L.validate_hor(f) == ([problem] if problem else [])


#: the primes the payload properties run at: 2^32 - 5 has entries whose
#: products pass int64
PAYLOAD_PRIMES = (2, 65521, 2**31 - 1, 2**32 - 5)


@st.composite
def linear_morphism(draw):
    """A prime, and a morphism over it of either flavour between spaces of
    dimension 0 to 4, whose matrix is any matrix of its shape."""
    L = LinearInstance(draw(st.sampled_from(PAYLOAD_PRIMES)))
    mor_type = draw(st.sampled_from((HorMor, VerMor)))
    source, target = (L.obj(draw(st.integers(0, 4))) for _ in range(2))
    rows, cols = (target.dim, source.dim) if mor_type is HorMor else (source.dim, target.dim)
    entries = draw(st.lists(st.integers(0, L.p - 1), min_size=rows * cols, max_size=rows * cols))
    arr = np.array(entries, dtype=np.int64).reshape(rows, cols)
    build = L.hor if mor_type is HorMor else L.ver
    return L, build(source, target, arr)


@settings(deadline=None, max_examples=150)
@given(linear_morphism())
def test_a_payload_round_trips_hashes_and_prints_as_its_rows(drawn):
    L, f = drawn
    rows = tuple(map(tuple, f.data.array.tolist()))
    assert L.mor_from_text(type(f), f.source, f.target, L.mor_text(f)) == f
    assert L.mor_text(f) == json.dumps(rows)
    assert repr(f) == f"{type(f).__name__}(source={f.source!r}, target={f.target!r}, data={rows!r})"
    # equal payloads hash equal, whatever the memory layout of the array
    twin = type(f)(f.source, f.target, _Matrix(np.asfortranarray(f.data.array)))
    assert twin == f and hash(twin) == hash(f) and hash(twin.data) == hash(f.data)
    for copied in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert copied == f and hash(copied) == hash(f)
        assert not copied.data.array.flags.writeable


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(PAYLOAD_PRIMES), st.integers(0, 4), st.data())
def test_equal_bytes_in_other_shapes_are_other_payloads(p, k, data):
    empty = [_payload(np.zeros(shape)) for shape in ((0, k), (k, 0))]
    four = data.draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4))
    square = [_payload(np.reshape(four, shape)) for shape in ((1, 4), (4, 1), (2, 2))]
    for payloads in (empty, square):
        assert len({a.array.tobytes() for a in payloads}) == 1
        for a in payloads:
            for b in payloads:
                assert (a == b) == (a.array.shape == b.array.shape)
    # with k = 0 both empty shapes are 0 x 0
    assert len(set(empty)) == (2 if k else 1) and len(set(square)) == 3


# ---------------------------------------------------------------------------
# The merged primitives against the section-and-product routes.
# ---------------------------------------------------------------------------

#: small primes, and primes whose products leave float64 and int64
MIRROR_PRIMES = (2, 3, 65521, 2**31 - 1)


def _invertible(draw, n, p):
    """A random invertible ``n x n`` matrix mod p: a unit lower triangle
    times an upper triangle with a nonzero diagonal."""
    entry = st.integers(0, p - 1)
    lower = np.eye(n, dtype=np.int64)
    upper = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if j < i:
                lower[i, j] = draw(entry)
            elif j > i:
                upper[i, j] = draw(entry)
        upper[i, i] = draw(st.integers(1, p - 1))
    return matmul_mod(lower, upper, p)


def _mono(draw, rows, cols, p):
    """A random full-column-rank ``rows x cols`` matrix (``cols <= rows``)."""
    return _invertible(draw, rows, p)[:, :cols]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FactorizationError as exc:
        return str(exc)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(MIRROR_PRIMES), st.data())
def test_factor_ver_agrees_with_the_section_route(p, data):
    L = LinearInstance(p)
    c = data.draw(st.integers(0, 4))
    b = data.draw(st.integers(0, c))
    through = L.ver(L.obj(b), L.obj(c), _mono(data.draw, c, b, p).T)
    if data.draw(st.booleans()):
        # f = h . through factors
        a = data.draw(st.integers(0, b))
        h = L.ver(L.obj(a), L.obj(b), _mono(data.draw, b, a, p).T)
        f = L.compose_ver(h, through)
    else:
        a = data.draw(st.integers(0, c))
        f = L.ver(L.obj(a), L.obj(c), _mono(data.draw, c, a, p).T)
    assert not L.validate_ver(f) and not L.validate_ver(through)
    assert _outcome(L.factor_ver, f, through) == _outcome(
        factor_ver_via_section, L, f, through
    )


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(MIRROR_PRIMES), st.data())
def test_hor_between_cokers_agrees_with_the_section_route(p, data):
    L = LinearInstance(p)
    q = data.draw(st.integers(0, 4))
    pdim = data.draw(st.integers(0, q))
    m = _mono(data.draw, q, pdim, p)
    kp = _mono(data.draw, pdim, data.draw(st.integers(0, pdim)), p)
    if data.draw(st.booleans()):
        # the image of kp under m, plus random columns: m descends
        spanned = np.hstack([matmul_mod(m, kp, p), _invertible(data.draw, q, p)])
        kq = colbasis(spanned[:, : data.draw(st.integers(kp.shape[1], q + kp.shape[1]))], p)
    else:
        kq = _mono(data.draw, q, data.draw(st.integers(0, q)), p)
    P, Q = L.obj(pdim), L.obj(q)
    mor = L.hor(P, Q, m)
    _, cp = L.coker(L.hor(L.obj(kp.shape[1]), P, kp))
    _, cq = L.coker(L.hor(L.obj(kq.shape[1]), Q, kq))
    assert _outcome(L.hor_between_cokers, mor, cp, cq) == _outcome(
        hor_between_cokers_via_section, L, mor, cp, cq
    )
