"""Exact linear algebra over the base field.

One pivoting rule (topmost row, leftmost column) serves a single matrix.
PLUQ backs nullspace, system solving and determinant; callers that read
only the rank and the rank profiles take :func:`rank_profile`, which makes
the same pivot choices without inverting anything or keeping L and U.
Both protocol parties use these routines: the Prover to find witnesses,
the Verifier only for the evaluated checks it is allowed to do anyway.

The Prover also asks one question of A(alpha) at many points alpha.  For
that, the batched kernels :func:`solve_many`, :func:`rank_profile_many` and
:func:`vecmat_many` take a ``(k, m, n)`` numpy array, one matrix per point
(as :meth:`PolyMat.eval_many` returns it), and eliminate all k matrices
together: each step is one vectorised operation over the whole batch.  The
eliminations are division-free, so a batch costs at most one exponentiation:
the solve inverts all its diagonal entries and pivot products at the end
with :meth:`PrimeField.inv_array` (Montgomery's trick over a product tree),
and the rank needs no inverse at all.  Arrays have
:attr:`PrimeField.dtype`, so the arithmetic is exact for every supported
modulus.  A batch has a fixed numpy cost, so the oracles take it only on
the batched route of ``oracles.elimination_plan``: small blocks at few points
are eliminated fraction-free over F[x] instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ff import PrimeField


class FieldMat:
    """Dense m x n matrix over a prime field; entries are reduced ints."""

    __slots__ = ("field", "m", "n", "rows")

    def __init__(self, field: PrimeField, rows, ncols: int | None = None,
                 normalize: bool = True):
        rows = [list(r) for r in rows]
        self.field = field
        self.m = len(rows)
        self.n = len(rows[0]) if rows else (ncols or 0)
        for r in rows:
            if len(r) != self.n:
                raise ValueError("ragged rows in matrix")
        if normalize:
            p = field.p
            rows = [[c % p for c in r] for r in rows]
        self.rows = rows

    @classmethod
    def of_rows(cls, field: PrimeField, rows: list, ncols: int) -> "FieldMat":
        """The matrix that owns ``rows``: lists of ncols reduced ints that
        the caller has just built and shares with no one, so they are
        neither copied nor checked."""
        out = cls.__new__(cls)
        out.field = field
        out.m = len(rows)
        out.n = ncols
        out.rows = rows
        return out

    @classmethod
    def zero(cls, field, m, n):
        return cls.of_rows(field, [[0] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, field, n):
        return cls.of_rows(
            field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMat)
            and self.field.p == other.field.p
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"FieldMat({self.m}x{self.n} mod {self.field.p})"

    def copy_rows(self):
        return [list(r) for r in self.rows]

    def transpose(self) -> "FieldMat":
        cols = [[row[j] for row in self.rows] for j in range(self.n)]
        return FieldMat.of_rows(self.field, cols, self.m)

    def submatrix(self, row_idx, col_idx) -> "FieldMat":
        col_idx = list(col_idx)
        return FieldMat.of_rows(
            self.field, [[self.rows[i][j] for j in col_idx] for i in row_idx],
            len(col_idx))

    def matvec(self, v: list) -> list:
        """A @ v for a length-n vector."""
        if len(v) != self.n:
            raise ValueError("dimension mismatch in matvec")
        p = self.field.p
        return [sum(a * b for a, b in zip(row, v)) % p for row in self.rows]

    def vecmat(self, v: list) -> list:
        """v @ A for a length-m vector."""
        if len(v) != self.m:
            raise ValueError("dimension mismatch in vecmat")
        p = self.field.p
        out = [0] * self.n
        for vi, row in zip(v, self.rows):
            if vi:
                for j, a in enumerate(row):
                    out[j] += vi * a
        return [c % p for c in out]


@dataclass
class PluqFactorization:
    """A = P . L . U . Q with L unit lower m x r, U upper r x n.

    ``perm_rows[i]`` is the source row of elimination row i (P maps e_i to
    e_perm_rows[i]); ``perm_cols[j]`` is the source column at elimination
    position j.  ``perm_cols[:rank]`` is the column rank profile, already in
    increasing order because pivots are taken leftmost-first.
    """

    field: PrimeField
    m: int
    n: int
    rank: int
    perm_rows: list
    perm_cols: list
    lower: FieldMat  # m x r, unit diagonal
    upper: FieldMat  # r x n, nonzero diagonal
    inv_pivots: list  # inv_pivots[i] = 1 / upper[i][i], kept from elimination

    def det(self) -> int:
        if self.m != self.n:
            raise ValueError("determinant of a non-square factorization")
        if self.rank < self.n:
            return 0
        p = self.field.p
        d = 1
        for i in range(self.rank):
            d = d * self.upper.rows[i][i] % p
        if perm_sign(self.perm_rows) * perm_sign(self.perm_cols) < 0:
            d = (p - d) % p
        return d


def perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def is_permutation(seq, n: int) -> bool:
    return len(seq) == n and sorted(seq) == list(range(n))


def pluq(mat: FieldMat) -> PluqFactorization:
    """Exact PLUQ factorization.

    Pivots are chosen greedily: columns examined in original order, first
    nonzero row from the top.  Columns left of position ``rank`` hold the
    elimination multipliers (the strict part of L); the live region of row i
    is columns >= current rank.
    """
    field = mat.field
    p = field.p
    m, n = mat.m, mat.n
    a = mat.copy_rows()
    perm_rows = list(range(m))
    perm_cols = list(range(n))
    inv_pivots = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        pos = None
        for i in range(r, m):
            if a[i][col] != 0:
                pos = i
                break
        if pos is None:
            continue
        if pos != r:
            a[pos], a[r] = a[r], a[pos]
            perm_rows[pos], perm_rows[r] = perm_rows[r], perm_rows[pos]
        piv = a[r][col]
        inv_piv = field.inv(piv)
        inv_pivots.append(inv_piv)
        live = a[r][r:]
        for i in range(r + 1, m):
            row_i = a[i]
            c = row_i[col]
            if c:
                f = c * inv_piv % p
                row_i[r:] = [(x - f * y) % p for x, y in zip(row_i[r:], live)]
                row_i[col] = f  # keep the multiplier in the eliminated slot
        if col != r:
            for i in range(m):
                a[i][r], a[i][col] = a[i][col], a[i][r]
            perm_cols[r], perm_cols[col] = perm_cols[col], perm_cols[r]
        r += 1
    lower = [[0] * r for _ in range(m)]
    upper = [[0] * n for _ in range(r)]
    for i in range(m):
        for k in range(min(i, r)):
            lower[i][k] = a[i][k]
        if i < r:
            lower[i][i] = 1
            for j in range(i, n):
                upper[i][j] = a[i][j]
    return PluqFactorization(
        field, m, n, r, perm_rows, perm_cols,
        FieldMat.of_rows(field, lower, r),
        FieldMat.of_rows(field, upper, n),
        inv_pivots,
    )


def rank_profile(mat: FieldMat):
    """(rank, pivot rows, pivot columns) of A, with exactly :func:`pluq`'s
    pivots: ``(f.rank, f.perm_rows[:f.rank], f.perm_cols[:f.rank])`` for
    ``f = pluq(A)``.

    The same row swaps pick the same pivots, but the elimination keeps no
    L or U and inverts nothing: each row below the pivot becomes
    ``piv * row - c * pivot_row``, a nonzero multiple of what :func:`pluq` leaves
    there, so every later pivot search sees the same zeros.  The pivot
    columns come out in increasing order: they are the column rank profile.
    """
    p = mat.field.p
    m, n = mat.m, mat.n
    a = mat.copy_rows()
    perm_rows = list(range(m))
    cols = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        pos = None
        for i in range(r, m):
            if a[i][col] != 0:
                pos = i
                break
        if pos is None:
            continue
        if pos != r:
            a[pos], a[r] = a[r], a[pos]
            perm_rows[pos], perm_rows[r] = perm_rows[r], perm_rows[pos]
        piv = a[r][col]
        live = a[r][col + 1:]
        for i in range(r + 1, m):
            row_i = a[i]
            c = row_i[col]
            if c:
                row_i[col + 1:] = [(piv * x - c * y) % p
                                   for x, y in zip(row_i[col + 1:], live)]
        cols.append(col)
        r += 1
    return r, perm_rows[:r], cols


def det_field(mat: FieldMat) -> int:
    if mat.m != mat.n:
        raise ValueError("determinant of a non-square matrix")
    return pluq(mat).det()


def solve_right(mat: FieldMat, b: list):
    """Any w with A w = b, or None if the system is inconsistent."""
    if len(b) != mat.m:
        raise ValueError("dimension mismatch in solve_right")
    return pluq_solve(pluq(mat), b)


def pluq_solve(f: PluqFactorization, b: list):
    """The w of :func:`solve_right` from A's factorization ``f = pluq(A)``.

    Free variables are set to zero, so w is supported on the column rank
    profile ``f.perm_cols[:f.rank]``; None if A w = b is inconsistent.
    """
    if len(b) != f.m:
        raise ValueError("dimension mismatch in pluq_solve")
    p = f.field.p
    r = f.rank
    # forward substitution: L c = P^{-1} b  (unit lower, all m rows)
    pb = [b[f.perm_rows[i]] for i in range(f.m)]
    c = [0] * r
    for i in range(f.m):
        acc = pb[i]
        for k in range(min(i, r)):
            acc -= f.lower.rows[i][k] * c[k]
        acc %= p
        if i < r:
            c[i] = acc
        elif acc != 0:
            return None  # inconsistent
    # back substitution on U (r x n), free variables set to zero
    w_perm = [0] * f.n
    for i in range(r - 1, -1, -1):
        acc = c[i]
        for j in range(i + 1, r):
            acc -= f.upper.rows[i][j] * w_perm[j]
        acc %= p
        w_perm[i] = acc * f.inv_pivots[i] % p
    w = [0] * f.n
    for j in range(f.n):
        w[f.perm_cols[j]] = w_perm[j]
    return w


def right_nullvector(mat: FieldMat):
    """A nonzero w with A w = 0, or None iff A has full column rank.

    For the column j = ``perm_cols[rank]`` outside the rank profile, w is
    the solution of A w = -A e_j on the profile columns (:func:`pluq_solve`)
    with w_j = 1.
    """
    f = pluq(mat)
    if f.rank >= mat.n:
        return None
    p = mat.field.p
    j = f.perm_cols[f.rank]
    w = pluq_solve(f, [-row[j] % p for row in mat.rows])
    w[j] = 1
    return w


def nullvector_left(mat: FieldMat):
    """A nonzero v with v A = 0, or None iff A has full row rank."""
    return right_nullvector(mat.transpose())


def sparse_representative(mat: FieldMat, v: list, rho: int):
    """gamma supported on at most rho rank-profile columns with A gamma = A v.

    Returns None whenever rank(A) > rho; no attempt is made to exploit lucky
    right-hand sides, so outputs are deterministic.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if len(v) != mat.n:
        raise ValueError("dimension mismatch in sparse_representative")
    if rho >= mat.n:
        return list(v)
    f = pluq(mat)
    if f.rank > rho:
        return None
    # A gamma = A v is consistent, and its solution with zero free variables
    # is the one supported on the profile columns
    return pluq_solve(f, mat.matvec(v))


def hamming_weight(v: list) -> int:
    return sum(1 for c in v if c)


# -- batched elimination over many evaluation points ---------------------------


def solve_many(field: PrimeField, aug):
    """Batched Gauss-Jordan on k augmented square systems ``[A_i | b_i]``.

    ``aug`` is a ``(k, n, n+1)`` array.  Returns ``(ok, det, w)``: ``ok[i]``
    says A_i is nonsingular, ``det[i]`` is det(A_i) (0 when singular), and
    where ``ok[i]`` holds, ``w[i]`` is the unique solution of A_i w = b_i.

    Division-free: column j takes each matrix's first nonzero entry at or
    below the diagonal as its pivot and clears the column from every other
    row by ``row_i <- piv * row_i - a_ij * row_j``, scaling the pivot row by
    piv too.  That leaves a diagonal system D w = c with
    det(D) = det(A) * (prod_j piv_j)**n, so a single batched inversion
    (:meth:`PrimeField.inv_array`, one exponentiation) of the diagonal
    entries and of the pivot products yields every w and det(A).  A
    singular matrix runs on with garbage that ``ok`` masks.
    """
    p = field.p
    a = np.array(aug, dtype=field.dtype)
    k, n = a.shape[0], a.shape[1]
    batch = np.arange(k)
    ok = np.ones(k, dtype=bool)
    negate = np.zeros(k, dtype=bool)
    piv_prod = np.ones(k, dtype=a.dtype)
    for j in range(n):
        nz = a[:, j:, j] != 0
        ok &= nz.any(axis=1)
        piv = j + nz.argmax(axis=1)
        swap = piv != j
        if swap.any():
            top = a[batch, j].copy()
            a[batch, j] = a[batch, piv]
            a[batch, piv] = top
            negate ^= swap
        pivots = np.where(ok, a[:, j, j], 1)[:, None, None]
        piv_prod = piv_prod * pivots[:, 0, 0] % p
        f = a[:, :, j, None].copy()
        f[:, j] = 0
        a = (pivots * a - f * a[:, j, None, :]) % p
    diag = np.where(ok[:, None], np.diagonal(a[:, :, :n], axis1=1, axis2=2), 1)
    inv = field.inv_array(np.concatenate([diag.ravel(), piv_prod]))
    inv_diag, inv_prod = inv[:k * n].reshape(k, n), inv[k * n:]
    w = a[:, :, n] * inv_diag % p
    det = np.ones(k, dtype=a.dtype)
    for i in range(n):
        det = det * diag[:, i] % p * inv_prod % p
    det = np.where(ok, np.where(negate, (p - det) % p, det), 0)
    return ok, det, w


def rank_profile_many(field: PrimeField, mats):
    """Rank and column rank profile of each matrix of a ``(k, m, n)`` array.

    Division-free elimination without row swaps: a mask keeps the rows not
    yet used as pivots.  In column j each matrix takes its first free row
    with a nonzero entry as the pivot, clears column j from its other rows
    by ``row_i <- piv * row_i - a_ij * row_piv`` (a nonzero scaling, so the
    free rows keep their span) and retires the pivot row; a column that
    finds no pivot is not in the profile.  Returns ``(rank, profile)``: a
    ``(k,)`` array of ranks and a ``(k, n)`` boolean mask of the pivot
    columns, which is the greedy leftmost (lexicographically smallest)
    independent column set.
    """
    p = field.p
    a = np.array(mats, dtype=field.dtype)
    k, m, n = a.shape
    batch = np.arange(k)
    free = np.ones((k, m), dtype=bool)
    profile = np.zeros((k, n), dtype=bool)
    for j in range(n):
        nz = (a[:, :, j] != 0) & free
        has = nz.any(axis=1)
        if not has.any():
            continue
        profile[:, j] = has
        piv = nz.argmax(axis=1)
        pivots = np.where(has, a[batch, piv, j], 1)[:, None, None]
        f = np.where(nz, a[:, :, j], 0)[:, :, None]
        f[batch, piv] = 0
        prow = a[batch, piv, None, j + 1:]
        a[:, :, j + 1:] = (pivots * a[:, :, j + 1:] - f * prow) % p
        free[batch[has], piv[has]] = False
        if not free.any():
            break
    return profile.sum(axis=1), profile


def vecmat_many(field: PrimeField, w, mats):
    """``w_i @ A_i`` for a ``(k, m)`` array of vectors and ``(k, m, n)``
    matrices, as one exact batched product (:meth:`PrimeField.matmul`)."""
    return field.matmul(w[:, None, :], field.limbs(mats))[:, 0, :]
