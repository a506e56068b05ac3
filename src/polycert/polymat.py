"""Polynomial matrices and the cheap operations both parties may use.

Everything here is "verifier-safe": evaluation at a point, products, row
combinations, transposes, normal-form shape checks, and Toeplitz
compression operators.  The expensive module-level computations (normal
forms, rank over F[x], rational solving) live in :mod:`polycert.oracles`
and are reserved for Provers and test oracles; verifier code must not
import that module.

Matrices with claimed products like C.A (C a Toeplitz operator) are
represented as lazy views that only ever evaluate C.A(alpha) = C @ A(alpha),
so the Verifier never pays for a polynomial matrix product it did not
receive.  Its checks go further and never form C @ A(alpha) either: they
multiply a view by a vector at alpha (``vecmat_at``, ``matvec_at``), which
takes the vector through C and A(alpha) one after the other, in a live run
and an offline re-verification alike.  A :class:`PolyMat` is itself a view.

:meth:`PolyMat.eval_many` is the evaluation part of the Prover's batched
kernel: it evaluates a matrix at k points in one vectorised Horner pass over
its ``(deg+1, m, n)`` coefficient tensor, giving the ``(k, m, n)`` array that
the batched eliminations in :mod:`polycert.matfield` take.  The oracles use
it on the batched route of ``oracles.elimination_plan``; :meth:`PolyMat.eval_at`
stays the single-point path for both parties.  Products run on the same tensor
(:meth:`PolyMat.coeff_tensor`), exactly mod p in 16-bit limbs
(:meth:`PrimeField.matmul`): :meth:`PolyMat.mul` is one batched product per
coefficient of the left factor, and the Prover's Toeplitz compression
:meth:`ToeplitzOp.apply_poly_mat` is one array product.  A product keeps its
tensor (:meth:`PolyMat.from_coeff_tensor`), so evaluating it, as the rational
solve on C.A does, never rebuilds the tensor from its entries.

A row vector q times A, with q over F (the Verifier's random combination
lambda A) or over F[x] (a planted member q A, a residual N A), is
:meth:`PolyMat.vecmat`: one :func:`polycert.upoly.lin_comb` per column,
summed unreduced and reduced once, with no tensor and no numpy call.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .ff import PrimeField
from .matfield import FieldMat
from .upoly import NEG_INF, Poly, _trim, deg_add, lin_comb


class MatView:
    """Interface: m, n, field, deg_bound, eval_at(alpha) -> FieldMat, the
    products vecmat_at(alpha, w) and matvec_at(alpha, w) -> list, and, for
    the Prover only, materialize() -> PolyMat."""

    __slots__ = ()


class PolyMat(MatView):
    """Dense m x n matrix of polynomials over a prime field, and the view of
    itself (:class:`MatView`).

    Treat instances as immutable after construction; the degree is cached
    lazily and everything downstream assumes entries never change.
    """

    __slots__ = ("field", "m", "n", "rows", "_deg", "_coeffs")

    def __init__(self, field: PrimeField, rows, ncols: int | None = None):
        rows = [list(r) for r in rows]
        self.field = field
        self.m = len(rows)
        self.n = len(rows[0]) if rows else (ncols or 0)
        for r in rows:
            if len(r) != self.n:
                raise ValueError("ragged rows in matrix")
        self.rows = rows
        self._deg = None
        self._coeffs = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field, m, n):
        z = Poly.zero(field)
        return cls(field, [[z] * n for _ in range(m)], ncols=n)

    @classmethod
    def identity(cls, field, n):
        z = Poly.zero(field)
        o = Poly.one(field)
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)],
                   ncols=n)

    @classmethod
    def from_coeff_lists(cls, field, entries, ncols: int | None = None):
        """entries[i][j] is a low-to-high coefficient list."""
        return cls(field, [[Poly(field, c) for c in row] for row in entries],
                   ncols=ncols)

    @classmethod
    def from_coeff_tensor(cls, field, t: np.ndarray) -> "PolyMat":
        """The matrix with coefficient tensor t, a ``(d+1, m, n)`` array of
        reduced elements; t, less any all-zero top coefficients, is kept as
        its :meth:`coeff_tensor`."""
        while t.shape[0] > 1 and not t[-1].any():
            t = t[:-1]
        rows = [[Poly(field, _trim(e), normalize=False) for e in row]
                for row in np.moveaxis(t, 0, 2).tolist()]
        mat = cls(field, rows, ncols=t.shape[2])
        mat._coeffs = t
        return mat

    # -- structure -------------------------------------------------------

    @property
    def deg(self):
        """Max entry degree; NEG_INF for a zero or empty matrix.  An entry's
        degree is its coefficient count less one, so the longest list gives it."""
        if self._deg is None:
            longest = max((len(e.coeffs) for row in self.rows for e in row), default=0)
            self._deg = longest - 1 if longest else NEG_INF
        return self._deg

    deg_bound = deg  # a view's degree bound; a PolyMat knows its degree

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMat)
            and self.field.p == other.field.p
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"PolyMat({self.m}x{self.n}, deg {self.deg}, mod {self.field.p})"

    # -- verifier-safe operations -----------------------------------------

    def eval_at(self, alpha: int) -> FieldMat:
        """Entrywise Horner evaluation."""
        return FieldMat.of_rows(
            self.field, [[e(alpha) for e in row] for row in self.rows], self.n)

    def vecmat_at(self, alpha: int, w: list) -> list:
        """w A(alpha), evaluating only the rows that w does not zero."""
        if len(w) != self.m:
            raise ValueError("dimension mismatch in vecmat")
        out = [0] * self.n
        for c, row in zip(w, self.rows):
            if c:
                out = [o + c * e(alpha) for o, e in zip(out, row)]
        p = self.field.p
        return [o % p for o in out]

    def matvec_at(self, alpha: int, w: list) -> list:
        """A(alpha) w, evaluating only the columns that w does not zero."""
        if len(w) != self.n:
            raise ValueError("dimension mismatch in matvec")
        support = [(j, c) for j, c in enumerate(w) if c]
        p = self.field.p
        return [sum(row[j](alpha) * c for j, c in support) % p for row in self.rows]

    def materialize(self) -> "PolyMat":
        return self

    def eval_many(self, alphas) -> np.ndarray:
        """A(alpha) for every alpha: a (k, m, n) array from one Horner pass.

        Each Horner step is a single vectorised multiply-add over all k
        points and the whole ``(deg+1, m, n)`` coefficient tensor (built on
        the first call and kept); the result has ``field.dtype`` and agrees
        entrywise with :meth:`eval_at`.
        """
        p = self.field.p
        t = self.coeff_tensor()
        x = np.asarray(alphas, dtype=self.field.dtype).reshape(-1, 1, 1) % p
        acc = np.repeat(t[-1][None], x.shape[0], axis=0)
        for c in t[-2::-1]:
            acc = (acc * x + c) % p
        return acc

    def coeff_tensor(self) -> np.ndarray:
        """The ``(deg+1, m, n)`` array of coefficients, ``t[d]`` holding the
        coefficients of x^d; built on the first call and kept."""
        if self._coeffs is None:
            d = 0 if self.deg == NEG_INF else int(self.deg)
            pad = [[e.coeffs + [0] * (d + 1 - len(e.coeffs)) for e in row]
                   for row in self.rows]
            t = np.array(pad, dtype=self.field.dtype).reshape(self.m, self.n, d + 1)
            self._coeffs = np.ascontiguousarray(np.moveaxis(t, 2, 0))
        return self._coeffs

    def transpose(self) -> "PolyMat":
        cols = [[row[j] for row in self.rows] for j in range(self.n)]
        return PolyMat(self.field, cols, ncols=self.m)

    def submatrix(self, row_idx, col_idx) -> "PolyMat":
        col_idx = list(col_idx)
        return PolyMat(
            self.field,
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            ncols=len(col_idx),
        )

    def stack(self, other: "PolyMat") -> "PolyMat":
        if self.n != other.n:
            raise ValueError("dimension mismatch in stack")
        return PolyMat(self.field, self.rows + other.rows, ncols=self.n)

    def mul(self, other: "PolyMat") -> "PolyMat":
        """A B on the coefficient tensors: for each coefficient A_i, one
        batched product A_i @ t(B) mod p (:meth:`PrimeField.matmul`, exact
        for an inner dimension below 2**16) added into the coefficients
        i, ..., i + deg B of the product.  It needs no evaluation points,
        so it works in every field, and the product keeps its tensor."""
        if self.n != other.m:
            raise ValueError("dimension mismatch in matrix product")
        field = self.field
        p = field.p
        ta = self.coeff_tensor()
        tb = field.limbs(other.coeff_tensor())
        width = tb[0].shape[0]
        acc = np.zeros((ta.shape[0] + width - 1, self.m, other.n), dtype=field.dtype)
        for i, a_i in enumerate(ta):
            if a_i.any():
                acc[i : i + width] = (acc[i : i + width] + field.matmul(a_i, tb)) % p
        return PolyMat.from_coeff_tensor(field, acc)

    def add(self, other: "PolyMat") -> "PolyMat":
        if self.m != other.m or self.n != other.n:
            raise ValueError("dimension mismatch in add")
        return PolyMat(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.n,
        )

    def vecmat(self, q: list) -> list:
        """q A for a row vector q over F (ints) or F[x] (Polys): one
        :func:`~polycert.upoly.lin_comb` per column."""
        if len(q) != self.m:
            raise ValueError("dimension mismatch in vecmat")
        field = self.field
        out = [lin_comb(field, q, col) for col in zip(*self.rows)]
        return out or [Poly.zero(field)] * self.n


# -- normal form shape checks (cheap, deterministic, O(l n) degree reads) ---


@dataclass(frozen=True)
class PivotProfile:
    """Pivot columns (0-based, strictly increasing) and their degrees."""

    indices: tuple
    degrees: tuple


def check_hermite_shape(h: PolyMat):
    """Does H satisfy the Hermite form conditions?

    The Hermite form is the shifted Popov form for a Hermite shift with
    t above every degree of H (:func:`hermite_shift`): the pivot of a row
    is then its last nonzero column, so the Popov conditions read as monic
    pivots, strictly increasing pivot indices (which forces zeros right of
    pivots, and above them) and strictly smaller degrees below each pivot.
    Any zero row fails.  Returns (ok, PivotProfile or None).
    """
    return check_popov_shape(h, hermite_shift(h.n, 1 + max(0, h.deg)))


def shifted_row_degree(row: list, shift: list):
    """max_j (deg(row_j) + shift_j) over nonzero entries; NEG_INF if zero row."""
    best = NEG_INF
    for f, s in zip(row, shift):
        if f.coeffs:
            v = int(f.deg) + s
            if best == NEG_INF or v > best:
                best = v
    return best


def shifted_pivot(row: list, shift: list):
    """Rightmost column attaining the shifted row degree, or None for a zero row."""
    best = shifted_row_degree(row, shift)
    if best == NEG_INF:
        return None
    for j in range(len(row) - 1, -1, -1):
        if row[j].coeffs and int(row[j].deg) + shift[j] == best:
            return j
    return None


def check_popov_shape(mat: PolyMat, shift: list):
    """Does P satisfy the shifted Popov form conditions for this shift?

    The pivot of each row is located as the rightmost column determining the
    shifted row degree; the checks are then monic pivots, strictly increasing
    pivot indices, and strictly smaller degrees above and below each pivot.
    Returns (ok, PivotProfile or None).
    """
    if len(shift) != mat.n:
        raise ValueError("shift length must equal the column dimension")
    indices = []
    degrees = []
    for i in range(mat.m):
        k = shifted_pivot(mat.rows[i], shift)
        if k is None:
            return False, None
        if indices and k <= indices[-1]:
            return False, None
        if mat.rows[i][k].lc() != 1:
            return False, None
        indices.append(k)
        degrees.append(int(mat.rows[i][k].deg))
    for idx, (k, d) in enumerate(zip(indices, degrees)):
        for i2 in range(mat.m):
            if i2 == idx:
                continue
            e = mat.rows[i2][k]
            if not e.is_zero() and e.deg >= d:
                return False, None
    return True, PivotProfile(tuple(indices), tuple(degrees))


def hermite_shift(n: int, t: int) -> list:
    """The shift for which the s-Popov form coincides with the Hermite form.

    Column j (0-based) gets weight (j+1)*t; for t larger than every degree in
    the form, the rightmost-pivot rule then forces the pivot to the last
    nonzero entry of each row, which is exactly the Hermite pivot rule.
    """
    return [(j + 1) * t for j in range(n)]


# -- Toeplitz compression ----------------------------------------------------


class ToeplitzOp:
    """rho x m Toeplitz matrix described by rho + m - 1 field elements.

    C[i][j] = values[i - j + m - 1]; the Verifier applies the operator to
    evaluated matrices or vectors without ever forming a polynomial product.
    The Prover's explicit C.A (:meth:`apply_poly_mat`) is one mod-p product
    over A's coefficient tensor.
    """

    __slots__ = ("field", "rho", "m", "values")

    def __init__(self, field: PrimeField, rho: int, m: int, values):
        values = [v % field.p for v in values]
        if len(values) != rho + m - 1 and not (rho == 0 and not values):
            raise ValueError(
                f"Toeplitz spec needs rho+m-1 = {rho + m - 1} values, got {len(values)}"
            )
        self.field = field
        self.rho = rho
        self.m = m
        self.values = values

    def _rows(self) -> list:
        """The rows of C: row i is values[i : i + m] reversed."""
        rev = self.values[::-1]
        top = self.rho - 1
        return [rev[top - i : top - i + self.m] for i in range(self.rho)]

    def materialize(self) -> FieldMat:
        return FieldMat.of_rows(self.field, self._rows(), self.m)

    def apply_field_mat(self, mat: FieldMat) -> FieldMat:
        """C @ M for an evaluated m x n matrix."""
        if mat.m != self.m:
            raise ValueError("dimension mismatch in Toeplitz application")
        p = self.field.p
        cols = mat.transpose().rows
        return FieldMat.of_rows(
            self.field,
            [[sum(map(mul, crow, col)) % p for col in cols] for crow in self._rows()],
            mat.n)

    def apply_vec(self, y: list) -> list:
        """C @ y for a length-m vector."""
        if len(y) != self.m:
            raise ValueError("dimension mismatch in Toeplitz application")
        p = self.field.p
        return [sum(map(mul, crow, y)) % p for crow in self._rows()]

    def left_apply(self, x: list) -> list:
        """x @ C for a length-rho vector: column j of C is values[m-1-j :][:rho]."""
        if len(x) != self.rho:
            raise ValueError("dimension mismatch in Toeplitz application")
        p = self.field.p
        vals, rho = self.values, self.rho
        return [sum(map(mul, x, vals[k : k + rho])) % p
                for k in range(self.m - 1, -1, -1)]

    def apply_poly_mat(self, mat: PolyMat) -> PolyMat:
        """C @ A as an explicit polynomial matrix (Prover-side only).

        One exact mod-p product of C with A's coefficient tensor
        (:meth:`PolyMat.coeff_tensor`, :meth:`PrimeField.matmul`).  The
        product becomes the result's own coefficient tensor, so evaluating
        C.A never re-reads its entries.
        """
        if mat.m != self.m:
            raise ValueError("dimension mismatch in Toeplitz application")
        field = self.field
        c = np.array(self._rows(), dtype=field.dtype).reshape(self.rho, self.m)
        t = field.limbs(mat.coeff_tensor())
        return PolyMat.from_coeff_tensor(field, field.matmul(c, t))


# -- lazy matrix/vector views used by the Verifier ---------------------------
#
# A Verifier check multiplies a view at one point by a vector, so each view
# offers the two products directly: ``vecmat_at(alpha, w)`` is w A(alpha) and
# ``matvec_at(alpha, w)`` is A(alpha) w.  For C.A they cost about rho*m + m*n
# products, w (C.A)(alpha) = (w C) A(alpha) and (C.A)(alpha) w = C (A(alpha) w),
# where forming (C.A)(alpha) first would cost rho*m*n.


class ToeplitzProductView(MatView):
    """The product C.A seen only through evaluations C @ A(alpha); the
    vector products never form C @ A(alpha)."""

    __slots__ = ("top", "mat")

    def __init__(self, top: ToeplitzOp, mat: PolyMat):
        if top.m != mat.m:
            raise ValueError("dimension mismatch in Toeplitz product")
        self.top = top
        self.mat = mat

    @property
    def m(self):
        return self.top.rho

    @property
    def n(self):
        return self.mat.n

    @property
    def field(self):
        return self.mat.field

    @property
    def deg_bound(self):
        # deg(C.A) <= deg(A); the Verifier cannot know the exact degree
        return self.mat.deg

    def eval_at(self, alpha: int) -> FieldMat:
        return self.top.apply_field_mat(self.mat.eval_at(alpha))

    def vecmat_at(self, alpha: int, w: list) -> list:
        return self.mat.vecmat_at(alpha, self.top.left_apply(w))

    def matvec_at(self, alpha: int, w: list) -> list:
        return self.top.apply_vec(self.mat.matvec_at(alpha, w))

    def materialize(self) -> PolyMat:
        return self.top.apply_poly_mat(self.mat)


class SubmatrixView(MatView):
    """A[R, K] for a view A; its vector products spread the vector over all
    of A's rows (or columns), zero outside R (or K), and keep the entries
    at K (or R)."""

    __slots__ = ("base", "row_idx", "col_idx")

    def __init__(self, base: MatView, row_idx, col_idx):
        self.base = base
        self.row_idx = list(row_idx)
        self.col_idx = list(col_idx)

    @property
    def m(self):
        return len(self.row_idx)

    @property
    def n(self):
        return len(self.col_idx)

    @property
    def field(self):
        return self.base.field

    @property
    def deg_bound(self):
        return self.base.deg_bound

    def eval_at(self, alpha: int) -> FieldMat:
        return self.base.eval_at(alpha).submatrix(self.row_idx, self.col_idx)

    def vecmat_at(self, alpha: int, w: list) -> list:
        if len(w) != len(self.row_idx):
            raise ValueError("dimension mismatch in vecmat")
        spread = [0] * self.base.m
        for i, c in zip(self.row_idx, w):
            spread[i] += c
        full = self.base.vecmat_at(alpha, spread)
        return [full[j] for j in self.col_idx]

    def matvec_at(self, alpha: int, w: list) -> list:
        if len(w) != len(self.col_idx):
            raise ValueError("dimension mismatch in matvec")
        spread = [0] * self.base.n
        for j, c in zip(self.col_idx, w):
            spread[j] += c
        full = self.base.matvec_at(alpha, spread)
        return [full[i] for i in self.row_idx]

    def materialize(self) -> PolyMat:
        return self.base.materialize().submatrix(self.row_idx, self.col_idx)


class VecView:
    """Interface: length, deg_bound, eval_at(alpha) -> list of field elements."""

    __slots__ = ()


class ScaledVecView(VecView):
    """d * v for a polynomial row vector v and a polynomial d, or v itself
    when there is no d."""

    __slots__ = ("entries", "scale")

    def __init__(self, entries: list, scale: Poly | None = None):
        self.entries = list(entries)
        self.scale = scale

    @property
    def length(self):
        return len(self.entries)

    @property
    def deg_bound(self):
        d = max((f.deg for f in self.entries), default=NEG_INF)
        return d if self.scale is None else deg_add(self.scale.deg, d)

    def eval_at(self, alpha: int) -> list:
        vals = [f(alpha) for f in self.entries]
        if self.scale is None:
            return vals
        c = self.scale(alpha)
        p = self.scale.field.p
        return [c * x % p for x in vals]

    def materialize(self) -> list:
        if self.scale is None:
            return self.entries
        return [self.scale * f for f in self.entries]
