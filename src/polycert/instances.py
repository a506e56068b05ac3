"""Seeded instance generators with ground-truth witnesses.

Every planted instance is checked against the exact oracles before use, so
completeness experiments never accidentally run on a false statement and
soundness experiments never run on a true one.
"""

from __future__ import annotations

import random

from .ff import PrimeField
from .matfield import FieldMat
from .oracles import det_bareiss, rank_and_profile, row_membership_oracle, saturation_basis
from .polymat import PolyMat
from .upoly import Poly, poly_gcd


def rand_poly(rng: random.Random, field: PrimeField, dmax: int,
              nonzero: bool = False) -> Poly:
    deg = rng.randrange(0 if nonzero else -1, dmax + 1)
    if deg < 0:
        return Poly.zero(field)
    coeffs = [rng.randrange(field.p) for _ in range(deg)]
    coeffs.append(rng.randrange(1, field.p))
    return Poly(field, coeffs)


def rand_polymat(rng, field, m, n, dmax) -> PolyMat:
    return PolyMat(
        field,
        [[rand_poly(rng, field, dmax) for _ in range(n)] for _ in range(m)],
        ncols=n,
    )


def rand_poly_row(rng, field, n, dmax) -> list:
    return [rand_poly(rng, field, dmax) for _ in range(n)]


def rand_field_mat(rng, field, m, n) -> FieldMat:
    return FieldMat(
        field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(m)],
        ncols=n,
    )


def rand_unimodular(rng, field, n, steps=None, dmax=2) -> PolyMat:
    """A product of elementary row operations (:func:`rand_unimodular_with_inverse`
    without the inverse)."""
    return rand_unimodular_with_inverse(rng, field, n, steps, dmax)[0]


def rand_unimodular_with_inverse(rng, field, n, steps=None, dmax=2):
    """(U, U^-1) for U a product of random elementary row operations."""
    rows = [list(r) for r in PolyMat.identity(field, n).rows]
    inv_rows = [list(r) for r in PolyMat.identity(field, n).rows]
    for _ in range(steps if steps is not None else max(4, 3 * n)):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            q = rand_poly(rng, field, dmax)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            # right-multiply the inverse by (I + qE_ij)^-1 = I - qE_ij:
            # column j loses q times column i
            for r in inv_rows:
                r[j] = r[j] - q * r[i]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
            for r in inv_rows:
                r[i], r[j] = r[j], r[i]
        else:
            c = rng.randrange(1, field.p)
            rows[i] = [a.scale(c) for a in rows[i]]
            ci = field.inv(c)
            for r in inv_rows:
                r[i] = r[i].scale(ci)
    return PolyMat(field, rows, ncols=n), PolyMat(field, inv_rows, ncols=n)


def rand_nonsingular(rng, field, n, dmax) -> PolyMat:
    while True:
        a = rand_polymat(rng, field, n, n, dmax)
        if not det_bareiss(a).is_zero():
            return a


def rand_singular(rng, field, n, dmax) -> PolyMat:
    """Square and singular: one row is a polynomial combination of the others."""
    if n == 1:
        return PolyMat.zero(field, 1, 1)
    while True:
        a = rand_polymat(rng, field, n - 1, n, dmax)
        qs = [rand_poly(rng, field, 0) for _ in range(n - 1)]
        mat = PolyMat(field, a.rows + [a.vecmat(qs)], ncols=n)
        rows = list(mat.rows)
        rng.shuffle(rows)
        mat = PolyMat(field, rows, ncols=n)
        if mat.deg != float("-inf") and int(mat.deg) <= dmax:
            if det_bareiss(mat).is_zero():
                return mat


def planted_rank(rng, field, m, n, r, dmax) -> PolyMat:
    """m x n of rank exactly r and degree <= dmax (oracle-verified)."""
    if r == 0:
        return PolyMat.zero(field, m, n)
    d1 = dmax // 2
    d2 = dmax - d1
    while True:
        left = rand_polymat(rng, field, m, r, d1)
        right = rand_polymat(rng, field, r, n, d2)
        a = left.mul(right)
        if a.deg != float("-inf") and int(a.deg) <= dmax:
            if rank_and_profile(a)[0] == r:
                return a


def planted_member(rng, field, m, n, dmax, qdeg=2):
    """(A, v, q) with v = q A, so v is in the F[x]-row space of A."""
    a = rand_polymat(rng, field, m, n, dmax)
    q = [rand_poly(rng, field, qdeg) for _ in range(m)]
    return a, a.vecmat(q), q


def planted_nonmember_rational(rng, field, m, n, dmax):
    """(A, v) with v in the F(x)-row space of A but not the F[x]-row space.

    A = D B for a full-row-rank B and D = diag(x, 1, ..., 1): the unique
    rational solution to u A = b_1 (the first row of B) is (1/x, 0, ...),
    which is not polynomial.  Verified against the membership oracle.
    """
    if m > n:
        raise ValueError("needs m <= n for full row rank")
    x = Poly.x(field)
    while True:
        b = rand_polymat(rng, field, m, n, max(0, dmax - 1))
        if rank_and_profile(b)[0] < m:
            continue
        rows = [[x * e for e in b.rows[0]]] + [list(r) for r in b.rows[1:]]
        a = PolyMat(field, rows, ncols=n)
        v = list(b.rows[0])
        if not row_membership_oracle(a, v):
            return a, v


def planted_saturated(rng, field, m, n, dmax):
    """Full-row-rank saturated m x n (m <= n): a saturation basis of a random matrix."""
    if m > n:
        raise ValueError("needs m <= n")
    while True:
        seed_mat = rand_polymat(rng, field, m, n, dmax)
        basis = saturation_basis(seed_mat)
        if basis.m == m and (
            basis.deg == float("-inf") or int(basis.deg) <= dmax
        ):
            return basis


def planted_full_col_rank_saturated(rng, field, m, n, dmax):
    """m x n with m > n, full column rank, row space all of F[x]^(1 x n)."""
    if m <= n:
        raise ValueError("needs m > n")
    u = rand_unimodular(rng, field, m, dmax=max(0, dmax - 1))
    base = PolyMat(
        field,
        [list(PolyMat.identity(field, n).rows[i]) for i in range(n)]
        + [[Poly.zero(field)] * n for _ in range(m - n)],
        ncols=n,
    )
    return u.mul(base)


def planted_unimodular_completable(rng, field, m, n, dmax):
    if not m < n:
        raise ValueError("needs m < n")
    u = rand_unimodular(rng, field, n, dmax=max(0, dmax - 1))
    return PolyMat(field, u.rows[:m], ncols=n)


def rand_coprime_family(rng, field, t, dmax):
    """t polynomials with gcd 1 (first one nonzero)."""
    if t == 1:
        # a single polynomial is "coprime" iff it is a nonzero constant
        return [Poly.constant(field, rng.randrange(1, field.p))]
    while True:
        fs = [rand_poly(rng, field, dmax, nonzero=True)]
        fs += [rand_poly(rng, field, dmax) for _ in range(t - 1)]
        if poly_gcd(*fs).is_one():
            return fs
