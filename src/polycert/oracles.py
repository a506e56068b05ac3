"""Module-aware computations on polynomial matrices: the Prover's toolbox.

Rank and column rank profile over F[x], exact determinants, rational and
polynomial system solving with full row rank, Hermite and shifted Popov
forms with unimodular transformation tracking, kernel and saturation bases,
and a deterministic row-space membership oracle.

Rank, profile, determinant and rational solving reduce to linear algebra at
evaluation points, exactly: enough distinct points always include one where
no relevant minor vanishes.  One plan (:func:`elimination_plan`) counts the
points from A's row and column degree sums and picks one of two routes.  The
batched route evaluates every point in one Horner pass
(:meth:`PolyMat.eval_many`), eliminates all of them together
(:func:`~polycert.matfield.solve_many`,
:func:`~polycert.matfield.rank_profile_many`) and interpolates every column
at once (:func:`upoly.interpolate_many`).  The fraction-free route works
over F[x]: Bareiss elimination for rank and determinant, and Cramer's rule
on Bareiss determinants for the rational solve.  It serves fields too small
for the points, and small blocks at few points (two rows below
:data:`BATCH_CUTOFF` points, at most four rows at fewer), where it beats
numpy's fixed cost per batch.

The rational solve decides membership at the points it solves at.  For
u A = v with profile columns B, the cleared identity N A = det(B) v (N the
Cramer numerators) and det B and N themselves have degree below K, a
bound from the row and column degree sums (:func:`elimination_plan`), so at K
points, all with det B(alpha) != 0, checking the solution of
u B(alpha) = v_B(alpha) against the other columns decides u A = v exactly,
and a non-member is rejected before anything is interpolated.  The
interpolated det B and N are brought to lowest terms by one gcd
(:meth:`RatVec.from_common_den`).  The solve finds B itself, from a
full-rank evaluation of A or else from :func:`rank_and_profile`, so B is
always nonsingular.

A statement that asserts a polynomial answer (an ``frrsm`` solution, the
one solve behind full-rank ``rsm`` compressions) is solved by x-adic
lifting instead (:func:`polynomial_solve_left`): B(0) is factored once,
and each coefficient of u costs one triangular solve and one product on
A's coefficient tensor, so the Prover pays deg u + 1 steps instead of K
points.  The lift needs a nonsingular B(0); without one, and for rational
answers, the solve above runs.

The left kernel basis is the minimal one, in zero-shift Popov form, read
off a minimal approximant basis of A: rows p with p A = 0 mod x^sigma,
built order by order by exact linear algebra on coefficients (M-Basis),
with no evaluation points, so in every field.  The order is sigma =
points + deg A, for the points of :func:`elimination_plan`: every minor of
A, and so every row of a minimal kernel basis, has degree below points,
and a row of degree below points whose product with A vanishes mod x^sigma
vanishes outright.

The saturation basis starts from the Popov form P of A, which is already
the answer when it is left prime (coprime maximal minors), as random wide
matrices almost always are.  Otherwise it is the left kernel of P's right
kernel, two more minimal kernel bases.  :func:`hermite_form` alone builds
the unimodular transform; :func:`hermite_h`, which
:func:`row_membership_oracle` and every caller that reads only H use,
runs the same Hermite collapse without it.

None of this is available to Verifier code: a Verifier that called these
routines would be recomputing the certified object, which defeats the whole
point.  The protocol layer enforces the split by never importing this
module.
"""

from __future__ import annotations

import numpy as np

from . import matfield
from .matfield import FieldMat
from .polymat import PolyMat, check_hermite_shape, shifted_pivot
from .upoly import NEG_INF, Poly, RatVec, interpolate_many, lin_comb, poly_gcd, xgcd

# points below which a two-row block is eliminated fraction-free, not by a
# numpy batch with its fixed cost of some hundred microseconds; the route
# rule is in elimination_plan (measured crossovers in CHANGES.md)
BATCH_CUTOFF = 12
# evaluation points probed for a full-rank A(alpha), which proves full rank
# (or finds independent rows and columns) before any elimination over F[x]
EVAL_PROBE_CAP = 8


class _Outcome:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


LOW_RANK = _Outcome("LOW_RANK")
NO_SOLUTION = _Outcome("NO_SOLUTION")


# -- fraction-free elimination ------------------------------------------------


def rank_and_profile(mat: PolyMat):
    """Rank over F(x) and the lexicographically smallest independent column set.

    On the batched route (:func:`elimination_plan`), by evaluation at its
    points: the rank is the largest rank of any A(alpha), and the profile
    the smallest column rank profile among the points that reach it.  Both
    are exact, because the nonzero r x r minor on the true profile columns
    vanishes at fewer than the planned points, and no evaluation can exceed
    the true rank or jump earlier than the true profile.  Otherwise by
    fraction-free (Bareiss) elimination over F[x].
    """
    if mat.deg == NEG_INF:
        return 0, ()
    npoints, _, batched = elimination_plan(mat)
    if batched:
        return _rank_and_profile_evaluation(mat, npoints)
    return _bareiss(mat)[:2]


def _rank_and_profile_evaluation(mat: PolyMat, npoints: int):
    """The rank and profile of A from A(0), ..., A(npoints-1) in one batch;
    exact for the points of :func:`elimination_plan`."""
    ranks, masks = matfield.rank_profile_many(mat.field, mat.eval_many(range(npoints)))
    r = int(ranks.max())
    profiles = np.unique(masks[ranks == r], axis=0)
    return r, min(tuple(np.flatnonzero(row).tolist()) for row in profiles)


def _bareiss(mat: PolyMat):
    """Fraction-free (Bareiss) elimination: (rank, column profile, det).

    Every intermediate entry is a minor of the input, and each update
    divides exactly by the previous pivot.  det, for a square A, is the last
    pivot signed by the row swaps when the rank is full, and 0 otherwise.
    """
    m, n = mat.m, mat.n
    work = [list(row) for row in mat.rows]
    prev = Poly.one(mat.field)
    sign = 1
    pr = 0
    profile = []
    for j in range(n):
        if pr >= m:
            break
        piv_row = None
        for i in range(pr, m):
            if not work[i][j].is_zero():
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != pr:
            work[piv_row], work[pr] = work[pr], work[piv_row]
            sign = -sign
        piv = work[pr][j]
        for i in range(pr + 1, m):
            head = work[i][j]
            row_i, row_pr = work[i], work[pr]
            for l in range(j + 1, n):
                num = piv * row_i[l] - head * row_pr[l]
                row_i[l] = num.divexact(prev)
            row_i[j] = Poly.zero(mat.field)
        prev = piv
        profile.append(j)
        pr += 1
    if pr < n:
        det = Poly.zero(mat.field)
    else:
        det = prev if sign > 0 else -prev
    return pr, tuple(profile), det


def det_bareiss(mat: PolyMat) -> Poly:
    """Exact determinant of a square polynomial matrix.

    det(A) has degree at most min(sum rdeg A, sum cdeg A), so it is fixed by
    its values at the points of :func:`elimination_plan`.  On the batched
    route: one :meth:`PolyMat.eval_many`, one
    :func:`~polycert.matfield.solve_many` giving det(A(alpha)) at every
    point, and one interpolation.  Otherwise fraction-free (Bareiss)
    elimination over F[x].
    """
    if mat.m != mat.n:
        raise ValueError("determinant of a non-square matrix")
    if mat.n == 0:
        return Poly.one(mat.field)
    npoints, _, batched = elimination_plan(mat)
    if batched:
        return _det_evaluation(mat, npoints)
    return _bareiss(mat)[2]


def _det_evaluation(mat: PolyMat, npoints: int) -> Poly:
    """det(A) interpolated from det(A(0)), ..., det(A(npoints-1)); exact for
    npoints > deg det A."""
    field = mat.field
    vals = mat.eval_many(range(npoints))
    aug = np.concatenate([vals, np.zeros(vals.shape[:2] + (1,), dtype=vals.dtype)], axis=2)
    _, det, _ = matfield.solve_many(field, aug)
    return interpolate_many(field, range(npoints), [det.tolist()])[0]


# -- Algorithm: rational linear solving with full row rank --------------------


def rational_solve_left(mat: PolyMat, v: list):
    """Solve u A = v over F(x) for a full-row-rank A.

    Returns LOW_RANK iff rank(A) < m; otherwise the unique rational solution
    u (a RatVec) when v lies in the F(x)-row space of A, else NO_SOLUTION.

    Full row rank is certified cheaply through evaluations when possible (a
    full-rank evaluation is proof), falling back to the exact
    :func:`rank_and_profile`; either way it yields m profile columns B on
    which A is nonsingular.  On the batched route of
    :func:`elimination_plan`, the system is solved and u A = v decided
    together at its points (:func:`_solve_left_evaluation`); otherwise
    u B = v_B is solved by Cramer's rule on fraction-free (Bareiss)
    determinants over F[x] and N A = det(B) v checked by polynomial
    arithmetic (:meth:`PolyMat.vecmat`).  Both routes are exact, and both
    bring det B and N to the one lowest-terms form.
    """
    m, n = mat.m, mat.n
    if len(v) != n:
        raise ValueError("dimension mismatch in rational solve")
    if m == 0:
        raise ValueError("rational solve needs at least one row")
    field = mat.field
    for alpha in range(min(EVAL_PROBE_CAP, field.p)):
        r, _, profile = matfield.rank_profile(mat.eval_at(alpha))
        if r == m:
            break
    else:
        r, profile = rank_and_profile(mat)
        if r < m:
            return LOW_RANK
    npoints, budget, batched = elimination_plan(mat, v, profile)
    if batched:
        return _solve_left_evaluation(mat, v, profile, npoints, budget)
    # Cramer's rule on B: N_i = det(B with row i replaced by v_B), u = N / det B
    b = mat.submatrix(range(m), profile)
    v_b = [v[j] for j in profile]
    det = _bareiss(b)[2]
    numers = [_bareiss(PolyMat(field, b.rows[:i] + [v_b] + b.rows[i + 1:], ncols=m))[2]
              for i in range(m)]
    if mat.vecmat(numers) != [det * f for f in v]:
        return NO_SOLUTION
    return RatVec.from_common_den(det, numers)


def _solve_left_evaluation(mat: PolyMat, v: list, profile, npoints: int, budget: int):
    """u with u A = v, or NO_SOLUTION, from A and v at npoints points where
    the profile columns B of A are nonsingular (:func:`elimination_plan` gives
    npoints and budget).

    At each point alpha, one elimination gives det B(alpha) and the unique
    w with w B(alpha) = v_B(alpha), and w is checked against the other
    columns of A(alpha) and v(alpha).  The checks decide u A = v exactly:
    with N = det(B) u the Cramer numerators, u A = v is N A = det(B) v,
    whose column j outside B is, up to sign, the determinant of B bordered
    by A's column j and the row (v_B, v_j).  Those determinants have degree
    below npoints, and at each point used det B(alpha) != 0, so the identity
    holds there iff w A(alpha) = v(alpha).  A failed check returns
    NO_SOLUTION before any interpolation; otherwise det B and N (degrees
    below npoints too) are interpolated from the same points.

    A nonsingular B is singular at no more than budget points (the roots of
    det B), so the first npoints + budget candidates always hold npoints
    nonsingular ones; a B that leaves fewer is singular, and the search
    stops there with ArithmeticError.  All points are evaluated and
    eliminated at once on the batched kernel.
    """
    field = mat.field
    p = field.p
    profile = list(profile)
    chosen = set(profile)
    rest = [j for j in range(mat.n) if j not in chosen]
    limit = min(p, npoints + budget)
    xs = []
    vrow = PolyMat(field, [v])
    cols = []
    alpha = 0
    while len(xs) < npoints:
        if alpha >= limit:
            raise ArithmeticError("singular matrix: too few nonsingular points")
        pts = np.arange(alpha, min(alpha + npoints - len(xs), limit))
        vals = mat.eval_many(pts)
        vv = vrow.eval_many(pts)[:, 0, :]
        # u B = v_B is B^T u^T = v_B^T: one augmented [B^T | v_B^T] per point
        aug = np.concatenate([vals[:, :, profile].transpose(0, 2, 1),
                              vv[:, profile, None]], axis=2)
        ok, det, w = matfield.solve_many(field, aug)
        w, det = w[ok], det[ok, None]
        if rest and not (matfield.vecmat_many(field, w, vals[ok][:, :, rest])
                         == vv[ok][:, rest]).all():
            return NO_SOLUTION
        xs.extend(pts[ok].tolist())
        cols.append(np.concatenate([det, w * det % p], axis=1))
        alpha += len(pts)
    det_poly, *nums = interpolate_many(field, xs, np.concatenate(cols).T)
    return RatVec.from_common_den(det_poly, nums)


def elimination_plan(mat: PolyMat, v=None, profile=None):
    """(points, budget, batched): the evaluation points an elimination of A
    needs, the candidates it may skip, and its route.

    Rank, profile and determinant (no v): a nonzero r x r minor, r <= k =
    min(m, n), has degree at most the sum of A's k largest row degrees and
    at most that of its k largest column degrees (a missing degree counts as
    0), so points is the smaller sum + 1 (for a square A, min(sum rdeg,
    sum cdeg) + 1), and budget is 0.

    The solve u A = v on the profile columns B of a full-row-rank A: with
    c_j = max(cdeg_j A, deg v_j), det B, the Cramer numerators N_i (B with
    row i replaced by v_B), the determinants of B bordered by a column j
    outside B and the row (v_B, v_j), and a polynomial solution N / det B
    all have degree below points = min(sum rdeg A + deg v,
    sum_{j in B} c_j + max_{j not in B} c_j) + 1, by their row and by their
    column degrees; det B has at most budget = min(sum rdeg A,
    sum_{j in B} cdeg_j A) roots.

    The route is fraction-free over F[x] (batched False) when the field has
    fewer than points + budget + 2 elements, or when the eliminated block is
    small: k * max(k, points) below 2 * :data:`BATCH_CUTOFF`, a two-row
    block's work.  So three rows stay fraction-free below 8 points, four
    below 6, and five or more are always batched.
    """
    # coefficient counts: a degree is one less, and a zero entry counts as 0
    lens = [[len(e.coeffs) for e in row] for row in mat.rows]
    rdeg = [max(0, max(row, default=0) - 1) for row in lens]
    cdeg = [max(0, max(col) - 1) for col in zip(*lens)] if lens else [0] * mat.n
    k = min(mat.m, mat.n)
    if v is None:
        npoints = min(sum(sorted(rdeg, reverse=True)[:k]),
                      sum(sorted(cdeg, reverse=True)[:k])) + 1
        budget = 0
    else:
        vlens = [len(f.coeffs) for f in v]
        c = [max(d, vl - 1) for d, vl in zip(cdeg, vlens)]
        deg_v = max(0, max(vlens, default=0) - 1)
        chosen = set(profile)
        inside = sum(c[j] for j in chosen)
        outside = max([c[j] for j in range(mat.n) if j not in chosen], default=0)
        npoints = min(sum(rdeg) + deg_v, inside + outside) + 1
        budget = min(sum(rdeg), sum(cdeg[j] for j in chosen))
    small = k * max(k, npoints) < 2 * BATCH_CUTOFF
    return npoints, budget, mat.field.p >= npoints + budget + 2 and not small


def polynomial_solve_left(mat: PolyMat, v: list, profile):
    """The polynomial u with u A = v for a full-row-rank A, by x-adic lifting.

    Returns u as a list of Poly; NO_SOLUTION when no polynomial u exists;
    None when the lift cannot start, because B(0) is singular for the
    profile columns B of A (``profile``, such as the column rank profile
    of A(0), which holds m columns exactly when A(0) has rank m).

    With B(0) factored once (PLUQ), the digits u_0, u_1, ... of u are found
    one at a time: u_k solves u_k B(0) = r_k on B, for r_k the coefficient
    of x^k in the residual r = v - (u_0 + ... + u_{k-1} x^(k-1)) A, and then
    u_k x^k A is taken off r in one product on A's coefficient tensor
    (:meth:`PrimeField.matmul`, exact mod p).  That leaves r_k zero on B, and
    no later digit changes r_k, so a nonzero r_k outside B means no
    polynomial u exists; neither does one once K digits (:func:`elimination_plan`)
    leave r nonzero, since a polynomial solution has degree below K.  A zero
    r proves u A = v.  A member costs deg u + 1 steps.
    """
    field = mat.field
    p = field.p
    m, n = mat.m, mat.n
    if len(v) != n:
        raise ValueError("dimension mismatch in polynomial solve")
    t = mat.coeff_tensor()
    at0 = t[0].tolist()
    profile = list(profile)
    f = matfield.pluq(FieldMat.of_rows(field, [[at0[i][j] for i in range(m)]
                                              for j in profile], m))
    if f.rank < m:
        return None
    npoints, _, _ = elimination_plan(mat, v, profile)
    rest = [j for j in range(n) if j not in set(profile)]
    limbs = field.limbs(t)
    width = t.shape[0]
    res = np.zeros((max([npoints + width] + [len(g.coeffs) for g in v]), n),
                   dtype=field.dtype)
    for j, g in enumerate(v):
        res[: len(g.coeffs), j] = g.coeffs
    digits = []
    k = 0
    while res[k:].any():  # the rows below k are zero
        if k == npoints:
            return NO_SOLUTION
        rk = res[k].tolist()
        u_k = matfield.pluq_solve(f, [rk[j] for j in profile])
        digits.append(u_k)
        step = field.matmul(np.array(u_k, dtype=field.dtype), limbs)
        res[k : k + width] = (res[k : k + width] - step) % p
        if rest and res[k, rest].any():
            return NO_SOLUTION
        k += 1
    return [Poly(field, [d[i] for d in digits]) for i in range(m)]


# -- Hermite form with transformation ------------------------------------------


def hermite_form(mat: PolyMat):
    """The Hermite form H (r x n) and a unimodular U with U A = [H; 0].

    Columns are processed right to left; in each column the nonzero entries
    of the still-active rows are collapsed onto one row by extended-gcd row
    transforms, that row is frozen as the pivot row for the column, and a
    final pass reduces the below-pivot degrees.
    """
    return _hermite(mat, with_transform=True)


def hermite_h(mat: PolyMat) -> PolyMat:
    """The Hermite form H of :func:`hermite_form` alone, without building U."""
    return _hermite(mat, with_transform=False)[0]


def _hermite(mat: PolyMat, with_transform: bool):
    """H, and U when asked for; without U every row transform is applied
    to A's rows only, about half the work for callers that need only H."""
    field = mat.field
    targets, pivots, rest = _hermite_collapse(mat, with_transform)
    work = targets[0]
    for k, idx in pivots:
        lc = work[idx][k].lc()
        if lc != 1:
            c = field.inv(lc)
            for target in targets:
                target[idx] = [f.scale(c) for f in target[idx]]
    # degree-reduce the below-pivot entries, rightmost pivot column first so
    # later reductions cannot disturb already-reduced columns
    for pos_hi in range(len(pivots)):
        k_hi, idx_hi = pivots[pos_hi]
        for pos in range(pos_hi - 1, -1, -1):
            k, idx = pivots[pos]
            piv = work[idx][k]
            q = work[idx_hi][k] // piv
            if not q.is_zero():
                for target in targets:
                    target[idx_hi] = [
                        f - q * g for f, g in zip(target[idx_hi], target[idx])
                    ]
    h = PolyMat(field, [work[idx] for _, idx in pivots], ncols=mat.n)
    if not with_transform:
        return h, None
    trans = targets[1]
    u_rows = [trans[idx] for _, idx in pivots] + [trans[idx] for idx in rest]
    return h, PolyMat(field, u_rows, ncols=mat.m)


def _hermite_collapse(mat: PolyMat, with_transform: bool):
    """The collapse loop of the Hermite form: (targets, pivots, rest).

    ``targets`` holds A's rows after the row transforms and, when asked
    for, U's; ``pivots`` the (pivot column, row index) pairs by increasing
    column; ``rest`` the indices of the rows that end up zero in A.  Only
    pivot rows are left for :func:`_hermite` to make monic and reduce, so
    the rows of U at ``rest`` are already final.
    """
    field = mat.field
    m = mat.m
    work = [list(row) for row in mat.rows]
    targets = [work]
    if with_transform:
        targets.append([
            [Poly.one(field) if i == j else Poly.zero(field) for j in range(m)]
            for i in range(m)
        ])
    active = list(range(m))
    pivots = []  # discovered right-to-left
    for j in range(mat.n - 1, -1, -1):
        nz = [idx for idx in active if not work[idx][j].is_zero()]
        if not nz:
            continue
        acc = nz[0]
        for other in nz[1:]:
            a, b = work[acc][j], work[other][j]
            if b.is_zero():
                continue
            g, s, t = xgcd(a, b)
            qa = a.divexact(g)
            qb = b.divexact(g)
            _rows_transform(targets, acc, other, s, t, -qb, qa)
        pivots.append((j, acc))
        active.remove(acc)
    pivots.reverse()
    return targets, pivots, active


def _rows_transform(targets, i1, i2, a11, a12, a21, a22):
    """(row_i1, row_i2) <- (a11 row_i1 + a12 row_i2, a21 row_i1 + a22 row_i2)
    in every matrix of ``targets``."""
    field = a22.field
    for target in targets:
        pairs = list(zip(target[i1], target[i2]))
        target[i1] = [lin_comb(field, (a11, a12), xy) for xy in pairs]
        target[i2] = [lin_comb(field, (a21, a22), xy) for xy in pairs]


# -- shifted Popov form ---------------------------------------------------------


def _pivot_of(row, shift):
    """(pivot index, pivot degree) of a nonzero row under the shift
    (:func:`~polycert.polymat.shifted_pivot`)."""
    k = shifted_pivot(row, shift)
    return k, int(row[k].deg)


def popov_form(mat: PolyMat, shift=None) -> PolyMat:
    """The unique shifted Popov row basis of A.

    Mulders-Storjohann pivot collisions bring the rows to weak Popov form
    (distinct pivots); pivots are then made monic, rows sorted by pivot
    index, and off-pivot entries in pivot columns reduced below the pivot
    degree by full divisions, largest shifted excess first.
    """
    field = mat.field
    if shift is None:
        shift = [0] * mat.n
    shift = list(shift)
    if len(shift) != mat.n:
        raise ValueError("shift length must equal the column dimension")
    rows = [list(r) for r in mat.rows if any(f.coeffs for f in r)]
    # weak Popov: no two rows share a pivot index
    pivots = [_pivot_of(r, shift) for r in rows]
    while True:
        by_col = {}
        clash = None
        for i, pv in enumerate(pivots):
            k = pv[0]
            if k in by_col:
                clash = (by_col[k], i)
                break
            by_col[k] = i
        if clash is None:
            break
        i1, i2 = clash
        k = pivots[i1][0]
        d1, d2 = pivots[i1][1], pivots[i2][1]
        if d1 < d2:
            i1, i2 = i2, i1
            d1, d2 = d2, d1
        # reduce row i1 by row i2: kill the leading term at column k
        c = field.mul(rows[i1][k].lc(), field.inv(rows[i2][k].lc()))
        e = d1 - d2
        step = Poly(field, [0] * e + [c])
        rows[i1] = [f - step * g for f, g in zip(rows[i1], rows[i2])]
        if any(f.coeffs for f in rows[i1]):
            pivots[i1] = _pivot_of(rows[i1], shift)
        else:
            rows.pop(i1)
            pivots.pop(i1)
    # sort by pivot index, make pivots monic
    order = sorted(range(len(rows)), key=lambda i: pivots[i][0])
    rows = [rows[i] for i in order]
    pivots = [pivots[i] for i in order]
    for i, (k, _) in enumerate(pivots):
        lc = rows[i][k].lc()
        if lc != 1:
            c = field.inv(lc)
            rows[i] = [f.scale(c) for f in rows[i]]
    # normalize off-pivot entries in pivot columns
    for i in range(len(rows)):
        _reduce_row_against_pivots(field, rows, pivots, i, shift)
    return PolyMat(field, rows, ncols=mat.n)


def _reduce_row_against_pivots(field, rows, pivots, i, shift):
    """Divide out every excess of row i at the other rows' pivot columns.

    Always reduces the largest shifted excess (rightmost on ties), which
    strictly decreases the (max excess, rightmost position) measure, so the
    loop terminates; a generous cap guards against logic errors.
    """
    guard = 0
    limit = 10000 * (len(rows) + 1)
    while True:
        best = None
        for j, (k, dpiv) in enumerate(pivots):
            if j == i:
                continue
            e = rows[i][k]
            if e.coeffs and e.deg >= dpiv:
                val = int(e.deg) + shift[k]
                if best is None or val > best[0] or (val == best[0] and k > best[1]):
                    best = (val, k, j)
        if best is None:
            return
        _, k, j = best
        q = rows[i][k] // rows[j][k]
        rows[i] = [f - q * g for f, g in zip(rows[i], rows[j])]
        guard += 1
        if guard > limit:
            raise RuntimeError("Popov normalization failed to terminate")


# -- kernels, saturation, membership -------------------------------------------


def kernel_basis_left(mat: PolyMat) -> PolyMat:
    """The zero-shift Popov basis of the left kernel {p : p A = 0}.

    A minimal kernel basis has row degrees below the plan's points (every
    minor of A has lower degree, and so do the Cramer kernel vectors, which
    a minimal basis never exceeds), so at order sigma = points + deg A every
    row p of degree below points has deg(p A) < sigma: p A = 0 mod x^sigma
    is p A = 0.  The rows of a minimal approximant basis at that order
    (:func:`_approximant_basis`) whose degree plus deg A is below sigma are
    therefore kernel rows, and by the predictable-degree property they
    generate every kernel vector of degree below points, so they are a
    minimal kernel basis; :func:`popov_form` makes it the unique one.
    """
    field = mat.field
    if mat.deg == NEG_INF:
        return PolyMat.identity(field, mat.m)
    deg = int(mat.deg)
    sigma = elimination_plan(mat)[0] + deg
    basis, degs = _approximant_basis(mat, sigma)
    keep = [i for i, d in enumerate(degs) if d + deg < sigma]
    kernel = PolyMat.from_coeff_tensor(field, basis[:, keep, :])
    return popov_form(kernel, [0] * mat.m)


def _approximant_basis(mat: PolyMat, sigma: int):
    """(coefficient tensor, row degrees) of a zero-shift minimal basis P of
    the approximants {p : p A = 0 mod x^sigma}, by the iterative M-Basis
    (Giorgi, Jeannerod & Villard, ISSAC 2003), exact in every field.

    P starts as the identity, of row degrees 0, and each row carries its
    residual p A beside it, in one tensor held transposed,
    ``(sigma+1, m+n, m)``, so that a row transform is a product on the
    right.  At order k the residuals' x^k coefficients (m x n) are
    eliminated column by column, each pivot the row of least degree among
    the rows not yet pivots, so no row gains degree from its pivot; the
    pivot rows are then multiplied by x.  Each order is one constant m x m
    transform, applied in one exact product (:meth:`PrimeField.matmul`),
    and every row keeps its degree exactly, which keeps P reduced.  The
    residuals' coefficients below k are zero, and the one at sigma is
    never read.
    """
    field = mat.field
    p = field.p
    m, n = mat.m, mat.n
    t = mat.coeff_tensor()
    work = np.zeros((sigma + 1, m + n, m), dtype=field.dtype)
    work[0, range(m), range(m)] = 1
    work[: t.shape[0], m:] = t.transpose(0, 2, 1)
    degs = [0] * m
    for k in range(sigma):
        delta = work[k, m:].T.tolist()
        order = sorted(range(m), key=degs.__getitem__)
        trans = None
        pivots = []
        for j in range(n):
            piv = next((i for i in order if delta[i][j] and i not in pivots), None)
            if piv is None:
                continue
            pivots.append(piv)
            head = delta[piv][j]
            for i in order:
                c = delta[i][j]
                if not c or i in pivots:
                    continue
                if trans is None:
                    trans = [[int(a == b) for b in range(m)] for a in range(m)]
                # head * row_i - c * row_piv: a nonzero constant times the
                # reduced row, which the final Popov form scales back
                delta[i] = [(head * a - c * b) % p for a, b in zip(delta[i], delta[piv])]
                trans[i] = [(head * a - c * b) % p for a, b in zip(trans[i], trans[piv])]
        if not pivots:
            continue
        if trans is not None:
            work = field.matmul(work, field.limbs(np.array(trans, dtype=field.dtype).T))
        work[1:, :, pivots] = work[:-1, :, pivots]
        work[0, :, pivots] = 0
        for i in pivots:
            degs[i] += 1
    return work[:, :m].transpose(0, 2, 1), degs


def saturation_basis(mat: PolyMat) -> PolyMat:
    """The zero-shift Popov basis of Sat(A) = F[x]^(1 x n) intersect rowspace_F(x)(A).

    First P = popov_form(A), a row basis of A of full row rank r.  If P is
    left prime (its r x r minors are coprime), P's row space is already
    saturated and, the zero-shift Popov form of a module being unique, P is
    the answer.  r = n needs no test: Sat(A) is then all of F[x]^(1 x n).
    Otherwise two polynomials that every common divisor of the minors
    divides are tested for coprimality: the minor on P's pivot columns,
    nonsingular by the Popov shape, and det(P V) for the n x r Vandermonde
    matrix V on the nodes 1, ..., n, which by Cauchy-Binet is a combination
    of all the minors, with nonzero coefficients when n < p (so a factor
    that the pivot minor shares with some other minors cannot spoil it).
    Random wide matrices almost always pass.  The test is sufficient, never
    wrong, only conservative: when it fails, Sat(A) is read off as the left
    kernel of A's right kernel N (A N = 0): p N = 0 is p in the F(x)-row
    space of A, so that kernel is the saturation, and
    :func:`kernel_basis_left` gives it in zero-shift Popov form.
    """
    field = mat.field
    n = mat.n
    pm = popov_form(mat, [0] * n)
    r = pm.m
    if r == n:
        return PolyMat.identity(field, n)
    pivots = [shifted_pivot(row, [0] * n) for row in pm.rows]
    minor = det_bareiss(pm.submatrix(range(r), pivots))
    if minor.is_constant():
        return pm
    vandermonde = PolyMat(field, [[Poly.constant(field, pow(j + 1, i, field.p))
                                   for i in range(r)] for j in range(n)], ncols=r)
    if poly_gcd(minor, det_bareiss(pm.mul(vandermonde))).is_one():
        return pm
    return kernel_basis_left(kernel_basis_left(pm.transpose()).transpose())


def row_membership_oracle(mat: PolyMat, v: list) -> bool:
    """Is v in the F[x]-row space of A?  Deterministic Hermite reduction."""
    if len(v) != mat.n:
        raise ValueError("dimension mismatch in membership oracle")
    h = hermite_h(mat)
    ok, prof = check_hermite_shape(h) if h.m else (True, None)
    if h.m and not ok:
        raise AssertionError("hermite_h produced an out-of-shape result")
    w = list(v)
    for i in range(h.m - 1, -1, -1):
        k = prof.indices[i]
        piv = h.rows[i][k]
        q = w[k] // piv
        if not q.is_zero():
            w = [f - q * g for f, g in zip(w, h.rows[i])]
    return all(f.is_zero() for f in w)

