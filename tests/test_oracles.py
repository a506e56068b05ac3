import itertools
import random

from polycert.ff import PrimeField
from polycert.matfield import FieldMat
from polycert.oracles import (
    LOW_RANK,
    NO_SOLUTION,
    det_bareiss,
    hermite_form,
    hermite_h,
    kernel_basis_left,
    popov_form,
    rank_and_profile,
    rational_solve_left,
    row_membership_oracle,
    saturation_basis,
)
from polycert.polymat import (
    PivotProfile,
    PolyMat,
    check_hermite_shape,
    check_popov_shape,
    hermite_shift,
)
from polycert.protocols import wdeg
from polycert.upoly import NEG_INF, Poly
from reference import RatFunc, entries

F7 = PrimeField(7)
F97 = PrimeField(97)
FBIG = PrimeField(2**31 - 1)


def is_unimodular(mat: PolyMat) -> bool:
    """Square with a nonzero constant determinant."""
    if mat.m != mat.n:
        return False
    d = det_bareiss(mat)
    return d.is_constant() and not d.is_zero()


def rand_poly(rng, field, dmax):
    deg = rng.randrange(-1, dmax + 1)
    if deg < 0:
        return Poly.zero(field)
    c = [rng.randrange(field.p) for _ in range(deg + 1)]
    c[-1] = rng.randrange(1, field.p)
    return Poly(field, c)


def rand_polymat(rng, field, m, n, dmax):
    return PolyMat(field, [[rand_poly(rng, field, dmax) for _ in range(n)] for _ in range(m)],
                   ncols=n)


def rand_unimodular(rng, field, n, steps=None, dmax=2):
    """Product of elementary row operations: unimodular by construction."""
    mat = PolyMat.identity(field, n)
    rows = [list(r) for r in mat.rows]
    for _ in range(steps if steps is not None else 3 * n):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            q = rand_poly(rng, field, dmax)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.randrange(1, field.p)
            rows[i] = [a.scale(c) for a in rows[i]]
    return PolyMat(field, rows, ncols=n)


def same_saturation_wide(field):
    # [[1, 1], [x^2, x^2 + x], [x, x]]
    return PolyMat.from_coeff_lists(
        field, [[[1], [1]], [[0, 0, 1], [0, 1, 1]], [[0, 1], [0, 1]]]
    )


def same_saturation_tall(field):
    # [[1, 1 + x^2], [0, x^2]]
    return PolyMat.from_coeff_lists(field, [[[1], [1, 0, 1]], [[], [0, 0, 1]]])


# -- Bareiss rank and profile -------------------------------------------------


def poly_rank_by_evaluation(mat, tries=12):
    """Independent probabilistic oracle: max rank of evaluations."""
    from polycert.matfield import pluq

    best = 0
    for alpha in range(tries):
        best = max(best, pluq(mat.eval_at(alpha % mat.field.p)).rank)
    return best


def test_rank_identity_and_stack():
    i3 = PolyMat.identity(F7, 3)
    assert rank_and_profile(i3) == (3, (0, 1, 2))
    rng = random.Random(20)
    a = rand_polymat(rng, F7, 3, 4, 2)
    stacked = a.stack(a)
    assert rank_and_profile(stacked)[0] == rank_and_profile(a)[0]


def test_rank_of_rank2_demo_matrix():
    r, profile = rank_and_profile(same_saturation_wide(F97))
    assert r == 2
    assert profile == (0, 1)


def test_rank_matches_evaluation_oracle():
    rng = random.Random(21)
    for _ in range(150):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        a = rand_polymat(rng, F97, m, n, 2)
        r, profile = rank_and_profile(a)
        assert r == poly_rank_by_evaluation(a)
        assert len(profile) == r
        # profile columns really are independent
        if r:
            sub = a.submatrix(range(m), profile)
            assert rank_and_profile(sub)[0] == r


def test_det_bareiss_matches_evaluation():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randrange(1, 5)
        a = rand_polymat(rng, F97, n, n, 2)
        d = det_bareiss(a)
        for alpha in range(5):
            ev = a.eval_at(alpha)
            from polycert.matfield import det_field

            assert d(alpha) == det_field(ev)


def test_det_bareiss_multiplicative():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 4)
        a = rand_polymat(rng, F97, n, n, 2)
        b = rand_polymat(rng, F97, n, n, 2)
        assert det_bareiss(a.mul(b)) == (det_bareiss(a) * det_bareiss(b))


# -- Hermite form ---------------------------------------------------------------


def test_hermite_form_example():
    # A = [[x, x^2], [1, x]]: row space is F[x] * (1, x), so H = [[1, x]]
    a = PolyMat.from_coeff_lists(F7, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    h, u = hermite_form(a)
    assert h.m == 1
    assert h.rows[0][0] == Poly.one(F7)
    assert h.rows[0][1] == Poly.x(F7)
    ok, prof = check_hermite_shape(h)
    assert ok and prof.indices == (1,)
    assert is_unimodular(u)
    ua = u.mul(a)
    assert ua.rows[0] == h.rows[0]
    assert all(e.is_zero() for e in ua.rows[1])


def test_hermite_form_properties():
    from polycert.matfield import det_field

    rng = random.Random(24)
    for _ in range(60):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        a = rand_polymat(rng, F97, m, n, 2)
        h, u = hermite_form(a)
        r, _ = rank_and_profile(a)
        assert h.m == r
        assert is_unimodular(u)  # fraction-free determinant: nonzero constant
        assert det_field(u.eval_at(rng.randrange(97))) != 0
        ua = u.mul(a)
        for i in range(r):
            assert ua.rows[i] == h.rows[i]
        for i in range(r, m):
            assert all(e.is_zero() for e in ua.rows[i])
        if r:
            ok, _ = check_hermite_shape(h)
            assert ok


def test_hermite_h_is_the_h_of_hermite_form():
    """The H-only path applies the same row transforms to A's rows alone."""
    rng = random.Random(26)
    for field in (F7, F97, FBIG):
        for _ in range(30):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            a = rand_polymat(rng, field, m, n, 3)
            if rng.random() < 0.5:  # a dependent row: rank below m
                c = rand_poly(rng, field, 1)
                a = PolyMat(field, a.rows + [[c * f for f in a.rows[0]]], ncols=n)
            assert hermite_h(a) == hermite_form(a)[0]


def test_hermite_uniqueness_under_unimodular():
    rng = random.Random(25)
    for _ in range(40):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_polymat(rng, F97, m, n, 2)
        w = rand_unimodular(rng, F97, m)
        h1, _ = hermite_form(a)
        h2, _ = hermite_form(w.mul(a))
        assert h1 == h2


def test_hermite_already_in_form():
    h = PolyMat.from_coeff_lists(F7, [[[0, 1], []], [[1], [0, 1]]])
    ok, prof = check_hermite_shape(h)
    assert ok and prof.indices == (0, 1)
    h2, u = hermite_form(h)
    assert h2 == h


# -- Popov form ------------------------------------------------------------------


def test_popov_identity():
    i3 = PolyMat.identity(F7, 3)
    assert popov_form(i3) == i3
    ok, prof = check_popov_shape(i3, [0, 0, 0])
    assert ok and prof.indices == (0, 1, 2)


def test_popov_uniqueness_under_unimodular():
    rng = random.Random(26)
    for _ in range(40):
        m, n = rng.randrange(1, 4), rng.randrange(1, 5)
        a = rand_polymat(rng, F97, m, n, 2)
        if rank_and_profile(a)[0] == 0:
            continue
        w = rand_unimodular(rng, F97, m)
        for shift in ([0] * n, [rng.randrange(-3, 4) for _ in range(n)]):
            p1 = popov_form(a, shift)
            p2 = popov_form(w.mul(a), shift)
            assert p1 == p2
            ok, _ = check_popov_shape(p1, shift)
            assert ok


def test_popov_row_space_preserved():
    rng = random.Random(27)
    for _ in range(30):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_polymat(rng, F97, m, n, 2)
        p = popov_form(a)
        for row in a.rows:
            assert row_membership_oracle(p, row) if p.m else all(
                e.is_zero() for e in row
            )
        for row in p.rows:
            assert row_membership_oracle(a, row)


def test_hermite_popov_correspondence():
    rng = random.Random(28)
    for _ in range(40):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_polymat(rng, F97, m, n, 2)
        h, _ = hermite_form(a)
        if h.m == 0:
            continue
        t = int(max(wdeg(a.deg), 1 if h.deg == NEG_INF else h.deg)) + 1
        shift = hermite_shift(n, t)
        p = popov_form(a, shift)
        assert p == h
        # a valid Hermite form passes the shifted-Popov shape check under
        # the Hermite-recovering shift
        ok, _ = check_popov_shape(h, shift)
        assert ok


def test_popov_shape_rejects_swapped_rows():
    rng = random.Random(29)
    a = rand_polymat(rng, F97, 3, 3, 2)
    p = popov_form(a)
    if p.m >= 2:
        swapped = PolyMat(F97, [p.rows[1], p.rows[0]] + p.rows[2:], ncols=p.n)
        ok, _ = check_popov_shape(swapped, [0] * p.n)
        assert not ok


def test_hermite_shape_rejects_degree_violation():
    # valid: [[x^2, 0], [c, x]] needs deg(c) < 2; raise it to 2 to break (iii)
    good = PolyMat.from_coeff_lists(F7, [[[0, 0, 1], []], [[3, 1], [0, 1]]])
    ok, _ = check_hermite_shape(good)
    assert ok
    bad = PolyMat.from_coeff_lists(F7, [[[0, 0, 1], []], [[0, 0, 3], [0, 1]]])
    ok2, _ = check_hermite_shape(bad)
    assert not ok2
    nonmonic = PolyMat.from_coeff_lists(F7, [[[2]]])
    assert not check_hermite_shape(nonmonic)[0]


# -- kernels and saturation -------------------------------------------------------


def test_kernel_basis_left_examples():
    a = PolyMat.from_coeff_lists(F7, [[[1]], [[1]]])  # 2 x 1
    k = kernel_basis_left(a)
    assert k.m == 1 and k.n == 2
    prod = k.mul(a)
    assert all(e.is_zero() for row in prod.rows for e in row)
    rng = random.Random(30)
    nonsing = None
    while nonsing is None:
        cand = rand_polymat(rng, F97, 3, 3, 2)
        if not det_bareiss(cand).is_zero():
            nonsing = cand
    assert kernel_basis_left(nonsing).m == 0


def test_kernel_basis_random_properties():
    rng = random.Random(31)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 4)
        a = rand_polymat(rng, F97, m, n, 2)
        r, _ = rank_and_profile(a)
        k = kernel_basis_left(a)
        assert k.m == m - r
        if k.m:
            prod = k.mul(a)
            assert all(e.is_zero() for row in prod.rows for e in row)
            assert rank_and_profile(k)[0] == k.m


def test_saturation_of_demo_pair():
    # both matrices have saturation F[x]^(1x2)
    for mat in (same_saturation_wide(F97), same_saturation_tall(F97)):
        s = saturation_basis(mat)
        assert s == PolyMat.identity(F97, 2)
    rng = random.Random(32)
    nonsing = None
    while nonsing is None:
        cand = rand_polymat(rng, F97, 3, 3, 1)
        if not det_bareiss(cand).is_zero():
            nonsing = cand
    assert saturation_basis(nonsing) == PolyMat.identity(F97, 3)


def test_saturation_unimodular_completable_row():
    # [1, x] extends to a unimodular 2x2, so its saturation is its own row space
    a = PolyMat.from_coeff_lists(F7, [[[1], [0, 1]]])
    s = saturation_basis(a)
    assert s.m == 1
    assert row_membership_oracle(s, a.rows[0])
    assert row_membership_oracle(a, s.rows[0])
    # [x, x^2] is not saturated: saturation basis is [1, x]
    b = PolyMat.from_coeff_lists(F7, [[[0, 1], [0, 0, 1]]])
    sb = saturation_basis(b)
    assert sb.m == 1
    assert sb.rows[0][0] == Poly.one(F7) and sb.rows[0][1] == Poly.x(F7)


def test_saturation_contains_rows_and_is_idempotent():
    rng = random.Random(33)
    for _ in range(25):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_polymat(rng, F97, m, n, 2)
        s = saturation_basis(a)
        for row in a.rows:
            if s.m:
                assert row_membership_oracle(s, row)
            else:
                assert all(e.is_zero() for e in row)
        if s.m:
            again = saturation_basis(s)
            assert again == s


# -- membership oracle -------------------------------------------------------------


def test_membership_distinguishes_demo_pair():
    zerox = [Poly.zero(F97), Poly.x(F97)]
    assert row_membership_oracle(same_saturation_wide(F97), zerox)
    assert not row_membership_oracle(same_saturation_tall(F97), zerox)


def test_membership_closure():
    rng = random.Random(34)
    for _ in range(50):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_polymat(rng, F97, m, n, 2)
        for row in a.rows:
            assert row_membership_oracle(a, row)
        q = [rand_poly(rng, F97, 2) for _ in range(m)]
        combo = [
            sum((q[i] * a.rows[i][j] for i in range(m)), Poly.zero(F97))
            for j in range(n)
        ]
        assert row_membership_oracle(a, combo)


def all_polys_up_to(field, deg):
    span = [[]]
    for _ in range(deg + 1):
        span = [c + [v] for c in span for v in range(field.p)]
    return [Poly(field, c) for c in span]


def membership_by_linear_system(mat, v, deg_bound):
    """Degree-bounded membership decided by an F-linear system (independent)."""
    field = mat.field
    m, n = mat.m, mat.n
    ncoef = deg_bound + 1
    # unknowns: coefficients of q_1..q_m (each deg <= deg_bound)
    max_deg = deg_bound + max(0, int(mat.deg) if mat.deg != NEG_INF else 0)
    rows = []
    rhs = []
    for j in range(n):
        for k in range(max_deg + 1):
            row = []
            for i in range(m):
                entry = mat.rows[i][j]
                for c in range(ncoef):
                    idx = k - c
                    coeff = (
                        entry.coeffs[idx]
                        if 0 <= idx < len(entry.coeffs)
                        else 0
                    )
                    row.append(coeff)
            rows.append(row)
            rhs.append(v[j].coeffs[k] if k < len(v[j].coeffs) else 0)
    from polycert.matfield import solve_right

    sys_mat = FieldMat(field, rows, ncols=m * ncoef)
    return solve_right(sys_mat, rhs) is not None


def test_membership_against_exhaustive_enumeration():
    """Tiny fields: literal enumeration of all F[x]-combinations."""
    rng = random.Random(35)
    f2 = PrimeField(3)
    checked = 0
    for _ in range(40):
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        a = rand_polymat(rng, f2, m, n, 1)
        v = [rand_poly(rng, f2, 2) for _ in range(n)]
        deg_bound = (2 if any(f.coeffs for f in v) else 1) + m * max(
            0, int(a.deg) if a.deg != NEG_INF else 0
        )
        if (deg_bound + 1) * m > 6:
            continue
        combos = all_polys_up_to(f2, deg_bound)
        found = False
        for qs in itertools.product(combos, repeat=m):
            combo = [
                sum((qs[i] * a.rows[i][j] for i in range(m)), Poly.zero(f2))
                for j in range(n)
            ]
            if combo == v:
                found = True
                break
        assert row_membership_oracle(a, v) == found
        assert membership_by_linear_system(a, v, deg_bound) == found
        checked += 1
    assert checked >= 10


# -- rational solving -----------------------------------------------------------


def test_rational_solve_identity():
    i3 = PolyMat.identity(F97, 3)
    rng = random.Random(36)
    v = [rand_poly(rng, F97, 2) for _ in range(3)]
    u = rational_solve_left(i3, v)
    assert u is not LOW_RANK and u is not NO_SOLUTION
    assert [e.num for e in entries(u)] == v
    assert u.common_den.is_one()


def test_rational_solve_spec_example():
    # A = [[x, x^2]], v = [1, x]: u = (1/x)
    a = PolyMat.from_coeff_lists(F97, [[[0, 1], [0, 0, 1]]])
    v = [Poly.one(F97), Poly.x(F97)]
    u = rational_solve_left(a, v)
    assert u is not LOW_RANK and u is not NO_SOLUTION
    assert entries(u)[0] == RatFunc(Poly.one(F97), Poly.x(F97))
    assert u.common_den == Poly.x(F97)


def test_rational_solve_low_rank():
    rng = random.Random(37)
    row = [rand_poly(rng, F97, 2) for _ in range(3)]
    a = PolyMat(F97, [row, row], ncols=3)
    assert rational_solve_left(a, [Poly.zero(F97)] * 3) is LOW_RANK


def test_rational_solve_no_solution():
    # A = [[x, 0]], v = [0, 1]: no rational solution
    a = PolyMat.from_coeff_lists(F97, [[[0, 1], []]])
    v = [Poly.zero(F97), Poly.one(F97)]
    assert rational_solve_left(a, v) is NO_SOLUTION


def test_rational_solve_roundtrip_random():
    rng = random.Random(38)
    for _ in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(m, m + 3)
        a = rand_polymat(rng, FBIG, m, n, 2)
        r, _ = rank_and_profile(a)
        if r < m:
            assert rational_solve_left(a, [Poly.zero(FBIG)] * n) is LOW_RANK
            continue
        def nonzero_poly(dmax):
            while True:
                f = rand_poly(rng, FBIG, dmax)
                if not f.is_zero():
                    return f

        u_true = [
            RatFunc(rand_poly(rng, FBIG, 2), nonzero_poly(1)) for _ in range(m)
        ]
        v = []
        for j in range(n):
            acc = RatFunc.zero(FBIG)
            for i in range(m):
                acc = acc + u_true[i] * a.rows[i][j]
            v.append(acc)
        if not all(e.is_polynomial() for e in v):
            continue
        u = rational_solve_left(a, [e.num for e in v])
        assert u is not LOW_RANK and u is not NO_SOLUTION
        assert entries(u) == u_true


def test_rational_solve_small_field_fallback_agrees():
    rng = random.Random(39)
    f5 = PrimeField(5)
    for _ in range(40):
        m = rng.randrange(1, 3)
        n = m + rng.randrange(0, 2)
        a = rand_polymat(rng, f5, m, n, 1)
        q = [rand_poly(rng, f5, 1) for _ in range(m)]
        v = [
            sum((q[i] * a.rows[i][j] for i in range(m)), Poly.zero(f5))
            for j in range(n)
        ]
        got = rational_solve_left(a, v)
        if got in (LOW_RANK, NO_SOLUTION):
            r, _ = rank_and_profile(a)
            assert got is LOW_RANK and r < m
            continue
        # verify u A = v exactly
        den = got.common_den
        cleared = got.numer_row()
        for j in range(n):
            acc = Poly.zero(f5)
            for i in range(m):
                acc = acc + cleared[i] * a.rows[i][j]
            assert acc == den * v[j]


def test_saturation_cross_check_with_rational_solver():
    """Independent characterization: Sat(A) = polynomial vectors in the
    rational row span.  Vectors planted in the rational-but-not-polynomial
    span must be members of the saturation basis row space, and every basis
    row must itself have a rational solution against A."""
    from polycert.instances import planted_nonmember_rational
    from polycert.oracles import rational_solve_left, LOW_RANK, NO_SOLUTION

    rng = random.Random(44)
    for _ in range(25):
        m = rng.randrange(1, 4)
        n = rng.randrange(m, m + 2)
        a, v = planted_nonmember_rational(rng, FBIG, m, n, 2)
        assert not row_membership_oracle(a, v)
        basis = saturation_basis(a)
        assert row_membership_oracle(basis, v)
        for row in basis.rows:
            out = rational_solve_left(a, list(row))
            assert out is not LOW_RANK and out is not NO_SOLUTION


def test_popov_stress_extreme_shifts():
    """Strongly unbalanced shifts force long normalization chains; the form
    must still satisfy the shape conditions and stay unimodular-invariant."""
    rng = random.Random(45)
    for _ in range(30):
        m = rng.randrange(2, 6)
        n = rng.randrange(2, 6)
        a = rand_polymat(rng, F97, m, n, 3)
        if rank_and_profile(a)[0] == 0:
            continue
        shift = [rng.choice([-50, -7, 0, 7, 50]) for _ in range(n)]
        p1 = popov_form(a, shift)
        ok, prof = check_popov_shape(p1, shift)
        assert ok
        assert list(prof.indices) == sorted(prof.indices)
        w = rand_unimodular(rng, F97, m)
        assert popov_form(w.mul(a), shift) == p1


def test_hermite_shape_by_its_conditions():
    """The Hermite check, a Popov check under a Hermite shift, accepts
    Hermite forms with the pivot profile of their last nonzero columns,
    and rejects zero rows and pivots that do not increase (a non-monic
    pivot and a high entry below a pivot: the test above)."""
    assert check_hermite_shape(PolyMat(F7, [], ncols=3)) == (True, PivotProfile((), ()))
    rng = random.Random(44)
    for _ in range(40):
        h, _ = hermite_form(rand_polymat(rng, F97, rng.randrange(1, 4), rng.randrange(1, 4), 2))
        if h.m:
            cols = [max(j for j, f in enumerate(row) if not f.is_zero()) for row in h.rows]
            degs = [int(row[k].deg) for row, k in zip(h.rows, cols)]
            assert check_hermite_shape(h) == (True, PivotProfile(tuple(cols), tuple(degs)))
    # [[x^2, 0], [c, x]] with deg c < 2 is in Hermite form
    good = PolyMat.from_coeff_lists(F7, [[[0, 0, 1], []], [[3, 1], [0, 1]]])
    assert check_hermite_shape(good) == (True, PivotProfile((0, 1), (2, 1)))
    broken = {
        "zero row": [[[0, 0, 1], []], [[], []]],
        "pivots not increasing": [[[3, 1], [0, 1]], [[0, 0, 1], []]],
        "repeated pivot": [[[0, 0, 1], []], [[1], []]],
    }
    for name, rows in broken.items():
        assert check_hermite_shape(PolyMat.from_coeff_lists(F7, rows)) == (False, None), name
