"""The Prover's batched evaluation kernel against the per-point routines.

Batched evaluation (PolyMat.eval_many), batched elimination (matfield's
solve_many, rank_profile_many, vecmat_many) and batched inversion
(PrimeField.inv_array) must agree with the scalar code, interpolate_many
with Lagrange's formula, and the batched route of rank and rational solving
with the fraction-free one, over a small field, an int64 field and a field
that needs Python-int (object) arrays.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycert import oracles, upoly
from polycert.ff import PrimeField
from polycert.matfield import (
    FieldMat,
    det_field,
    pluq,
    rank_profile_many,
    solve_many,
    solve_right,
    vecmat_many,
)
from polycert.oracles import (
    BATCH_CUTOFF,
    LOW_RANK,
    NO_SOLUTION,
    _bareiss,
    _rank_and_profile_evaluation,
    _solve_left_evaluation,
    elimination_plan,
    rank_and_profile,
    rational_solve_left,
)
from polycert.polymat import PolyMat
from polycert.upoly import Poly, interpolate_many
from reference import RatFunc, entries, ratvec_of_entries
from test_matfield import col_rank_profile

F97 = PrimeField(97)
F31 = PrimeField(2**31 - 1)
F61 = PrimeField(2**61 - 1)
FIELDS = [F97, F31, F61]
IDS = ["F97", "F2^31-1", "F2^61-1"]


@contextmanager
def route(batched):
    """Send every rank, determinant and rational solve to one route: the
    batched kernel (where the field has the points) or fraction-free."""
    plan = oracles.elimination_plan

    def forced(mat, *args):
        npoints, budget, _ = plan(mat, *args)
        return npoints, budget, batched and mat.field.p >= npoints + budget

    with mock.patch.object(oracles, "elimination_plan", forced):
        yield


def test_dtype_follows_modulus():
    assert F97.dtype is np.int64 and F31.dtype is np.int64
    assert F61.dtype is object


# -- strategies -----------------------------------------------------------------


def _poly(draw, field, deg):
    return Poly(field, draw(st.lists(st.integers(0, field.p - 1),
                                     min_size=deg + 1, max_size=deg + 1)))


@st.composite
def polymats(draw, field, max_dim=4, max_deg=4):
    """Random, zero, zero-column and planted-rank matrices, any shape."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    d = draw(st.integers(0, max_deg))
    kind = draw(st.sampled_from(["random", "zero", "zero_col", "planted"]))
    if kind == "zero":
        return PolyMat.zero(field, m, n)
    if kind == "planted":
        r = draw(st.integers(0, min(m, n)))
        left = PolyMat(field, [[_poly(draw, field, d // 2) for _ in range(r)]
                               for _ in range(m)], ncols=r)
        right = PolyMat(field, [[_poly(draw, field, d - d // 2) for _ in range(n)]
                                for _ in range(r)], ncols=n)
        return left.mul(right)
    rows = [[_poly(draw, field, d) for _ in range(n)] for _ in range(m)]
    if kind == "zero_col":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = Poly.zero(field)
    return PolyMat(field, rows, ncols=n)


# -- batched inversion and evaluation ----------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_inv_array_matches_inv(field, data):
    vals = data.draw(st.lists(st.integers(1, field.p - 1), max_size=40))
    got = field.inv_array(vals)
    assert got.dtype == field.dtype
    assert [int(x) for x in got] == [field.inv(v) for v in vals]
    if vals:
        with pytest.raises(ZeroDivisionError):
            field.inv_array(vals[:1] + [0] + vals[1:])


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_eval_many_matches_eval_at(field, data):
    mat = data.draw(polymats(field))
    alphas = data.draw(st.lists(st.integers(0, field.p - 1), min_size=1, max_size=20))
    got = mat.eval_many(alphas)
    assert got.shape == (len(alphas), mat.m, mat.n) and got.dtype == field.dtype
    for alpha, ev in zip(alphas, got):
        assert ev.tolist() == mat.eval_at(alpha).rows


# -- batched elimination -------------------------------------------------------------


@st.composite
def field_mats(draw, field, m, n):
    """Random matrices, with repeated rows and zero columns to make singular ones."""
    rows = [draw(st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n))
            for _ in range(m)]
    kind = draw(st.sampled_from(["random", "repeat_row", "zero_col", "small"]))
    if kind == "repeat_row" and m > 1:
        rows[-1] = list(rows[0])
    elif kind == "zero_col" and n:
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    elif kind == "small":
        rows = [[x % 2 for x in row] for row in rows]
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_solve_many_matches_solve_right_and_det(field, data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 8))
    systems = [data.draw(field_mats(field, n, n + 1)) for _ in range(k)]
    ok, det, w = solve_many(field, np.array(systems, dtype=field.dtype))
    for rows, ok_i, det_i, w_i in zip(systems, ok, det, w):
        a = FieldMat(field, [r[:n] for r in rows])
        b = [r[n] for r in rows]
        d = det_field(a)
        assert int(det_i) == d
        assert bool(ok_i) == (d != 0)
        if d:
            assert [int(x) for x in w_i] == solve_right(a, b)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_profile_many_matches_pluq(field, data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    mats = [data.draw(field_mats(field, m, n)) for _ in range(data.draw(st.integers(1, 6)))]
    ranks, masks = rank_profile_many(field, np.array(mats, dtype=field.dtype))
    for rows, r, mask in zip(mats, ranks, masks):
        f = pluq(FieldMat(field, rows))
        assert int(r) == f.rank
        assert tuple(np.flatnonzero(mask).tolist()) == col_rank_profile(f)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_vecmat_many_matches_vecmat(field, data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 5))
    mats = [data.draw(field_mats(field, m, n)) for _ in range(k)]
    vecs = [data.draw(st.lists(st.integers(0, field.p - 1), min_size=m, max_size=m))
            for _ in range(k)]
    got = vecmat_many(field, np.array(vecs, dtype=field.dtype),
                      np.array(mats, dtype=field.dtype))
    for rows, v, out in zip(mats, vecs, got):
        assert out.tolist() == FieldMat(field, rows).vecmat(v)


# -- rank and profile over F(x) ------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_evaluation_rank_matches_bareiss(field, data):
    mat = data.draw(polymats(field, max_dim=5))
    want = _bareiss(mat)[:2]
    npoints = elimination_plan(mat)[0]
    # the degree-sum count, and enough points to take the batched route
    assert _rank_and_profile_evaluation(mat, npoints) == want
    assert _rank_and_profile_evaluation(mat, max(npoints, BATCH_CUTOFF)) == want
    assert rank_and_profile(mat) == want


def test_rank_routes_by_point_count():
    # 2 x 3 of degree 8: 17 points, a two-row block past the cutoff; F_7 has
    # too few points
    rng = np.random.default_rng(3)
    for field in (F97, PrimeField(7)):
        rows = [[Poly(field, [int(c) for c in rng.integers(0, field.p, 9)])
                 for _ in range(3)] for _ in range(2)]
        rows[1] = [f * 3 for f in rows[0]]  # rank 1
        mat = PolyMat(field, rows, ncols=3)
        assert elimination_plan(mat)[:2] == (17, 0)
        with mock.patch.object(oracles, "_rank_and_profile_evaluation",
                               wraps=_rank_and_profile_evaluation) as ev:
            assert rank_and_profile(mat) == _bareiss(mat)[:2] == (1, (0,))
        assert ev.call_count == (field.p >= 17)


# -- rational solving ---------------------------------------------------------------------------


@st.composite
def square_systems(draw, field):
    """(B, y) with B nonsingular over F(x)."""
    m = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    b = PolyMat(field, [[_poly(draw, field, d) for _ in range(m)] for _ in range(m)],
                ncols=m)
    assume(_bareiss(b)[0] == m)
    y = [_poly(draw, field, draw(st.integers(-1, 3))) if draw(st.booleans())
         else Poly.zero(field) for _ in range(m)]
    return b, y


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_square_solve_same_on_both_routes(field, data):
    b, y = data.draw(square_systems(field))
    npoints, budget, _ = elimination_plan(b, y, range(b.m))
    want = ratvec_of_entries(_reference_solve(b, y))
    for k in (npoints, max(npoints, BATCH_CUTOFF), npoints + BATCH_CUTOFF):
        got = _solve_left_evaluation(b, y, range(b.m), k, budget)
        assert got.common_den == want.common_den
        assert got.numer_row() == want.numer_row()
        assert got == want
    with route(False):
        got = rational_solve_left(b, y)
    assert got.common_den == want.common_den
    assert got.numer_row() == want.numer_row()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_rational_solve_left_same_on_both_routes(field, data):
    mat = data.draw(polymats(field, max_dim=4, max_deg=3))
    kind = data.draw(st.sampled_from(["member", "random"]))
    if kind == "member":
        u = [_poly(data.draw, field, data.draw(st.integers(0, 2))) for _ in range(mat.m)]
        v = [sum((u[i] * mat.rows[i][j] for i in range(mat.m)), Poly.zero(field))
             for j in range(mat.n)]
    else:
        v = [_poly(data.draw, field, data.draw(st.integers(-1, 3))) for _ in range(mat.n)]
    with route(False):
        scalar = rational_solve_left(mat, v)
    with route(True):
        batched = rational_solve_left(mat, v)
    if scalar is LOW_RANK or scalar is NO_SOLUTION:
        assert batched is scalar
        return
    assert batched.common_den == scalar.common_den
    assert batched.numer_row() == scalar.numer_row()
    assert batched == scalar


# -- the rational solve against F(x) elimination --------------------------------------------------


def _of_poly(f):
    """f as a RatFunc over the denominator 1."""
    return RatFunc(f, None, reduce=False)


def _reference_solve(mat, v):
    """u A = v by Gauss-Jordan elimination over F(x) on A^T, then the
    residual u A - v in rational arithmetic: LOW_RANK, NO_SOLUTION or the
    reduced entries of u."""
    field, m = mat.field, mat.m
    rows = [[_of_poly(mat.rows[i][j]) for i in range(m)] for j in range(mat.n)]
    rhs = [_of_poly(f) for f in v]
    for c in range(m):
        piv = next((i for i in range(c, mat.n) if not rows[i][c].is_zero()), None)
        if piv is None:
            return LOW_RANK
        rows[c], rows[piv] = rows[piv], rows[c]
        rhs[c], rhs[piv] = rhs[piv], rhs[c]
        inv = RatFunc(rows[c][c].den, rows[c][c].num)
        rows[c] = [e * inv for e in rows[c]]
        rhs[c] = rhs[c] * inv
        for i in range(mat.n):
            f = rows[i][c]
            if i != c and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
                rhs[i] = rhs[i] - f * rhs[c]
    u = rhs[:m]
    for j in range(mat.n):
        acc = RatFunc.zero(field)
        for i in range(m):
            acc = acc + u[i] * mat.rows[i][j]
        if acc != _of_poly(v[j]):
            return NO_SOLUTION
    return u


@st.composite
def membership_systems(draw, field):
    """(A, v, kind): v a planted member of a random A, A rank-deficient, or
    a planted member perturbed in one column outside A's greedy column rank
    profile, which makes it a non-member."""
    kind = draw(st.sampled_from(["member", "deficient", "perturbed"]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + (kind == "perturbed"), m + 2))
    d = draw(st.integers(0, 3))
    rows = [[_poly(draw, field, d) for _ in range(n)] for _ in range(m)]
    if kind == "deficient":
        # the last row is a polynomial combination of the others (zero if m = 1)
        qs = [_poly(draw, field, draw(st.integers(0, 1))) for _ in range(m - 1)]
        rows[-1] = [sum((q * rows[i][j] for i, q in enumerate(qs)), Poly.zero(field))
                    for j in range(n)]
    mat = PolyMat(field, rows, ncols=n)
    u = [_poly(draw, field, draw(st.integers(-1, 2))) for _ in range(m)]
    v = [sum((u[i] * rows[i][j] for i in range(m)), Poly.zero(field)) for j in range(n)]
    if kind == "perturbed":
        r, profile = _bareiss(mat)[:2]
        outside = [j for j in range(n) if j not in profile]
        j = draw(st.sampled_from(outside))
        delta = _poly(draw, field, draw(st.integers(0, 3)))
        assume(not delta.is_zero())
        v[j] = v[j] + delta
    return mat, v, kind


@pytest.mark.parametrize("field", FIELDS + [PrimeField(p) for p in (7, 2, 3)],
                         ids=IDS + ["F7", "F2", "F3"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rational_solve_left_matches_fraction_reference(field, data):
    # F_7, F_2 and F_3 mostly have too few points for the evaluation route:
    # Cramer's rule on Bareiss determinants
    mat, v, kind = data.draw(membership_systems(field))
    want = _reference_solve(mat, v)
    if kind == "deficient":
        assert want is LOW_RANK
    if kind == "perturbed":
        # column j depends on earlier profile columns, so u A_j = v_j is
        # forced by the others and a changed v_j leaves the row space
        assert want in (LOW_RANK, NO_SOLUTION)
    for batched in (True, False):
        with route(batched):
            got = rational_solve_left(mat, v)
        if want is LOW_RANK or want is NO_SOLUTION:
            assert got is want
        else:
            assert entries(got) == want


def test_non_member_in_a_non_profile_column_on_both_paths():
    # A = [1, x, x^2 + 1] spans its first column; v = u A + e_2 is not a member
    for field in FIELDS:
        a = PolyMat(field, [[Poly.one(field), Poly.x(field), Poly.of(field, 1, 0, 1)]])
        u = Poly.of(field, 3, 1)
        member = [u * f for f in a.rows[0]]
        outside = member[:2] + [member[2] + Poly.one(field)]
        for batched in (True, False):
            with route(batched):
                assert entries(rational_solve_left(a, member)) == [_of_poly(u)]
                assert rational_solve_left(a, outside) is NO_SOLUTION


# -- interpolation -------------------------------------------------------------------------------


def _lagrange(field, xs, ys):
    """sum_i y_i prod_{j != i} (x - x_j) / (x_i - x_j), term by term."""
    acc = Poly.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Poly.constant(field, yi)
        for j, xj in enumerate(xs):
            if j != i:
                term = term * Poly.of(field, -xj, 1).scale(field.inv((xi - xj) % field.p))
        acc = acc + term
    return acc


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_interpolate_many_matches_lagrange(field, data):
    n = data.draw(st.integers(0, 30))
    xs = data.draw(st.lists(st.integers(0, min(field.p, 10**6) - 1), min_size=n,
                            max_size=n, unique=True))
    columns = data.draw(st.lists(
        st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n), max_size=5))
    got = interpolate_many(field, xs, columns)
    assert got == [_lagrange(field, xs, ys) for ys in columns]
    for f, ys in zip(got, columns):
        assert [f(x) for x in xs] == ys


def test_interpolate_many_largest_ordinates():
    # every ordinate p - 1 at hundreds of points: a product of the ordinates
    # with an unsplit int64 operator would overflow long before the sum ends
    for field, xs in ((F31, range(0, 900, 3)), (F97, range(97)), (F61, range(80))):
        top = field.p - 1
        ramp = [x * x % field.p for x in xs]
        const, square = interpolate_many(field, xs, [[top] * len(xs), ramp])
        assert const == Poly.constant(field, top)
        assert square == Poly.of(field, 0, 0, 1)


def test_interpolation_operator_cache_stays_bounded():
    cache = upoly._cached_interpolation_operator
    bound = cache.cache_info().maxsize
    for k in range(3 * bound):
        xs = [k + 7 * i for i in range(4)]
        ys = [k, 1, 2, 3]
        f = interpolate_many(F31, xs, [ys])[0]
        assert [f(x) for x in xs] == ys
    assert cache.cache_info().currsize <= bound


def test_large_interpolation_operator_is_not_cached():
    cache = upoly._cached_interpolation_operator
    cache.cache_clear()
    xs = range(upoly.CACHED_OPERATOR_POINTS + 1)
    ys = [(3 * x + 5) % F31.p for x in xs]
    assert interpolate_many(F31, xs, [ys]) == [Poly.of(F31, 5, 3)]
    assert cache.cache_info().currsize == 0
    interpolate_many(F31, range(upoly.CACHED_OPERATOR_POINTS), [ys[:-1]])
    assert cache.cache_info().currsize == 1
