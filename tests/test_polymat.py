import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.ff import PrimeField
from polycert.matfield import FieldMat
from polycert.polymat import (
    PolyMat,
    SubmatrixView,
    ToeplitzOp,
    ToeplitzProductView,
    ScaledVecView,
    hermite_shift,
)
from polycert.upoly import NEG_INF, Poly
from reference import matmul

F7 = PrimeField(7)
F97 = PrimeField(97)
FBIG = PrimeField(2**31 - 1)


def rand_poly(rng, field, dmax):
    deg = rng.randrange(-1, dmax + 1)
    if deg < 0:
        return Poly.zero(field)
    c = [rng.randrange(field.p) for _ in range(deg)] + [rng.randrange(1, field.p)]
    return Poly(field, c)


def rand_pm(rng, field, m, n, d):
    return PolyMat(field, [[rand_poly(rng, field, d) for _ in range(n)] for _ in range(m)],
                   ncols=n)


def test_eval_mat_examples():
    const = PolyMat.from_coeff_lists(F7, [[[3], [5]], [[0], [1]]])
    assert const.eval_at(4) == FieldMat(F7, [[3, 5], [0, 1]])
    xmat = PolyMat.from_coeff_lists(F7, [[[0, 1]]])
    assert xmat.eval_at(3) == FieldMat(F7, [[3]])
    assert const.deg == 0 and PolyMat.zero(F7, 2, 2).deg == NEG_INF


def test_eval_is_multiplicative():
    rng = random.Random(50)
    for _ in range(30):
        a = rand_pm(rng, F97, 4, 4, 3)
        b = rand_pm(rng, F97, 4, 4, 3)
        alpha = rng.randrange(97)
        assert a.mul(b).eval_at(alpha) == matmul(a.eval_at(alpha), b.eval_at(alpha))


def test_mul_examples_and_convolution_oracle():
    i2 = PolyMat.identity(F7, 2)
    rng = random.Random(51)
    a = rand_pm(rng, F7, 2, 2, 2)
    assert a.mul(i2) == a
    x = PolyMat.from_coeff_lists(F7, [[[0, 1]]])
    assert x.mul(x) == PolyMat.from_coeff_lists(F7, [[[0, 0, 1]]])
    b = rand_pm(rng, F7, 2, 3, 2)
    assert a.mul(b) == reference_mul(a, b)


def reference_mul(a, b):
    """A B by the schoolbook triple loop over the entries."""
    z = Poly.zero(a.field)
    out = []
    for i in range(a.m):
        out_row = []
        for j in range(b.n):
            acc = z
            for k in range(a.n):
                x, y = a.rows[i][k], b.rows[k][j]
                if x.coeffs and y.coeffs:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return PolyMat(a.field, out, ncols=b.n)


MUL_FIELDS = [PrimeField(2), F97, FBIG, PrimeField(2**61 - 1)]
MUL_IDS = ["F2", "F97", "F2^31-1", "F2^61-1"]


@st.composite
def factor_pairs(draw, field):
    """(A, B) with A m x k and B k x n, any of them 0, and factors that are
    random, zero or constant."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))

    def factor(r, c):
        kind = draw(st.sampled_from(["random", "zero", "constant"]))
        d = {"random": draw(st.integers(0, 5)), "zero": -1, "constant": 0}[kind]
        return PolyMat(field, [[Poly(field, draw(st.lists(st.integers(0, field.p - 1),
                                                          min_size=d + 1, max_size=d + 1)))
                                for _ in range(c)] for _ in range(r)], ncols=c)

    return factor(m, k), factor(k, n)


@pytest.mark.parametrize("field", MUL_FIELDS, ids=MUL_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mul_matches_the_triple_loop(field, data):
    a, b = data.draw(factor_pairs(field))
    c = a.mul(b)
    assert (c.m, c.n) == (a.m, b.n)
    assert c == reference_mul(a, b)
    # the product keeps its tensor, and evaluating from it agrees with eval_at
    t = c.coeff_tensor()
    assert t.dtype == field.dtype and t.shape == (1 + max(0, c.deg), c.m, c.n)
    xs = [0, 1, field.p - 1, 5 % field.p]
    for x, at in zip(xs, c.eval_many(xs)):
        assert at.tolist() == c.eval_at(x).rows


@pytest.mark.parametrize("field", MUL_FIELDS[2:], ids=MUL_IDS[2:])
def test_mul_is_exact_at_the_largest_elements(field):
    # every coefficient p - 1: an int64 sum of unsplit products would overflow
    top = Poly(field, [field.p - 1] * 3)
    a = PolyMat(field, [[top] * 16 for _ in range(3)], ncols=16)
    b = PolyMat(field, [[top] * 2 for _ in range(16)], ncols=2)
    assert a.mul(b) == reference_mul(a, b)


def test_mul_over_f2_above_the_field_size():
    # a product of degree 8 over F_2 has more coefficients than F_2 has points
    f2 = PrimeField(2)
    rng = random.Random(53)
    a, b = rand_pm(rng, f2, 3, 3, 4), rand_pm(rng, f2, 3, 3, 4)
    a.rows[0][0] = Poly(f2, [1, 0, 0, 0, 1])
    b.rows[0][0] = Poly(f2, [0, 1, 0, 0, 1])
    c = a.mul(b)
    assert c.deg > f2.p and c == reference_mul(a, b)


def test_degree_bound_of_product():
    rng = random.Random(52)
    for _ in range(20):
        a = rand_pm(rng, F97, 3, 3, 2)
        b = rand_pm(rng, F97, 3, 3, 3)
        c = a.mul(b)
        if c.deg != NEG_INF:
            assert c.deg <= (a.deg if a.deg != NEG_INF else 0) + (
                b.deg if b.deg != NEG_INF else 0
            )


def test_row_combination_matches_mul():
    """q A by vecmat equals the 1 x m matrix product, for q over F and over
    F[x]; a 0-row matrix gives the zero row."""
    rng = random.Random(53)
    a = rand_pm(rng, F97, 4, 3, 2)
    lam = [rng.randrange(97) for _ in range(4)]
    row = PolyMat(F97, [[Poly.constant(F97, c) for c in lam]], ncols=4)
    assert a.vecmat(lam) == row.mul(a).rows[0]
    q = [rand_poly(rng, F97, 3) for _ in range(4)] + [Poly.zero(F97)]
    a = a.stack(rand_pm(rng, F97, 1, 3, 2))
    assert a.vecmat(q) == PolyMat(F97, [q], ncols=5).mul(a).rows[0]
    assert PolyMat(F97, [], ncols=3).vecmat([]) == [Poly.zero(F97)] * 3
    with pytest.raises(ValueError):
        a.vecmat(lam)


def test_toeplitz_layout_and_apply():
    # rho=2, m=3: values v[0..3]; C[i][j] = v[i - j + 2]
    vals = [1, 2, 3, 4]
    top = ToeplitzOp(F7, 2, 3, vals)
    mat = top.materialize()
    assert mat.rows == [[3, 2, 1], [4, 3, 2]]
    with pytest.raises(ValueError):
        ToeplitzOp(F7, 2, 3, [1, 2, 3])
    rng = random.Random(54)
    a = FieldMat(F7, [[rng.randrange(7) for _ in range(4)] for _ in range(3)])
    assert top.apply_field_mat(a) == matmul(mat, a)
    x = [rng.randrange(7) for _ in range(2)]
    assert top.left_apply(x) == mat.transpose().matvec(x)
    y = [rng.randrange(7) for _ in range(3)]
    assert top.apply_vec(y) == mat.matvec(y)
    with pytest.raises(ValueError):
        top.apply_vec(x)
    zero = ToeplitzOp(F7, 2, 3, [0, 0, 0, 0])
    assert zero.materialize() == FieldMat.zero(F7, 2, 3)
    one_row = ToeplitzOp(F7, 1, 3, [5, 6, 0])
    assert one_row.materialize().rows == [[0, 6, 5]]


def test_toeplitz_product_view_consistency():
    rng = random.Random(55)
    for _ in range(20):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rho = rng.randrange(1, m + 1)
        a = rand_pm(rng, F97, m, n, 3)
        top = ToeplitzOp(F97, rho, m, [rng.randrange(97) for _ in range(rho + m - 1)])
        view = ToeplitzProductView(top, a)
        product = view.materialize()
        alpha = rng.randrange(97)
        # (C.A)(alpha) computed two ways
        assert view.eval_at(alpha) == product.eval_at(alpha)
        assert view.eval_at(alpha) == top.apply_field_mat(a.eval_at(alpha))


def test_submatrix_view():
    rng = random.Random(56)
    a = rand_pm(rng, F97, 4, 5, 2)
    view = SubmatrixView(a, [1, 3], [0, 2, 4])
    assert view.m == 2 and view.n == 3 and view.field is F97
    alpha = 17
    assert view.eval_at(alpha) == a.eval_at(alpha).submatrix([1, 3], [0, 2, 4])
    assert view.materialize() == a.submatrix([1, 3], [0, 2, 4])


def _vectors(data, field, length):
    """A vector with many zeros, as the spread vectors of a submatrix have."""
    elem = st.one_of(st.just(0), st.integers(0, field.p - 1))
    return data.draw(st.lists(elem, min_size=length, max_size=length))


def _index_set(data, universe):
    return data.draw(st.lists(st.integers(0, universe - 1), min_size=1,
                              max_size=universe, unique=True))


@pytest.mark.parametrize("field", [F7, FBIG], ids=["F7", "F2^31-1"])
@pytest.mark.parametrize("square", [True, False], ids=["rho=m", "rho<m"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_view_products_match_evaluation(field, square, data):
    """vecmat_at/matvec_at equal eval_at(alpha).vecmat/matvec for every view,
    A, C.A and submatrices of both, down to index sets of size 1, and never
    form C @ A(alpha)."""
    m = data.draw(st.integers(1 if square else 2, 5))
    n = data.draw(st.integers(1, 5))
    rho = m if square else data.draw(st.integers(1, m - 1))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    a = rand_pm(rng, field, m, n, 3)
    top = ToeplitzOp(field, rho, m, [rng.randrange(field.p) for _ in range(rho + m - 1)])
    alpha = data.draw(st.integers(0, field.p - 1))
    ev = a.eval_at(alpha)
    product = top.apply_field_mat(ev)
    cases = [(a, ev), (ToeplitzProductView(top, a), product)]
    for base, ref in list(cases):
        index_sets = [(_index_set(data, base.m), _index_set(data, base.n)),
                      ([data.draw(st.integers(0, base.m - 1))],
                       [data.draw(st.integers(0, base.n - 1))])]
        for rows, cols in index_sets:
            cases.append((SubmatrixView(base, rows, cols), ref.submatrix(rows, cols)))
    with mock.patch.object(ToeplitzOp, "apply_field_mat",
                           side_effect=AssertionError("formed C @ A(alpha)")):
        for view, ref in cases:
            w = _vectors(data, field, view.m)
            assert view.vecmat_at(alpha, w) == ref.vecmat(w)
            w = _vectors(data, field, view.n)
            assert view.matvec_at(alpha, w) == ref.matvec(w)


def test_scaled_vec_view():
    rng = random.Random(57)
    d = rand_poly(rng, F97, 2)
    v = [rand_poly(rng, F97, 2) for _ in range(3)]
    sv = ScaledVecView(v, d)
    alpha = 23
    assert sv.eval_at(alpha) == [F97.mul(d(alpha), f(alpha)) for f in v]
    assert sv.materialize() == [d * f for f in v]
    pv = ScaledVecView(v)
    assert pv.eval_at(alpha) == [f(alpha) for f in v]
    assert pv.materialize() == v


def test_hermite_shift_is_increasing():
    s = hermite_shift(4, 3)
    assert s == [3, 6, 9, 12]
