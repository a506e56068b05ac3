import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.ff import PrimeField
from polycert.upoly import (
    NEG_INF,
    Poly,
    RatVec,
    deg_add,
    interpolate,
    interpolate_many,
    lin_comb,
    poly_gcd,
    xgcd,
)
from reference import RatFunc, entries, poly_lcm, ratvec_of_pairs

F7 = PrimeField(7)
FBIG = PrimeField(2**31 - 1)


def rand_poly(rng, field, deg):
    if deg < 0:
        return Poly.zero(field)
    coeffs = [rng.randrange(field.p) for _ in range(deg + 1)]
    coeffs[-1] = rng.randrange(1, field.p)
    return Poly(field, coeffs)


def test_mul_example_mod_7():
    # (x+1)(x-1) = x^2 - 1 = x^2 + 6 mod 7
    f = Poly.of(F7, 1, 1)
    g = Poly.of(F7, 6, 1)
    assert f * g == Poly.of(F7, 6, 0, 1)


def test_mul_by_zero_absorbs():
    f = Poly.of(F7, 3, 2, 1)
    assert (f * Poly.zero(F7)).is_zero()
    assert f.deg == 2 and Poly.zero(F7).deg == NEG_INF


def test_divmod_exact_and_trivial():
    x2 = Poly.of(F7, 0, 0, 1)
    x = Poly.of(F7, 0, 1)
    q, r = divmod(x2, x)
    assert q == x and r.is_zero()
    with pytest.raises(ZeroDivisionError):
        divmod(x, Poly.zero(F7))


def test_divmod_roundtrip_random():
    rng = random.Random(1)
    for _ in range(1000):
        f = rand_poly(rng, F7, rng.randrange(-1, 17))
        g = rand_poly(rng, F7, rng.randrange(0, 17))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.deg < g.deg


def test_eval_examples():
    # f = 3 + 2x + x^2 at 2: 3 + 4 + 4 = 11 = 4 mod 7
    f = Poly.of(F7, 3, 2, 1)
    assert f(2) == 4
    c = Poly.of(F7, 5)
    assert all(c(a) == 5 for a in range(7))
    assert Poly.zero(F7)(3) == 0
    # root found by brute force over F_7
    g = Poly.of(F7, 6, 0, 1)  # x^2 - 1
    roots = [a for a in range(7) if g(a) == 0]
    assert roots and all(g(a) == 0 for a in roots)


def test_eval_is_ring_hom():
    rng = random.Random(2)
    for _ in range(200):
        f = rand_poly(rng, F7, rng.randrange(-1, 9))
        g = rand_poly(rng, F7, rng.randrange(-1, 9))
        a = rng.randrange(7)
        assert (f * g)(a) == F7.mul(f(a), g(a))
        assert (f + g)(a) == (f(a) + g(a)) % 7


def test_xgcd_examples():
    f = Poly.of(F7, 1, 0, 1)  # x^2 + 1
    g = Poly.of(F7, 3, 1)  # x + 3
    d, s, t = xgcd(f, g)
    # -3 is not a root of x^2+1 mod 7 (9+1=10=3), so the gcd is 1
    assert d.is_one()
    assert s * f + t * g == d
    # self gcd
    d2, s2, t2 = xgcd(f, f)
    assert d2 == f.monic() and s2 * f + t2 * f == d2
    # gcd with zero
    d3, s3, t3 = xgcd(Poly.zero(F7), g)
    assert d3 == g.monic() and s3.is_zero() and t3 == Poly.of(F7, F7.inv(g.lc()))
    with pytest.raises(ValueError):
        xgcd(Poly.zero(F7), Poly.zero(F7))


def test_xgcd_bezout_identity_random():
    rng = random.Random(3)
    for _ in range(300):
        f = rand_poly(rng, F7, rng.randrange(-1, 10))
        g = rand_poly(rng, F7, rng.randrange(-1, 10))
        if f.is_zero() and g.is_zero():
            continue
        d, s, t = xgcd(f, g)
        assert s * f + t * g == d
        assert d.lc() == 1
        if not f.is_zero():
            assert (f % d).is_zero()
        if not g.is_zero():
            assert (g % d).is_zero()
        # normalized Bezout degree bounds
        if f.deg != NEG_INF and g.deg != NEG_INF and d.deg < min(f.deg, g.deg):
            if not s.is_zero():
                assert s.deg < g.deg - d.deg
            if not t.is_zero():
                assert t.deg < f.deg - d.deg


def test_interpolate_examples():
    assert interpolate(F7, [(0, 5)]) == Poly.of(F7, 5)
    assert interpolate(F7, [(0, 1), (1, 2)]) == Poly.of(F7, 1, 1)
    with pytest.raises(ValueError):
        interpolate(F7, [(1, 2), (1, 3)])


def test_interpolate_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        f = rand_poly(rng, F7, rng.randrange(-1, 6))
        pts = [(a, f(a)) for a in range(7)]
        assert interpolate(F7, pts) == f


@st.composite
def _abscissae_and_columns(draw, p):
    n = draw(st.integers(0, min(p, 64)))
    xs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True))
    column = st.one_of(
        st.just([0] * n),
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
    )
    return xs, draw(st.lists(column, max_size=4))


@pytest.mark.parametrize("field", [F7, FBIG], ids=["F7", "F2^31-1"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_interpolate_many_matches_per_column(field, data):
    xs, columns = data.draw(_abscissae_and_columns(field.p))
    got = interpolate_many(field, xs, columns)
    assert len(got) == len(columns)
    for f, ys in zip(got, columns):
        assert f == interpolate(field, zip(xs, ys))
        assert f.deg == NEG_INF or f.deg < len(xs)
        assert [f(x) for x in xs] == ys
        if not any(ys):
            assert f.is_zero()


def test_interpolate_many_duplicate_abscissa():
    with pytest.raises(ValueError):
        interpolate_many(F7, [1, 8], [[2, 3]])  # 8 = 1 mod 7
    with pytest.raises(ValueError):
        interpolate_many(FBIG, [0, 5, 0], [[1, 2, 3], [4, 5, 6]])
    assert interpolate_many(F7, [], [[], []]) == [Poly.zero(F7)] * 2
    assert interpolate_many(F7, [], []) == interpolate_many(FBIG, [3, 9], []) == []


@pytest.mark.parametrize("field", [F7, FBIG], ids=["F7", "F2^31-1"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mul_matches_evaluation(field, data):
    # (f g)(alpha) = f(alpha) g(alpha), past the lengths any workload reaches
    elems = st.integers(0, field.p - 1)
    la, lb = data.draw(st.integers(0, 200)), data.draw(st.integers(0, 200))
    f = Poly(field, data.draw(st.lists(elems, min_size=la, max_size=la)))
    g = Poly(field, data.draw(st.lists(elems, min_size=lb, max_size=lb)))
    prod = f * g
    assert prod.deg == deg_add(f.deg, g.deg)
    for alpha in data.draw(st.lists(st.integers(0, field.p - 1), min_size=1, max_size=5)):
        assert prod(alpha) == f(alpha) * g(alpha) % field.p


def test_ratfunc_reduction_and_denominator():
    x = Poly.x(F7)
    r = RatFunc(x, x)  # x/x -> 1
    assert r.num.is_one() and r.den.is_one()
    assert r.is_polynomial()
    r2 = RatFunc(Poly.one(F7), x)
    assert not r2.is_polynomial()
    # denom is 1 iff the value is a polynomial
    both = r2 + RatFunc(x * x - Poly.one(F7), x)  # (1 + x^2 - 1)/x = x
    assert both.is_polynomial() and both.num == x


def test_ratvec_common_denominator():
    x = Poly.x(F7)
    one = Poly.one(F7)
    v = ratvec_of_pairs([(one, x), (one, x * x)])
    assert v.common_den == x * x
    nr = v.numer_row()
    assert nr[0] == x and nr[1] == one
    assert repr(v) == f"RatVec({[x, one]!r} / {x * x!r})"
    v2 = ratvec_of_pairs([(one, one), (x, one)])
    assert v2.common_den.is_one() and v2.is_polynomial()
    v3 = RatVec.from_common_den(x, [x])
    assert v3.common_den.is_one() and v3.numer_row() == [one]
    with pytest.raises(ZeroDivisionError):
        RatVec.from_common_den(Poly.zero(F7), [one])


def test_ratvec_eval_and_equality_follow_its_entries():
    """N(alpha)/den(alpha) is every entry's value, and den(alpha) = 0 exactly
    when some reduced entry's denominator vanishes; vectors built from
    entries and from a common denominator compare equal."""
    rng = random.Random(8)
    for _ in range(60):
        pairs = [(rand_poly(rng, F7, rng.randrange(-1, 3)),
                  rand_poly(rng, F7, rng.randrange(0, 3)))
                 for _ in range(rng.randrange(1, 4))]
        v = ratvec_of_pairs(pairs)
        want = [RatFunc(n, d) for n, d in pairs]
        den = Poly.one(F7)
        for _, d in pairs:
            den = den * d
        assert v == RatVec.from_common_den(den, [n * den.divexact(d) for n, d in pairs])
        assert entries(v) == want
        for alpha in range(F7.p):
            if any(e.den(alpha) == 0 for e in want):
                with pytest.raises(ZeroDivisionError):
                    v.eval(alpha)
            else:
                assert v.eval(alpha) == [e.eval(alpha) for e in want]


def test_ratfunc_field_ops():
    rng = random.Random(6)
    for _ in range(100):
        a = RatFunc(rand_poly(rng, F7, rng.randrange(0, 4)),
                    rand_poly(rng, F7, rng.randrange(0, 4)))
        b = RatFunc(rand_poly(rng, F7, rng.randrange(0, 4)),
                    rand_poly(rng, F7, rng.randrange(0, 4)))
        s = a + b
        assert s - b == a
        if not b.is_zero():
            q = a / b
            assert q * b == a
        assert poly_gcd(s.num, s.den).is_one() or s.num.is_zero()


def test_gcd_lcm_relations():
    rng = random.Random(7)
    for _ in range(100):
        f = rand_poly(rng, F7, rng.randrange(0, 6))
        g = rand_poly(rng, F7, rng.randrange(0, 6))
        d = poly_gcd(f, g)
        m = poly_lcm(f, g)
        assert (m % f).is_zero() and (m % g).is_zero()
        assert (d * m).monic() == (f * g).monic()


@pytest.mark.parametrize("field", [PrimeField(2), F7, FBIG], ids=["F2", "F7", "F2^31-1"])
def test_gcd_of_a_family_is_the_pairwise_chain(field):
    """poly_gcd(f_1, ..., f_k) equals the chain of extended-Euclid gcds of
    pairs, for 1 to 4 polynomials with zeros among them: monic, and zero
    only when every f_i is zero."""
    rng = random.Random(field.p)
    common = rand_poly(rng, field, 1)
    for _ in range(150):
        fs = [rand_poly(rng, field, rng.randrange(-1, 4)) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.5:
            fs = [f * common for f in fs]
        chain = Poly.zero(field)
        for f in fs:
            if not (chain.is_zero() and f.is_zero()):
                chain = xgcd(chain, f)[0]
        got = poly_gcd(*fs)
        assert got == chain, fs
        assert got.is_zero() == all(f.is_zero() for f in fs)
        assert got.is_zero() or got.lc() == 1


def _naive_sum(field, cs, fs):
    """sum c_i f_i by Poly products and sums, an int c_i as a constant."""
    acc = Poly.zero(field)
    for c, f in zip(cs, fs):
        acc = acc + (c if isinstance(c, Poly) else Poly.constant(field, c)) * f
    return acc


@pytest.mark.parametrize("field", [PrimeField(p) for p in (2, 13, 2**31 - 1, 2**61 - 1)],
                         ids=["F2", "F13", "F2^31-1", "F2^61-1"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lin_comb_matches_naive_sums(field, seed):
    """sum c_i f_i with c_i in F, in F[x] or both, zero coefficients and zero
    polynomials among them, and unreduced ints, equals the sum of Poly
    products; so does a sum that cancels to zero."""
    rng = random.Random(seed)
    p = field.p
    k = rng.randrange(0, 6)
    fs = [rand_poly(rng, field, rng.randrange(-1, 5)) for _ in range(k)]
    scalars = [rng.choice([0, 1, rng.randrange(p), rng.randrange(-p, 3 * p)])
               for _ in range(k)]
    polys = [rand_poly(rng, field, rng.randrange(-1, 4)) for _ in range(k)]
    mixed = [rng.choice(pair) for pair in zip(scalars, polys)]
    for cs in (scalars, polys, mixed):
        want = _naive_sum(field, cs, fs)
        assert lin_comb(field, cs, fs) == want
        assert lin_comb(field, cs + [1], fs + [-want]).is_zero()
        g = rand_poly(rng, field, rng.randrange(0, 3))
        assert lin_comb(field, cs + [g], fs + [-want * g]) == want - want * g * g
    assert lin_comb(field, [], []) == Poly.zero(field)
