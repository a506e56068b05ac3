"""Dense univariate polynomials and rational vectors over a prime field.

Polynomials are coefficient lists, low-to-high, normalized so that the last
coefficient is nonzero; the empty list is the zero polynomial and its degree
is the sentinel :data:`NEG_INF`, which satisfies every "deg <= bound" check
by convention.

Multiplication is schoolbook on Python ints: the Prover's operands stay
short (under 33 coefficients in every benchmark workload), below the sizes
where a sub-quadratic product starts to pay.

Every linear combination sum_i c_i f_i, with coefficients c_i in F or in
F[x], is formed by :func:`lin_comb`: the terms are summed on unreduced
coefficient lists and reduced mod p once.  A row vector times a polynomial
matrix (:meth:`polycert.polymat.PolyMat.vecmat`) is one such sum per column.

Interpolation is batched: :func:`interpolate_many` fits one polynomial per
ordinate list over a shared set of abscissae by one matrix product, the
ordinates times the interpolation operator of the abscissae (row i holds the
Lagrange basis polynomial of the i-th abscissa).  The operator is built in
O(n^2) with one exponentiation for all its denominators (Montgomery's trick,
:meth:`PrimeField.inv_array`).  Operators of at most
:data:`CACHED_OPERATOR_POINTS` points are kept, at most 32 of them, keyed
by modulus and abscissae, since the Prover's abscissae repeat: 0, ..., K-1
for a few K.  A larger one-off interpolation builds its operator and frees
it.  It is kept as its 16-bit limbs (:meth:`PrimeField.limbs`), so the
product is exact in ``int64``; larger moduli use Python ints.
:func:`interpolate` is its single-column case.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .ff import PrimeField

NEG_INF = float("-inf")


def deg_add(a, b):
    """Degree of a product: NEG_INF absorbs."""
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def deg_scale(k: int, d):
    """Degree bound k*d for k >= 1 matrix rows etc.; NEG_INF absorbs."""
    if d == NEG_INF:
        return NEG_INF
    return k * d


def deg_le(d, bound) -> bool:
    """deg <= bound with the NEG_INF convention (zero satisfies any bound)."""
    if d == NEG_INF:
        return True
    if bound == NEG_INF:
        return False
    return d <= bound


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _mul_schoolbook(p: int, a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out]


def _mul_coeffs(p: int, a: list, b: list) -> list:
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la == 1:
        c = a[0]
        return [c * x % p for x in b]
    if lb == 1:
        c = b[0]
        return [c * x % p for x in a]
    return _trim(_mul_schoolbook(p, a, b))


class Poly:
    """Dense univariate polynomial over a prime field.

    Treat instances as immutable; never mutate ``coeffs`` after construction.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs, normalize: bool = True):
        self.field = field
        if normalize:
            p = field.p
            coeffs = _trim([c % p for c in coeffs])
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, [], normalize=False)

    @classmethod
    def one(cls, field):
        return cls(field, [1], normalize=False)

    @classmethod
    def constant(cls, field, c: int):
        return cls(field, [c % field.p])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1], normalize=False)

    @classmethod
    def of(cls, field, *coeffs):
        return cls(field, list(coeffs))

    # -- basic structure -------------------------------------------------

    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == [1]

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field.p == other.field.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, tuple(self.coeffs)))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(self.field, _trim(out), normalize=False)

    def __sub__(self, other: "Poly") -> "Poly":
        p = self.field.p
        out = list(self.coeffs)
        b = other.coeffs
        if len(out) < len(b):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % p
        return Poly(self.field, _trim(out), normalize=False)

    def __neg__(self) -> "Poly":
        p = self.field.p
        return Poly(self.field, [(p - c) % p for c in self.coeffs], normalize=False)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return Poly(
            self.field, _mul_coeffs(self.field.p, self.coeffs, other.coeffs),
            normalize=False,
        )

    __rmul__ = __mul__

    def scale(self, c: int) -> "Poly":
        p = self.field.p
        c %= p
        if c == 0:
            return Poly.zero(self.field)
        return Poly(self.field, _trim([c * a % p for a in self.coeffs]), normalize=False)

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        return self.scale(self.field.inv(self.lc()))

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        r = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(r) - 1 < db:
            return Poly.zero(self.field), self
        inv_lead = self.field.inv(b[-1])
        q = [0] * (len(r) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c:
                f = c * inv_lead % p
                q[i - db] = f
                for j in range(db + 1):
                    r[i - db + j] = (r[i - db + j] - f * b[j]) % p
        return (
            Poly(self.field, _trim(q), normalize=False),
            Poly(self.field, _trim(r[:db]), normalize=False),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    # -- evaluation ------------------------------------------------------

    def __call__(self, alpha: int) -> int:
        """Horner evaluation at a field element."""
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * alpha + c) % p
        return acc


def xgcd(f: Poly, g: Poly):
    """Extended Euclid: returns (d, s, t) with d monic, s*f + t*g = d.

    The Bezout pair is the normalized one: when both inputs have positive
    degree, deg s < deg g - deg d and deg t < deg f - deg d.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("xgcd of two zero polynomials")
    field = f.field
    r0, r1 = f, g
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = field.inv(r0.lc())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def poly_gcd(f: Poly, *others: Poly) -> Poly:
    """The monic gcd of f and the others, zero when all of them are zero."""
    for r1 in others:
        while not r1.is_zero():
            f, r1 = r1, f % r1
    return f.monic()


def lin_comb(field: PrimeField, cs, fs) -> Poly:
    """sum_i c_i f_i over the pairs of ``zip(cs, fs)``, each c_i in F (an
    int) or in F[x] (a Poly).

    Every term is a list of shifted scalar multiples of a coefficient list
    (c f = sum_k c_k x^k f, over the shorter factor), the lists are summed
    unreduced, coefficient by coefficient, and the sum is reduced mod p once.
    """
    parts = []
    for c, f in zip(cs, fs):
        a = f.coeffs
        if not a or not c:
            continue
        if isinstance(c, Poly):
            b = c.coeffs
            if len(b) > len(a):
                a, b = b, a
            parts += [[0] * k + [ck * x for x in a] for k, ck in enumerate(b) if ck]
        else:
            parts.append([c * x for x in a])
    return Poly(field, list(map(sum, zip_longest(*parts, fillvalue=0))))


def interpolate(field: PrimeField, points) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    x-coordinates must be pairwise distinct; see :func:`interpolate_many`.
    """
    points = list(points)
    return interpolate_many(field, [x for x, _ in points], [[y for _, y in points]])[0]


def interpolate_many(field: PrimeField, xs, columns) -> list:
    """One polynomial of degree < len(xs) per ordinate list, all over xs.

    Interpolation is linear in the ordinates: the coefficients of every
    column are one row of ``Y @ R``, where row i of the n x n operator R
    holds the coefficients of the Lagrange basis polynomial of xs[i]
    (:func:`_interpolation_operator`, cached up to
    :data:`CACHED_OPERATOR_POINTS` points).  ``columns``
    is a list of ordinate lists or a ``(k, n)`` array.
    """
    p = field.p
    xs = tuple(x % p for x in xs)
    n = len(xs)
    if len(set(xs)) != n:
        raise ValueError("duplicate abscissa in interpolation points")
    if any(len(col) != n for col in columns):
        raise ValueError("ordinate list length differs from the abscissae")
    if n == 0 or len(columns) == 0:
        return [Poly.zero(field) for _ in columns]
    y = np.array(columns, dtype=field.dtype).reshape(-1, n) % p
    if n <= CACHED_OPERATOR_POINTS:
        op = _cached_interpolation_operator(field, xs)
    else:
        op = _interpolation_operator(field, xs)
    coeffs = field.matmul(y, op)
    return [Poly(field, _trim(row), normalize=False) for row in coeffs.tolist()]


def _interpolation_operator(field: PrimeField, xs: tuple):
    """The n x n matrix R whose row i is the Lagrange basis polynomial
    L_i = prod_{j != i} (x - xs[j]) / (xs[i] - xs[j]), low-to-high.

    O(n^2) in n vectorised steps: M = prod_j (x - xs[j]) by repeated
    multiplication by a linear factor, every M / (x - xs[i]) at once by
    synthetic division, each denominator M'(xs[i]) by Horner on the same
    quotient, and all n of them inverted together by one exponentiation
    (:meth:`PrimeField.inv_array`).  It is returned as its read-only
    :meth:`PrimeField.limbs`.
    """
    p = field.p
    n = len(xs)
    x = np.array(xs, dtype=field.dtype)
    # high-to-low: monic[k] is the x^(n-k) coefficient of M, and q[k] holds
    # the x^(n-1-k) coefficients of every M / (x - xs[i])
    monic = np.zeros(n + 1, dtype=field.dtype)
    monic[0] = 1
    for j in range(n):
        monic[1:j + 2] = (monic[1:j + 2] - xs[j] * monic[:j + 1]) % p
    q = np.empty((n, n), dtype=field.dtype)
    q[0] = 1
    denom = np.ones(n, dtype=field.dtype)
    for k in range(1, n):
        q[k] = (monic[k] + x * q[k - 1]) % p
        denom = (denom * x + q[k]) % p
    # in place, and q freed once copied, so that an operator costs at most
    # three n x n arrays at any time (the copy and its two limbs)
    q *= field.inv_array(denom)
    q %= p
    op = np.ascontiguousarray(q[::-1].T)
    del q
    limbs = field.limbs(op)
    for limb in limbs:
        limb.flags.writeable = False
    return limbs


# The Prover interpolates at 0, ..., K-1 for a few K (K <= 69 on the
# certify workload), so operators of up to this many points are kept, at
# most 32 of them: about 8 MB of int64 limbs at worst.  Larger ones are
# built per call and freed after it.
CACHED_OPERATOR_POINTS = 128
_cached_interpolation_operator = lru_cache(maxsize=32)(_interpolation_operator)


class RatVec:
    """Row vector of rational functions, held in common-denominator form
    ``numer_row / common_den``: ``common_den`` monic, with no factor shared
    by every numerator.  That form is unique, so two vectors are equal
    exactly when their denominators and numerator rows are.
    """

    __slots__ = ("field", "common_den", "_numer_row")

    @classmethod
    def from_common_den(cls, den: Poly, numers) -> "RatVec":
        """The vector ``numers / den`` for a nonzero den, in lowest terms.

        The vector's gcd G = gcd(den, n_1, ..., n_m) divides den and the
        weighted sum s = 1 n_1 + 2 n_2 + ... + m n_m, so g = gcd(den, s) is
        a multiple of G, and g = G exactly when g divides every n_i.  That
        one gcd almost always settles it; otherwise the chain
        gcd(g, n_1, n_2, ...), stopped as soon as it reaches 1, finds G.
        The common denominator is den/G made monic and the numerators are
        the n_i/G scaled by the same constant, which is exactly the lcm of
        the reduced entries' denominators and the matching numerator row.
        """
        numers = list(numers)
        if not numers:
            raise ValueError("empty rational vector")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational vector")
        field = den.field
        g = poly_gcd(den, lin_comb(field, range(1, len(numers) + 1), numers))
        if not g.is_one():
            split = [divmod(f, g) for f in numers]
            if all(r.is_zero() for _, r in split):
                numers = [q for q, _ in split]
            else:
                for f in numers:
                    g = poly_gcd(g, f)
                    if g.is_one():
                        break
                numers = [f.divexact(g) for f in numers]
            den = den.divexact(g)
        c = field.inv(den.lc())
        if c != 1:
            den = den.scale(c)
            numers = [f.scale(c) for f in numers]
        return cls.in_lowest_terms(den, numers)

    @classmethod
    def in_lowest_terms(cls, den: Poly, numers: list) -> "RatVec":
        """The vector ``numers / den``, already in lowest terms with den monic."""
        out = cls.__new__(cls)
        out.field = den.field
        out.common_den = den
        out._numer_row = numers
        return out

    def __eq__(self, other):
        return (isinstance(other, RatVec) and self.common_den == other.common_den
                and self._numer_row == other._numer_row)

    def __repr__(self):
        return f"RatVec({self._numer_row!r} / {self.common_den!r})"

    def is_polynomial(self) -> bool:
        return self.common_den.is_one()

    def numer_row(self) -> list:
        """common_den times the vector, a polynomial row vector."""
        return list(self._numer_row)

    def eval(self, alpha: int) -> list:
        """N(alpha) / den(alpha); den(alpha) = 0 exactly when some reduced
        entry's denominator vanishes at alpha."""
        d = self.common_den(alpha)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {alpha}")
        field = self.field
        inv = field.inv(d)
        return [field.mul(f(alpha), inv) for f in self._numer_row]
