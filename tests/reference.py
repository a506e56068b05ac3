"""Plain references that the tests compare the library against.

The library holds a rational vector only in common-denominator form
(:class:`polycert.upoly.RatVec`), brought to lowest terms by one gcd.  The
references here take the long way: :class:`RatFunc` is a single rational
function in lowest terms with field arithmetic, :func:`ratvec_of_entries`
builds a vector from its entries through the lcm of their denominators, and
:func:`entries` reads a vector back as reduced entries.  :func:`matmul` is
the schoolbook product of two :class:`~polycert.matfield.FieldMat`.
"""

from __future__ import annotations

from polycert.matfield import FieldMat
from polycert.upoly import Poly, RatVec, poly_gcd


def poly_lcm(f: Poly, g: Poly) -> Poly:
    """The monic lcm of f and g, zero when either is zero."""
    if f.is_zero() or g.is_zero():
        return Poly.zero(f.field)
    return (f * g).divexact(poly_gcd(f, g)).monic()


class RatFunc:
    """Reduced rational function: monic nonzero denominator, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, reduce: bool = True):
        field = num.field
        if den is None:
            den = Poly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            if num.is_zero():
                den = Poly.one(field)
            else:
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = num.divexact(g)
                    den = den.divexact(g)
                c = field.inv(den.lc())
                if c != 1:
                    num = num.scale(c)
                    den = den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, field) -> "RatFunc":
        return cls(Poly.zero(field), None, reduce=False)

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = RatFunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def eval(self, alpha: int) -> int:
        d = self.den(alpha)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {alpha}")
        field = self.num.field
        return field.mul(self.num(alpha), field.inv(d))


def ratvec_of_entries(entries) -> RatVec:
    """The vector of the given RatFunc entries: its common denominator is
    the lcm of their denominators, and each numerator is the entry times it."""
    entries = list(entries)
    if not entries:
        raise ValueError("empty rational vector")
    d = Poly.one(entries[0].num.field)
    for e in entries:
        d = poly_lcm(d, e.den)
    return RatVec.in_lowest_terms(d, [e.num * d.divexact(e.den) for e in entries])


def ratvec_of_pairs(pairs) -> RatVec:
    """The vector of the (numerator, denominator) pairs, each reduced first."""
    return ratvec_of_entries(RatFunc(num, den) for num, den in pairs)


def entries(vec: RatVec) -> list:
    """The reduced entries of a RatVec, one gcd each."""
    return [RatFunc(f, vec.common_den) for f in vec.numer_row()]


def matmul(a: FieldMat, b: FieldMat) -> FieldMat:
    """a @ b by one dot product per entry."""
    if a.n != b.m:
        raise ValueError("dimension mismatch in matmul")
    p = a.field.p
    bt = b.transpose().rows
    out = [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a.rows]
    return FieldMat.of_rows(a.field, out, b.n)
