"""Prime field arithmetic.

Field elements are plain Python integers in ``[0, p)``; a :class:`PrimeField`
instance carries the modulus and provides the arithmetic.  Keeping elements
as bare ints (rather than wrapping each one in an object) is what makes the
elimination kernels in :mod:`polycert.matfield` and :mod:`polycert.upoly`
fast enough for the experiment suites.

The batched kernels (:mod:`polycert.polymat`, :mod:`polycert.matfield`,
:mod:`polycert.upoly`) hold many elements in one numpy array of
:attr:`PrimeField.dtype`, invert a whole array with one exponentiation
(:meth:`PrimeField.inv_array`), and multiply arrays exactly mod p
(:meth:`PrimeField.matmul` on :meth:`PrimeField.limbs`).

Random challenges (:class:`polycert.transcript.ChallengeSource`) are always
drawn from the sample set ``S = {0, 1, ..., sigma-1}`` embedded in the
field, never from all of F_p, so that soundness experiments can shrink
``sigma`` independently of ``p``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_MODULUS = 2**31 - 1  # Mersenne prime; products fit comfortably in 128 bits

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24.

    Cached, because every protocol run and every offline verify builds its
    field from the transcript's modulus; the cache is bounded because that
    modulus comes from untrusted input.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/pZ for a prime p < 2**62 (p = 2 is allowed so the tiny
    fields used by exhaustive oracles are expressible).

    Elements are ints in [0, p); all methods assume operands are already
    reduced.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 1 < p < 2**62:
            raise ValueError(f"modulus must be an integer in (1, 2^62), got {p!r}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- arithmetic on reduced ints ------------------------------------

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        """1/a by one extended gcd (``pow(a, -1, p)``), for any int a; a
        multiple of p, reduced or not, raises ZeroDivisionError."""
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise ZeroDivisionError("inverse of 0 in prime field") from None

    @property
    def dtype(self):
        """numpy dtype of exact element arrays.

        ``int64`` for p < 2**31, where a product of two reduced elements is
        below 2**62 and a reduced element plus such a product cannot
        overflow; Python ints (``object``) above, so the same array code
        stays exact for every supported modulus.
        """
        return np.int64 if self.p < 2**31 else object

    def limbs(self, b) -> tuple:
        """An array b of reduced elements made ready for :meth:`matmul`:
        ``(lo, hi)``, its low and high 16-bit limbs, for an ``int64`` field,
        and ``(b,)`` above 2**31."""
        b = np.asarray(b, dtype=self.dtype)
        if self.dtype is object:
            return (b,)
        return b & 0xFFFF, b >> 16

    def matmul(self, a, limbs) -> np.ndarray:
        """a @ b mod p, with numpy's ``matmul`` broadcasting, for reduced a
        and b given by :meth:`limbs`.

        For an ``int64`` field a reduced element times a 16-bit limb is below
        2**47, so every partial sum of an inner dimension below 2**16 (the
        transcript's ``MAX_DIMENSION``) stays below 2**63; above 2**31 the
        product runs on Python ints.
        """
        p = self.p
        if len(limbs) == 1:
            return a @ limbs[0] % p
        lo, hi = limbs
        inner = lo.shape[-2] if lo.ndim > 1 else lo.shape[0]
        if inner >= 65536:
            raise ValueError("inner dimension too large for an exact int64 product")
        return ((a @ hi % p) * 65536 + a @ lo % p) % p

    def inv_array(self, values) -> np.ndarray:
        """Inverses of a 1-D array of nonzero reduced elements, one exponentiation.

        Montgomery's trick over a product tree: multiply neighbours pairwise
        up to the root, invert the root once, and hand each child its
        parent's inverse times its sibling on the way down.  Every level is
        one vectorised product, so k elements cost about 3k multiplications
        in log2(k) numpy steps.
        """
        p = self.p
        a = np.asarray(values, dtype=self.dtype)
        if a.size == 0:
            return a.copy()
        levels = []
        while a.size > 1:
            if a.size % 2:
                a = np.append(a, np.ones(1, a.dtype))
            levels.append(a)
            a = a[0::2] * a[1::2] % p
        inv = np.array([self.inv(int(a[0]))], a.dtype)  # ZeroDivisionError on a 0
        for level in reversed(levels):
            inv = inv[: level.size // 2]
            up = np.empty_like(level)
            up[0::2] = inv * level[1::2] % p
            up[1::2] = inv * level[0::2] % p
            inv = up
        return inv[: len(values)]
