"""A best-effort cheating Prover for false statements.

:class:`Cheat` answers each call as :class:`HonestProver` does, unless the
statement that call is about is false, which it decides exactly, once per
statement (a statement fact, :meth:`HonestProver.fact`).  Then it plays the
strongest simple tactic we know for that protocol: committing to
rank-maximizing evaluation points, sending the polynomial part of a
rational witness, interpolating Bezout pairs that vanish on a chosen subset
of the sample set, or forging one denominator in an otherwise honest
row-membership commitment.  Messages stay well-formed; cheating is
semantic, never syntactic.  A composite statement is false in one of its
sub-statements, so one cheat plays every protocol, with its tactic in the
sub-proof whose statement is false.

Every answer that depends on no challenge is a statement fact, so an
exchange depends only on the statement and the challenges, not on the
trials played before it; the advertised bounds hold against every fixed
commitment, so the soundness experiments still test them.
"""

from __future__ import annotations

import random
from itertools import islice

from .matfield import FieldMat, det_field, pluq, rank_profile, solve_right
from .oracles import det_bareiss, rank_and_profile, rational_solve_left, row_membership_oracle
from .polymat import MatView, PolyMat, ToeplitzOp
from .protocols import bezout_bounds, frrsm_g_bound, wdeg
from .provers import HonestProver, coeffs_key, draw_batch, packed_pluq
from .upoly import NEG_INF, Poly, RatVec, interpolate, lin_comb, poly_gcd


class Forged:
    """A cheat's answer for the ``frrsm`` sub-proof it attacks: its rational
    u, or None when no rational u is usable and every point is played on
    its own."""

    __slots__ = ("rational",)

    def __init__(self, rational: RatVec | None):
        self.rational = rational


class Cheat(HonestProver):
    """Honest on true statements; on a false one, its protocol's tactic.
    sigma bounds the sample points of the interpolated ``frrsm`` answer."""

    def __init__(self, sigma: int, seed: int = 0):
        super().__init__(seed)
        self.sigma = sigma
        self._seed = seed
        self._cheat_rng = random.Random(seed ^ 0xF00D)

    # -- nonsingularity and rank_lb: the false branches of the honest facts ----

    def singular_point(self, view: MatView, sigma: int):
        """A is singular: (alpha, None) for the first point in the
        Verifier's useful range where A evaluates to the largest rank.  No
        point can beat rank n-1, so the walk stops at the first point that
        reaches it."""
        n = view.m
        reach = n * wdeg(view.deg_bound) + 1
        if sigma < reach and not det_bareiss(view.materialize()).is_zero():
            # nonsingular, though no point in S shows it
            return super().singular_point(view, sigma)
        best, best_rank = 0, -1
        for alpha in range(min(sigma, reach + 1)):
            r = rank_profile(view.eval_at(alpha))[0]
            if r > best_rank:
                best, best_rank = alpha, r
            if r == n - 1:
                break
        return best, None

    def deficient_sets(self, view: MatView, rho: int):
        """rho exceeds the rank: A's row and column profiles, each padded
        to rho indices, and no probe, so that the nonsingularity sub-proof
        plays :meth:`singular_point`."""
        mat = view.materialize()
        return (_pad(rank_and_profile(mat.transpose())[1], rho, mat.m),
                _pad(rank_and_profile(mat)[1], rho, mat.n), None)

    # -- rank_ub and field_det --------------------------------------------------

    def rank_ub_gamma(self, a: PolyMat, rho: int, alpha: int, v: list) -> list:
        """rho is below the rank: hope the evaluation drops rank, then solve
        on the first rho pivot columns if the target happens to fall in
        their span."""
        if self.rsm_rank(a) <= rho:
            return super().rank_ub_gamma(a, rho, alpha, v)
        ev = a.eval_at(alpha)
        take = rank_profile(ev)[2][:rho]
        target = ev.matvec(v)
        sub = ev.submatrix(range(ev.m), take)
        x = solve_right(sub, target)
        if x is None:
            return [0] * a.n
        gamma = [0] * a.n
        for j, col in enumerate(take):
            gamma[col] = x[j]
        return gamma

    def field_det_factors(self, b: FieldMat, beta: int):
        """beta is wrong: shape-valid factors whose product claims beta."""
        true_det = self.fact("det_field", b, lambda: det_field(b))
        if true_det == beta % b.field.p:
            return super().field_det_factors(b, beta)
        field = b.field
        nu = b.m
        ident = list(range(nu))
        if beta == 0:
            # claim singularity with a plausible low-rank factorization
            r = nu - 1
            lower = [[0] * r] * nu  # L = identity: nothing below its diagonal
            upper = [[b.rows[i][j] if j >= i else 0 for j in range(nu)] for i in range(r)]
            for i in range(r):
                if upper[i][i] == 0:
                    upper[i][i] = 1
            return packed_pluq(r, ident, ident, lower, upper)
        if true_det != 0:
            f = pluq(b)
            scale = field.mul(beta, field.inv(true_det))
            upper = [list(r) for r in f.upper.rows]
            for j in range(nu):
                upper[nu - 1][j] = field.mul(upper[nu - 1][j], scale)
            return packed_pluq(f.rank, f.perm_rows, f.perm_cols, f.lower.rows, upper)
        # L = identity and U = diag(beta, 1, ..., 1)
        upper = [[(beta if i == 0 else 1) if j == i else 0 for j in range(nu)]
                 for i in range(nu)]
        return packed_pluq(nu, ident, ident, [[0] * nu] * nu, upper)

    # -- coprime ----------------------------------------------------------------

    def coprime_witness(self, fs: list, sigma: int):
        """gcd != 1: a Bezout pair interpolated to satisfy the identity on as
        many sample points as the degree budget allows, a fact on the
        family's coefficients (None when it is coprime)."""
        forged = self.fact(("coprime_witness", sigma), fs,
                           lambda: None if poly_gcd(*fs).is_one()
                           else self._forge_bezout(fs, sigma))
        return forged or super().coprime_witness(fs, sigma)

    def _forge_bezout(self, fs: list, sigma: int):
        field = fs[0].field
        t = len(fs)
        rng = random.Random(self._seed ^ 0x5EED)
        betas = [rng.randrange(sigma) for _ in range(max(0, t - 2))]
        h = lin_comb(field, [1, *betas], fs[1:])
        bound1, bound2 = bezout_bounds(fs)
        gh = poly_gcd(fs[0], h) if not (fs[0].is_zero() and h.is_zero()) else None
        # the identity cannot hold at a common root of f1 and h; the degree
        # budget takes the first bound1 + bound2 other points
        usable = range(sigma)
        if gh is not None and not gh.is_one():
            usable = (tau for tau in usable if gh(tau) != 0)
        p = field.p
        rows = [[fs[0](tau) * pow(tau, j, p) % p for j in range(bound1)]
                + [h(tau) * pow(tau, k, p) % p for k in range(bound2)]
                for tau in islice(usable, bound1 + bound2)]
        for size in range(len(rows), 0, -1):
            sol = solve_right(FieldMat(field, rows[:size], bound1 + bound2), [1] * size)
            if sol is not None:
                return Poly(field, sol[:bound1]), Poly(field, sol[bound1:]), betas
        return Poly.zero(field), Poly.zero(field), betas

    # -- frrsm and rsm ----------------------------------------------------------

    def frrsm_solution(self, view, vec):
        """The honest polynomial u of u A = v when there is one, else the
        rational u as :class:`Forged`, or Forged(None) when there is none;
        a fact on the view, v and its scale."""
        def solve():
            u = HonestProver.frrsm_solution(self, view, vec)
            if u is not None:
                return u
            u = rational_solve_left(view.materialize(), vec.materialize())
            return Forged(u if isinstance(u, RatVec) else None)
        scale = () if vec.scale is None else coeffs_key([vec.scale])
        return self.fact(("frrsm_solution", coeffs_key(vec.entries), scale), view, solve)

    def frrsm_g(self, view, vec, c, u) -> Poly:
        """Interpolate g through sample points so that u(alpha) c = g(alpha)
        holds on as many alpha in S as the degree budget allows."""
        if not isinstance(u, Forged):
            return super().frrsm_g(view, vec, c, u)
        field = view.field
        if u.rational is None:
            return Poly.zero(field)
        # u c = (N c) / den in lowest terms, a one-entry vector
        acc = RatVec.from_common_den(u.rational.common_den,
                                     [lin_comb(field, c, u.rational.numer_row())])
        num, den = acc.numer_row()[0], acc.common_den
        if acc.is_polynomial():
            return num
        bound = frrsm_g_bound(view, vec)
        if bound == NEG_INF:
            return num // den
        usable = (tau for tau in range(self.sigma) if den(tau) != 0)
        points = [(tau, acc.eval(tau)[0]) for tau in islice(usable, int(bound) + 1)]
        if not points:
            return num // den
        return interpolate(field, points)

    def frrsm_w(self, view, vec, c, g, alpha, u) -> list:
        if not isinstance(u, Forged):
            return super().frrsm_w(view, vec, c, g, alpha, u)
        if u.rational is not None:
            try:
                return u.rational.eval(alpha)
            except ZeroDivisionError:
                pass
        # no rational solution usable at alpha: solve the evaluated system
        ev = view.eval_at(alpha)
        w = solve_right(ev.transpose(), vec.eval_at(alpha))
        return w if w is not None else [0] * view.m

    def rsm_commitment(self, a, v, rho, t, sigma):
        """Membership fails: an honest-looking Toeplitz commitment with one
        forged denominator, whose ``frrsm`` sub-proof, the one with a false
        statement, it marks by a :class:`Forged` solution.  A fact keyed by
        A, rho, t, #S and v (None when v is a member, which gets the honest
        commitment): composed protocols hand the cheat a fresh random target
        each time, which gets its own commitment.  A claim of full row rank
        is proved by ``frrsm`` on A itself, where :meth:`frrsm_solution`
        plays the same tactic."""
        key = ("rsm_commitment", rho, t, sigma, coeffs_key(v))
        forged = self.fact(key, a, lambda: None if row_membership_oracle(a, v)
                           else self._forge_commitment(a, v, rho, t, sigma))
        return forged or super().rsm_commitment(a, v, rho, t, sigma)

    def _forge_commitment(self, a, v, rho, t, sigma):
        rng = self._cheat_rng
        field = a.field
        batch = draw_batch(rng, a, v, rho, t, sigma, 200 * t)
        if batch is None:
            # cannot even reach full compressed rank / rational solutions:
            # fall back to all-ones denominators and per-point tactics, in
            # which every sub-proof is hostile
            fallback = [ToeplitzOp(field, rho, a.m,
                                   [rng.randrange(sigma) for _ in range(rho + a.m - 1)])
                        for _ in range(t)]
            return fallback, [Poly.one(field)] * t, [Forged(None)] * t
        # v is no member, so the denominators share a factor: forge the last
        tops, dens, sols = batch
        for c in range(1, 1000):
            forged = dens[-1] + Poly.constant(field, c)
            if poly_gcd(forged, *dens[:-1]).is_one():
                break
        else:
            raise RuntimeError("no coprime forgery found")
        # the last compression's solution, whose denominator was forged
        last = RatVec.in_lowest_terms(dens[-1], sols[-1])
        sols[-1] = Forged(_scale_ratvec(forged, last))
        return tops, dens[:-1] + [forged], sols


def _pad(profile, rho, limit):
    """The first rho indices of profile, filled up with the least others."""
    out = list(profile[:rho])
    out += [i for i in range(limit) if i not in out][:rho - len(out)]
    return sorted(out)


def _scale_ratvec(scalar: Poly, vec: RatVec) -> RatVec:
    """scalar * vec, reduced once over vec's common denominator."""
    return RatVec.from_common_den(vec.common_den, [scalar * f for f in vec.numer_row()])
