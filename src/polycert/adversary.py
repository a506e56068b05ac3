"""Best-effort cheating Prover strategies for false statements.

Each strategy validates (against the exact oracles) that its instance
really is false, then plays the strongest simple tactic we know for that
protocol: committing to rank-maximizing evaluation points, sending the
polynomial part of a rational witness, interpolating Bezout pairs that
vanish on a chosen subset of the sample set, or forging one denominator in
an otherwise honest row-membership commitment.  All messages stay
well-formed; cheating is semantic, never syntactic.

A cheat fixes every answer that does not depend on a challenge once per
statement: the Bezout pair of ``coprime`` when it is built, and the padded
profiles of ``rank_lb``, the rank-maximizing points and the ``rsm``
commitment as statement facts (:meth:`HonestProver.fact`).  So an exchange
depends only on the statement and the challenges, not on the trials played
before it; the advertised bounds hold against every fixed commitment, so
the soundness experiments still test them.
"""

from __future__ import annotations

import random
from itertools import islice

from .matfield import FieldMat, det_field, pluq, rank_profile, solve_right
from .oracles import (
    LOW_RANK,
    NO_SOLUTION,
    det_bareiss,
    rank_and_profile,
    rational_solve_left,
    row_membership_oracle,
)
from .polymat import MatView, PolyMat, ToeplitzOp
from .protocols import bezout_bounds, frrsm_g_bound, wdeg
from .provers import HonestProver, draw_batch, packed_pluq
from .upoly import NEG_INF, Poly, RatVec, interpolate, lin_comb, poly_gcd


class InstanceActuallyTrue(Exception):
    """A cheat strategy was pointed at a statement that is in fact true."""


def _rank_maximizing_point(prover: HonestProver, view: MatView, sigma: int):
    """(alpha, None) for the first point in the Verifier's useful range
    where the singular view evaluates to the largest rank, a fact of prover
    on the view and sigma.  No point can beat rank n-1, so the walk stops at
    the first point that reaches it."""
    def walk():
        n = view.m
        best, best_rank = 0, -1
        for alpha in range(min(sigma, n * wdeg(view.deg_bound) + 2)):
            r = rank_profile(view.eval_at(alpha))[0]
            if r > best_rank:
                best, best_rank = alpha, r
            if r == n - 1:
                break
        return best, None
    return prover.fact(("nonsingularity_point", sigma), view, walk)


class CheatNonSingularity(HonestProver):
    """A is singular: commit a rank-maximizing point, answer when consistent."""

    def __init__(self, a: PolyMat, seed: int = 0):
        super().__init__(seed)
        if not det_bareiss(a).is_zero():
            raise InstanceActuallyTrue("matrix is nonsingular")

    def nonsingularity_point(self, view: MatView, sigma: int, probe=None):
        return _rank_maximizing_point(self, view, sigma)
    # the inherited solution method already solves when b is consistent


class CheatRankLowerBound(HonestProver):
    """rho exceeds the rank: pad true profiles and play the singular game."""

    def __init__(self, a: PolyMat, rho: int, seed: int = 0):
        super().__init__(seed)
        if rank_and_profile(a)[0] >= rho:
            raise InstanceActuallyTrue("rank really is at least rho")

    def rank_lb_sets(self, view: MatView, rho: int):
        """A's row and column profiles, each padded to rho indices (a
        statement fact, :meth:`HonestProver.fact`, since they depend on A
        and rho alone), and no probe."""
        def padded():
            mat = view.materialize()
            return (_pad(list(rank_and_profile(mat.transpose())[1]), rho, mat.m),
                    _pad(list(rank_and_profile(mat)[1]), rho, mat.n))
        rows, cols = self.fact(("rank_lb_sets", rho), view, padded)
        return rows, cols, None

    def nonsingularity_point(self, view: MatView, sigma: int, probe=None):
        # every rho x rho submatrix of A is singular: rank(A) < rho
        return _rank_maximizing_point(self, view, sigma)


def _pad(profile, rho, limit):
    out = list(profile[:rho])
    i = 0
    while len(out) < rho and i < limit:
        if i not in out:
            out.append(i)
        i += 1
    return sorted(out)


class CheatRankUpperBound(HonestProver):
    """rho is below the rank: hope the evaluation drops rank, then solve on
    the first rho pivot columns if the target happens to fall in their span."""

    def __init__(self, a: PolyMat, rho: int, seed: int = 0):
        super().__init__(seed)
        if rank_and_profile(a)[0] <= rho:
            raise InstanceActuallyTrue("rank really is at most rho")

    def rank_ub_gamma(self, a: PolyMat, rho: int, alpha: int, v: list) -> list:
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


class CheatFieldDeterminant(HonestProver):
    """beta is wrong: ship shape-valid factors whose product claims beta."""

    def __init__(self, b: FieldMat, beta: int, seed: int = 0):
        super().__init__(seed)
        self._true_det = det_field(b)
        if self._true_det == beta % b.field.p:
            raise InstanceActuallyTrue("beta is the determinant")

    def field_det_factors(self, b: FieldMat, beta: int):
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
        if self._true_det != 0:
            f = pluq(b)
            scale = field.mul(beta, field.inv(self._true_det))
            upper = [list(r) for r in f.upper.rows]
            for j in range(nu):
                upper[nu - 1][j] = field.mul(upper[nu - 1][j], scale)
            return packed_pluq(f.rank, f.perm_rows, f.perm_cols, f.lower.rows, upper)
        # L = identity and U = diag(beta, 1, ..., 1)
        upper = [[0] * nu for _ in range(nu)]
        for i in range(nu):
            upper[i][i] = 1
        upper[0][0] = beta
        return packed_pluq(nu, ident, ident, [[0] * nu] * nu, upper)


class CheatCoprime(HonestProver):
    """gcd != 1: interpolate a Bezout pair that satisfies the identity on as
    many sample points as the degree budget allows."""

    def __init__(self, fs: list, sigma: int, seed: int = 0):
        super().__init__(seed)
        field = fs[0].field
        if poly_gcd(*fs).is_one():
            raise InstanceActuallyTrue("the family is coprime")
        t = len(fs)
        rng = random.Random(seed ^ 0x5EED)
        self._betas = [rng.randrange(sigma) for _ in range(max(0, t - 2))]
        h = lin_comb(field, [1, *self._betas], fs[1:])
        bound1, bound2 = bezout_bounds(fs)
        gh = poly_gcd(fs[0], h) if not (fs[0].is_zero() and h.is_zero()) else None
        # the identity cannot hold at a common root of f1 and h; the degree
        # budget takes the first bound1 + bound2 other points
        usable = range(sigma)
        if gh is not None and not gh.is_one():
            usable = (tau for tau in usable if gh(tau) != 0)
        pool = list(islice(usable, bound1 + bound2))
        size = len(pool)
        s1 = s2 = None
        while size >= 0:
            taus = pool[:size]
            rows = []
            rhs = []
            for tau in taus:
                f1t = fs[0](tau)
                ht = h(tau)
                row = [f1t * pow(tau, j, field.p) % field.p for j in range(bound1)]
                row += [ht * pow(tau, k, field.p) % field.p for k in range(bound2)]
                rows.append(row)
                rhs.append(1)
            if not rows:
                s1, s2 = Poly.zero(field), Poly.zero(field)
                break
            sol = solve_right(
                FieldMat.of_rows(field, rows, bound1 + bound2), rhs
            )
            if sol is not None:
                s1 = Poly(field, sol[:bound1])
                s2 = Poly(field, sol[bound1:])
                break
            size -= 1
        self._s1, self._s2 = s1, s2

    def coprime_witness(self, fs: list, sigma: int):
        return self._s1, self._s2, list(self._betas)


class Forged:
    """A cheat's answer for the ``frrsm`` sub-proof it attacks: its rational
    u, or None when no rational u is usable and every point is played on
    its own."""

    __slots__ = ("rational",)

    def __init__(self, rational: RatVec | None):
        self.rational = rational


class CheatFullRankMembership(HonestProver):
    """v has a rational but non-polynomial solution: send the polynomial
    part of u.c and the true evaluation u(alpha)."""

    def __init__(self, a: PolyMat, v: list, sigma: int = 64, seed: int = 0):
        super().__init__(seed)
        self._sigma = sigma
        u = rational_solve_left(a, v)
        if u is LOW_RANK:
            raise InstanceActuallyTrue("claim is vacuous for low rank")
        if u is NO_SOLUTION:
            self._u = None
        else:
            if u.is_polynomial():
                raise InstanceActuallyTrue("v is in the polynomial row space")
            self._u = u

    def frrsm_solution(self, view, vec):
        return Forged(self._u)

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
        budget = int(bound) + 1
        points = []
        tau = 0
        while len(points) < budget and tau < self._sigma:
            if den(tau) != 0:
                points.append((tau, acc.eval(tau)[0]))
            tau += 1
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


class CheatRowSpaceMembership(CheatFullRankMembership):
    """Membership fails: an honest-looking Toeplitz commitment with one
    forged denominator, then the interpolated-g tactic in the single
    sub-proof whose statement is false, which the commitment marks by
    handing it a :class:`Forged` solution.  A claim of full row rank is
    proved by ``frrsm`` on A itself, where the same tactic plays against
    the rational solution of u A = v.

    The commitment is a statement fact, drawn on the first run and kept,
    keyed by A, rho, t, #S and the target v: composed protocols hand this
    strategy a fresh random target each time, which gets its own
    commitment.  Whenever the particular target does lie in the row space,
    the strategy degrades gracefully to fully honest behavior.
    """

    def __init__(self, a: PolyMat, v: list | None, sigma: int, seed: int = 0):
        HonestProver.__init__(self, seed)
        self._sigma = sigma
        self._cheat_rng = random.Random(seed ^ 0xF00D)
        if v is not None and row_membership_oracle(a, v):
            raise InstanceActuallyTrue("v is in the polynomial row space")

    def frrsm_solution(self, view, vec):
        """The polynomial u of u A = v when v is a member, else the rational
        u as :class:`Forged`, or Forged(None) when there is none."""
        u = rational_solve_left(view.materialize(), vec.materialize())
        if not isinstance(u, RatVec):
            return Forged(None)
        return u.numer_row() if u.is_polynomial() else Forged(u)

    def rsm_commitment(self, a, v, rho, t, sigma):
        key = ("rsm_commitment", rho, t, sigma, tuple(tuple(f.coeffs) for f in v))
        return self.fact(key, a, lambda: self._forge_commitment(a, v, rho, t, sigma))

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
        tops, dens, sols = batch
        if poly_gcd(*dens).is_one():
            # this particular target is a true member: play honestly
            return batch
        forged = None
        for c in range(1, 1000):
            cand = dens[-1] + Poly.constant(field, c)
            if poly_gcd(cand, *dens[:-1]).is_one():
                forged = cand
                break
        if forged is None:
            raise RuntimeError("no coprime forgery found")
        # the last compression's solution, whose denominator was forged
        last = RatVec.in_lowest_terms(dens[-1], sols[-1])
        sols[-1] = Forged(_scale_ratvec(forged, last))
        return tops, dens[:-1] + [forged], sols


def _scale_ratvec(scalar: Poly, vec: RatVec) -> RatVec:
    """scalar * vec, reduced once over vec's common denominator."""
    return RatVec.from_common_den(vec.common_den, [scalar * f for f in vec.numer_row()])
