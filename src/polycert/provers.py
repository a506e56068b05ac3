"""Honest Prover strategies for every protocol.

Honest provers may do everything the Verifier must not: rank and normal
forms over F[x], rational system solving, exact determinants.  Las Vegas
searches (the Toeplitz commitment loop, the coprime mixer draw) use the
prover's own seeded randomness, so a fixed prover seed reproduces a
transcript bit for bit; retry caps turn a stuck search into ProverGaveUp
rather than a hang.

A prover keeps no run state.  The answer behind a group of messages is
returned as data to the Verifier runner that asks for it, which keeps it
for the other messages and hands it on: the ``rsm`` commitment carries the
solution of every compressed system, which its ``frrsm`` sub-proofs
receive; an ``frrsm`` sub-proof passes its solution to both of its
messages; ``rank_lb`` hands its probe, the point and evaluation that
showed the rank, to its ``nonsingularity`` sub-proof; and the point found
there comes with the PLUQ that solves A(alpha) w = b.

Answers that depend only on the statement, and on no challenge, are
statement facts: computed on first use and kept per prover
(:meth:`HonestProver.fact`), so that a prover run many times on one
statement, as in the soundness experiments, computes them once.  A fact is
keyed by what its matrix or view is: a public matrix by its object, as for
the rank behind the membership rank claim; a view the Verifier builds
afresh each run, C.A or a submatrix, by the matrix under it plus its
Toeplitz values or index sets.  The ``rank_lb`` sets and the
``nonsingularity`` point are facts on any view.

On a false statement an honest prover does not crash: it degrades to a
well-formed best effort and lets the Verifier reject.  Where that branch
is taken inside a fact, it is a method of its own, :meth:`singular_point`
and :meth:`deficient_sets`, which ``adversary.Cheat`` overrides with its
tactic.
"""

from __future__ import annotations

import random

from .matfield import (
    FieldMat,
    nullvector_left,
    pluq,
    pluq_solve,
    rank_profile,
    solve_right,
    sparse_representative,
)
from .oracles import (
    EVAL_PROBE_CAP,
    LOW_RANK,
    NO_SOLUTION,
    polynomial_solve_left,
    rank_and_profile,
    rational_solve_left,
)
from .polymat import (
    MatView,
    PolyMat,
    SubmatrixView,
    ToeplitzOp,
    ToeplitzProductView,
    VecView,
)
from .protocols import ProverGaveUp, wdeg
from .upoly import Poly, lin_comb, poly_gcd, xgcd

COPRIME_RETRY_CAP = 100
RSM_OUTER_CAP = 20
RSM_INNER_FACTOR = 20
FACT_CAP = 64  # statement-fact entries a prover keeps before starting afresh


class HonestProver:
    """Computes true witnesses; never causes rejection of a true statement
    (given the advertised #S lower bounds)."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        # (kind, view key) -> (matrix under the view, fact); kept across runs
        self._facts: dict = {}

    def fact(self, kind, view, compute):
        """compute(), a fact that depends only on what the matrix or view
        is, computed on its first use and kept for later runs.

        The key is :func:`_view_key`: the identity of the PolyMat under the
        view, which the entry holds so that no other object can take its
        id, as ``Transcript._encoded`` holds its messages, plus the view's
        Toeplitz values or index sets; or the values of a list of
        polynomials.  Views built afresh each run over one matrix share an
        entry, and so do lists of equal polynomials; matrices built afresh
        each run would only pile up, so past :data:`FACT_CAP` entries the
        memo starts afresh.
        """
        base, ident = _view_key(view)
        key = (kind, ident)
        hit = self._facts.get(key)
        if hit is None:
            if len(self._facts) >= FACT_CAP:
                self._facts.clear()
            hit = self._facts[key] = (base, compute())
        return hit[1]

    def profile_at_zero(self, view: MatView):
        """(A(0), its rank profile), a statement fact: the rank claim, the
        first ``rank_lb`` probe and the x-adic lift of ``rsm`` share it."""
        return self.fact("profile_at_zero", view, lambda: _profiled(view.eval_at(0)))

    # -- singularity / nonsingularity ------------------------------------

    def singularity_kernel_vector(self, a: PolyMat, alpha: int) -> list:
        v = nullvector_left(a.eval_at(alpha))
        if v is None:
            # statement is false (or alpha was impossibly lucky); stay well-formed
            return [1] + [0] * (a.m - 1)
        return v

    def nonsingularity_point(self, view: MatView, sigma: int, probe=None):
        """(alpha, PLUQ of A(alpha)) for the first alpha with A(alpha)
        nonsingular; (0, None) when no point in range is.  A fact
        (:meth:`fact`) on the view and sigma.

        ``probe`` is (alpha0, A(alpha0)) when A(alpha) is known to be
        singular at every alpha below alpha0, as :meth:`rank_lb_sets` finds
        it: the search starts there and factors the given evaluation.
        """
        def search():
            n = view.m
            limit = min(sigma, n * wdeg(view.deg_bound) + 1)
            alpha, ev = probe or (0, None)
            while alpha < limit:
                f = pluq(view.eval_at(alpha) if ev is None else ev)
                if f.rank == n:
                    return alpha, f
                alpha, ev = alpha + 1, None
            return self.singular_point(view, sigma)
        return self.fact(("nonsingularity_point", sigma), view, search)

    def singular_point(self, view: MatView, sigma: int):
        """:meth:`nonsingularity_point` when no point in range shows A
        nonsingular: (0, None), a point with no factorization."""
        return 0, None

    def nonsingularity_solution(self, view: MatView, alpha: int, b: list, factor) -> list:
        """w with A(alpha) w = b, by ``factor``, the PLUQ of A(alpha) that
        :meth:`nonsingularity_point` found, or afresh when it found none."""
        if factor is None:
            w = solve_right(view.eval_at(alpha), b)
        else:
            w = pluq_solve(factor, b)
        if w is None:
            return [0] * view.n
        return w

    # -- rank protocols -----------------------------------------------------

    def rank_lb_sets(self, view: MatView, rho: int):
        """(rows, cols, probe): increasing row/column sets with A[rows, cols]
        nonsingular, certified via evaluation, and the probe (alpha,
        A[rows, cols](alpha)) for :meth:`nonsingularity_point`, or None.
        A set as large as its universe is not sent, and the Verifier reads
        it as range(m) or range(n), so both sets are sorted: column
        profiles come out increasing, and the rows are sorted here.

        A full-rank evaluation proves independence over F[x]; if no probe
        point works, fall back to exact fraction-free rank profiles.  A
        fact (:meth:`fact`) on the view and rho."""
        return self.fact(("rank_lb_sets", rho), view, lambda: self._rank_lb_sets(view, rho))

    def _rank_lb_sets(self, view: MatView, rho: int):
        for alpha in range(EVAL_PROBE_CAP):
            if alpha == 0:
                ev, (r, rows, cols) = self.profile_at_zero(view)
            else:
                ev, (r, rows, cols) = _profiled(view.eval_at(alpha))
            if r >= rho:
                rows, cols = sorted(rows[:rho]), cols[:rho]
                return rows, cols, (alpha, ev.submatrix(rows, cols))
        mat = view.materialize()
        _, row_profile = rank_and_profile(mat.transpose())
        if len(row_profile) >= rho:
            rows = list(row_profile[:rho])
            _, col_profile = rank_and_profile(mat.submatrix(rows, range(mat.n)))
            if len(col_profile) >= rho:
                return rows, list(col_profile[:rho]), None
        return self.deficient_sets(view, rho)

    def deficient_sets(self, view: MatView, rho: int):
        """:meth:`rank_lb_sets` when rank(A) < rho: the first rho rows and
        columns, syntactically valid, and no probe."""
        return list(range(rho)), list(range(rho)), None

    def rank_ub_gamma(self, a: PolyMat, rho: int, alpha: int, v: list) -> list:
        gamma = sparse_representative(a.eval_at(alpha), v, rho)
        if gamma is None:
            return list(v)
        return gamma

    # -- determinant ----------------------------------------------------------

    def field_det_factors(self, b: FieldMat, beta: int):
        """The PLUQ of B, :func:`packed_pluq`.  For beta != 0 the Verifier
        expects the full-rank shape, so a singular B (a false statement)
        gets zero rows of U, whose zero pivots claim det B = 0."""
        f = pluq(b)
        pad = 0 if beta == 0 else b.m - f.rank
        return packed_pluq(f.rank + pad, f.perm_rows, f.perm_cols,
                           [row + [0] * pad for row in f.lower.rows],
                           f.upper.rows + [[0] * b.n] * pad)

    # -- full-rank row space membership ------------------------------------------

    def frrsm_solution(self, view: MatView, vec: VecView):
        """A polynomial u with u A = v, or None when no such u exists.

        By x-adic lifting (:func:`polynomial_solve_left`) when A(0) has full
        row rank, else by the rational solve."""
        a, v = view.materialize(), vec.materialize()
        u = polynomial_solve_left(a, v, self.profile_at_zero(view)[1][2])
        if u is None:
            u = rational_solve_left(a, v)
            if u is LOW_RANK or u is NO_SOLUTION or not u.is_polynomial():
                return None
            return u.numer_row()
        return None if u is NO_SOLUTION else u

    def frrsm_g(self, view: MatView, vec: VecView, c: list, u) -> Poly:
        return lin_comb(view.field, c, u or [])

    def frrsm_w(self, view: MatView, vec: VecView, c: list, g: Poly,
                alpha: int, u) -> list:
        if u is None:
            return [0] * view.m
        return [f(alpha) for f in u]

    # -- coprimality ----------------------------------------------------------------

    def coprime_witness(self, fs: list, sigma: int):
        field = fs[0].field
        t = len(fs)
        if t == 1:
            f1 = fs[0]
            if f1.is_constant() and not f1.is_zero():
                return Poly.constant(field, field.inv(f1.lc())), Poly.zero(field), []
            return Poly.zero(field), Poly.zero(field), []
        if not poly_gcd(*fs).is_one():
            # gcd of the whole family is nontrivial: statement is false
            return Poly.zero(field), Poly.zero(field), [0] * (t - 2)
        for _ in range(COPRIME_RETRY_CAP):
            betas = [self.rng.randrange(sigma) for _ in range(t - 2)]
            h = lin_comb(field, [1, *betas], fs[1:])
            if fs[0].is_zero():
                if h.is_constant() and not h.is_zero():
                    return Poly.zero(field), Poly.constant(field, field.inv(h.lc())), betas
                continue
            if h.is_zero():
                if fs[0].is_constant():
                    return (
                        Poly.constant(field, field.inv(fs[0].lc())),
                        Poly.zero(field),
                        betas,
                    )
                continue
            g, s1, s2 = xgcd(fs[0], h)
            if g.is_one():
                return s1, s2, betas
        raise ProverGaveUp("coprime witness search exceeded its retry cap")

    # -- row space membership (Algorithm: honest prover) ---------------------------------

    def rsm_rank(self, a: PolyMat) -> int:
        """rank(A) over F(x), a statement fact (:meth:`fact`): min(m, n) when
        A(0) reaches it, as a random full-rank A does, else by elimination.
        A claim of full row rank is proved on A itself."""
        def rank():
            r = self.profile_at_zero(a)[1][0]
            return r if r == min(a.m, a.n) else rank_and_profile(a)[0]
        return self.fact("rsm_rank", a, rank)

    def rsm_commitment(self, a: PolyMat, v: list, rho: int, t: int, sigma: int):
        """(tops, dens, sols): Toeplitz compressions C_i, denominators with
        coprime gcd, and the polynomial solutions of u_i (C_i A) = den_i v
        that the ``frrsm`` sub-proofs receive, for a rank claim rho < m.

        Las Vegas: :func:`draw_batch` redraws each compression until the
        compressed system is full rank and solvable, and the whole batch is
        redrawn until the denominators are globally coprime.  Caps: 20 t
        draws per batch, 20 batches.
        """
        for _ in range(RSM_OUTER_CAP):
            batch = draw_batch(self.rng, a, v, rho, t, sigma, RSM_INNER_FACTOR * t)
            if batch is None:
                raise ProverGaveUp("Toeplitz compression search exceeded its draw cap")
            if poly_gcd(*batch[1]).is_one():
                return batch
        raise ProverGaveUp("coprime denominators not found within the batch cap")


def packed_pluq(rank: int, perm_rows, perm_cols, lower, upper):
    """The ``field_det`` answer for B = P L U Q, L unit lower m x rank and
    U upper rank x n given by their rows: (rank, perm_rows, perm_cols, L
    below its diagonal, U from its diagonal on), each factor row by row.
    The unit diagonal of L and the zeros of both are not sent."""
    return (rank, list(perm_rows), list(perm_cols),
            [c for i, row in enumerate(lower) for c in row[:i]],
            [c for i, row in enumerate(upper) for c in row[i:]])


def draw_batch(rng: random.Random, a: PolyMat, v: list, rho: int, t: int, sigma: int,
               cap: int):
    """(tops, dens, sols) for t compressions C_i whose systems w (C_i A) = v
    are full rank and solvable: the C_i, the common denominators of their
    solutions and the numerator rows.  Draws (:func:`draw_compression`)
    until t are found; None once cap draws are spent.
    """
    tops: list = []
    dens: list = []
    sols: list = []
    for _ in range(cap):
        top, w = draw_compression(rng, a, v, rho, sigma)
        if w is LOW_RANK or w is NO_SOLUTION:
            continue
        tops.append(top)
        dens.append(w.common_den)
        sols.append(w.numer_row())
        if len(tops) == t:
            return tops, dens, sols
    return None


def draw_compression(rng: random.Random, a: PolyMat, v: list, rho: int, sigma: int):
    """A random rho x m Toeplitz C (rho + m - 1 draws from rng) and the
    solution of w (C A) = v, as ``rational_solve_left(C.A, v)`` returns it:
    a RatVec, LOW_RANK or NO_SOLUTION."""
    top = ToeplitzOp(a.field, rho, a.m, [rng.randrange(sigma) for _ in range(rho + a.m - 1)])
    return top, rational_solve_left(top.apply_poly_mat(a), v)


def _view_key(view):
    """(the PolyMat under view, a key for what view is): the PolyMat's id,
    with the Toeplitz values of a product C.A and the index sets of a
    submatrix around it.  A list of polynomials is keyed by its values,
    :func:`coeffs_key`, and holds nothing.  Any other matrix is keyed by
    its own id."""
    if isinstance(view, SubmatrixView):
        base, key = _view_key(view.base)
        return base, (key, tuple(view.row_idx), tuple(view.col_idx))
    if isinstance(view, ToeplitzProductView):
        return view.mat, (id(view.mat), tuple(view.top.values))
    if isinstance(view, list):
        return None, coeffs_key(view)
    return view, id(view)


def coeffs_key(polys) -> tuple:
    """A key for a list of polynomials: each one's modulus and coefficients."""
    return tuple([(f.field.p, *f.coeffs) for f in polys])


def _profiled(ev):
    return ev, rank_profile(ev)
