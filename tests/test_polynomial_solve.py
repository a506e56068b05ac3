"""x-adic lifting for u A = v (oracles.polynomial_solve_left) and the point
count K that the evaluation solve shares with it (oracles.elimination_plan).

The lift must return exactly the rational solve's u whenever that u is
polynomial, NO_SOLUTION whenever it is rational or missing, and None only
when B(0) is singular.  K must bound the degree of every polynomial the
evaluation solve interpolates or checks.
"""

import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycert import oracles, provers
from polycert.experiments import generate_true_instance
from polycert.ff import PrimeField
from polycert.matfield import pluq, rank_profile
from polycert.oracles import (
    LOW_RANK,
    NO_SOLUTION,
    _bareiss,
    elimination_plan,
    hermite_form,
    polynomial_solve_left,
    popov_form,
    rank_and_profile,
    rational_solve_left,
)
from polycert.polymat import PolyMat, ScaledVecView
from polycert.protocols import run_protocol
from polycert.provers import HonestProver
from polycert.transcript import MODE_FIAT_SHAMIR, ProtocolParams
from polycert.upoly import Poly
from test_kernel import _poly

F2 = PrimeField(2)
F97 = PrimeField(97)
F31 = PrimeField(2**31 - 1)
F61 = PrimeField(2**61 - 1)
FIELDS = [F2, F97, F31, F61]
IDS = ["F2", "F97", "F2^31-1", "F2^61-1"]

KINDS = ["member", "hermite", "popov", "rational", "nonmember", "x_times", "zero_v"]


def _times(u, a):
    """The row vector u A."""
    return [sum((u[i] * a.rows[i][j] for i in range(a.m)), Poly.zero(a.field))
            for j in range(a.n)]


def _random(draw, field, m, n, d):
    return PolyMat(field, [[_poly(draw, field, d) for _ in range(n)] for _ in range(m)],
                   ncols=n)


@st.composite
def systems(draw, field, kind):
    """(A, v) of the given kind, with A of full row rank over F(x)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 5))
    d = draw(st.integers(0, 3))
    a = _random(draw, field, m, n, d)
    if kind == "hermite":
        a = hermite_form(a)[0]
    elif kind == "popov":
        a = popov_form(a, [draw(st.integers(0, 4)) for _ in range(n)])
    elif kind == "rational":
        # A = diag(x + c, 1, ..., 1) A': u = (w_0 / (x + c), w_1, ...) for v = w A'
        den = Poly(field, [draw(st.integers(0, field.p - 1)), 1])
        a = PolyMat(field, [[den * e for e in a.rows[0]]] + a.rows[1:], ncols=n)
    elif kind == "x_times":
        a = PolyMat(field, [[Poly.x(field) * e for e in row] for row in a.rows], ncols=n)
    assume(a.m == m and rank_and_profile(a)[0] == m)
    if kind == "nonmember":
        v = [_poly(draw, field, draw(st.integers(-1, 4))) for _ in range(n)]
    elif kind == "zero_v":
        v = [Poly.zero(field)] * n
    else:
        u = [_poly(draw, field, draw(st.integers(-1, 5))) for _ in range(m)]
        if kind == "rational":
            # u_0 = 1 / (x + c): v is the first row of A' plus u_1 a_1 + ...
            u[0] = Poly.zero(field)
            v = [f + g.divexact(den) for f, g in zip(_times(u, a), a.rows[0])]
        else:
            v = _times(u, a)
    return a, v


def _b0_singular(a, profile):
    at0 = a.eval_at(0)
    return pluq(at0.submatrix(range(a.m), profile)).rank < a.m


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_lift_agrees_with_the_rational_solve(field, kind, data):
    a, v = data.draw(systems(field, kind))
    want = rational_solve_left(a, v)
    assert want is not LOW_RANK
    polynomial = want is not NO_SOLUTION and want.is_polynomial()
    if kind != "nonmember":
        # every planted u is polynomial but the planted rational one
        assert polynomial == (kind != "rational")
    _, exact_profile = rank_and_profile(a)
    probe_rank, _, probe_profile = rank_profile(a.eval_at(0))
    if kind == "x_times":
        assert probe_rank == 0
    # the column rank profile of A(0), as the Prover passes it, is short of m
    # columns exactly when A(0) is rank deficient, and B(0) is then singular
    assert _b0_singular(a, probe_profile) == (probe_rank < a.m)
    for profile in (exact_profile, probe_profile):
        got = polynomial_solve_left(a, v, profile)
        if _b0_singular(a, profile):
            assert got is None
        elif polynomial:
            assert got == want.numer_row()
        else:
            assert got is NO_SOLUTION


def _bordered(a, v, profile, j):
    """det of B bordered by A's column j and the row (v_B, v_j)."""
    rows = [[a.rows[i][k] for k in profile] + [a.rows[i][j]] for i in range(a.m)]
    rows.append([v[k] for k in profile] + [v[j]])
    return _bareiss(PolyMat(a.field, rows, ncols=a.m + 1))[2]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", [F97, F31], ids=["F97", "F2^31-1"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_plan_bounds_every_interpolated_degree(field, kind, data):
    a, v = data.draw(systems(field, kind))
    _, profile = rank_and_profile(a)
    npoints, budget, _ = elimination_plan(a, v, profile)
    b = a.submatrix(range(a.m), profile)
    v_b = [v[j] for j in profile]
    det = _bareiss(b)[2]
    assert not det.is_zero() and det.deg <= min(npoints - 1, budget)
    for i in range(a.m):
        numer = _bareiss(PolyMat(field, b.rows[:i] + [v_b] + b.rows[i + 1:], ncols=a.m))[2]
        assert numer.deg <= npoints - 1
    for j in set(range(a.n)) - set(profile):
        assert _bordered(a, v, profile, j).deg <= npoints - 1
    # never more points than the bound it replaces
    deg_v = max((int(f.deg) for f in v if f.coeffs), default=0)
    assert npoints <= a.m * max(0, a.deg) + deg_v + 1


# -- the Prover's routes ------------------------------------------------------------


PARAMS = ProtocolParams(p=F31.p, sigma=F31.p, mode=MODE_FIAT_SHAMIR, strict=True)


def _member(seed, m=3, n=5, d=2):
    pub = generate_true_instance("rsm", random.Random(seed), F31, mmax=m, dmax=d)
    return pub["A"], pub["v"]


def test_full_row_rank_true_statements_never_evaluate():
    cases = [_member(seed) for seed in range(6)]
    cases = [(a, v) for a, v in cases if pluq(a.eval_at(0)).rank == a.m]
    assert len(cases) >= 3
    wants = [rational_solve_left(a, v) for a, v in cases]
    with mock.patch.object(oracles, "_solve_left_evaluation",
                           wraps=oracles._solve_left_evaluation) as ev:
        for (a, v), want in zip(cases, wants):
            assert want.is_polynomial()
            assert HonestProver().frrsm_solution(a, ScaledVecView(v)) == want.numer_row()
            for pid in ("rsm", "frrsm"):
                verdict, _ = run_protocol(pid, {"A": a, "v": v}, PARAMS)
                assert verdict.accepted
    assert ev.call_count == 0


def test_frrsm_solution_of_a_non_member_solves_nothing_rationally():
    rng = random.Random(3)
    a = PolyMat(F31, [[Poly(F31, [rng.randrange(1, 97) for _ in range(3)])
                       for _ in range(4)] for _ in range(2)], ncols=4)
    assert pluq(a.eval_at(0)).rank == 2
    v = [Poly(F31, [1, 2, 3])] * 4
    with mock.patch.object(provers, "rational_solve_left",
                           wraps=provers.rational_solve_left) as solve:
        assert HonestProver().frrsm_solution(a, ScaledVecView(v)) is None
    assert solve.call_count == 0
    assert rational_solve_left(a, v) is NO_SOLUTION


def test_frrsm_solution_falls_back_when_the_lift_cannot_start():
    # A(0) = 0: the lift cannot start, and the rational solve gives the answer
    x = Poly.x(F31)
    a = PolyMat(F31, [[x, x * x + x], [Poly.zero(F31), x]], ncols=2)
    u = [Poly(F31, [1, 1]), Poly(F31, [0, 3])]
    v = _times(u, a)
    assert polynomial_solve_left(a, v, rank_profile(a.eval_at(0))[2]) is None
    assert HonestProver().frrsm_solution(a, ScaledVecView(v)) == u
    verdict, _ = run_protocol("rsm", {"A": a, "v": v}, PARAMS)
    assert verdict.accepted
