"""One plan for every Prover elimination (oracles.elimination_plan).

Both routes, batched evaluation at the plan's degree-sum point count and
fraction-free elimination over F[x], must give the same determinant, the
same rank and profile, and the same rational solution (or LOW_RANK /
NO_SOLUTION), on Hermite-shaped and Popov-shaped (skewed-degree) and on
rank-deficient inputs.  The route pins fix where the benchmark's shapes go.
"""

import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycert import oracles
from polycert.experiments import make_false_instance
from polycert.ff import PrimeField
from polycert.instances import planted_member, rand_polymat
from polycert.oracles import (
    LOW_RANK,
    NO_SOLUTION,
    det_bareiss,
    elimination_plan,
    hermite_form,
    kernel_basis_left,
    popov_form,
    rank_and_profile,
    rational_solve_left,
    saturation_basis,
)
from polycert.polymat import PolyMat
from polycert.protocols import run_protocol
from polycert.transcript import MODE_FIAT_SHAMIR, MODE_INTERACTIVE, ProtocolParams
from polycert.upoly import Poly
from test_kernel import _poly, route

F7 = PrimeField(7)
F13 = PrimeField(13)
F97 = PrimeField(97)
F31 = PrimeField(2**31 - 1)
F61 = PrimeField(2**61 - 1)
FIELDS = [F7, F97, F31, F61]
IDS = ["F7", "F97", "F2^31-1", "F2^61-1"]


# -- both routes agree ---------------------------------------------------------------


def _random(draw, field, m, n, d):
    return PolyMat(field, [[_poly(draw, field, d) for _ in range(n)] for _ in range(m)],
                   ncols=n)


@st.composite
def shaped(draw, field):
    """Hermite forms, shifted Popov forms and planted rank-deficient matrices."""
    kind = draw(st.sampled_from(["hermite", "popov", "deficient"]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    if kind == "deficient":
        r = draw(st.integers(0, min(m, n) - 1))
        return _random(draw, field, m, r, d // 2).mul(_random(draw, field, r, n, d - d // 2))
    a = _random(draw, field, m, n, d)
    if kind == "hermite":
        a = hermite_form(a)[0]
    else:
        a = popov_form(a, [draw(st.integers(0, 4)) for _ in range(n)])
    assume(a.m > 0)
    return a


def _both(call):
    with route(True):
        batched = call()
    with route(False):
        fraction_free = call()
    return batched, fraction_free


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_both_routes_agree(field, data):
    a = data.draw(shaped(field))
    batched, fraction_free = _both(lambda: rank_and_profile(a))
    assert batched == fraction_free
    if a.m == a.n:
        batched, fraction_free = _both(lambda: det_bareiss(a))
        assert batched == fraction_free
    if data.draw(st.booleans()):
        u = [_poly(data.draw, field, data.draw(st.integers(-1, 2))) for _ in range(a.m)]
        v = [sum((u[i] * a.rows[i][j] for i in range(a.m)), Poly.zero(field))
             for j in range(a.n)]
    else:
        v = [_poly(data.draw, field, data.draw(st.integers(-1, 3))) for _ in range(a.n)]
    batched, fraction_free = _both(lambda: rational_solve_left(a, v))
    if fraction_free is LOW_RANK or fraction_free is NO_SOLUTION:
        assert batched is fraction_free
    else:
        assert batched.common_den == fraction_free.common_den
        assert batched.numer_row() == fraction_free.numer_row()


def test_points_come_from_degree_sums():
    def mono(k, c=1):
        return Poly(F97, [0] * k + [c])

    # row and column degrees 6, 0, 0: 7 points where 3 * 6 + 1 were counted
    skew = PolyMat(F97, [[mono(6), mono(0), mono(0)],
                         [mono(0), mono(0), mono(0, 2)],
                         [mono(0), mono(0, 3), mono(0)]], ncols=3)
    assert elimination_plan(skew) == (7, 0, False)
    want = Poly(F97, [3, 0, 0, 0, 0, 0, -5 % 97])
    assert _both(lambda: det_bareiss(skew)) == (want, want)
    # a 2 x 4 rank: the two largest row degrees sum to 5 + 1, the two
    # largest column degrees to 5 + 5
    wide = PolyMat(F97, [[mono(5), mono(0), mono(5), mono(0)],
                         [mono(1), mono(0), mono(0), mono(0)]], ncols=4)
    assert elimination_plan(wide) == (7, 0, False)
    assert rank_and_profile(wide) == (2, (0, 1))


# -- route pins -------------------------------------------------------------------------


def _plans(run):
    """(m, n, is a solve, points, budget, batched) of every plan run() makes."""
    seen = []
    plan = oracles.elimination_plan

    def spy(mat, *args):
        out = plan(mat, *args)
        seen.append((mat.m, mat.n, bool(args)) + out)
        return out

    with mock.patch.object(oracles, "elimination_plan", spy):
        run()
    return seen


def _prove(pid, pub, field):
    params = ProtocolParams(p=field.p, sigma=field.p, mode=MODE_FIAT_SHAMIR,
                            strict=field.p > 1000)
    verdict, _ = run_protocol(pid, pub, params)
    assert verdict.accepted


def test_soundness_rsm_compressions_go_fraction_free():
    seen = []
    for k in range(4):
        pub, prover, _, _ = make_false_instance("rsm", random.Random(f"rsm:{k}"), F31, 32)
        for trial in range(3):
            params = ProtocolParams(p=F31.p, sigma=32, mode=MODE_INTERACTIVE, strict=False,
                                    seed=100 * k + trial)
            seen += _plans(lambda: run_protocol("rsm", pub, params, prover=prover))
    compressions = [s for s in seen if s[:3] == (2, 3, True)]
    assert compressions
    assert all(s[3] <= 8 and not s[5] for s in compressions)


def test_certify_kernel_compressions_go_fraction_free():
    # the minimal kernel basis B (6 columns, degree 5) keeps the 2 x 2
    # compressions of its rank sub-proof at 10 points: a small block
    rng = random.Random(2)
    a = rand_polymat(rng, F31, 6, 4, 3)
    kernel = _plans(lambda: _prove("kernel_basis", {"A": a, "B": kernel_basis_left(a)}, F31))
    solves = [s for s in kernel if s[:3] == (2, 2, True)]
    assert solves and all(s[3:] == (10, 9, False) for s in solves)


def test_certify_compressions_go_batched():
    rng = random.Random(2)
    rand_polymat(rng, F31, 6, 4, 3)  # the kernel test's input; the sat_basis input follows it
    a = rand_polymat(rng, F31, 5, 7, 3)
    sat = _plans(lambda: _prove("sat_basis", {"A": a, "B": saturation_basis(a)}, F31))
    solves = [s for s in sat if s[:3] == (5, 5, True)]
    assert solves and all(s[5] for s in solves)


def test_wide_low_degree_rank_and_det_go_batched():
    rng = random.Random(3)
    dense = [[Poly(F31, [rng.randrange(F31.p), 1 + rng.randrange(F31.p - 1)])
              for _ in range(10)] for _ in range(8)]
    wide = PolyMat(F31, dense, ncols=10)
    square = PolyMat(F31, [row[:8] for row in dense], ncols=8)
    assert elimination_plan(wide) == (9, 0, True)
    assert elimination_plan(square) == (9, 0, True)
    with mock.patch.object(oracles, "_rank_and_profile_evaluation",
                           wraps=oracles._rank_and_profile_evaluation) as rank, \
            mock.patch.object(oracles, "_det_evaluation",
                              wraps=oracles._det_evaluation) as det:
        assert rank_and_profile(wide) == (8, tuple(range(8)))
        assert not det_bareiss(square).is_zero()
    assert rank.call_count == det.call_count == 1


def test_small_field_goes_fraction_free():
    rng = random.Random(7)
    a, v, _ = planted_member(rng, F13, 3, 4, 2)
    seen = _plans(lambda: _prove("rsm", {"A": a, "v": v}, F13))
    solves = [s for s in seen if s[2]]
    assert solves and not any(s[5] for s in solves)
