"""The certify Prover's oracles against their reference definitions.

``kernel_basis_left`` (the minimal approximant basis route) against the
Popov form of the Hermite transform's kernel rows, ``saturation_basis``
(popov_form with the left-prime shortcut, else a kernel of a kernel)
against the same kernels taken by the Hermite reference,
``ToeplitzOp.apply_poly_mat`` (one product over the coefficient tensor)
against its entrywise definition, and ``det_bareiss``
on both routes against fraction-free elimination;
then the evaluation solve's stop on singular profile columns and the agreement of the
advertised #S bounds with the ones the runners record, on true and false
statements.
"""

import random
import signal
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycert import PROTOCOL_IDS, oracles
from polycert.experiments import (
    PROVER_SPECS,
    generate_true_instance,
    make_false_instance,
    strict_sigma,
)
from polycert.ff import PrimeField
from polycert.instances import rand_polymat, rand_singular
from polycert.oracles import (
    LOW_RANK,
    _bareiss,
    _det_evaluation,
    _solve_left_evaluation,
    det_bareiss,
    elimination_plan,
    hermite_form,
    kernel_basis_left,
    popov_form,
    rational_solve_left,
    saturation_basis,
)
from polycert.polymat import PolyMat, ToeplitzOp
from polycert.protocols import run_protocol
from polycert.transcript import MODE_FIAT_SHAMIR, MODE_INTERACTIVE, ProtocolParams, Reason
from polycert.upoly import NEG_INF, Poly
from test_kernel import FIELDS, IDS, _poly, polymats, route

F97 = PrimeField(97)
F31 = PrimeField(2**31 - 1)
# F_2 and F_3 with n >= p lie outside the n < p that the left-prime test's
# Cauchy-Binet argument assumes, so the general path must hold on its own
SAT_FIELDS = FIELDS + [PrimeField(2), PrimeField(3)]
SAT_IDS = IDS + ["F2", "F3"]


@contextmanager
def time_budget(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- kernel basis ---------------------------------------------------------------------------

F7 = PrimeField(7)
KERNEL_FIELDS = [F7] + SAT_FIELDS
KERNEL_IDS = ["F7"] + SAT_IDS


def _kernel_by_hermite(mat):
    """The zero-shift Popov form of the rows of hermite_form's U after the
    first H.m, which map A to zero: the reference the kernel oracle is
    checked against (a module has one zero-shift Popov basis)."""
    h, u = hermite_form(mat)
    return popov_form(PolyMat(mat.field, u.rows[h.m:], ncols=mat.m), [0] * mat.m)


def _check_kernel(mat):
    got = kernel_basis_left(mat)
    assert got == _kernel_by_hermite(mat)
    assert (got.m, got.n) == (mat.m - oracles.rank_and_profile(mat)[0], mat.m)
    if got.m:
        assert got.mul(mat).is_zero()
    if got.m and mat.deg != NEG_INF:
        assert got.deg < elimination_plan(mat)[0]
    return got


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_kernel_basis_matches_hermite_reference(field, data):
    # random, zero, zero-column and planted rank-deficient, any shape
    _check_kernel(data.draw(polymats(field, max_dim=6, max_deg=3)))


def test_kernel_basis_of_degenerate_and_full_rank_inputs():
    for field in (F7, F97, F31):
        for m, n in ((3, 0), (1, 0), (0, 3), (0, 0)):
            got = _check_kernel(PolyMat(field, [[]] * m if m else [], ncols=n))
            assert got == PolyMat.identity(field, m)
        assert _check_kernel(PolyMat.zero(field, 3, 2)) == PolyMat.identity(field, 3)
        rng = random.Random(field.p)
        wide = rand_polymat(rng, field, 3, 5, 2)
        assert oracles.rank_and_profile(wide)[0] == 3
        assert _check_kernel(wide).m == 0


def test_kernel_basis_is_minimal_at_the_certify_size():
    # the Hermite transform's kernel rows reach degree 14-27 here
    for seed in range(3):
        a = rand_polymat(random.Random(seed), F31, 6, 4, 3)
        got = _check_kernel(a)
        assert got.m == 2 and got.deg <= 6
        assert sum(int(max(f.deg for f in row)) for row in got.rows) <= 12


# -- saturation basis ----------------------------------------------------------------------


def _saturation_by_kernels(mat):
    """Sat(A) as a left kernel basis of a right kernel basis of A, both by
    the Hermite reference, in zero-shift Popov form: the reference the
    oracle is checked against."""
    right = _kernel_by_hermite(mat.transpose()).transpose()
    if right.n == 0:
        return PolyMat.identity(mat.field, mat.n)
    return _kernel_by_hermite(right)


def _saturation_and_fallbacks(mat):
    """saturation_basis(mat) and how many kernels its general path took."""
    with mock.patch.object(oracles, "kernel_basis_left",
                           wraps=oracles.kernel_basis_left) as kernel:
        got = saturation_basis(mat)
    return got, kernel.call_count


@pytest.mark.parametrize("field", SAT_FIELDS, ids=SAT_IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_saturation_basis_matches_kernel_route(field, data):
    # random, zero, zero-column and rank-deficient matrices, wide, square and tall
    mat = data.draw(polymats(field, max_dim=5, max_deg=3))
    assert saturation_basis(mat) == _saturation_by_kernels(mat)


@pytest.mark.parametrize("field", SAT_FIELDS, ids=SAT_IDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_saturation_basis_falls_back_on_planted_non_saturated(field, data):
    # every maximal minor of G B has det(G) as a factor, so no pair is coprime
    r = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(r + 1 if field.p > 5 else max(r + 1, field.p), 5))
    g = PolyMat(field, [[_poly(data.draw, field, 1) for _ in range(r)] for _ in range(r)],
                ncols=r)
    b = PolyMat(field, [[_poly(data.draw, field, data.draw(st.integers(0, 2)))
                         for _ in range(n)] for _ in range(r)], ncols=n)
    assume(_bareiss(g)[2].deg >= 1)
    assume(oracles.rank_and_profile(b)[0] == r)
    a = g.mul(b)
    got, kernels = _saturation_and_fallbacks(a)
    assert kernels == 2
    assert got == _saturation_by_kernels(a)
    assert got == saturation_basis(b)


def test_saturation_basis_takes_the_shortcut_on_left_prime_input():
    rng = random.Random(5)
    wide = rand_polymat(rng, F31, 5, 7, 3)
    # a column with one nonzero entry: every minor through it shares that
    # entry's factor, yet the matrix is left prime
    rows = [list(row) for row in rand_polymat(rng, F31, 4, 6, 2).rows]
    for row in rows:
        row[5] = Poly.zero(F31)
    rows[0][5] = Poly(F31, [3, 1, 1])
    sparse = PolyMat(F31, rows, ncols=6)
    for a in (wide, sparse):
        got, kernels = _saturation_and_fallbacks(a)
        assert kernels == 0
        assert got == popov_form(a) == _saturation_by_kernels(a)


# -- Toeplitz compression -------------------------------------------------------------------


def _entry(top, i, j):
    """C[i][j] of a Toeplitz operator C, read from its defining values."""
    return top.values[i - j + top.m - 1]


def _apply_entrywise(top, mat):
    z = Poly.zero(top.field)
    return PolyMat(top.field, [
        [sum((mat.rows[k][j].scale(_entry(top, i, k)) for k in range(top.m)), z)
         for j in range(mat.n)]
        for i in range(top.rho)
    ], ncols=mat.n)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_apply_poly_mat_matches_entrywise(field, data):
    mat = data.draw(polymats(field, max_dim=5, max_deg=4))
    rho = data.draw(st.integers(0, 5))
    values = data.draw(st.lists(st.integers(0, field.p - 1),
                                min_size=rho + mat.m - 1, max_size=rho + mat.m - 1))
    top = ToeplitzOp(field, rho, mat.m, values if rho else [])
    got = top.apply_poly_mat(mat)
    assert (got.m, got.n) == (rho, mat.n)
    assert got == _apply_entrywise(top, mat)
    # the product's tensor, handed over, is the one its entries would build
    fresh = PolyMat(field, got.rows, ncols=got.n).coeff_tensor()
    assert got.coeff_tensor().shape == fresh.shape
    assert (got.coeff_tensor() == fresh).all()


def test_apply_poly_mat_of_zero_and_large_entries():
    f61 = FIELDS[-1]
    for field in (F97, F31, f61):
        # four products of (p-1)**2 would overflow an unreduced int64 sum
        top = ToeplitzOp(field, 3, 4, [field.p - 1] * 6)
        assert top.apply_poly_mat(PolyMat.zero(field, 4, 3)) == PolyMat.zero(field, 3, 3)
        big = PolyMat(field, [[Poly(field, [field.p - 1] * 5)] * 3] * 4, ncols=3)
        assert top.apply_poly_mat(big) == _apply_entrywise(top, big)
        # C = [-1, 1] cancels the equal top coefficients of A's two rows
        row = [Poly(field, [1, 2, 3]), Poly(field, [4, 0, 5])]
        low = PolyMat(field, [row, [f + Poly.one(field) for f in row]], ncols=2)
        got = ToeplitzOp(field, 1, 2, [1, field.p - 1]).apply_poly_mat(low)
        assert got.deg == 0 and got.coeff_tensor().shape == (1, 1, 2)


# -- determinant --------------------------------------------------------------------------------


@st.composite
def square_polymats(draw, field, max_dim=5, max_deg=4):
    """Random, singular (repeated row), zero-column and zero square matrices."""
    n = draw(st.integers(1, max_dim))
    d = draw(st.integers(0, max_deg))
    kind = draw(st.sampled_from(["random", "repeat_row", "zero_col", "zero"]))
    if kind == "zero":
        return PolyMat.zero(field, n, n)
    rows = [[_poly(draw, field, d) for _ in range(n)] for _ in range(n)]
    if kind == "repeat_row" and n > 1:
        rows[-1] = [f * 3 for f in rows[0]]
    elif kind == "zero_col":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = Poly.zero(field)
    return PolyMat(field, rows, ncols=n)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_det_same_on_both_routes(field, data):
    mat = data.draw(square_polymats(field))
    want = _bareiss(mat)[2]
    npoints = elimination_plan(mat)[0]
    assert _det_evaluation(mat, npoints) == want
    assert det_bareiss(mat) == want
    with route(True):
        assert det_bareiss(mat) == want
    with route(False):
        assert det_bareiss(mat) == want


def test_det_routes_by_point_count():
    # 4 x 4, every entry of degree 3 but one of degree 4: 14 points from the
    # degree sums, batched; F_7 and F_13 have too few
    rng = random.Random(8)
    for field in (PrimeField(7), PrimeField(13), F97, F31):
        rows = [[Poly(field, [rng.randrange(field.p) for _ in range(3)] + [1])
                 for _ in range(4)] for _ in range(4)]
        rows[0][0] = Poly(field, [1, 0, 0, 0, 1])
        mat = PolyMat(field, rows, ncols=4)
        sing = PolyMat(field, rows[:3] + [[f * 2 for f in rows[0]]], ncols=4)
        assert mat.deg == sing.deg == 4
        assert elimination_plan(mat) == elimination_plan(sing) == (14, 0, field.p > 13)
        with mock.patch.object(oracles, "_det_evaluation", wraps=_det_evaluation) as ev:
            assert det_bareiss(mat) == _bareiss(mat)[2]
            assert det_bareiss(sing) == _bareiss(sing)[2] == Poly.zero(field)
        assert ev.call_count == (2 if field.p > 13 else 0)


# -- square solving on a singular matrix ----------------------------------------------------


def test_square_solve_stops_on_singular_matrix():
    # the evaluation solve, handed singular profile columns, stops at its
    # candidate limit; the full solve finds the low rank on both routes
    row = [Poly(F31, [1, 2]), Poly(F31, [3, 1])]
    b = PolyMat(F31, [row, [f * 5 for f in row]], ncols=2)
    y = [Poly.one(F31), Poly.x(F31)]
    # 2 x 2 of degree 1: 3 points, fraction-free
    plan = elimination_plan(b, y, (0, 1))
    assert plan == (3, 2, False)
    with time_budget(5), pytest.raises(ArithmeticError):
        _solve_left_evaluation(b, y, (0, 1), *plan[:2])
    # 8 x 8 of degree 4: 33 points, batched
    b8 = rand_singular(random.Random(4), F31, 8, 4)
    y8 = [Poly(F31, [i + 1, 7]) for i in range(8)]
    assert elimination_plan(b8, y8, range(8))[2]
    for mat, vec in ((b, y), (b8, y8)):
        for batched in (True, False):
            with route(batched), time_budget(5):
                assert rational_solve_left(mat, vec) is LOW_RANK


# -- advertised #S bounds -------------------------------------------------------------------


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_strict_sigma_matches_recorded_bound(pid):
    for field in (F31, F97):
        params = ProtocolParams(p=field.p, sigma=field.p, mode=MODE_FIAT_SHAMIR,
                                strict=False)
        for seed in range(4):
            pub = generate_true_instance(pid, random.Random(seed), field, mmax=5, dmax=3)
            _, t = run_protocol(pid, pub, params)
            assert strict_sigma(pid, pub) == t.meta["sigma_lower_bound"], (field.p, seed)
    # false statements too: the bound is what the Verifier can compute, so a
    # claim below the true rank (rank_ub) sets it, not the rank itself
    if PROVER_SPECS[pid].false_instance is None:
        return
    for seed in range(3):
        pub, prover, _, _ = make_false_instance(pid, random.Random(seed), F31, 64)
        params = ProtocolParams(p=F31.p, sigma=64, mode=MODE_INTERACTIVE, strict=False,
                                seed=seed)
        _, t = run_protocol(pid, pub, params, prover=prover)
        assert strict_sigma(pid, pub) == t.meta["sigma_lower_bound"], seed


@pytest.mark.parametrize("pid", ["rsm", "rs_subset", "rs_equality"])
def test_rank_zero_row_space_bound_is_recorded_and_enforced(pid):
    zero = PolyMat.zero(F97, 2, 3)
    pub = {"A": zero, "v": [Poly.zero(F97)] * 3} if pid == "rsm" else {"A": zero, "B": zero}
    bound = strict_sigma(pid, pub)
    ok, t = run_protocol(pid, pub, ProtocolParams(p=97, sigma=bound, mode=MODE_FIAT_SHAMIR,
                                                  strict=True))
    assert ok.accepted and t.meta["sigma_lower_bound"] == bound
    low, _ = run_protocol(pid, pub, ProtocolParams(p=97, sigma=bound - 1,
                                                   mode=MODE_FIAT_SHAMIR, strict=True))
    assert not low.accepted and low.reason is Reason.PARAMS_INVALID
