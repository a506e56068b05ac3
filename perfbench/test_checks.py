"""The benchmark's independent checks must fail on wrong objects.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks as C  # noqa: E402
import run  # noqa: E402
from polycert import PolyMat, Poly  # noqa: E402
from polycert import instances as I  # noqa: E402
from polycert import oracles as O  # noqa: E402
from polycert.ff import DEFAULT_MODULUS, PrimeField  # noqa: E402

F = PrimeField(DEFAULT_MODULUS)
P = F.p


def test_wrong_determinant_fails():
    rng = random.Random(1)
    a = I.rand_polymat(rng, F, 4, 4, 2)
    delta = O.det_bareiss(a)
    assert C.check_det(a, delta, P, rng)
    assert not C.check_det(a, delta + Poly.one(F), P, rng)
    assert not C.check_det(a, delta.scale(2), P, rng)


def test_wrong_rank_fails():
    rng = random.Random(2)
    a = I.planted_rank(rng, F, 5, 6, 3, 2)
    rho = O.rank_and_profile(a)[0]
    assert rho == 3 and C.check_rank(a, rho, P, rng)
    assert not C.check_rank(a, rho - 1, P, rng)
    assert not C.check_rank(a, rho + 1, P, rng)
    assert C.rank_below_everywhere(a, rho + 1, P, rng)
    assert not C.rank_below_everywhere(a, rho, P, rng)


def test_wrong_hermite_form_fails():
    rng = random.Random(3)
    a = I.rand_polymat(rng, F, 3, 4, 2)
    h, u = O.hermite_form(a)
    assert C.check_hermite(a, h, u, P, rng)
    # a changed entry breaks U A = [H; 0]
    rows = [list(r) for r in h.rows]
    rows[-1][0] = rows[-1][0] + Poly.one(F)
    assert not C.check_hermite(a, PolyMat(F, rows, ncols=h.n), u, P, rng)
    # adding row 0 to row 1 on both sides keeps U A = [H; 0] and det U, and
    # breaks only the Hermite shape (row 1 gets a nonzero entry at pivot 0
    # of degree >= the pivot's)
    x = Poly.x(F) * I.rand_poly(rng, F, 2, nonzero=True)
    hrows = [list(r) for r in h.rows]
    urows = [list(r) for r in u.rows]
    big = [f * x for f in hrows[0]]
    hrows[1] = [f + g for f, g in zip(hrows[1], big)]
    urows[1] = [f + g * x for f, g in zip(urows[1], urows[0])]
    h2, u2 = PolyMat(F, hrows, ncols=h.n), PolyMat(F, urows, ncols=u.n)
    assert C.matmul_mod(C.eval_entries(u2.rows, 5, P), C.eval_entries(a.rows, 5, P), P)[:h.m] \
        == C.eval_entries(h2.rows, 5, P)
    assert not C.hermite_shape(h2)
    assert not C.check_hermite(a, h2, u2, P, rng)


def test_wrong_kernel_and_product_fail():
    rng = random.Random(4)
    a = I.planted_rank(rng, F, 5, 3, 2, 2)
    b = O.kernel_basis_left(a)
    assert C.check_kernel(a, b, P, rng)
    assert not C.check_kernel(a, PolyMat(F, b.rows[1:], ncols=b.n), P, rng)
    x = I.rand_polymat(rng, F, 2, 3, 2)
    y = I.rand_polymat(rng, F, 3, 2, 2)
    c = x.mul(y)
    assert C.check_matmul(x, y, c, P, rng)
    assert not C.check_matmul(x, y, c.add(PolyMat.identity(F, 2)), P, rng)


def test_popov_and_gcd_checks_fail_on_wrong_input():
    rng = random.Random(5)
    a = I.rand_polymat(rng, F, 3, 4, 2)
    pm = O.popov_form(a, [0] * 4)
    assert C.check_popov(a, [0] * 4, pm, P, rng)
    assert not C.popov_shape(PolyMat(F, [[f.scale(2) for f in pm.rows[0]]] + pm.rows[1:],
                                     ncols=pm.n), [0] * 4)
    xx = Poly.x(F)
    assert C.poly_gcd_degree([xx, xx * xx], P) == 1
    assert C.poly_gcd_degree([xx, xx + Poly.one(F)], P) == 0


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    printed = {k: v[2] for k, v in {**run.PER_LAYER, **run.PER_SETUP}.items()}
    printed[run.OVERHEAD[0]] = run.OVERHEAD[1]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
