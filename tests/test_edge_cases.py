"""Degenerate shapes through the full protocol stack.

Zero matrices, empty normal forms and kernels, 1x1 systems, and constant
(degree-0) matrices must all run, verify, and re-verify without special
casing by callers.
"""

from polycert.ff import PrimeField
from polycert.oracles import (
    hermite_form,
    kernel_basis_left,
    popov_form,
    saturation_basis,
)
from polycert.polymat import PolyMat
from polycert.protocols import run_protocol, verify_transcript
from polycert.transcript import ProtocolParams, Reason
from polycert.upoly import Poly

F = PrimeField(2**31 - 1)
PARAMS = ProtocolParams(p=F.p, sigma=1 << 16, mode="fiat-shamir", strict=False)


def run_ok(pid, pub, expect=True):
    verdict, transcript = run_protocol(pid, pub, PARAMS)
    assert verdict.accepted == expect, (pid, verdict)
    assert verify_transcript(transcript).accepted == verdict.accepted


def test_zero_matrix_normal_forms_and_kernels():
    z = PolyMat.zero(F, 2, 3)
    zv = [Poly.zero(F)] * 3
    h0, _ = hermite_form(z)
    assert h0.m == 0
    run_ok("hermite", {"A": z, "H": h0})
    run_ok("spopov", {"A": z, "shift": [0, 0, 0], "P": popov_form(z)})
    run_ok("sat_basis", {"A": z, "B": saturation_basis(z)})
    run_ok("kernel_basis", {"A": z, "B": kernel_basis_left(z)})
    run_ok("rsm", {"A": z, "v": zv})
    run_ok("rs_equality", {"A": z, "B": PolyMat.zero(F, 1, 3)})
    run_ok("rank", {"A": z, "rho": 0})
    run_ok("matmul", {"A": z, "B": PolyMat.zero(F, 3, 2),
                      "C": PolyMat.zero(F, 2, 2)})
    run_ok("determinant", {"A": PolyMat.zero(F, 2, 2), "delta": Poly.zero(F)})


def test_one_by_one_systems():
    one = PolyMat.identity(F, 1)
    x11 = PolyMat.from_coeff_lists(F, [[[0, 1]]])
    run_ok("nonsingularity", {"A": x11})
    run_ok("singularity", {"A": PolyMat.zero(F, 1, 1)})
    run_ok("determinant", {"A": x11, "delta": Poly.x(F)})
    run_ok("hermite", {"A": x11, "H": hermite_form(x11)[0]})
    run_ok("saturated", {"A": one})
    run_ok("rsm", {"A": x11, "v": [Poly.x(F) * Poly.x(F)]})
    run_ok("coprime", {"f": [Poly.of(F, 5)]})
    run_ok("frrsm", {"A": one, "v": [Poly.of(F, 3, 1)]})
    run_ok("kernel_basis", {"A": one, "B": PolyMat(F, [], ncols=1)})
    # [x] is full rank but not saturated: 1 is not in its row space, and the
    # rsm run on A itself rejects the honest frrsm answer
    verdict, transcript = run_protocol("saturated", {"A": x11}, PARAMS)
    assert verdict.reason is Reason.SUBPROTOCOL_REJECTED
    assert verdict.detail.endswith("frrsm: evaluation_check_failed (w A(alpha) != v(alpha))")
    assert not verify_transcript(transcript).accepted


def test_constant_matrices_through_membership():
    c3 = PolyMat(F, [[Poly.constant(F, c) for c in row]
                     for row in [[1, 2, 3], [4, 5, 6], [7, 8, 10]]], ncols=3)
    run_ok("rsm", {"A": c3, "v": [Poly.of(F, 2), Poly.of(F, 4), Poly.of(F, 6)]})
    run_ok("hermite", {"A": c3, "H": hermite_form(c3)[0]})
    run_ok("unimod_completable", {"A": PolyMat(F, [c3.rows[0], c3.rows[1]],
                                               ncols=3)})
