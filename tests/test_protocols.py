import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import polycert
from polycert import protocols
from polycert.adversary import Cheat
from polycert.experiments import generate_true_instance, strict_sigma
from polycert.ff import PrimeField
from polycert.instances import (
    planted_rank,
    rand_nonsingular,
    rand_polymat,
    rand_unimodular,
)
from polycert.matfield import FieldMat, det_field
from polycert.oracles import (
    det_bareiss,
    hermite_form,
    kernel_basis_left,
    popov_form,
    rank_and_profile,
)
from polycert.polymat import PolyMat
from polycert.protocols import (
    PROTOCOL_IDS,
    ProverGaveUp,
    rsm_rounds,
    run_protocol,
    verify_transcript,
)
from polycert.transcript import (
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    ProtocolParams,
    Reason,
    Transcript,
)
from polycert.upoly import Poly

F = PrimeField(2**31 - 1)
BIG_SIGMA = 1 << 20


def params(sigma=BIG_SIGMA, mode=MODE_FIAT_SHAMIR, strict=False, seed=0):
    return ProtocolParams(
        p=F.p, sigma=sigma, mode=mode, strict=strict,
        seed=seed if mode == MODE_INTERACTIVE else None,
    )


def same_saturation_wide():
    return PolyMat.from_coeff_lists(
        F, [[[1], [1]], [[0, 0, 1], [0, 1, 1]], [[0, 1], [0, 1]]]
    )


def same_saturation_tall():
    return PolyMat.from_coeff_lists(F, [[[1], [1, 0, 1]], [[], [0, 0, 1]]])


def accepts(protocol, pub, **kw):
    verdict, transcript = run_protocol(protocol, pub, params(**kw.pop("prm", {})), **kw)
    return verdict, transcript


# -- singularity / nonsingularity ------------------------------------------------


def test_singularity_equal_rows_accepts():
    x = Poly.x(F)
    a = PolyMat(F, [[x, x], [x, x]])
    verdict, _ = accepts("singularity", {"A": a})
    assert verdict.accepted


def test_singularity_nonsingular_rejects():
    # diag(x, 1) has determinant x != 0: honest-declare must fail
    a = PolyMat.from_coeff_lists(F, [[[0, 1], []], [[], [1]]])
    assert not det_bareiss(a).is_zero()
    verdict, _ = accepts("singularity", {"A": a})
    assert not verdict.accepted
    assert verdict.reason is Reason.EVALUATION_CHECK_FAILED


def test_nonsingularity_identity_and_deg_example():
    verdict, _ = accepts("nonsingularity", {"A": PolyMat.identity(F, 3)})
    assert verdict.accepted
    # [[x, 0], [1, x]] with det x^2: the committed point must avoid 0
    a = PolyMat.from_coeff_lists(F, [[[0, 1], []], [[1], [0, 1]]])
    verdict, transcript = accepts("nonsingularity", {"A": a})
    assert verdict.accepted
    alpha = transcript.messages[0].payload.value
    assert alpha != 0


def test_nonsingularity_singular_rejects():
    x = Poly.x(F)
    a = PolyMat(F, [[x, x], [x, x]])
    verdict, _ = accepts("nonsingularity", {"A": a})
    assert not verdict.accepted


# -- rank family --------------------------------------------------------------------


def test_rank_lb_vacuous_and_rank2_demo():
    verdict, t = accepts("rank_lb", {"A": same_saturation_wide(), "rho": 0})
    assert verdict.accepted and len(t.messages) == 0
    verdict, _ = accepts("rank_lb", {"A": same_saturation_wide(), "rho": 2})
    assert verdict.accepted


def _saved_and_loaded(transcript, edit=lambda messages: None):
    """transcript through its saved JSON, the messages edited by edit, and
    loaded back under the digest of the edited document."""
    doc = json.loads(json.dumps(transcript.to_json_dict()))
    edit(doc["messages"])
    del doc["digest"]
    doc["digest"] = Transcript.from_json_dict(doc).digest()
    return Transcript.from_json_dict(doc)


@pytest.mark.parametrize("m, n, rho, sent", [
    (3, 5, 3, ["col_set"]), (5, 3, 3, ["row_set"]), (3, 3, 3, []),
    (4, 5, 2, ["row_set", "col_set"]),
])
def test_rank_lb_sends_no_index_set_that_is_its_whole_range(m, n, rho, sent):
    """A set of rho out of rho rows (or columns) can only be all of them:
    it is not sent, live or in a replay of the saved certificate."""
    from polycert.instances import planted_rank

    a = planted_rank(random.Random(m * n), F, m, n, rho, 2)
    for pid in ("rank_lb", "rank"):
        verdict, t = accepts(pid, {"A": a, "rho": rho})
        assert verdict.accepted
        labels = [msg.label for msg in t.messages]
        assert [x for x in labels if x.endswith("_set")] == sent
        assert labels.count("eval_point") == 1
        assert verify_transcript(_saved_and_loaded(t)).accepted


def test_rank_lb_sets_are_increasing_on_every_path(monkeypatch):
    """Both sets come sorted, so a set the Verifier reads as range(m) is the
    one the Prover's probe was taken on: by evaluation, by exact profiles
    when no probe point works, and on a false claim."""
    from polycert import provers
    from polycert.instances import planted_rank

    a = planted_rank(random.Random(5), F, 5, 4, 3, 2)
    wide = rand_polymat(random.Random(6), F, 3, 5, 2)
    prover = provers.HonestProver()
    for cap in (provers.EVAL_PROBE_CAP, 0):
        monkeypatch.setattr(provers, "EVAL_PROBE_CAP", cap)
        for rho in (2, 3, 4):  # rank 3: rho = 4 is a false claim
            rows, cols, _ = prover.rank_lb_sets(a, rho)
            assert rows == sorted(rows) and cols == sorted(cols), (cap, rho)
        verdict, t = accepts("rank_lb", {"A": wide, "rho": 3})
        assert verdict.accepted and "row_set" not in [msg.label for msg in t.messages]


@pytest.mark.parametrize("pid, pub, old, at", [
    ("rank_lb", {"A": rand_polymat(random.Random(7), F, 3, 5, 2), "rho": 3},
     {"label": "row_set", "payload": {"kind": "index_set", "values": [0, 1, 2]}}, 0),
    ("field_det", {"B": FieldMat(F, [[2, 1], [1, 1]]), "beta": 1},
     {"label": "pluq_rank", "payload": {"kind": "rank_claim", "value": 2}}, 0),
    ("coprime", {"f": [Poly.x(F), Poly.x(F) + Poly.one(F)]},
     {"label": "mixers", "payload": {"kind": "field_vector", "values": []}}, 2),
], ids=["row_set", "pluq_rank", "mixers"])
def test_a_certificate_with_a_forced_message_rejects_as_malformed(pid, pub, old, at):
    """Certificates saved before these messages were dropped carry them
    where the schedule now has the next message: the replay rejects as
    malformed, and raises nothing."""
    verdict, t = accepts(pid, pub)
    assert verdict.accepted and verify_transcript(_saved_and_loaded(t)).accepted
    stale = _saved_and_loaded(t, lambda msgs: msgs.insert(at, {"sender": "P", **old}))
    verdict = verify_transcript(stale)
    assert not verdict.accepted and verdict.reason is Reason.MALFORMED_MESSAGE
    assert f"found P:{old['label']}" in verdict.detail


@pytest.mark.parametrize("m, n, rho", [(3, 3, 3), (3, 5, 3), (5, 3, 3), (2, 4, 7)])
def test_rank_ub_is_vacuous_when_rho_reaches_the_dimensions(m, n, rho, monkeypatch):
    """Every matrix has rank at most min(m, n): no challenge, no message."""
    a = rand_polymat(random.Random(1), F, m, n, 2)
    verdict, transcript = accepts("rank_ub", {"A": a, "rho": rho})
    assert verdict.accepted and verify_transcript(transcript).accepted
    assert not transcript.messages
    if rho == min(m, n):
        # rank runs rank_ub, which leaves no trace in the transcript
        spec = protocols.PROTOCOLS["rank_ub"]
        sent = []

        def spy(sess, mat, claim):
            before = len(sess.transcript.messages)
            spec.runner(sess, mat, claim)
            sent.append(len(sess.transcript.messages) - before)

        monkeypatch.setitem(protocols.PROTOCOLS, "rank_ub", spec._replace(runner=spy))
        verdict, transcript = accepts("rank", {"A": a, "rho": rho})
        assert verdict.accepted and verify_transcript(transcript).accepted
        assert sent == [0, 0]  # the live run, then the replay
        assert "eval_point" in [msg.label for msg in transcript.messages]


def test_rank_exact_and_wrong():
    rng = random.Random(2)
    from polycert.instances import planted_rank

    assert accepts("rank", {"A": PolyMat.identity(F, 3), "rho": 3})[0].accepted
    a = planted_rank(rng, F, 4, 4, 2, 2)
    assert accepts("rank", {"A": a, "rho": 2})[0].accepted
    # claiming rank 3 fails the lower bound; claiming 1 fails the upper bound
    v3, _ = accepts("rank", {"A": a, "rho": 3})
    assert not v3.accepted
    v1, _ = accepts("rank", {"A": a, "rho": 1})
    assert not v1.accepted
    assert v1.reason is Reason.SUBPROTOCOL_REJECTED


# -- determinant ---------------------------------------------------------------------


def test_determinant_examples():
    assert accepts(
        "determinant", {"A": PolyMat.identity(F, 2), "delta": Poly.one(F)}
    )[0].accepted
    a = PolyMat.from_coeff_lists(F, [[[0, 1], []], [[1], [0, 1]]])
    x2 = Poly.of(F, 0, 0, 1)
    assert det_bareiss(a) == x2
    assert accepts("determinant", {"A": a, "delta": x2})[0].accepted
    # delta = det + 1 is caught deterministically by the value comparison
    verdict, _ = accepts("determinant", {"A": a, "delta": x2 + Poly.one(F)})
    assert not verdict.accepted


def test_determinant_degree_check():
    a = PolyMat.identity(F, 2)
    too_big = Poly(F, [0] * 5 + [1])  # degree 5 > n d = 2
    verdict, _ = accepts("determinant", {"A": a, "delta": too_big})
    assert not verdict.accepted
    assert verdict.reason is Reason.DEGREE_CHECK_FAILED


def test_field_det_examples():
    i3 = FieldMat.identity(F, 3)
    assert accepts("field_det", {"B": i3, "beta": 1})[0].accepted
    singular = FieldMat(F, [[1, 2], [2, 4]])
    assert det_field(singular) == 0
    assert accepts("field_det", {"B": singular, "beta": 0})[0].accepted
    verdict, _ = accepts("field_det", {"B": i3, "beta": 5})
    assert not verdict.accepted


def _singular(nu, rng):
    """A nu x nu matrix of rank nu - 1: a random one with its last row a
    combination of the others."""
    rows = [[rng.randrange(F.p) for _ in range(nu)] for _ in range(nu - 1)]
    lam = [rng.randrange(F.p) for _ in range(nu - 1)]
    last = [sum(c * row[j] for c, row in zip(lam, rows)) % F.p for j in range(nu)]
    return FieldMat(F, rows + [last], ncols=nu)


@pytest.mark.parametrize("nu", [0, 1, 5])
@pytest.mark.parametrize("singular", [False, True], ids=["full-rank", "beta-0"])
def test_field_det_sends_no_forced_entry(nu, singular):
    """L below its diagonal and U from its diagonal on, and a rank claim
    only for beta = 0: n^2 + 3n elements at full rank, against the
    2n^2 + 3n + 1 of all of L and U and the rank."""
    rng = random.Random(nu)
    if singular:
        b = _singular(nu, rng) if nu else FieldMat(F, [], ncols=0)
        beta, r = 0, nu - 1
    else:
        b = FieldMat(F, [[rng.randrange(F.p) for _ in range(nu)] for _ in range(nu)],
                     ncols=nu)
        beta, r = det_field(b), nu
    assert (beta == 0) == singular
    verdict, t = accepts("field_det", {"B": b, "beta": beta})
    if nu == 0:  # det of the empty matrix is 1, and nothing is sent
        assert verdict.accepted is not singular and not t.messages
        return
    assert verdict.accepted and verify_transcript(t).accepted
    want = {"P:perm_rows": nu, "P:perm_cols": nu,
            "P:lower_factor": sum(min(i, r) for i in range(nu)),
            "P:upper_factor": sum(nu - i for i in range(r)), "V:probe": nu}
    if singular:
        want = {"P:pluq_rank": 1, **want}
    assert t.comm_breakdown() == want
    if not singular:
        assert t.comm_field_elements() == nu * nu + 3 * nu


@pytest.mark.parametrize("nu, rank", [(3, 2), (3, 0), (1, 0)])
def test_honest_field_det_on_a_singular_b_fails_the_value_check(nu, rank):
    """beta != 0 fixes the full-rank shape, so the honest Prover pads U
    with zero rows: the claimed determinant is 0, not a wrong length."""
    b = _singular(nu, random.Random(9)) if rank else FieldMat(F, [[0] * nu] * nu)
    verdict, t = accepts("field_det", {"B": b, "beta": 5})
    assert (verdict.reason, verdict.detail) == (
        Reason.EVALUATION_CHECK_FAILED, "determinant value mismatch")
    assert [m.label for m in t.messages] == [
        "perm_rows", "perm_cols", "lower_factor", "upper_factor"]
    assert len(t.messages[3].payload.values) == nu * (nu + 1) // 2
    assert verify_transcript(t) == verdict


# -- evaluation-only protocols ----------------------------------------------------------


def test_system_solve_examples():
    i2 = PolyMat.identity(F, 2)
    b = [Poly.of(F, 1, 2), Poly.of(F, 3)]
    assert accepts(
        "system_solve", {"A": i2, "b": b, "v": b, "delta": Poly.one(F)}
    )[0].accepted
    # delta = 0, v = 0: the zero identity holds for any A and b
    rng = random.Random(3)
    a = rand_polymat(rng, F, 2, 3, 2)
    z = [Poly.zero(F)] * 3
    assert accepts(
        "system_solve",
        {"A": a, "b": [Poly.of(F, 5), Poly.of(F, 7)], "v": z, "delta": Poly.zero(F)},
    )[0].accepted


def test_matmul_and_inverse():
    rng = random.Random(4)
    a = rand_polymat(rng, F, 3, 2, 2)
    b = rand_polymat(rng, F, 2, 4, 2)
    c = a.mul(b)
    assert accepts("matmul", {"A": a, "B": b, "C": c})[0].accepted
    rows = [list(r) for r in c.rows]
    rows[1][2] = rows[1][2] + Poly.one(F)
    bad = PolyMat(F, rows, ncols=4)
    assert not accepts("matmul", {"A": a, "B": b, "C": bad})[0].accepted
    i2 = PolyMat.identity(F, 2)
    assert accepts("inverse", {"A": i2, "B": i2})[0].accepted
    from polycert.instances import rand_unimodular_with_inverse

    u, uinv = rand_unimodular_with_inverse(rng, F, 3, dmax=1)
    assert accepts("inverse", {"A": u, "B": uinv})[0].accepted


def test_matmul_degree_check_rejects():
    a = PolyMat.identity(F, 2)
    big = PolyMat.from_coeff_lists(F, [[[0, 0, 1], []], [[], [1]]])
    verdict, _ = accepts("matmul", {"A": a, "B": a, "C": big})
    assert verdict.reason is Reason.DEGREE_CHECK_FAILED


# -- membership family --------------------------------------------------------------------


def test_frrsm_zero_vector_all_zero_messages():
    rng = random.Random(5)
    a = rand_polymat(rng, F, 2, 3, 2)
    z = [Poly.zero(F)] * 3
    verdict, transcript = accepts("frrsm", {"A": a, "v": z})
    assert verdict.accepted
    g = transcript.messages[1].payload
    w = transcript.messages[3].payload
    assert g.coeffs == () and all(x == 0 for x in w.values)


def test_frrsm_row_of_a_accepts():
    rng = random.Random(6)
    while True:
        a = rand_polymat(rng, F, 3, 4, 2)
        if rank_and_profile(a)[0] == 3:
            break
    assert accepts("frrsm", {"A": a, "v": list(a.rows[1])})[0].accepted


def test_frrsm_rational_only_honest_rejects():
    a = PolyMat.from_coeff_lists(F, [[[0, 1], [0, 0, 1]]])  # [x, x^2]
    v = [Poly.one(F), Poly.x(F)]
    verdict, _ = accepts("frrsm", {"A": a, "v": v})
    assert not verdict.accepted


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_coprime_sends_mixers_only_for_three_or_more(t):
    fs = [Poly.of(F, 1, i) for i in range(t)]  # 1, 1 + x, 1 + 2x, ...
    verdict, tr = accepts("coprime", {"f": fs})
    assert verdict.accepted and verify_transcript(tr).accepted
    mixers = [m.payload.values for m in tr.messages if m.label == "mixers"]
    assert [len(v) for v in mixers] == ([t - 2] if t > 2 else [])


def test_coprime_examples():
    one = Poly.one(F)
    x = Poly.x(F)
    assert accepts("coprime", {"f": [one, x]})[0].accepted
    assert accepts("coprime", {"f": [x, x + one]})[0].accepted
    # constants only: both Bezout polynomials are constant
    assert accepts("coprime", {"f": [Poly.of(F, 2), Poly.of(F, 3)]})[0].accepted
    # false family under a best-effort cheater: rejected at big sigma
    fs = [x, x * x, x * x * x]
    cheat = Cheat(BIG_SIGMA, seed=7)
    verdict, _ = run_protocol("coprime", {"f": fs}, params(), prover=cheat)
    assert not verdict.accepted


def test_rsm_distinguishes_equal_saturation_pair():
    zerox = [Poly.zero(F), Poly.x(F)]
    assert accepts("rsm", {"A": same_saturation_wide(), "v": zerox})[0].accepted
    cheat = Cheat(BIG_SIGMA, seed=8)
    verdict, _ = run_protocol("rsm", {"A": same_saturation_tall(), "v": zerox}, params(),
                              prover=cheat)
    assert not verdict.accepted


def test_rsm_zero_vector_and_zero_matrix():
    rng = random.Random(9)
    a = rand_polymat(rng, F, 3, 3, 2)
    z = [Poly.zero(F)] * 3
    assert accepts("rsm", {"A": a, "v": z})[0].accepted
    zmat = PolyMat.zero(F, 2, 3)
    assert accepts("rsm", {"A": zmat, "v": z})[0].accepted
    verdict, _ = accepts("rsm", {"A": zmat, "v": [Poly.one(F)] + z[:2]})
    assert not verdict.accepted


def test_rsm_rejects_the_honest_prover_on_a_false_statement():
    """A of full row rank is proved on itself: the honest frrsm answer to a
    non-member is well-formed, and its evaluation check rejects it."""
    zerox = [Poly.zero(F), Poly.x(F)]
    verdict, _ = run_protocol("rsm", {"A": same_saturation_tall(), "v": zerox}, params())
    assert verdict.reason is Reason.SUBPROTOCOL_REJECTED
    assert verdict.detail.startswith("frrsm: evaluation_check_failed")


def test_rsm_rounds_formula():
    # base sigma/rho, target 2 * rho * deg; clamped at 2
    assert rsm_rounds(64, 2, 3) == 2  # 32^1 >= 12
    assert rsm_rounds(4, 2, 8) == max(2, 1 + 5)  # 2^k >= 32 -> k = 5
    assert rsm_rounds(64, 1, 0) == 2
    with pytest.raises(ValueError):
        rsm_rounds(4, 4, 2)


# -- row space relations ----------------------------------------------------------------


def test_rs_subset_self_and_equality():
    rng = random.Random(10)
    a = rand_polymat(rng, F, 3, 3, 2)
    assert accepts("rs_subset", {"A": a, "B": a})[0].accepted
    u = rand_unimodular(rng, F, 3, dmax=1)
    assert accepts("rs_equality", {"A": u.mul(a), "B": a})[0].accepted


def test_rs_equality_counterexample_rejects():
    i2 = PolyMat.identity(F, 2)
    cheat = Cheat(BIG_SIGMA, seed=11)
    verdict, _ = run_protocol(
        "rs_equality", {"A": same_saturation_wide(), "B": i2}, params(), prover=cheat
    )
    assert not verdict.accepted
    assert verdict.reason is Reason.SUBPROTOCOL_REJECTED


def test_row_basis_hermite_output_accepts():
    rng = random.Random(12)
    a = rand_polymat(rng, F, 3, 4, 2)
    h, _ = hermite_form(a)
    assert accepts("row_basis", {"A": a, "B": h})[0].accepted


# -- normal forms ------------------------------------------------------------------------


def test_hermite_protocol_accept_and_shape_reject():
    rng = random.Random(13)
    a = rand_polymat(rng, F, 3, 3, 2)
    h, _ = hermite_form(a)
    assert accepts("hermite", {"A": a, "H": h})[0].accepted
    # break monicity of one pivot
    rows = [list(r) for r in h.rows]
    rows[0] = [f.scale(2) for f in rows[0]]
    bad = PolyMat(F, rows, ncols=h.n)
    verdict, _ = accepts("hermite", {"A": a, "H": bad})
    assert verdict.reason is Reason.SHAPE_CHECK_FAILED


def test_spopov_protocol_accepts():
    rng = random.Random(14)
    a = rand_polymat(rng, F, 3, 4, 2)
    shift = [rng.randrange(-2, 3) for _ in range(4)]
    pm = popov_form(a, shift)
    assert accepts("spopov", {"A": a, "shift": shift, "P": pm})[0].accepted
    if pm.m >= 2:
        swapped = PolyMat(F, [pm.rows[1], pm.rows[0]] + pm.rows[2:], ncols=pm.n)
        verdict, _ = accepts("spopov", {"A": a, "shift": shift, "P": swapped})
        assert verdict.reason is Reason.SHAPE_CHECK_FAILED


# -- saturation and kernels ---------------------------------------------------------------


def test_saturated_examples():
    assert accepts("saturated", {"A": PolyMat.identity(F, 3)})[0].accepted
    # [1, x] completes to a unimodular matrix, hence saturated
    a = PolyMat.from_coeff_lists(F, [[[1], [0, 1]]])
    assert accepts("saturated", {"A": a})[0].accepted
    cheat = Cheat(BIG_SIGMA, seed=15)
    verdict, _ = run_protocol("saturated", {"A": same_saturation_tall()}, params(), prover=cheat)
    assert not verdict.accepted


def test_sat_basis_examples():
    i2 = PolyMat.identity(F, 2)
    assert accepts("sat_basis", {"A": same_saturation_wide(), "B": i2})[0].accepted
    cheat = Cheat(BIG_SIGMA, seed=16)
    verdict, _ = run_protocol(
        "sat_basis", {"A": same_saturation_wide(), "B": same_saturation_tall()}, params(), prover=cheat
    )
    assert not verdict.accepted


def test_unimod_completable_examples():
    a = PolyMat.from_coeff_lists(F, [[[1], [0, 1]]])
    assert accepts("unimod_completable", {"A": a})[0].accepted
    # [x, x^2] has entry gcd x, not completable: honest prover gives up in
    # the saturation sub-proof, a cheat is rejected
    b = PolyMat.from_coeff_lists(F, [[[0, 1], [0, 0, 1]]])
    cheat = Cheat(BIG_SIGMA, seed=17)
    verdict, _ = run_protocol("unimod_completable", {"A": b}, params(), prover=cheat)
    assert not verdict.accepted
    square = PolyMat.identity(F, 2)
    verdict, _ = accepts("unimod_completable", {"A": square})
    assert verdict.reason is Reason.SHAPE_CHECK_FAILED


def test_kernel_basis_protocol():
    rng = random.Random(18)
    a = planted_rank(rng, F, 4, 3, rng.randrange(1, 4), 2)
    b = kernel_basis_left(a)
    assert accepts("kernel_basis", {"A": a, "B": b})[0].accepted
    # empty kernel of a nonsingular matrix
    ns = rand_nonsingular(rng, F, 3, 1)
    empty = PolyMat(F, [], ncols=3)
    assert accepts("kernel_basis", {"A": ns, "B": empty})[0].accepted
    # x * K spans a strict submodule: not saturated, rejected
    if b.m:
        xk = PolyMat(F, [[Poly.x(F) * e for e in row] for row in b.rows], ncols=b.n)
        cheat = Cheat(BIG_SIGMA, seed=19)
        verdict, _ = run_protocol(
            "kernel_basis", {"A": a, "B": xk}, params(), prover=cheat
        )
        assert not verdict.accepted


# -- composition and modes ------------------------------------------------------------------


def test_subprotocol_rejection_propagates():
    rng = random.Random(20)
    from polycert.instances import planted_rank

    a = planted_rank(rng, F, 3, 3, 1, 2)
    verdict, _ = accepts("rank", {"A": a, "rho": 2})
    assert not verdict.accepted
    assert verdict.reason is Reason.SUBPROTOCOL_REJECTED
    assert "rank_lb" in verdict.detail or "rank_ub" in verdict.detail


def test_strict_mode_rejects_small_sigma():
    a = PolyMat.identity(F, 4)
    small = ProtocolParams(p=F.p, sigma=2, mode=MODE_FIAT_SHAMIR, strict=True)
    verdict, _ = run_protocol("nonsingularity", {"A": a}, small)
    assert not verdict.accepted and verdict.reason is Reason.PARAMS_INVALID
    loose = ProtocolParams(p=F.p, sigma=2, mode=MODE_FIAT_SHAMIR, strict=False)
    verdict, transcript = run_protocol("nonsingularity", {"A": a}, loose)
    assert verdict.accepted
    assert transcript.meta["sigma_lower_bound"] == 4 * 1 + 1


# what a run sends before it reaches its bound: rsm's bound takes its rank
# claim, and rs_subset draws its combination before it runs rsm
SENT_BEFORE_BOUND = {"rsm": ["rank_claim"], "rs_subset": ["combination", "rank_claim"],
                     "rs_equality": ["combination", "rank_claim"]}


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_advertised_bound_is_the_one_strict_mode_enforces(pid):
    """strict_sigma, the recorded bound and strict mode agree: the honest run
    accepts at #S = bound, and at bound - 1 it rejects as params_invalid
    before it sends anything the bound does not wait for."""
    for seed in range(4):
        pub = generate_true_instance(pid, random.Random(seed), F, mmax=4, dmax=2)
        bound = strict_sigma(pid, pub)
        if bound == 1:
            continue  # no sample set is smaller
        verdict, transcript = run_protocol(pid, pub, params(sigma=bound, strict=True))
        assert verdict.accepted, (pid, seed)
        assert transcript.meta["sigma_lower_bound"] == bound, (pid, seed)
        verdict, transcript = run_protocol(pid, pub, params(sigma=bound - 1, strict=True))
        assert verdict.reason is Reason.PARAMS_INVALID, (pid, seed)
        assert f"sigma >= {bound}" in verdict.detail, (pid, seed)
        assert [msg.label for msg in transcript.messages] == SENT_BEFORE_BOUND.get(pid, [])


def test_interactive_mode_reproducible():
    rng = random.Random(21)
    a = rand_polymat(rng, F, 3, 3, 2)
    prm = params(mode=MODE_INTERACTIVE, seed=77)
    v1, t1 = run_protocol("rank_ub", {"A": a, "rho": 3}, prm, prover_seed=5)
    v2, t2 = run_protocol("rank_ub", {"A": a, "rho": 3}, prm, prover_seed=5)
    assert v1.accepted and t1.digest() == t2.digest()
    assert verify_transcript(t1).accepted


def test_fs_transcripts_reverify_for_every_protocol():
    rng = random.Random(22)
    from polycert.experiments import generate_true_instance

    for pid in PROTOCOL_IDS:
        pub = generate_true_instance(pid, rng, F, mmax=4, dmax=2)
        verdict, transcript = run_protocol(pid, pub, params(), prover_seed=3)
        assert verdict.accepted, pid
        again = verify_transcript(transcript)
        assert again.accepted, (pid, again)
        # round-trip through JSON keeps the digest and the verdict
        doc = transcript.to_json_dict()
        loaded = Transcript.from_json_dict(doc)
        assert verify_transcript(loaded).accepted


def test_replay_rejects_trailing_messages():
    a = PolyMat.identity(F, 2)
    verdict, transcript = accepts("nonsingularity", {"A": a})
    assert verdict.accepted
    from polycert.transcript import FieldScalar, Message

    transcript.append(Message("P", "extra", FieldScalar(1)))
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_verifier_blindness_static():
    """The verifier module must not touch the heavy oracles."""
    import ast

    src = pathlib.Path(protocols.__file__).read_text()
    tree = ast.parse(src)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("polycert.oracles", "oracles"), (
                "verifier layer imports the oracle module"
            )
            # from . import oracles
            assert all(alias.name != "oracles" for alias in node.names)
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert "oracles" not in alias.name
    # a sub-protocol id is a registry key written in the code, so a
    # certificate file cannot choose which protocol runs
    subs = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "sub"]
    assert subs
    for call in subs:
        first = call.args[0] if call.args else None
        assert isinstance(first, ast.Constant) and first.value in protocols.PROTOCOLS, (
            f"line {call.lineno}: sub-protocol id is not a registered literal")
    # evaluation views are never materialized by the verifier
    assert ".materialize(" not in src
    for name in ("hermite_form", "popov_form", "rank_and_profile",
                 "rational_solve_left", "det_bareiss"):
        assert name not in src, f"verifier layer references {name}"


def test_offline_verification_loads_no_prover_module(tmp_path):
    """A fresh interpreter that loads and verifies a saved certificate of
    every protocol imports no Prover-side module, not even through another
    module, which the static check above cannot see."""
    field = PrimeField(97)
    prm = ProtocolParams(p=field.p, sigma=field.p, mode=MODE_FIAT_SHAMIR, strict=False)
    paths = []
    for pid in PROTOCOL_IDS:
        for seed in range(5):
            pub = generate_true_instance(pid, random.Random(seed), field, mmax=4, dmax=2)
            try:
                verdict, t = run_protocol(pid, pub, prm)
            except ProverGaveUp:
                continue
            assert verdict.accepted, pid
            paths.append(str(tmp_path / f"{pid}.json"))
            t.save(paths[-1])
            break
    assert len(paths) == len(PROTOCOL_IDS)
    script = (
        "import json, sys\n"
        "from polycert import Transcript, verify_transcript\n"
        "for path in sys.argv[1:]:\n"
        "    assert verify_transcript(Transcript.load(path)).accepted, path\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(pathlib.Path(polycert.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "polycert.protocols" in loaded
    for name in ("oracles", "provers", "adversary", "instances", "experiments"):
        assert f"polycert.{name}" not in loaded, name


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from polycert import *", namespace)
    for name in polycert.__all__:
        assert namespace[name] is getattr(polycert, name), name
    assert "RatFunc" not in polycert.__all__ and not hasattr(polycert, "RatFunc")


def test_communication_is_sublinear_for_rsm():
    rng = random.Random(23)
    from polycert.instances import planted_member

    a, v, _ = planted_member(rng, F, 8, 8, 4)
    verdict, transcript = run_protocol("rsm", {"A": a, "v": v}, params())
    assert verdict.accepted
    object_size = sum(len(e.coeffs) for row in a.rows for e in row) + sum(
        len(f.coeffs) for f in v
    )
    assert transcript.comm_field_elements() < object_size


def test_fs_prover_determinism_for_las_vegas_protocols():
    """Same prover seed, same params: bit-identical Fiat-Shamir transcripts,
    even for protocols whose honest provers draw randomness (Toeplitz
    compressions, coprime mixers)."""
    rng = random.Random(24)
    from polycert.instances import planted_member, rand_coprime_family

    a, v, _ = planted_member(rng, F, 4, 5, 2)
    prm = params()
    _, t1 = run_protocol("rsm", {"A": a, "v": v}, prm, prover_seed=9)
    _, t2 = run_protocol("rsm", {"A": a, "v": v}, prm, prover_seed=9)
    assert t1.digest() == t2.digest()
    _, t3 = run_protocol("rsm", {"A": a, "v": v}, prm, prover_seed=10)
    assert t3.verdict.accepted  # different draws still verify
    fs = rand_coprime_family(rng, F, 4, 3)
    _, c1 = run_protocol("coprime", {"f": fs}, prm, prover_seed=9)
    _, c2 = run_protocol("coprime", {"f": fs}, prm, prover_seed=9)
    assert c1.digest() == c2.digest()


@pytest.mark.parametrize("mode", [MODE_FIAT_SHAMIR, MODE_INTERACTIVE])
def test_each_message_encoded_at_most_once(mode, monkeypatch):
    """Encoding feeds only the hash chain and the digest: interactive runs
    encode nothing, and a saved certificate is encoded once per message
    whether it is proved and saved or loaded and re-verified."""
    from polycert.instances import planted_member
    from polycert.transcript import Message

    calls = []
    original = Message.encode

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Message, "encode", counted)
    rng = random.Random(31)
    a, v, _ = planted_member(rng, F, 3, 4, 2)
    params = ProtocolParams(p=F.p, sigma=BIG_SIGMA, mode=mode, strict=False, seed=5)
    verdict, transcript = run_protocol("rsm", {"A": a, "v": v}, params, prover_seed=2)
    assert verdict.accepted
    n = len(transcript.messages)
    assert len(calls) == (n if mode == MODE_FIAT_SHAMIR else 0)
    doc = transcript.to_json_dict()
    assert len(calls) == n
    calls.clear()
    loaded = Transcript.from_json_dict(doc)
    assert len(calls) == n
    assert verify_transcript(loaded).accepted
    assert len(calls) == n
    assert loaded.digest() == doc["digest"]
    assert len(calls) == n
