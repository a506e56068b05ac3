"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 1, 2 and 7 are statistical/scaling suites and
carry the `slow` marker; everything runs in the default invocation.
"""

import random
import time
import zlib

import pytest

from polycert.adversary import CheatRowSpaceMembership
from polycert.experiments import (
    SOUNDNESS_PROTOCOLS,
    run_completeness_experiment,
    run_soundness_experiment,
)
from polycert.ff import PrimeField
from polycert.instances import (
    planted_member,
    planted_nonmember_rational,
    planted_rank,
    rand_poly,
    rand_polymat,
    rand_unimodular,
)
from polycert.matfield import FieldMat, solve_right
from polycert.oracles import (
    LOW_RANK,
    NO_SOLUTION,
    hermite_form,
    popov_form,
    rank_and_profile,
    rational_solve_left,
    row_membership_oracle,
    saturation_basis,
)
from polycert.polymat import PolyMat, hermite_shift
from polycert.protocols import (
    PROTOCOL_IDS,
    run_protocol,
    verify_transcript,
)
from polycert.transcript import (
    MODE_FIAT_SHAMIR,
    ProtocolParams,
    Transcript,
)
from polycert.upoly import NEG_INF, Poly

P = 2**31 - 1
F = PrimeField(P)
BIG_SIGMA = 1 << 20


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, detail


# -- criterion 1: perfect completeness -------------------------------------------------


@pytest.mark.slow
def test_criterion_1_perfect_completeness():
    """100 honest runs per protocol, sizes up to 8 x 8 degree 4, strict #S:
    zero rejections."""
    t0 = time.time()
    total_rejections = 0
    total_gaveup = 0
    for pid in PROTOCOL_IDS:
        rep = run_completeness_experiment(
            pid, trials=100, seed=0xACCE97 + zlib.crc32(pid.encode()), p=P,
            mmax=8, dmax=4,
        )
        total_rejections += rep.rejections
        total_gaveup += rep.prover_gave_up
        assert rep.passed, (pid, rep.rejections, rep.prover_gave_up)
    elapsed = time.time() - t0
    _report(
        1,
        total_rejections == 0 and total_gaveup == 0,
        f"perfect completeness, 22 protocols x 100 honest runs, "
        f"0 rejections ({elapsed:.0f}s; target < 120s)",
    )


# -- criterion 2: soundness bounds ------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("sigma", [32, 64])
def test_criterion_2_soundness_bounds(sigma):
    """Cheater acceptance rate <= theoretical bound + 3 binomial SE over
    >= 2000 trials, for the ten protocols with explicit bounds."""
    lines = []
    all_ok = True
    for pid in SOUNDNESS_PROTOCOLS:
        rep = run_soundness_experiment(pid, trials=2000, sigma=sigma,
                                       seed=0x50FD + sigma, p=P)
        all_ok = all_ok and rep.passed
        lines.append(
            f"{pid} rate={rep.rate:.4f} bound={rep.bound:.4f} (+3se {rep.tolerance:.4f})"
        )
        assert rep.passed, lines[-1]
    _report(2, all_ok, f"soundness at sigma={sigma}: " + "; ".join(lines))


# -- criterion 3: the worked example ------------------------------------------------------


def _demo_wide():
    return PolyMat.from_coeff_lists(
        F, [[[1], [1]], [[0, 0, 1], [0, 1, 1]], [[0, 1], [0, 1]]]
    )


def _demo_tall():
    return PolyMat.from_coeff_lists(F, [[[1], [1, 0, 1]], [[], [0, 0, 1]]])


def test_criterion_3_equal_saturation_worked_example():
    m1, m2 = _demo_wide(), _demo_tall()
    i2 = PolyMat.identity(F, 2)
    zerox = [Poly.zero(F), Poly.x(F)]
    params = ProtocolParams(p=P, sigma=BIG_SIGMA, mode=MODE_FIAT_SHAMIR, strict=False)

    # both matrices have saturation F[x]^(1x2)
    assert saturation_basis(m1) == i2
    assert saturation_basis(m2) == i2

    # [0, x] is in the row space of M1 and the protocol accepts
    verdict, _ = run_protocol("rsm", {"A": m1, "v": zerox}, params)
    assert verdict.accepted

    # [0, x] is not in the row space of M2: a best-effort cheater is rejected
    # in every one of 20 fresh runs at large sigma
    rejects = 0
    for trial in range(20):
        cheat = CheatRowSpaceMembership(m2, zerox, sigma=BIG_SIGMA, seed=trial)
        iparams = ProtocolParams(p=P, sigma=BIG_SIGMA, mode="interactive",
                                 strict=False, seed=trial)
        v, _ = run_protocol("rsm", {"A": m2, "v": zerox}, iparams, prover=cheat)
        rejects += 0 if v.accepted else 1
    assert rejects == 20

    # M2 is full rank but not saturated: rejected in every fresh run
    rejects = 0
    for trial in range(20):
        cheat = CheatRowSpaceMembership(m2, None, sigma=BIG_SIGMA, seed=trial)
        iparams = ProtocolParams(p=P, sigma=BIG_SIGMA, mode="interactive",
                                 strict=False, seed=100 + trial)
        v, _ = run_protocol("saturated", {"A": m2}, iparams, prover=cheat)
        rejects += 0 if v.accepted else 1
    assert rejects == 20

    # I_2 is a saturation basis of M1 and the protocol accepts
    verdict, _ = run_protocol("sat_basis", {"A": m1, "B": i2}, params)
    assert verdict.accepted

    _report(3, True, "equal-saturation demo pair: membership, saturation and basis checks all land as required")


# -- criterion 4: normal-form uniqueness ------------------------------------------------------


def test_criterion_4_normal_form_uniqueness():
    rng = random.Random(0x4E0)
    hermite_checked = popov_checked = correspondence_checked = 0
    literal_t_ok = 0
    for _ in range(100):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = rand_polymat(rng, F, m, n, rng.randrange(0, 3))
        u = rand_unimodular(rng, F, m, dmax=1)
        h1, _ = hermite_form(a)
        h2, _ = hermite_form(u.mul(a))
        assert h1 == h2
        hermite_checked += 1
        for shift in (
            [0] * n,
            [rng.randrange(-3, 4) for _ in range(n)],
            [rng.randrange(0, 5) for _ in range(n)],
        ):
            assert popov_form(a, shift) == popov_form(u.mul(a), shift)
            popov_checked += 1
        if h1.m:
            # the shift scale must dominate every degree of the resulting
            # form, which can exceed deg(A)
            t = int(max(
                1,
                0 if a.deg == NEG_INF else a.deg,
                0 if h1.deg == NEG_INF else h1.deg,
            )) + 1
            assert popov_form(a, hermite_shift(n, t)) == h1
            correspondence_checked += 1
            if h1.deg <= (a.deg if a.deg != NEG_INF else 0):
                # here the literal t = deg(A)+1 reading is already valid
                t_lit = int(max(1, 0 if a.deg == NEG_INF else a.deg)) + 1
                assert popov_form(a, hermite_shift(n, t_lit)) == h1
                literal_t_ok += 1
    _report(
        4,
        hermite_checked == 100 and popov_checked == 300,
        f"normal-form uniqueness: {hermite_checked} Hermite, {popov_checked} "
        f"Popov invariance checks; Hermite/Popov correspondence on "
        f"{correspondence_checked} instances ({literal_t_ok} also at the "
        f"literal t = deg(A)+1)",
    )


# -- criterion 5: membership oracle vs exhaustive enumeration -----------------------------------


def _membership_by_linear_system(mat, v, deg_bound):
    """Exact decision over all F[x]-combinations with deg(q_i) <= deg_bound:
    coefficient-wise linear system over F, independent of the Hermite path."""
    field = mat.field
    m, n = mat.m, mat.n
    ncoef = deg_bound + 1
    mat_deg = 0 if mat.deg == NEG_INF else int(mat.deg)
    max_deg = deg_bound + mat_deg
    rows = []
    rhs = []
    for j in range(n):
        for k in range(max_deg + 1):
            row = []
            for i in range(m):
                entry = mat.rows[i][j]
                for c in range(ncoef):
                    idx = k - c
                    row.append(
                        entry.coeffs[idx] if 0 <= idx < len(entry.coeffs) else 0
                    )
            rows.append(row)
            rhs.append(v[j].coeffs[k] if k < len(v[j].coeffs) else 0)
    sys_mat = FieldMat(field, rows, ncols=m * ncoef, normalize=False)
    return solve_right(sys_mat, rhs) is not None


def test_criterion_5_small_field_oracle_equivalence():
    cases = 0
    agreements = 0
    members_seen = 0
    for p_small in (2, 3):
        fld = PrimeField(p_small)
        rng = random.Random(0x5CA1E + p_small)
        while cases < 260 * (1 if p_small == 2 else 2):
            m = rng.randrange(1, 4)
            n = rng.randrange(1, 4)
            d = rng.randrange(0, 3)
            a = rand_polymat(rng, fld, m, n, d)
            if rng.random() < 0.5:
                q = [rand_poly(rng, fld, 1) for _ in range(m)]
                v = [
                    sum((q[i] * a.rows[i][j] for i in range(m)), Poly.zero(fld))
                    for j in range(n)
                ]
            else:
                v = [rand_poly(rng, fld, 2) for _ in range(n)]
            v_deg = max((f.deg for f in v), default=NEG_INF)
            bound = (0 if v_deg == NEG_INF else int(v_deg)) + m * (
                0 if a.deg == NEG_INF else int(a.deg)
            )
            got = row_membership_oracle(a, v)
            want = _membership_by_linear_system(a, v, bound)
            assert got == want, (p_small, a.rows, [f.coeffs for f in v])
            agreements += 1
            members_seen += 1 if got else 0
            cases += 1
    _report(
        5,
        agreements == cases and cases >= 500,
        f"membership oracle vs degree-bounded exhaustive decision: "
        f"{agreements}/{cases} agree ({members_seen} members)",
    )


# -- criterion 6: the rational solving contract ---------------------------------------------------


def test_criterion_6_rational_solve_contract():
    rng = random.Random(0x0A16)
    low_rank_cases = solution_cases = no_solution_cases = 0
    for trial in range(500):
        kind = trial % 3
        if kind == 0:
            m = rng.randrange(2, 5)
            n = rng.randrange(m, m + 3)
            a = planted_rank(rng, F, m, n, rng.randrange(1, m), 2)
            v = [rand_poly(rng, F, 2) for _ in range(n)]
            out = rational_solve_left(a, v)
            assert out is LOW_RANK
            assert rank_and_profile(a)[0] < m
            low_rank_cases += 1
        elif kind == 1:
            m = rng.randrange(1, 4)
            n = rng.randrange(m, m + 3)
            while True:
                a = rand_polymat(rng, F, m, n, 2)
                if rank_and_profile(a)[0] == m:
                    break
            if rng.random() < 0.5:
                q = [rand_poly(rng, F, 2) for _ in range(m)]
                v = [
                    sum((q[i] * a.rows[i][j] for i in range(m)), Poly.zero(F))
                    for j in range(n)
                ]
            else:
                am, v = planted_nonmember_rational(rng, F, m, n, 2)
                a = am
            out = rational_solve_left(a, v)
            assert out is not LOW_RANK and out is not NO_SOLUTION
            den = out.common_den
            cleared = out.numer_row()
            for j in range(n):
                acc = Poly.zero(F)
                for i in range(m):
                    acc = acc + cleared[i] * a.rows[i][j]
                assert acc == den * v[j]
            solution_cases += 1
        else:
            m = rng.randrange(1, 4)
            n = rng.randrange(m + 1, m + 4)
            while True:
                a = rand_polymat(rng, F, m, n, 2)
                if rank_and_profile(a)[0] == m:
                    break
            while True:
                v = [rand_poly(rng, F, 2) for _ in range(n)]
                stacked = a.stack(PolyMat(F, [v], ncols=n))
                if rank_and_profile(stacked)[0] == m + 1:
                    break
            out = rational_solve_left(a, v)
            assert out is NO_SOLUTION
            no_solution_cases += 1
    _report(
        6,
        low_rank_cases and solution_cases and no_solution_cases,
        f"rational solving contract on 500 instances "
        f"({low_rank_cases} LOW_RANK, {solution_cases} solutions verified "
        f"u A = v exactly, {no_solution_cases} NO_SOLUTION confirmed by "
        f"augmented rank)",
    )


# -- criterion 7: communication scaling ------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_communication_scaling():
    rng = random.Random(7)
    rows = []
    for m in (4, 8, 16):
        for n in (4, 8, 16):
            for d in (2, 4, 8):
                a, v, _ = planted_member(rng, F, m, n, d)
                params = ProtocolParams(p=P, sigma=BIG_SIGMA,
                                        mode=MODE_FIAT_SHAMIR, strict=False)
                verdict, tr = run_protocol("rsm", {"A": a, "v": v}, params,
                                           prover_seed=1)
                assert verdict.accepted
                labels = [msg.label for msg in tr.messages]
                # the schedule at rank claim r: t' sub-proofs
                # checked (one on A itself for a claim of full row rank, one
                # per compression otherwise), each sending four r-vectors
                # (rhs, solution, combination, solution_eval); s compressions
                # sent, each a Toeplitz C of m + r - 1 entries and a
                # denominator, a Bezout cofactor and an inner product of
                # degree about r d; and the column set of a full-row-rank
                # claim, r entries when r < n
                checked = labels.count("inner_product")
                sent = sum(label.startswith("toeplitz_") for label in labels)
                comm = tr.comm_field_elements()
                obj = sum(len(e.coeffs) for r in a.rows for e in r) + sum(
                    len(f.coeffs) for f in v
                )
                r = next(msg.payload.value for msg in tr.messages
                         if msg.label == "rank_claim")
                feat = 4 * r * checked + (m + r + 3 * r * d) * sent + r * (r < n)
                rows.append((m, n, d, comm, obj, feat))
    ratios = [comm / feat for (_, _, _, comm, _, feat) in rows]
    spread = max(ratios) / min(ratios)
    # least squares through the origin against 4 r t' + (m + r + 3 r d) s + r [r < n]
    num = sum(c * f for (_, _, _, c, _, f) in rows)
    den = sum(f * f for (_, _, _, _, _, f) in rows)
    slope = num / den
    residual_ok = all(
        comm <= 4 * slope * feat and comm * 4 >= slope * feat
        for (_, _, _, comm, _, feat) in rows
    )
    # sub-linearity: normalized against the certified object size mnd, the
    # largest instance communicates a far smaller fraction than the smallest
    small = next(r for r in rows if (r[0], r[1], r[2]) == (4, 4, 2))
    large = next(r for r in rows if (r[0], r[1], r[2]) == (16, 16, 8))
    sub_linear = (
        large[3] < large[4] and large[3] / large[4] < small[3] / small[4]
    )
    _report(
        7,
        spread <= 4 and residual_ok and sub_linear,
        f"communication fits c*(4rt'+(m+r+3rd)s+r[r<n]): spread {spread:.2f} <= 4, fit slope "
        f"{slope:.2f}; largest instance sends {large[3]} elements for a "
        f"{large[4]}-coefficient object",
    )


# -- criterion 8: Fiat-Shamir integrity ---------------------------------------------------------------


def _mutate_payload_field(rng, payload):
    """Return a copy of the payload with one field/index value changed."""
    from polycert import transcript as tr

    if isinstance(payload, tr.FieldScalar):
        return tr.FieldScalar((payload.value + 1 + rng.randrange(100)) % P)
    if isinstance(payload, tr.FieldVector) and payload.values:
        vals = list(payload.values)
        i = rng.randrange(len(vals))
        vals[i] = (vals[i] + 1 + rng.randrange(100)) % P
        return tr.FieldVector(tuple(vals))
    if isinstance(payload, tr.PolyPayload):
        coeffs = list(payload.coeffs)
        if not coeffs:
            return tr.PolyPayload((1 + rng.randrange(100),))
        i = rng.randrange(len(coeffs))
        coeffs[i] = (coeffs[i] + 1 + rng.randrange(100)) % P
        return tr.PolyPayload(tuple(coeffs))
    if isinstance(payload, tr.ToeplitzSpecPayload) and payload.values:
        vals = list(payload.values)
        i = rng.randrange(len(vals))
        vals[i] = (vals[i] + 1 + rng.randrange(100)) % P
        return tr.ToeplitzSpecPayload(payload.rho, payload.m, tuple(vals))
    if isinstance(payload, tr.IndexSetPayload) and payload.values:
        vals = list(payload.values)
        i = rng.randrange(len(vals))
        vals[i] = vals[i] + 1 + rng.randrange(3)
        return tr.IndexSetPayload(tuple(vals))
    if isinstance(payload, tr.RankClaimPayload):
        return tr.RankClaimPayload(payload.value + 1)
    return None


def _try_mutations(rng, transcript, count=100):
    """(rejected, survived): mutations whose transcripts were rejected/accepted.

    A mutation can legitimately survive only in degenerate instances where
    the altered value is still a valid witness of the same true statement
    (e.g. flipping a kernel-vector coordinate aligned with a zero row of the
    evaluated matrix); such instances are screened out by the caller.
    """
    from polycert.transcript import Message

    doc = transcript.to_json_dict()
    rejected = survived = 0
    attempts = 0
    while rejected + survived < count:
        attempts += 1
        if attempts >= 50 * count:
            raise AssertionError("could not build enough mutations")
        base = Transcript.from_json_dict(doc)
        idx = rng.randrange(len(base.messages))
        msg = base.messages[idx]
        new_payload = _mutate_payload_field(rng, msg.payload)
        if new_payload is None or new_payload == msg.payload:
            continue
        base.messages[idx] = Message(msg.sender, msg.label, new_payload)
        if verify_transcript(base).accepted:
            survived += 1
        else:
            rejected += 1
    return rejected, survived


@pytest.mark.slow
def test_criterion_8_fiat_shamir_integrity():
    from polycert.experiments import generate_true_instance

    rng = random.Random(0xF1A7)
    total_mutations = 0
    params = ProtocolParams(p=P, sigma=BIG_SIGMA, mode=MODE_FIAT_SHAMIR,
                            strict=False)
    for pid in PROTOCOL_IDS:
        # Degenerate instances (zero rows/columns in the evaluated matrix)
        # admit witness-preserving mutations; resample a few candidates, but
        # cap the resampling so a systematic integrity bug (which would break
        # every candidate alike) still fails the criterion.
        done = False
        for _ in range(5):
            pub = generate_true_instance(pid, rng, F, mmax=4, dmax=2)
            verdict, transcript = run_protocol(pid, pub, params, prover_seed=2)
            assert verdict.accepted, pid
            if not transcript.messages:
                continue
            assert verify_transcript(transcript).accepted
            rejected, survived = _try_mutations(rng, transcript, count=100)
            if survived == 0:
                total_mutations += rejected
                done = True
                break
        assert done, f"{pid}: no non-degenerate instance rejected all mutations"
    _report(
        8,
        total_mutations == 100 * len(PROTOCOL_IDS),
        f"Fiat-Shamir integrity: every honest transcript re-verifies and all "
        f"{total_mutations} single-field mutations across 22 protocols were "
        f"rejected",
    )


def test_golden_transcript_fixture():
    """A committed Fiat-Shamir transcript must keep verifying bit-exactly."""
    import pathlib

    path = pathlib.Path(__file__).parent / "fixtures" / "golden_matmul.json"
    transcript = Transcript.load(path)
    assert verify_transcript(transcript).accepted
