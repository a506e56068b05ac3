"""The rsm schedule and its Prover's shared work.

The one-gcd reduction to lowest terms against entrywise reduction; the
probe and factorization that one run hands down, and the rank fact that
never serves another matrix; the compressions a run checks; and
transcripts pinned at the certify sizes, whose rsm runs take both routes:
a claim of full row rank proved on A itself (rsm, rs_equality, hermite,
spopov and sat_basis's wide run) and Toeplitz compressions of a
rank-deficient A (kernel_basis, sat_basis's tall run).
"""

import hashlib
import random
from unittest import mock

import pytest

from polycert import instances as I
from polycert import provers, upoly
from polycert.ff import PrimeField
from polycert.matfield import pluq
from polycert.experiments import generate_true_instance
from polycert.oracles import hermite_form, kernel_basis_left, popov_form, saturation_basis
from polycert.polymat import PolyMat, ToeplitzOp
from polycert.protocols import run_protocol, verify_transcript
from polycert.provers import HonestProver
from polycert.transcript import MODE_FIAT_SHAMIR, MODE_INTERACTIVE, ProtocolParams
from polycert.upoly import Poly, RatVec
from reference import ratvec_of_pairs
from test_matfield import reconstruct

F31 = PrimeField(2**31 - 1)
F101 = PrimeField(101)
CERTIFY_PARAMS = ProtocolParams(p=F31.p, sigma=F31.p, mode=MODE_FIAT_SHAMIR, strict=True)

# (rows, columns, degree) as `polycert prove` is benchmarked
CERTIFY_SIZES = {
    "rsm": (8, 10, 4),
    "rs_equality": (6, 8, 3),
    "hermite": (4, 6, 3),
    "spopov": (6, 8, 3),
    "kernel_basis": (6, 4, 3),
    "sat_basis": (5, 7, 3),
}

# sha256 over the saved transcripts of seeds 0 and 1, per protocol
CERTIFY_SIZE_DIGESTS = {
    "rsm": "bcdbdce98c6a78bcb57b8459d873e2885a78a0a5b6488de200696eabdf126c67",
    "rs_equality": "2555406a30be06a80594296bfd9f5a71e81a09b10450e440389373495ae038f2",
    "hermite": "a182f48a1ca8fc153c0dcc3a84ce14185bd8c82343c3987f769acbba1cacf3d8",
    "spopov": "c6cf3c26078936be61df13fcb06a38c96eb67380539a4c06a4bc38f9fa11e00a",
    "kernel_basis": "b78939dc07974c4cd279dd1f5909394affdf7f0ca7e589ad9819f23622d1a473",
    "sat_basis": "49921b5a29d9b9d77e8b343277a08362895ac3967447648fe86ea88aae8c12eb",
}


def certify_size_inputs(pid, seed):
    """Public inputs of a true statement at the certify size, the certified
    object computed by the Prover-side oracle."""
    rng = random.Random(f"certify-pin:{pid}:{seed}")
    m, n, d = CERTIFY_SIZES[pid]
    if pid == "rsm":
        a, v, _ = I.planted_member(rng, F31, m, n, d)
        return {"A": a, "v": v}
    if pid == "rs_equality":
        b = I.rand_polymat(rng, F31, m, n, d)
        return {"A": I.rand_unimodular(rng, F31, m, dmax=1).mul(b), "B": b}
    a = I.rand_polymat(rng, F31, m, n, d)
    if pid == "hermite":
        return {"A": a, "H": hermite_form(a)[0]}
    if pid == "spopov":
        return {"A": a, "shift": [0] * n, "P": popov_form(a, [0] * n)}
    if pid == "kernel_basis":
        return {"A": a, "B": kernel_basis_left(a)}
    return {"A": a, "B": saturation_basis(a)}


@pytest.mark.parametrize("pid", list(CERTIFY_SIZES))
def test_certify_size_transcripts_are_pinned(pid, tmp_path):
    h = hashlib.sha256()
    for seed in (0, 1):
        verdict, t = run_protocol(pid, certify_size_inputs(pid, seed), CERTIFY_PARAMS)
        assert verdict.accepted, (pid, seed, verdict)
        path = tmp_path / f"{pid}-{seed}.json"
        t.save(path)
        h.update(path.read_bytes())
    assert h.hexdigest() == CERTIFY_SIZE_DIGESTS[pid]


# -- lowest terms by one gcd ---------------------------------------------------------------


def _rand_poly(rng, field, dmax):
    return Poly(field, [rng.randrange(field.p) for _ in range(rng.randint(0, dmax + 1))])


def _assert_lowest_terms_agree(den, numers):
    field = den.field
    got = RatVec.from_common_den(den, numers)
    want = ratvec_of_pairs([(f, den) for f in numers])
    assert got.common_den == want.common_den
    assert got.numer_row() == want.numer_row()
    assert got == want


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
def test_from_common_den_matches_entrywise_reduction(p):
    field = PrimeField(p)
    rng = random.Random(f"lowest-terms:{p}")
    for _ in range(150):
        m = rng.randint(1, 5)
        shared = _rand_poly(rng, field, 2)
        if shared.is_zero():
            shared = Poly.one(field)
        den = shared * _rand_poly(rng, field, 3)
        if den.is_zero():
            continue
        # a factor shared by every numerator, by some, or by none
        numers = [(shared if rng.random() < 0.7 else Poly.one(field)) * _rand_poly(rng, field, 3)
                  for _ in range(m)]
        _assert_lowest_terms_agree(den, numers)


def test_from_common_den_edge_cases():
    x = Poly.x(F101)
    one = Poly.one(F101)
    zero = Poly.zero(F101)
    # m = 1
    _assert_lowest_terms_agree((x - one) * (x + one), [(x - one) * x])
    _assert_lowest_terms_agree(x.scale(7), [x.scale(3)])
    # zero numerators, all or some
    _assert_lowest_terms_agree((x - one) * x, [zero, zero])
    _assert_lowest_terms_agree((x - one) * x, [zero, x, zero])
    _assert_lowest_terms_agree(Poly.constant(F101, 4), [zero])


def test_from_common_den_falls_back_when_the_weighted_sum_shares_more():
    x = Poly.x(F101)
    f = x - Poly.constant(F101, 1)
    n2 = x - Poly.constant(F101, 3)
    n1 = f * (x + Poly.constant(F101, 2)) - n2.scale(2)
    den = f * (x - Poly.constant(F101, 5))
    # the weighted sum n1 + 2 n2 has the factor f of den, which neither
    # numerator has, so the first gcd overshoots and the chain must run
    assert ((n1 + n2.scale(2)) % f).is_zero()
    assert not (n1 % f).is_zero() and not (n2 % f).is_zero()
    with mock.patch.object(upoly, "poly_gcd", wraps=upoly.poly_gcd) as gcd:
        RatVec.from_common_den(den, [n1, n2])
    assert gcd.call_count > 1
    _assert_lowest_terms_agree(den, [n1, n2])


# -- answers handed down within a run, facts kept across runs ------------------------------


class _SpyProver(HonestProver):
    """Records which evaluated matrix each nonsingularity solution is for."""

    def nonsingularity_solution(self, view, alpha, b, factor):
        self.current = view.eval_at(alpha)
        return super().nonsingularity_solution(view, alpha, b, factor)


def test_reused_prover_solves_with_its_own_factorization():
    prover = _SpyProver(seed=5)
    solved = []
    real = provers.pluq_solve

    def checked(f, b):
        assert reconstruct(f) == prover.current
        solved.append(f)
        return real(f, b)

    rng = random.Random(9)
    runs = [(pid, generate_true_instance(pid, rng, F101, mmax=3, dmax=2))
            for _ in range(4) for pid in ("nonsingularity", "rank_lb", "rank", "rsm")]
    with mock.patch.object(provers, "pluq_solve", checked):
        # one prover for every run, as make_false_instance hands one to every trial
        for k, (pid, pub) in enumerate(runs):
            params = ProtocolParams(p=F101.p, sigma=F101.p, mode=MODE_INTERACTIVE,
                                    strict=False, seed=k)
            verdict, _ = run_protocol(pid, pub, params, prover=prover)
            assert verdict.accepted, (pid, verdict)
    assert solved


def test_nonsingularity_solution_solves_with_the_factorization_it_is_handed():
    rng = random.Random(11)
    prover = HonestProver()
    a = I.rand_nonsingular(rng, F101, 3, 2)
    other = I.rand_nonsingular(rng, F101, 3, 2).eval_at(5)
    alpha, factor = prover.nonsingularity_point(a, F101.p)
    assert reconstruct(factor) == a.eval_at(alpha)
    b = [1, 2, 3]
    assert a.eval_at(alpha).matvec(prover.nonsingularity_solution(a, alpha, b, factor)) == b
    # a factorization of another matrix is what the solution solves with
    w = prover.nonsingularity_solution(a, alpha, b, pluq(other))
    assert other.matvec(w) == b
    # with none, A(alpha) is factored afresh
    assert a.eval_at(alpha).matvec(prover.nonsingularity_solution(a, alpha, b, None)) == b


def _tall_rsm_inputs():
    """rsm on a rank-deficient 6 x 4 A: its denominators are not constant,
    so the Verifier checks every compression."""
    a, v, _ = I.planted_member(random.Random(7), F31, 6, 4, 2)
    return {"A": a, "v": v}


def _redundant_row_inputs():
    """rsm on a 5 x 6 A of rank 4, whose last row is a constant combination
    of the others: every C.A is M B for a constant 4 x 4 M and the top four
    rows B, so the honest denominators are constant."""
    rng = random.Random(8)
    b, v, _ = I.planted_member(rng, F31, 4, 6, 2)
    lam = [rng.randrange(1, F31.p) for _ in range(4)]
    last = [sum((b.rows[i][j].scale(lam[i]) for i in range(4)), Poly.zero(F31))
            for j in range(6)]
    return {"A": b.stack(PolyMat(F31, [last], ncols=6)), "v": v}


@pytest.mark.parametrize("tall", [False, True], ids=["full-row-rank", "tall"])
def test_rank_lb_on_a_compression_evaluates_it_once(tall):
    """Each rank_lb probe of C.A hands its evaluation to the nested
    nonsingularity sub-proof, so a live rsm run forms C @ A(alpha) once per
    compression the Verifier checks, and a replay never forms it.  A claim
    of full row rank is proved on A itself, with no compression and no
    coprime; the tall A checks all of its compressions.  Sub-protocols are
    counted by a Prover message each sends once: eval_point for rank_lb
    (its nonsingularity sub-proof's point; a rank_lb of rho rows sends no
    row set), inner_product for frrsm, bezout_s1 for coprime."""
    pub = _tall_rsm_inputs() if tall else certify_size_inputs("rsm", 0)
    with mock.patch.object(ToeplitzOp, "apply_field_mat", autospec=True,
                           side_effect=ToeplitzOp.apply_field_mat) as formed:
        verdict, t = run_protocol("rsm", pub, CERTIFY_PARAMS)
        assert verdict.accepted
        labels = [m.label for m in t.messages]
        checked = labels.count("eval_point")
        compressions = sum(label.startswith("toeplitz_") for label in labels)
        assert checked == labels.count("inner_product")
        if tall:
            assert checked == compressions >= 2
        else:
            assert checked == 1 and compressions == 0
        assert labels.count("bezout_s1") == tall
        assert formed.call_count == compressions
        formed.reset_mock()
        assert verify_transcript(t).accepted
        assert formed.call_count == 0


class _FirstDenominatorNotConstant(HonestProver):
    """Moves compression 0 off the constant denominators with a false
    answer: den_0 = x + 1 and a zero solution, which its frrsm rejects."""

    def rsm_commitment(self, a, v, rho, t, sigma):
        tops, dens, sols = super().rsm_commitment(a, v, rho, t, sigma)
        zero = [Poly.zero(a.field)] * rho
        return tops, [Poly(a.field, [1, 1])] + dens[1:], [zero] + sols[1:]


def test_the_first_constant_denominator_is_the_one_compression_checked():
    """A nonzero constant den_k is its own Bezout identity: the Verifier
    checks rank_lb and frrsm on C_k A alone, for the first such k, and
    skips coprime."""
    pub = _redundant_row_inputs()
    for prover in (HonestProver(), _FirstDenominatorNotConstant()):
        verdict, t = run_protocol("rsm", pub, CERTIFY_PARAMS, prover=prover)
        labels = [m.label for m in t.messages]
        assert verdict.accepted and verify_transcript(t).accepted
        assert "toeplitz_1" in labels and "bezout_s1" not in labels
        assert labels.count("eval_point") == labels.count("inner_product") == 1


def test_rank_fact_serves_only_its_own_matrix():
    # a full-rank and a rank-1 matrix of one shape, asked for in either order
    rng = random.Random(11)
    full = I.planted_rank(rng, F101, 2, 4, 2, 2)
    low = I.planted_rank(rng, F101, 2, 4, 1, 2)
    for first, second in ((full, low), (low, full)):
        prover = HonestProver()
        for a in (first, second, first):
            assert prover.rsm_rank(a) == (2 if a is full else 1)
