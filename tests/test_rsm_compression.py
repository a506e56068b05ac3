"""The rsm Prover's shared work.

The Toeplitz compression of a full-row-rank A solved as u C^-1 against a
solve of C.A itself; the one-gcd reduction to lowest terms against
entrywise reduction; the probe and factorization that one run hands down,
and the rank fact that never serves another matrix; and transcripts pinned
at the certify sizes on both routes of the compression: full-row-rank A (rsm, rs_equality,
hermite, spopov and sat_basis's wide run) and rank-deficient A
(kernel_basis, sat_basis's tall run).
"""

import hashlib
import random
from unittest import mock

import pytest

from polycert import instances as I
from polycert import provers, upoly
from polycert.ff import PrimeField
from polycert.matfield import det_field, pluq
from polycert.experiments import generate_true_instance
from polycert.oracles import (
    LOW_RANK,
    NO_SOLUTION,
    hermite_form,
    kernel_basis_left,
    popov_form,
    rational_solve_left,
    saturation_basis,
)
from polycert.polymat import PolyMat, ToeplitzOp
from polycert.protocols import run_protocol, verify_transcript
from polycert.provers import HonestProver, draw_compression
from polycert.transcript import MODE_FIAT_SHAMIR, MODE_INTERACTIVE, ProtocolParams
from polycert.upoly import Poly, RatVec
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
    "rsm": "0624c9287297fc5bb9a27143d2234a56cc500d27fc2e49734d593766842b62d6",
    "rs_equality": "e9098ce7a96f88bd7cd00e2ae7155523034818b0ab489c0eb17692cf64735996",
    "hermite": "5f6346c752e2cfec8dcb96414ca403518e176fd5bed73d8b99ff48cf0918dd6b",
    "spopov": "1be1617936482d29d65818fb2e3e5082659af727e3881542089c4bae0576ce8f",
    "kernel_basis": "f54c44b5dc6faefcfb72cdd7bc1502cc13e5882643ca5a53e69ebf58586c2e82",
    "sat_basis": "a4dc8ff9fb3a3a7ae7839ce74c58d6192102096dd4c8e7147745713d1fb8e687",
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


# -- the compression of a full-row-rank A -------------------------------------------------


class _Constant:
    """An rng whose every draw is c: an all-c Toeplitz matrix, singular for m > 1."""

    def __init__(self, c):
        self.c = c

    def randrange(self, sigma):
        return self.c


def _full_row_rank_instances(field, rng):
    for m, n, d in ((1, 2, 2), (2, 2, 1), (2, 4, 2), (3, 4, 2), (4, 5, 1)):
        a, v, _ = I.planted_member(rng, field, m, n, d)
        if rational_solve_left(a, v) is not LOW_RANK:
            yield a, v
        yield I.planted_nonmember_rational(rng, field, m, n, d)


@pytest.mark.parametrize("field", [F31, F101], ids=["F2^31-1", "F101"])
def test_compressed_solution_is_u_times_c_inverse(field):
    rng = random.Random(f"compression:{field.p}")
    singular = 0
    for a, v in _full_row_rank_instances(field, rng):
        m = a.m
        base = HonestProver().compression_base(a, v, m)
        assert base is not None and base is not NO_SOLUTION
        for k in range(50):
            # small sample sets make singular C common, p makes it rare
            sigma = 3 if k % 2 else field.p
            seed = rng.randrange(2**32)
            top, got = draw_compression(random.Random(seed), a, v, m, sigma, base)
            _, want = draw_compression(random.Random(seed), a, v, m, sigma, None)
            if det_field(top.materialize()) == 0:
                singular += 1
                assert got is LOW_RANK and want is LOW_RANK
                continue
            assert isinstance(got, RatVec) and isinstance(want, RatVec)
            assert got.common_den == want.common_den
            assert got.numer_row() == want.numer_row()
        if m > 1:
            _, got = draw_compression(_Constant(5), a, v, m, field.p, base)
            assert got is LOW_RANK
    assert singular > 0


def test_compression_base_leaves_rank_deficient_a_to_the_direct_route():
    rng = random.Random(3)
    prover = HonestProver()
    # tall: rho = rank 2 < m = 3, C is 2 x 3
    a, v, _ = I.planted_member(rng, F101, 3, 2, 2)
    assert prover.rsm_rank(a) == 2
    assert prover.compression_base(a, v, 2) is None
    # a claim of full row rank on a rank-deficient A falls back too
    a = I.planted_rank(rng, F101, 3, 4, 2, 2)
    assert prover.compression_base(a, a.rows[0], 3) is None


def test_compression_base_on_a_non_member():
    rng = random.Random(4)
    a = I.rand_polymat(rng, F101, 2, 4, 2)
    v = [Poly.one(F101)] + [Poly.zero(F101)] * 3
    assert rational_solve_left(a, v) is NO_SOLUTION
    base = HonestProver().compression_base(a, v, 2)
    assert base is NO_SOLUTION
    for seed in range(20):
        _, got = draw_compression(random.Random(seed), a, v, 2, 3, base)
        _, want = draw_compression(random.Random(seed), a, v, 2, 3, None)
        assert got is want


# -- lowest terms by one gcd ---------------------------------------------------------------


def _rand_poly(rng, field, dmax):
    return Poly(field, [rng.randrange(field.p) for _ in range(rng.randint(0, dmax + 1))])


def _assert_lowest_terms_agree(den, numers):
    field = den.field
    got = RatVec.from_common_den(den, numers)
    want = RatVec.normalize(field, [(f, den) for f in numers])
    assert got.common_den == want.common_den
    assert got.numer_row() == want.numer_row()
    assert got.entries == want.entries


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


@pytest.mark.parametrize("tall", [False, True], ids=["full-row-rank", "tall"])
def test_rank_lb_on_a_compression_evaluates_it_once(tall):
    """Each rank_lb probe of C.A hands its evaluation to the nested
    nonsingularity sub-proof, so a live rsm run forms C @ A(alpha) once per
    compression the Verifier checks, and a replay never forms it.  A
    full-row-rank A has constant denominators, so one compression is
    checked and coprime is skipped; the tall A checks all of them."""
    pub = _tall_rsm_inputs() if tall else certify_size_inputs("rsm", 0)
    with mock.patch.object(ToeplitzOp, "apply_field_mat", autospec=True,
                           side_effect=ToeplitzOp.apply_field_mat) as formed:
        verdict, t = run_protocol("rsm", pub, CERTIFY_PARAMS)
        assert verdict.accepted
        labels = [m.label for m in t.messages]
        checked = labels.count("begin:rank_lb")
        compressions = sum(label.startswith("toeplitz_") for label in labels)
        assert checked == labels.count("begin:frrsm")
        assert checked == (compressions if tall else 1) and compressions >= 2
        assert labels.count("begin:coprime") == tall
        assert formed.call_count == checked
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
    verdict, t = run_protocol("rsm", certify_size_inputs("rsm", 0), CERTIFY_PARAMS,
                              prover=_FirstDenominatorNotConstant())
    labels = [m.label for m in t.messages]
    assert verdict.accepted and verify_transcript(t).accepted
    assert labels.count("begin:rank_lb") == labels.count("begin:frrsm") == 1
    assert "begin:coprime" not in labels


def test_rank_fact_serves_only_its_own_matrix():
    # the profile of one matrix (columns 0, 1) is not the profile of the
    # next, whose first two columns are zero, in either order of calls
    rng = random.Random(11)
    prover = HonestProver()
    zero, one = Poly.zero(F101), Poly.one(F101)
    r = I.rand_polymat(rng, F101, 2, 2, 2).rows
    a1 = PolyMat(F101, [[one, zero] + r[0], [zero, one] + r[1]], ncols=4)
    a2 = PolyMat(F101, [[zero, zero] + row for row in
                        I.rand_nonsingular(rng, F101, 2, 2).rows], ncols=4)
    for first, second in ((a1, a2), (a2, a1)):
        assert prover.rsm_rank(first) == 2
        for a in (second, first):
            v = [f + g for f, g in zip(a.rows[0], a.rows[1])]
            base = prover.compression_base(a, v, 2)
            assert base.common_den.is_one() and base.numer_row() == [one] * 2
