import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import adversary, provers
from polycert.adversary import (
    CheatCoprime,
    CheatFieldDeterminant,
    CheatFullRankMembership,
    CheatNonSingularity,
    CheatRankLowerBound,
    CheatRankUpperBound,
    CheatRowSpaceMembership,
    Forged,
    InstanceActuallyTrue,
    _scale_ratvec,
)
from polycert.experiments import (
    SOUNDNESS_PROTOCOLS,
    generate_true_instance,
    make_false_instance,
    run_completeness_experiment,
    run_soundness_experiment,
    strict_sigma,
)
from polycert.ff import PrimeField
from polycert.instances import (
    planted_member,
    planted_nonmember_rational,
    planted_rank,
    rand_nonsingular,
)
from polycert.matfield import FieldMat, det_field
from polycert.polymat import PolyMat
from polycert.oracles import LOW_RANK
from polycert.protocols import PROTOCOL_IDS, ProverGaveUp, run_protocol
from polycert.provers import draw_batch
from polycert.transcript import MODE_INTERACTIVE, ProtocolParams, Verdict
from polycert.upoly import Poly, RatVec, lin_comb
from reference import RatFunc, entries, ratvec_of_entries, ratvec_of_pairs

F = PrimeField(2**31 - 1)

# sha256 over the digest and verdict of three interactive trials on one
# prover object, for the false instance of every SOUNDNESS_PROTOCOLS entry
# at #S 32 and 64 and instance seeds 0 and 1.  It pins what a cheating
# Prover sends from one trial to the next, so state kept across trials
# (the Prover's per-matrix facts) cannot change an exchange.
CHEATING_EXCHANGE_DIGESTS = "c962e7d4da9e2fa96251cbd88d5169df1aaca76119aa4fc725029161e1ed5912"
# sha256 over the verdict (reason and detail) and the Verifier's messages of
# every run in _interactive_runs.  It pins what the Verifier decides and
# draws, not what the Prover sends.
VERDICT_CHALLENGE_DIGEST = "0e9e4dc65c80b2a100432912c18b01aba62e141313db34be56ac08f5384a1cc5"


def test_cheats_refuse_true_instances():
    rng = random.Random(30)
    a = rand_nonsingular(rng, F, 3, 1)
    with pytest.raises(InstanceActuallyTrue):
        CheatNonSingularity(PolyMat.identity(F, 2))
    with pytest.raises(InstanceActuallyTrue):
        CheatRankLowerBound(a, 3)  # rank really is 3
    with pytest.raises(InstanceActuallyTrue):
        CheatRankUpperBound(a, 3)
    b = FieldMat.identity(F, 2)
    with pytest.raises(InstanceActuallyTrue):
        CheatFieldDeterminant(b, det_field(b))
    x = Poly.x(F)
    with pytest.raises(InstanceActuallyTrue):
        CheatCoprime([Poly.one(F), x], sigma=32)
    am, v, _ = planted_member(rng, F, 2, 3, 1)
    with pytest.raises(InstanceActuallyTrue):
        CheatRowSpaceMembership(am, v, sigma=32)
    while True:
        full = planted_rank(rng, F, 2, 3, 2, 1)
        if True:
            break
    _, vv, _ = planted_member(rng, F, 2, 3, 1)
    with pytest.raises(InstanceActuallyTrue):
        CheatFullRankMembership(full, [
            sum((full.rows[i][j].scale(1) for i in range(2)), Poly.zero(F))
            for j in range(3)
        ], sigma=32)


def test_false_instances_are_verified_false():
    rng = random.Random(31)
    for pid in SOUNDNESS_PROTOCOLS:
        pub, prover, bound, desc = make_false_instance(pid, rng, F, sigma=32)
        assert bound > 0, pid


def test_false_system_solve_instances_are_false():
    """A v != delta b for every seed: the perturbed entry of v must meet a
    nonzero column of A, or the statement stays true."""
    check = random.Random(34)
    for seed in range(400):
        pub, _, _, _ = make_false_instance("system_solve", random.Random(seed), F, sigma=32)
        x = check.randrange(F.p)
        lhs = pub["A"].eval_at(x).matvec([f(x) for f in pub["v"]])
        delta = pub["delta"](x)
        assert lhs != [delta * g(x) % F.p for g in pub["b"]], seed


def test_completeness_quick_all_protocols():
    for pid in PROTOCOL_IDS:
        rep = run_completeness_experiment(pid, trials=5, seed=11, mmax=5, dmax=3)
        assert rep.passed, (pid, rep)


@pytest.mark.parametrize("pid", SOUNDNESS_PROTOCOLS)
def test_soundness_quick(pid):
    rep = run_soundness_experiment(pid, trials=200, sigma=32, seed=13)
    assert rep.passed, rep.to_json_dict()


def test_strict_sigma_formulas_spot_checks():
    rng = random.Random(32)
    a = PolyMat.identity(F, 4)  # deg 0 -> working degree 1
    assert strict_sigma("singularity", {"A": a}) == 8
    assert strict_sigma("nonsingularity", {"A": a}) == 5
    assert strict_sigma("rank_lb", {"A": a, "rho": 2}) == 3
    assert strict_sigma("determinant", {"A": a, "delta": Poly.one(F)}) == 10
    pub = generate_true_instance("matmul", rng, F, mmax=3, dmax=2)
    d = max(
        max(1, int(pub[k].deg)) if pub[k].deg != float("-inf") else 1
        for k in ("A", "B", "C")
    )
    assert strict_sigma("matmul", pub) == 4 * d + 2


def test_field_det_wrong_factors_right_beta_empirical():
    """Forged factors with a matching determinant claim survive only the
    Freivalds collision, empirically at most 1/sigma."""
    rng = random.Random(33)
    pub, prover, bound, _ = make_false_instance("field_det", rng, F, sigma=32)
    from polycert.transcript import ProtocolParams
    from polycert.protocols import run_protocol

    accepts = 0
    for trial in range(400):
        params = ProtocolParams(p=F.p, sigma=32, mode="interactive",
                                strict=False, seed=trial)
        verdict, _ = run_protocol("field_det", pub, params, prover=prover)
        accepts += verdict.accepted
    rate = accepts / 400
    assert rate <= bound + 3 * (bound * (1 - bound) / 400) ** 0.5


def test_rank_ub_bound_near_tightness_demo():
    """Planting minor roots inside the sample set makes the evaluation-drop
    term of the (rd+1)/#S bound real: the cheater wins close to deg/sigma."""
    import random as _random

    from polycert.polymat import PolyMat
    from polycert.protocols import run_protocol
    from polycert.transcript import ProtocolParams
    from polycert.upoly import Poly

    sigma = 32
    # f vanishes on {0..3} inside S; A = diag(f, 1, 1) has rank 3 except at
    # those points, where it drops to 2
    f = Poly.one(F)
    for i in range(4):
        f = f * Poly(F, [(F.p - i) % F.p, 1])
    one, zero = Poly.one(F), Poly.zero(F)
    a = PolyMat(F, [[f, zero, zero], [zero, one, zero], [zero, zero, one]])
    cheat = CheatRankUpperBound(a, 2, seed=2)
    accepts = 0
    trials = 1500
    for trial in range(trials):
        params = ProtocolParams(p=F.p, sigma=sigma, mode="interactive",
                                strict=False, seed=trial)
        verdict, _ = run_protocol("rank_ub", {"A": a, "rho": 2}, params,
                                  prover=cheat)
        accepts += verdict.accepted
    rate = accepts / trials
    bound = (3 * 4 + 1) / sigma  # r d + 1 over sigma with r = 3, d = 4
    se = (bound * (1 - bound) / trials) ** 0.5
    assert rate <= bound + 3 * se
    # the four planted roots give a genuine win probability of about 4/32
    assert rate >= 4 / sigma - 3 * se


def test_cheating_exchanges_are_pinned():
    h = hashlib.sha256()
    for pid in SOUNDNESS_PROTOCOLS:
        for sigma in (32, 64):
            for seed in (0, 1):
                rng = random.Random(seed)
                pub, prover, _, _ = make_false_instance(pid, rng, F, sigma)
                for trial in range(3):
                    params = ProtocolParams(p=F.p, sigma=sigma, mode=MODE_INTERACTIVE,
                                            strict=False, seed=rng.randrange(2**62))
                    verdict, t = run_protocol(pid, pub, params, prover=prover)
                    line = (f"{pid} {sigma} {seed} {trial} {t.digest()} "
                            f"{verdict.reason.value} {verdict.detail}")
                    h.update(line.encode() + b"\n")
    assert h.hexdigest() == CHEATING_EXCHANGE_DIGESTS


def _verdict_and_challenges(line, t):
    """line, then the verdict and the encoded Verifier messages of run t."""
    out = [f"{line} {t.verdict.reason.value} {t.verdict.detail}".encode()]
    out += [t.message_bytes(m) for m in t.messages if m.sender == "V"]
    return b"\n".join(out) + b"\n"


def _interactive_runs():
    """Every run behind VERDICT_CHALLENGE_DIGEST: the cheating exchanges of
    test_cheating_exchanges_are_pinned plus field_det's, then interactive
    true runs of every protocol (seeds 0 to 15, mmax 4, dmax 2, #S = p) in
    F_{2^31-1} and F_97."""
    for pid in (*SOUNDNESS_PROTOCOLS, "field_det"):
        for sigma in (32, 64):
            for seed in (0, 1):
                rng = random.Random(seed)
                pub, prover, _, _ = make_false_instance(pid, rng, F, sigma)
                for trial in range(3):
                    params = ProtocolParams(p=F.p, sigma=sigma, mode=MODE_INTERACTIVE,
                                            strict=False, seed=rng.randrange(2**62))
                    _, t = run_protocol(pid, pub, params, prover=prover)
                    yield f"{pid} {sigma} {seed} {trial}", t
    for p in (2**31 - 1, 97):
        field = PrimeField(p)
        for pid in PROTOCOL_IDS:
            for seed in range(16):
                pub = generate_true_instance(pid, random.Random(seed), field,
                                             mmax=4, dmax=2)
                params = ProtocolParams(p=p, sigma=p, mode=MODE_INTERACTIVE,
                                        strict=False, seed=seed)
                try:
                    _, t = run_protocol(pid, pub, params)
                except ProverGaveUp:
                    yield f"{pid} {p} {seed} gave-up", None
                    continue
                yield f"{pid} {p} {seed}", t


def test_verdicts_and_challenges_are_pinned():
    """In interactive mode the challenges come from the seeded PRNG alone,
    so what the Prover sends cannot move them: this pin holds across any
    change to the Prover's messages that keeps every verdict."""
    h = hashlib.sha256()
    runs = 0
    for line, t in _interactive_runs():
        h.update(line.encode() + b"\n" if t is None else _verdict_and_challenges(line, t))
        runs += 1
    assert runs == 836
    assert h.hexdigest() == VERDICT_CHALLENGE_DIGEST


def _rand_ratvec(rng, field):
    """A random RatVec whose entries often share denominator factors, held
    either as reduced entries or in common-denominator form."""
    def poly(d):
        return Poly(field, [rng.randrange(field.p) for _ in range(d + 1)])

    shared = poly(rng.randrange(3))
    m = rng.randrange(1, 5)
    pairs = []
    for _ in range(m):
        den = poly(rng.randrange(3))
        if rng.random() < 0.5:
            den = den * shared
        if den.is_zero():
            den = Poly.one(field)
        pairs.append((poly(rng.randrange(4)), den))
    if rng.random() < 0.5:
        return ratvec_of_pairs(pairs)
    den = Poly.one(field)
    for _, d in pairs:
        den = den * d
    return RatVec.from_common_den(den, [num * den.divexact(d) for num, d in pairs])


@pytest.mark.parametrize("field", [PrimeField(p) for p in (2, 7, 2**31 - 1, 2**61 - 1)],
                         ids=["F2", "F7", "F2^31-1", "F2^61-1"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_denominator_sums_match_per_term_sums(field, seed):
    """The forged g's sum u c over u's common denominator, and the forged
    vector d u, equal the per-term RatFunc arithmetic they replace."""
    rng = random.Random(seed)
    u = _rand_ratvec(rng, field)
    c = [rng.randrange(field.p) for _ in range(len(u.numer_row()))]
    per_term = RatFunc.zero(field)
    for ui, ci in zip(entries(u), c):
        per_term = per_term + ui * Poly.constant(field, ci)
    acc = RatVec.from_common_den(u.common_den, [lin_comb(field, c, u.numer_row())])
    assert (acc.numer_row()[0], acc.common_den) == (per_term.num, per_term.den)
    d = Poly(field, [rng.randrange(field.p) for _ in range(3)] + [1])
    scaled = _scale_ratvec(d, u)
    by_entries = ratvec_of_entries([e * d for e in entries(u)])
    assert scaled.common_den == by_entries.common_den
    assert scaled.numer_row() == by_entries.numer_row()


@pytest.mark.parametrize("pid, module", [("rank_lb", adversary), ("rsm", provers)])
def test_statement_facts_are_computed_once_per_prover(pid, module, monkeypatch):
    """Exact rank profiles of the public matrix are kept across runs of one
    prover."""
    pub, prover, _, _ = make_false_instance(pid, random.Random(0), F, 32)
    ranked = []
    real = module.rank_and_profile
    monkeypatch.setattr(module, "rank_and_profile", lambda a: ranked.append(a) or real(a))
    counts = []
    for seed in range(3):
        params = ProtocolParams(p=F.p, sigma=32, mode=MODE_INTERACTIVE, strict=False,
                                seed=seed)
        run_protocol(pid, pub, params, prover=prover)
        counts.append(len(ranked))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_statement_facts_stay_bounded():
    prover = provers.HonestProver()
    for i in range(3 * provers.FACT_CAP):
        assert prover.fact("k", PolyMat.identity(F, 2), lambda: i) == i
    assert len(prover._facts) <= provers.FACT_CAP


def test_no_usable_compression_ends_in_fallback_or_give_up(monkeypatch):
    """When every Toeplitz compression is LOW_RANK, the cheat falls back to
    all-ones denominators and hostile sub-proofs, and the run still ends in
    a Verdict; the honest Prover on a rank-deficient A gives up."""
    monkeypatch.setattr(provers, "draw_compression",
                        lambda rng, a, v, rho, sigma: (None, LOW_RANK))
    pub, cheat, _, _ = make_false_instance("rsm", random.Random(0), F, 32)
    params = ProtocolParams(p=F.p, sigma=32, mode=MODE_INTERACTIVE, strict=False, seed=5)
    verdict, t = run_protocol("rsm", pub, params, prover=cheat)
    assert isinstance(verdict, Verdict)
    dens = [m.payload.coeffs for m in t.messages if m.label.startswith("denominator_")]
    assert dens and all(c == (1,) for c in dens)
    a, v, _ = planted_member(random.Random(1), F, 3, 2, 1)  # rank 2 < 3 rows
    with pytest.raises(ProverGaveUp):
        run_protocol("rsm", {"A": a, "v": v}, params)


def test_a_single_nonzero_constant_is_a_coprime_family():
    with pytest.raises(InstanceActuallyTrue):
        CheatCoprime([Poly.constant(F, 5)], sigma=32)
    CheatCoprime([Poly.x(F)], sigma=32)  # x alone has gcd x


class _ConstantFirstDenominator(CheatRowSpaceMembership):
    """Claims den_0 = 1, so the Verifier checks compression 0 alone, and
    plays the interpolated-g tactic there with the rational solution of
    w (C_0 A) = v.  A true den_0 would make v a member, so the statement
    of that frrsm sub-proof is false."""

    def rsm_commitment(self, a, v, rho, t, sigma):
        tops, dens, sols = draw_batch(self._cheat_rng, a, v, rho, t, sigma, 200 * t)
        sols[0] = Forged(RatVec.in_lowest_terms(dens[0], sols[0]))
        return tops, [Poly.one(a.field)] + dens[1:], sols


@pytest.mark.parametrize("sigma", [32, 64])
def test_a_forged_constant_denominator_stays_within_the_bound(sigma):
    """The one-compression branch of rsm: a cheat that claims a constant
    first denominator is accepted no more often than the advertised c/#S."""
    rng = random.Random(sigma)
    pub, _, bound, _ = make_false_instance("rsm", rng, F, sigma)
    cheat = _ConstantFirstDenominator(pub["A"], pub["v"], sigma, seed=1)
    trials = 400
    accepts = 0
    for _ in range(trials):
        params = ProtocolParams(p=F.p, sigma=sigma, mode=MODE_INTERACTIVE,
                                strict=False, seed=rng.randrange(2**62))
        verdict, t = run_protocol("rsm", pub, params, prover=cheat)
        labels = [m.label for m in t.messages]
        assert "bezout_s1" not in labels  # no coprime sub-proof
        assert labels.count("inner_product") <= 1  # at most one frrsm
        accepts += verdict.accepted
    rate = accepts / trials
    assert rate <= bound + 3 * (bound * (1 - bound) / trials) ** 0.5, (rate, bound)
    assert accepts > 0  # the tactic does win at some challenges


@pytest.mark.parametrize("sigma", [32, 64])
def test_a_full_row_rank_rsm_cheat_stays_within_the_bound(sigma):
    """A claim of full row rank is proved by frrsm on A itself, with no
    compression: the cheat plays the interpolated-g tactic of
    CheatFullRankMembership there, and is accepted no more often than the
    advertised rsm bound."""
    rng = random.Random(sigma)
    a, v = planted_nonmember_rational(rng, F, 2, 3, 1)
    pub = {"A": a, "v": v}
    bound = strict_sigma("rsm", pub) / sigma
    cheat = CheatRowSpaceMembership(a, v, sigma, seed=1)
    trials = 600
    accepts = 0
    for _ in range(trials):
        params = ProtocolParams(p=F.p, sigma=sigma, mode=MODE_INTERACTIVE,
                                strict=False, seed=rng.randrange(2**62))
        verdict, t = run_protocol("rsm", pub, params, prover=cheat)
        labels = [m.label for m in t.messages]
        assert labels.count("inner_product") == 1  # one frrsm
        assert not any(label.startswith("toeplitz_") for label in labels)
        accepts += verdict.accepted
    rate = accepts / trials
    assert rate <= bound + 3 * (bound * (1 - bound) / trials) ** 0.5, (rate, bound)
    assert accepts > 0  # the tactic does win at some challenges
