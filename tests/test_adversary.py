import random

import pytest

from polycert.adversary import (
    CheatCoprime,
    CheatFieldDeterminant,
    CheatFullRankMembership,
    CheatNonSingularity,
    CheatRankLowerBound,
    CheatRankUpperBound,
    CheatRowSpaceMembership,
    InstanceActuallyTrue,
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
from polycert.instances import planted_member, planted_rank, rand_nonsingular
from polycert.matfield import FieldMat, det_field
from polycert.polymat import PolyMat
from polycert.protocols import PROTOCOL_IDS
from polycert.upoly import Poly

F = PrimeField(2**31 - 1)


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
