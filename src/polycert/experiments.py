"""Completeness and soundness experiment harnesses.

Completeness: for each protocol, run honest provers on seeded random true
instances with the sample set sized exactly at the advertised lower bound
(which guarantees perfect completeness), and demand zero rejections.

Soundness: fix one oracle-verified false instance, run a best-effort
cheating prover against fresh verifier randomness for thousands of trials,
and compare the empirical acceptance rate against the theoretical bound
plus three binomial standard errors.

Trials are embarrassingly parallel but run serially here for deterministic
reports; callers wanting fan-out can shard the seed range across workers
and sum the counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import adversary, instances
from .ff import PrimeField
from .matfield import det_field
from .oracles import det_bareiss, rank_and_profile
from .polymat import PolyMat
from .protocols import ProtocolParams, run_protocol, wdeg
from .provers import HonestProver
from .transcript import MODE_INTERACTIVE
from .upoly import NEG_INF, Poly


# -- advertised #S lower bounds, computed from ground-truth instance data -------


def strict_sigma(protocol_id: str, pub: dict) -> int:
    """The advertised lower bound on #S for completeness and 1/2-soundness."""
    if protocol_id == "singularity":
        a = pub["A"]
        return 2 * a.n * wdeg(a.deg)
    if protocol_id == "nonsingularity":
        a = pub["A"]
        return a.n * wdeg(a.deg) + 1
    if protocol_id == "rank_lb":
        a = pub["A"]
        return pub["rho"] * wdeg(a.deg) + 1
    if protocol_id in ("rank_ub", "rank"):
        a = pub["A"]
        r = max(rank_and_profile(a)[0], pub["rho"])
        return 2 * r * wdeg(a.deg) + 2
    if protocol_id == "determinant":
        a = pub["A"]
        return 2 * a.n * wdeg(a.deg) + 2
    if protocol_id == "field_det":
        return 2
    if protocol_id == "system_solve":
        d = max(
            wdeg(pub["A"].deg),
            _row_wdeg(pub["b"]),
            _row_wdeg(pub["v"]),
            wdeg(pub["delta"].deg),
        )
        return 4 * d
    if protocol_id == "matmul":
        d = max(wdeg(pub["A"].deg), wdeg(pub["B"].deg), wdeg(pub["C"].deg))
        return 4 * d + 2
    if protocol_id == "inverse":
        d = max(wdeg(pub["A"].deg), wdeg(pub["B"].deg))
        return 4 * d + 2
    if protocol_id == "frrsm":
        a = pub["A"]
        d = max(wdeg(a.deg), _row_wdeg(pub["v"]))
        return 6 * a.m * d + 2 * d + 2
    if protocol_id == "coprime":
        return 2 * max(wdeg(f.deg) for f in pub["f"])
    if protocol_id == "rsm":
        a = pub["A"]
        d = max(wdeg(a.deg), _row_wdeg(pub["v"]))
        r = rank_and_profile(a)[0]
        return 8 * r * d + 2 * d + 2
    if protocol_id in ("rs_subset", "rs_equality"):
        a, b = pub["A"], pub["B"]
        d = max(wdeg(a.deg), wdeg(b.deg))
        r = max(rank_and_profile(a)[0], rank_and_profile(b)[0])
        return 8 * r * d + 2 * d + 4
    if protocol_id == "row_basis":
        a, b = pub["A"], pub["B"]
        d = max(wdeg(a.deg), wdeg(b.deg))
        r = max(rank_and_profile(a)[0], rank_and_profile(b)[0], b.m)
        return 8 * r * d + 2 * d + 6
    if protocol_id == "hermite":
        a, h = pub["A"], pub["H"]
        d = max(wdeg(a.deg), wdeg(h.deg))
        r = max(rank_and_profile(a)[0], h.m)
        return 8 * r * d + 2 * d + 4
    if protocol_id == "spopov":
        a, pm = pub["A"], pub["P"]
        d = max(wdeg(a.deg), wdeg(pm.deg))
        r = max(rank_and_profile(a)[0], pm.m)
        return 8 * r * d + 2 * d + 4
    if protocol_id == "saturated":
        a = pub["A"]
        return 8 * min(a.m, a.n) * wdeg(a.deg) + 4
    if protocol_id == "sat_basis":
        a, b = pub["A"], pub["B"]
        d = max(wdeg(a.deg), wdeg(b.deg))
        return 8 * a.n * d + 2 * d + 4
    if protocol_id == "unimod_completable":
        a = pub["A"]
        return 8 * a.m * wdeg(a.deg) + 4
    if protocol_id == "kernel_basis":
        a, b = pub["A"], pub["B"]
        d = max(wdeg(a.deg), wdeg(b.deg))
        return 8 * a.m * d + 4
    raise ValueError(f"unknown protocol {protocol_id!r}")


def _row_wdeg(row) -> int:
    return wdeg(max((f.deg for f in row), default=NEG_INF))


# -- true-instance generators ------------------------------------------------------


def generate_true_instance(protocol_id: str, rng: random.Random, field: PrimeField,
                           mmax: int = 8, dmax: int = 4) -> dict:
    """A seeded random true instance for the protocol, oracle-verified."""
    m = rng.randrange(1, mmax + 1)
    n = rng.randrange(1, mmax + 1)
    d = rng.randrange(0, dmax + 1)
    sq = max(2, rng.randrange(2, mmax + 1))
    if protocol_id == "singularity":
        return {"A": instances.rand_singular(rng, field, sq, max(1, d))}
    if protocol_id == "nonsingularity":
        return {"A": instances.rand_nonsingular(rng, field, sq, d)}
    if protocol_id == "rank_lb":
        a = instances.rand_polymat(rng, field, m, n, d)
        r = rank_and_profile(a)[0]
        return {"A": a, "rho": rng.randint(0, r)}
    if protocol_id == "rank_ub":
        a = instances.rand_polymat(rng, field, m, n, d)
        r = rank_and_profile(a)[0]
        return {"A": a, "rho": rng.randint(r, min(m, n))}
    if protocol_id == "rank":
        a = instances.rand_polymat(rng, field, m, n, d)
        return {"A": a, "rho": rank_and_profile(a)[0]}
    if protocol_id == "determinant":
        a = (
            instances.rand_polymat(rng, field, sq, sq, d)
            if rng.random() < 0.8
            else instances.rand_singular(rng, field, sq, max(1, d))
        )
        return {"A": a, "delta": det_bareiss(a)}
    if protocol_id == "field_det":
        b = instances.rand_field_mat(rng, field, sq, sq)
        return {"B": b, "beta": det_field(b)}
    if protocol_id == "system_solve":
        a = instances.rand_polymat(rng, field, m, n, d)
        v0 = instances.rand_poly_row(rng, field, n, d)
        delta = instances.rand_poly(rng, field, d, nonzero=True)
        v = [delta * f for f in v0]
        b = [
            sum((a.rows[i][j] * v0[j] for j in range(n)), Poly.zero(field))
            for i in range(m)
        ]
        return {"A": a, "b": b, "v": v, "delta": delta}
    if protocol_id == "matmul":
        k = rng.randrange(1, mmax + 1)
        a = instances.rand_polymat(rng, field, m, k, d)
        b = instances.rand_polymat(rng, field, k, n, d)
        return {"A": a, "B": b, "C": a.mul(b)}
    if protocol_id == "inverse":
        u, uinv = instances.rand_unimodular_with_inverse(rng, field, sq, dmax=1)
        return {"A": u, "B": uinv}
    if protocol_id == "frrsm":
        mm = rng.randrange(1, mmax + 1)
        nn = rng.randrange(mm, mmax + 1)
        while True:
            a = instances.rand_polymat(rng, field, mm, nn, d)
            if rank_and_profile(a)[0] == mm:
                break
        q = [instances.rand_poly(rng, field, 2) for _ in range(mm)]
        v = [
            sum((q[i] * a.rows[i][j] for i in range(mm)), Poly.zero(field))
            for j in range(nn)
        ]
        return {"A": a, "v": v}
    if protocol_id == "coprime":
        t = rng.randrange(1, 5)
        return {"f": instances.rand_coprime_family(rng, field, t, max(1, d))}
    if protocol_id == "rsm":
        base_m = rng.randrange(1, max(2, mmax - 1))
        a = instances.rand_polymat(rng, field, base_m, n, d)
        extra = rng.randrange(0, 3)
        for _ in range(extra):
            q = [instances.rand_poly(rng, field, 1) for _ in range(a.m)]
            row = [
                sum((q[i] * a.rows[i][j] for i in range(a.m)), Poly.zero(field))
                for j in range(n)
            ]
            a = a.stack(PolyMat(field, [row], ncols=n))
        q = [instances.rand_poly(rng, field, 2) for _ in range(a.m)]
        v = [
            sum((q[i] * a.rows[i][j] for i in range(a.m)), Poly.zero(field))
            for j in range(n)
        ]
        return {"A": a, "v": v}
    if protocol_id == "rs_subset":
        lm = rng.randrange(1, mmax + 1)
        b = instances.rand_polymat(rng, field, lm, n, d)
        t = instances.rand_polymat(rng, field, m, lm, 1)
        return {"A": t.mul(b), "B": b}
    if protocol_id == "rs_equality":
        b = instances.rand_polymat(rng, field, m, n, d)
        if rng.random() < 0.5:
            u = instances.rand_unimodular(rng, field, m, dmax=1)
            return {"A": u.mul(b), "B": b}
        t = instances.rand_polymat(rng, field, rng.randrange(1, 3), m, 1)
        return {"A": b.stack(t.mul(b)), "B": b}
    if protocol_id == "row_basis":
        from .oracles import hermite_form

        a = instances.rand_polymat(rng, field, m, n, d)
        h, _ = hermite_form(a)
        if h.m == 0:
            return generate_true_instance(protocol_id, rng, field, mmax, dmax)
        return {"A": a, "B": h}
    if protocol_id == "hermite":
        a, h = instances.planted_hermite_instance(rng, field, m, n, d)
        return {"A": a, "H": h}
    if protocol_id == "spopov":
        a, shift, pm = instances.planted_popov_instance(rng, field, m, n, d)
        return {"A": a, "shift": shift, "P": pm}
    if protocol_id == "saturated":
        if rng.random() < 0.5:
            mm = rng.randrange(1, mmax + 1)
            nn = rng.randrange(mm, mmax + 1)
            return {"A": instances.planted_saturated(rng, field, mm, nn, d)}
        nn = rng.randrange(1, max(2, mmax // 2))
        mm = rng.randrange(nn + 1, nn + 3)
        return {"A": instances.planted_full_col_rank_saturated(rng, field, mm, nn, 1)}
    if protocol_id == "sat_basis":
        a, b = instances.planted_sat_basis_instance(rng, field, m, n, d)
        return {"A": a, "B": b}
    if protocol_id == "unimod_completable":
        nn = rng.randrange(2, mmax + 1)
        mm = rng.randrange(1, nn)
        return {"A": instances.planted_unimodular_completable(rng, field, mm, nn, 1)}
    if protocol_id == "kernel_basis":
        mm = rng.randrange(1, mmax + 1)
        nn = rng.randrange(1, mmax + 1)
        a, b = instances.planted_kernel_instance(rng, field, mm, nn, d)
        return {"A": a, "B": b}
    raise ValueError(f"unknown protocol {protocol_id!r}")


@dataclass
class CompletenessReport:
    protocol_id: str
    trials: int
    rejections: int
    prover_gave_up: int

    @property
    def passed(self) -> bool:
        return self.rejections == 0 and self.prover_gave_up == 0

    def to_json_dict(self) -> dict:
        return {
            "kind": "completeness",
            "protocol": self.protocol_id,
            "trials": self.trials,
            "rejections": self.rejections,
            "prover_gave_up": self.prover_gave_up,
            "passed": self.passed,
        }


def run_completeness_experiment(
    protocol_id: str,
    trials: int = 100,
    seed: int = 0,
    p: int = 2**31 - 1,
    mmax: int = 8,
    dmax: int = 4,
    mode: str = MODE_INTERACTIVE,
) -> CompletenessReport:
    """Honest runs on random true instances at the advertised strict #S."""
    field = PrimeField(p)
    rng = random.Random(seed)
    rejections = 0
    gave_up = 0
    for trial in range(trials):
        pub = generate_true_instance(protocol_id, rng, field, mmax=mmax, dmax=dmax)
        sigma = min(p, max(2, strict_sigma(protocol_id, pub)))
        params = ProtocolParams(
            p=p, sigma=sigma, mode=mode, strict=True,
            seed=rng.randrange(2**62) if mode == MODE_INTERACTIVE else None,
        )
        try:
            verdict, _ = run_protocol(
                protocol_id, pub, params, prover_seed=rng.randrange(2**62)
            )
        except Exception as exc:  # ProverGaveUp or a genuine bug
            from .protocols import ProverGaveUp

            if isinstance(exc, ProverGaveUp):
                gave_up += 1
                continue
            raise
        if not verdict.accepted:
            rejections += 1
    return CompletenessReport(protocol_id, trials, rejections, gave_up)


# -- soundness ------------------------------------------------------------------------


@dataclass
class SoundnessReport:
    protocol_id: str
    instance_desc: str
    sigma: int
    trials: int
    accepts: int
    bound: float

    @property
    def rate(self) -> float:
        return self.accepts / self.trials if self.trials else 0.0

    @property
    def tolerance(self) -> float:
        b = min(self.bound, 1.0)
        return 3.0 * math.sqrt(b * (1.0 - b) / self.trials) if self.trials else 0.0

    @property
    def passed(self) -> bool:
        if self.bound >= 1.0:
            return True
        return self.rate <= self.bound + self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "kind": "soundness",
            "protocol": self.protocol_id,
            "instance": self.instance_desc,
            "sigma": self.sigma,
            "trials": self.trials,
            "accepts": self.accepts,
            "rate": self.rate,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def make_false_instance(protocol_id: str, rng: random.Random, field: PrimeField,
                        sigma: int):
    """(public, prover, theoretical bound, description) for a false statement."""
    p = field.p
    if protocol_id == "singularity":
        a = instances.rand_nonsingular(rng, field, 3, 2)
        bound = a.n * wdeg(a.deg) / sigma
        return {"A": a}, HonestProver(seed=1), bound, "nonsingular 3x3 deg 2"
    if protocol_id == "nonsingularity":
        a = instances.rand_singular(rng, field, 3, 2)
        return (
            {"A": a},
            adversary.CheatNonSingularity(a, seed=1),
            1.0 / sigma,
            "singular 3x3 deg 2",
        )
    if protocol_id == "rank_lb":
        a = instances.planted_rank(rng, field, 4, 4, 2, 2)
        pub = {"A": a, "rho": 3}
        return (
            pub,
            adversary.CheatRankLowerBound(a, 3, seed=1),
            1.0 / sigma,
            "rank-2 4x4, claimed 3",
        )
    if protocol_id == "rank_ub":
        a = instances.planted_rank(rng, field, 4, 4, 3, 2)
        r = rank_and_profile(a)[0]
        pub = {"A": a, "rho": 2}
        return (
            pub,
            adversary.CheatRankUpperBound(a, 2, seed=1),
            (r * wdeg(a.deg) + 1) / sigma,
            "rank-3 4x4, claimed 2",
        )
    if protocol_id == "determinant":
        a = instances.rand_nonsingular(rng, field, 3, 2)
        n, d = a.n, wdeg(a.deg)
        true_det = det_bareiss(a)
        offset = Poly.one(field)
        for i in range(min(n * d, sigma)):
            offset = offset * Poly(field, [(p - i) % p, 1])
        delta = true_det + offset
        assert delta != true_det
        return (
            {"A": a, "delta": delta},
            HonestProver(seed=1),
            (n * d + 1) / sigma,
            "det shifted by a polynomial vanishing on S-prefix",
        )
    if protocol_id == "system_solve":
        # A v = delta b stays true when v[i] moves along a zero column of A,
        # so draw again until A has a nonzero column i to perturb along
        pub = generate_true_instance("system_solve", rng, field, mmax=3, dmax=2)
        while pub["A"].is_zero():
            pub = generate_true_instance("system_solve", rng, field, mmax=3, dmax=2)
        a = pub["A"]
        v = list(pub["v"])
        i = rng.randrange(len(v))
        while all(row[i].is_zero() for row in a.rows):
            i = rng.randrange(len(v))
        v[i] = v[i] + Poly(field, [0, 1 + rng.randrange(p - 1)])
        pub = dict(pub, v=v)
        d = max(
            wdeg(pub["A"].deg), _row_wdeg(pub["b"]), _row_wdeg(pub["v"]),
            wdeg(pub["delta"].deg),
        )
        return pub, HonestProver(seed=1), 2 * d / sigma, "perturbed solution entry"
    if protocol_id == "matmul":
        a = instances.rand_polymat(rng, field, 3, 3, 2)
        b = instances.rand_polymat(rng, field, 3, 3, 2)
        c = a.mul(b)
        rows = [list(r) for r in c.rows]
        rows[rng.randrange(3)][rng.randrange(3)] += Poly(
            field, [rng.randrange(1, p), rng.randrange(1, p)]
        )
        cbad = PolyMat(field, rows, ncols=3)
        assert not cbad.sub(a.mul(b)).is_zero()
        bound = (wdeg(a.deg) + wdeg(b.deg) + 1) / sigma
        return (
            {"A": a, "B": b, "C": cbad},
            HonestProver(seed=1),
            bound,
            "one product entry perturbed",
        )
    if protocol_id == "field_det":
        b = instances.rand_field_mat(rng, field, 4, 4)
        beta = (det_field(b) + 1 + rng.randrange(p - 1)) % p
        if beta == det_field(b):
            beta = (beta + 1) % p
        return (
            {"B": b, "beta": beta},
            adversary.CheatFieldDeterminant(b, beta, seed=1),
            1.0 / sigma,
            "wrong field determinant",
        )
    if protocol_id == "frrsm":
        a, v = instances.planted_nonmember_rational(rng, field, 3, 4, 2)
        d = max(wdeg(a.deg), _row_wdeg(v))
        bound = (3 * a.m * wdeg(a.deg) + _row_wdeg(v) + 1) / sigma
        return (
            {"A": a, "v": v},
            adversary.CheatFullRankMembership(a, v, sigma=sigma, seed=1),
            bound,
            "rational non-polynomial solution",
        )
    if protocol_id == "coprime":
        x = Poly.x(field)
        fs = [x, x * x, x * x * x]
        d = max(wdeg(f.deg) for f in fs)
        return (
            {"f": fs},
            adversary.CheatCoprime(fs, sigma, seed=1),
            (2 * d - 1) / sigma,
            "(x, x^2, x^3): gcd x",
        )
    if protocol_id == "rsm":
        a, v = instances.planted_nonmember_rational(rng, field, 2, 3, 1)
        q = [instances.rand_poly(rng, field, 1) for _ in range(a.m)]
        row = [
            sum((q[i] * a.rows[i][j] for i in range(a.m)), Poly.zero(field))
            for j in range(a.n)
        ]
        a = a.stack(PolyMat(field, [row], ncols=a.n))
        r = rank_and_profile(a)[0]
        bound = (4 * r * wdeg(a.deg) + _row_wdeg(v) + 1) / sigma
        return (
            {"A": a, "v": v},
            adversary.CheatRowSpaceMembership(a, v, sigma, seed=1),
            bound,
            "rank-deficient, rational-only membership",
        )
    raise ValueError(f"no soundness experiment for {protocol_id!r}")


def run_soundness_experiment(
    protocol_id: str,
    trials: int = 2000,
    sigma: int = 64,
    seed: int = 0,
    p: int = 2**31 - 1,
) -> SoundnessReport:
    if trials < 100:
        raise ValueError("soundness experiments need at least 100 trials")
    field = PrimeField(p)
    rng = random.Random(seed)
    pub, prover, bound, desc = make_false_instance(protocol_id, rng, field, sigma)
    accepts = 0
    for trial in range(trials):
        params = ProtocolParams(
            p=p, sigma=sigma, mode=MODE_INTERACTIVE, strict=False,
            seed=rng.randrange(2**62),
        )
        verdict, _ = run_protocol(protocol_id, pub, params, prover=prover)
        if verdict.accepted:
            accepts += 1
    return SoundnessReport(protocol_id, desc, sigma, trials, accepts, bound)


SOUNDNESS_PROTOCOLS = (
    "singularity",
    "nonsingularity",
    "rank_lb",
    "rank_ub",
    "determinant",
    "system_solve",
    "matmul",
    "frrsm",
    "coprime",
    "rsm",
)
