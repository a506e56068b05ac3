"""The Prover and test side of every protocol, and the experiment harnesses.

PROVER_SPECS holds each protocol's instance generators, cheat and CLI
assembly; protocols.PROTOCOLS, which must not see the oracles used here,
holds its Verifier side.

Completeness: for each protocol, run honest provers on seeded random true
instances with the sample set sized exactly at the advertised lower bound
(which guarantees perfect completeness), and demand zero rejections.

Soundness: fix one false instance, run a best-effort cheating prover,
``adversary.Cheat``, against fresh verifier randomness for thousands of
trials, and compare the empirical acceptance rate against the theoretical
bound plus three binomial standard errors.  The tests check with the exact
oracles that every false instance is false.

Trials are embarrassingly parallel but run serially here for deterministic
reports; callers wanting fan-out can shard the seed range across workers
and sum the counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import adversary, instances
from .ff import PrimeField
from .matfield import det_field
from .oracles import (
    det_bareiss,
    hermite_h,
    kernel_basis_left,
    popov_form,
    rank_and_profile,
    saturation_basis,
)
from .polymat import PolyMat
from .protocols import (ProtocolParams, ProverGaveUp, protocol_spec, row_wdeg,
                        run_protocol, wdeg)
from .provers import HonestProver
from .transcript import MODE_INTERACTIVE
from .upoly import Poly


def strict_sigma(protocol_id: str, pub: dict) -> int:
    """The advertised lower bound on #S for completeness and 1/2-soundness:
    the protocol spec's formula, at the honest rank claim where it takes one."""
    spec = protocol_spec(protocol_id)
    if spec.claimed_rank_of is None:
        return spec.bound(pub)
    return spec.bound(pub, rank_and_profile(pub[spec.claimed_rank_of])[0])


# -- true-instance generators ----------------------------------------------------------
# Each takes the seeded rng and field, the size caps mmax and dmax, and the sizes
# generate_true_instance draws first (m, n, d, and sq for square matrices); it
# may draw more, and must keep its draw order so that seeded instances stay put.


def _true_singularity(rng, field, d, sq, **_):
    return {"A": instances.rand_singular(rng, field, sq, max(1, d))}


def _true_nonsingularity(rng, field, d, sq, **_):
    return {"A": instances.rand_nonsingular(rng, field, sq, d)}


def _true_rank_lb(rng, field, m, n, d, **_):
    a = instances.rand_polymat(rng, field, m, n, d)
    return {"A": a, "rho": rng.randint(0, rank_and_profile(a)[0])}


def _true_rank_ub(rng, field, m, n, d, **_):
    # rho >= min(m, n) is true of every A and sends nothing: when min(m, n)
    # allows it, plant a rank r below it and claim rho in [r, min(m, n))
    k = min(m, n)
    if k < 2:
        a = instances.rand_polymat(rng, field, m, n, d)
        return {"A": a, "rho": rng.randint(rank_and_profile(a)[0], k)}
    r = rng.randint(1, k - 1)
    a = instances.planted_rank(rng, field, m, n, r, d)
    return {"A": a, "rho": rng.randint(r, k - 1)}


def _true_rank(rng, field, m, n, d, **_):
    a = instances.rand_polymat(rng, field, m, n, d)
    return {"A": a, "rho": rank_and_profile(a)[0]}


def _true_determinant(rng, field, d, sq, **_):
    if rng.random() < 0.8:
        a = instances.rand_polymat(rng, field, sq, sq, d)
    else:
        a = instances.rand_singular(rng, field, sq, max(1, d))
    return {"A": a, "delta": det_bareiss(a)}


def _true_field_det(rng, field, sq, **_):
    b = instances.rand_field_mat(rng, field, sq, sq)
    return {"B": b, "beta": det_field(b)}


def _true_system_solve(rng, field, m, n, d, **_):
    a = instances.rand_polymat(rng, field, m, n, d)
    v0 = instances.rand_poly_row(rng, field, n, d)
    delta = instances.rand_poly(rng, field, d, nonzero=True)
    b = a.transpose().vecmat(v0)  # A v0 as a row
    return {"A": a, "b": b, "v": [delta * f for f in v0], "delta": delta}


def _true_matmul(rng, field, mmax, m, n, d, **_):
    k = rng.randrange(1, mmax + 1)
    a = instances.rand_polymat(rng, field, m, k, d)
    b = instances.rand_polymat(rng, field, k, n, d)
    return {"A": a, "B": b, "C": a.mul(b)}


def _true_inverse(rng, field, sq, **_):
    u, uinv = instances.rand_unimodular_with_inverse(rng, field, sq, dmax=1)
    return {"A": u, "B": uinv}


def _true_frrsm(rng, field, mmax, d, **_):
    mm = rng.randrange(1, mmax + 1)
    nn = rng.randrange(mm, mmax + 1)
    while True:
        a = instances.rand_polymat(rng, field, mm, nn, d)
        if rank_and_profile(a)[0] == mm:
            break
    q = [instances.rand_poly(rng, field, 2) for _ in range(mm)]
    return {"A": a, "v": a.vecmat(q)}


def _true_coprime(rng, field, d, **_):
    t = rng.randrange(1, 5)
    return {"f": instances.rand_coprime_family(rng, field, t, max(1, d))}


def _true_rsm(rng, field, mmax, n, d, **_):
    base_m = rng.randrange(1, max(2, mmax - 1))
    a = instances.rand_polymat(rng, field, base_m, n, d)
    for _ in range(rng.randrange(0, 3)):
        q = [instances.rand_poly(rng, field, 1) for _ in range(a.m)]
        a = a.stack(PolyMat(field, [a.vecmat(q)], ncols=n))
    q = [instances.rand_poly(rng, field, 2) for _ in range(a.m)]
    return {"A": a, "v": a.vecmat(q)}


def _true_rs_subset(rng, field, mmax, m, n, d, **_):
    lm = rng.randrange(1, mmax + 1)
    b = instances.rand_polymat(rng, field, lm, n, d)
    t = instances.rand_polymat(rng, field, m, lm, 1)
    return {"A": t.mul(b), "B": b}


def _true_rs_equality(rng, field, m, n, d, **_):
    b = instances.rand_polymat(rng, field, m, n, d)
    if rng.random() < 0.5:
        u = instances.rand_unimodular(rng, field, m, dmax=1)
        return {"A": u.mul(b), "B": b}
    t = instances.rand_polymat(rng, field, rng.randrange(1, 3), m, 1)
    return {"A": b.stack(t.mul(b)), "B": b}


def _true_row_basis(rng, field, mmax, dmax, m, n, d, **_):
    a = instances.rand_polymat(rng, field, m, n, d)
    h = hermite_h(a)
    if h.m == 0:
        return generate_true_instance("row_basis", rng, field, mmax, dmax)
    return {"A": a, "B": h}


def _true_hermite(rng, field, m, n, d, **_):
    while True:
        a = instances.rand_polymat(rng, field, m, n, d)
        h = hermite_h(a)
        if h.m:
            return {"A": a, "H": h}


def _true_spopov(rng, field, m, n, d, **_):
    shift = [rng.randrange(-2, 3) for _ in range(n)]
    while True:
        a = instances.rand_polymat(rng, field, m, n, d)
        pm = popov_form(a, shift)
        if pm.m:
            return {"A": a, "shift": shift, "P": pm}


def _true_saturated(rng, field, mmax, d, **_):
    if rng.random() < 0.5:
        mm = rng.randrange(1, mmax + 1)
        nn = rng.randrange(mm, mmax + 1)
        return {"A": instances.planted_saturated(rng, field, mm, nn, d)}
    nn = rng.randrange(1, max(2, mmax // 2))
    mm = rng.randrange(nn + 1, nn + 3)
    return {"A": instances.planted_full_col_rank_saturated(rng, field, mm, nn, 1)}


def _true_sat_basis(rng, field, m, n, d, **_):
    while True:
        a = instances.rand_polymat(rng, field, m, n, d)
        b = saturation_basis(a)
        if b.m:
            return {"A": a, "B": b}


def _true_unimod_completable(rng, field, mmax, **_):
    nn = rng.randrange(2, mmax + 1)
    mm = rng.randrange(1, nn)
    return {"A": instances.planted_unimodular_completable(rng, field, mm, nn, 1)}


def _true_kernel_basis(rng, field, mmax, d, **_):
    mm = rng.randrange(1, mmax + 1)
    nn = rng.randrange(1, mmax + 1)
    r = rng.randrange(1, min(mm, nn) + 1)
    a = instances.planted_rank(rng, field, mm, nn, r, d)
    return {"A": a, "B": kernel_basis_left(a)}


# -- false instances and their cheats ----------------------------------------------------
# Each takes (rng, field, sigma) and returns (public inputs, prover, theoretical
# acceptance bound c/#S, description).  The prover is adversary.Cheat(sigma)
# where the protocol has a tactic, else the HonestProver.


def _false_singularity(rng, field, sigma):
    a = instances.rand_nonsingular(rng, field, 3, 2)
    bound = a.n * wdeg(a.deg) / sigma
    return {"A": a}, HonestProver(seed=1), bound, "nonsingular 3x3 deg 2"


def _false_nonsingularity(rng, field, sigma):
    a = instances.rand_singular(rng, field, 3, 2)
    return {"A": a}, adversary.Cheat(sigma, seed=1), 1.0 / sigma, "singular 3x3 deg 2"


def _false_rank_lb(rng, field, sigma):
    a = instances.planted_rank(rng, field, 4, 4, 2, 2)
    return ({"A": a, "rho": 3}, adversary.Cheat(sigma, seed=1), 1.0 / sigma,
            "rank-2 4x4, claimed 3")


def _false_rank_ub(rng, field, sigma):
    a = instances.planted_rank(rng, field, 4, 4, 3, 2)
    bound = (rank_and_profile(a)[0] * wdeg(a.deg) + 1) / sigma
    return {"A": a, "rho": 2}, adversary.Cheat(sigma, seed=1), bound, "rank-3 4x4, claimed 2"


def _false_determinant(rng, field, sigma):
    p = field.p
    a = instances.rand_nonsingular(rng, field, 3, 2)
    n, d = a.n, wdeg(a.deg)
    true_det = det_bareiss(a)
    offset = Poly.one(field)
    for i in range(min(n * d, sigma)):
        offset = offset * Poly(field, [(p - i) % p, 1])
    delta = true_det + offset
    assert delta != true_det
    return ({"A": a, "delta": delta}, HonestProver(seed=1), (n * d + 1) / sigma,
            "det shifted by a polynomial vanishing on S-prefix")


def _false_system_solve(rng, field, sigma):
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
    v[i] = v[i] + Poly(field, [0, 1 + rng.randrange(field.p - 1)])
    pub = dict(pub, v=v)
    d = max(
        wdeg(pub["A"].deg), row_wdeg(pub["b"]), row_wdeg(pub["v"]),
        wdeg(pub["delta"].deg),
    )
    return pub, HonestProver(seed=1), 2 * d / sigma, "perturbed solution entry"


def _false_matmul(rng, field, sigma):
    p = field.p
    a = instances.rand_polymat(rng, field, 3, 3, 2)
    b = instances.rand_polymat(rng, field, 3, 3, 2)
    c = a.mul(b)
    rows = [list(r) for r in c.rows]
    rows[rng.randrange(3)][rng.randrange(3)] += Poly(
        field, [rng.randrange(1, p), rng.randrange(1, p)]
    )
    cbad = PolyMat(field, rows, ncols=3)
    assert cbad != c
    bound = (wdeg(a.deg) + wdeg(b.deg) + 1) / sigma
    return ({"A": a, "B": b, "C": cbad}, HonestProver(seed=1), bound,
            "one product entry perturbed")


def _false_field_det(rng, field, sigma):
    p = field.p
    b = instances.rand_field_mat(rng, field, 4, 4)
    beta = (det_field(b) + 1 + rng.randrange(p - 1)) % p
    if beta == det_field(b):
        beta = (beta + 1) % p
    return ({"B": b, "beta": beta}, adversary.Cheat(sigma, seed=1), 1.0 / sigma,
            "wrong field determinant")


def _false_frrsm(rng, field, sigma):
    a, v = instances.planted_nonmember_rational(rng, field, 3, 4, 2)
    bound = (3 * a.m * wdeg(a.deg) + row_wdeg(v) + 1) / sigma
    return ({"A": a, "v": v}, adversary.Cheat(sigma, seed=1), bound,
            "rational non-polynomial solution")


def _false_coprime(rng, field, sigma):
    x = Poly.x(field)
    fs = [x, x * x, x * x * x]
    bound = (2 * row_wdeg(fs) - 1) / sigma
    return {"f": fs}, adversary.Cheat(sigma, seed=1), bound, "(x, x^2, x^3): gcd x"


def _false_rsm(rng, field, sigma):
    a, v = instances.planted_nonmember_rational(rng, field, 2, 3, 1)
    q = [instances.rand_poly(rng, field, 1) for _ in range(a.m)]
    a = a.stack(PolyMat(field, [a.vecmat(q)], ncols=a.n))
    r = rank_and_profile(a)[0]
    bound = (4 * r * wdeg(a.deg) + row_wdeg(v) + 1) / sigma
    return ({"A": a, "v": v}, adversary.Cheat(sigma, seed=1), bound,
            "rank-deficient, rational-only membership")


# -- public inputs from an instance file, for the CLI ------------------------------------


class AssemblyError(ValueError):
    """An instance file lacks what a protocol's public inputs are built from."""


def _a(objects) -> PolyMat:
    a = objects.get("A")
    if not isinstance(a, PolyMat):
        raise AssemblyError("instance has no matrix A")
    return a


def _a_with(name, certify):
    """Assemble the file's A and the object certify(A) the Prover computes."""
    def assemble(objects):
        a = _a(objects)
        return {"A": a, name: certify(a)}
    return assemble


def _assemble_a(objects):
    return {"A": _a(objects)}


def _square_det(a):
    if a.m != a.n:
        raise AssemblyError("needs a square matrix A")
    return det_bareiss(a)


def _assemble_matmul(objects):
    a, b = _a(objects), objects.get("B")
    if not isinstance(b, PolyMat) or b.m != a.n:
        raise AssemblyError("needs B with as many rows as A has columns")
    return {"A": a, "B": b, "C": a.mul(b)}


def _assemble_membership(objects):
    a, v = _a(objects), objects.get("v")
    if not isinstance(v, list):
        raise AssemblyError("needs the vector v of a planted-membership instance")
    return {"A": a, "v": v}


def _a_and_b(objects):
    a, b = _a(objects), objects.get("B")
    if not isinstance(b, PolyMat) or b.n != a.n:
        raise AssemblyError("needs B with as many columns as A")
    return a, b


def _assemble_rs_subset(objects):
    # the stack [B; A] contains both row spaces, so the statement is true
    a, b = _a_and_b(objects)
    return {"A": b, "B": b.stack(a)}


def _assemble_rs_equality(objects):
    a, b = _a_and_b(objects)
    return {"A": a.stack(b), "B": b.stack(a)}


def _assemble_hermite(objects):
    a, h = _a(objects), objects.get("H")
    return {"A": a, "H": h if isinstance(h, PolyMat) else hermite_h(a)}


def _assemble_spopov(objects):
    a = _a(objects)
    shift = [0] * a.n
    return {"A": a, "shift": shift, "P": popov_form(a, shift)}


# -- the table ---------------------------------------------------------------------------


class ProverSpec(NamedTuple):
    """The Prover and test side of one protocol; protocols.PROTOCOLS holds
    its Verifier side.  None marks a protocol without a false instance, or
    one the CLI cannot build from an instance file."""

    true_instance: Callable           # the generators above
    false_instance: Callable | None   # see "false instances and their cheats"
    assemble: Callable | None         # instance-file objects -> public inputs


_assemble_rank = _a_with("rho", lambda a: rank_and_profile(a)[0])

PROVER_SPECS = {
    "singularity": ProverSpec(_true_singularity, _false_singularity, _assemble_a),
    "nonsingularity": ProverSpec(_true_nonsingularity, _false_nonsingularity,
                                 _assemble_a),
    "rank_lb": ProverSpec(_true_rank_lb, _false_rank_lb, _assemble_rank),
    "rank_ub": ProverSpec(_true_rank_ub, _false_rank_ub, _assemble_rank),
    "rank": ProverSpec(_true_rank, None, _assemble_rank),
    "determinant": ProverSpec(_true_determinant, _false_determinant,
                              _a_with("delta", _square_det)),
    "field_det": ProverSpec(_true_field_det, _false_field_det, None),
    "system_solve": ProverSpec(_true_system_solve, _false_system_solve, None),
    "matmul": ProverSpec(_true_matmul, _false_matmul, _assemble_matmul),
    "inverse": ProverSpec(_true_inverse, None, None),
    "frrsm": ProverSpec(_true_frrsm, _false_frrsm, _assemble_membership),
    "coprime": ProverSpec(_true_coprime, _false_coprime, None),
    "rsm": ProverSpec(_true_rsm, _false_rsm, _assemble_membership),
    "rs_subset": ProverSpec(_true_rs_subset, None, _assemble_rs_subset),
    "rs_equality": ProverSpec(_true_rs_equality, None, _assemble_rs_equality),
    "row_basis": ProverSpec(_true_row_basis, None,
                            _a_with("B", hermite_h)),
    "hermite": ProverSpec(_true_hermite, None, _assemble_hermite),
    "spopov": ProverSpec(_true_spopov, None, _assemble_spopov),
    "saturated": ProverSpec(_true_saturated, None, _assemble_a),
    "sat_basis": ProverSpec(_true_sat_basis, None, _a_with("B", saturation_basis)),
    "unimod_completable": ProverSpec(_true_unimod_completable, None, _assemble_a),
    "kernel_basis": ProverSpec(_true_kernel_basis, None, _a_with("B", kernel_basis_left)),
}


def _prover_spec(protocol_id: str) -> ProverSpec:
    spec = PROVER_SPECS.get(protocol_id)
    if spec is None:
        raise ValueError(f"unknown protocol {protocol_id!r}")
    return spec


def generate_true_instance(protocol_id: str, rng: random.Random, field: PrimeField,
                           mmax: int = 8, dmax: int = 4) -> dict:
    """A seeded random true instance for the protocol, oracle-verified."""
    make = _prover_spec(protocol_id).true_instance
    m = rng.randrange(1, mmax + 1)
    n = rng.randrange(1, mmax + 1)
    d = rng.randrange(0, dmax + 1)
    sq = max(2, rng.randrange(2, mmax + 1))
    return make(rng=rng, field=field, mmax=mmax, dmax=dmax, m=m, n=n, d=d, sq=sq)


def make_false_instance(protocol_id: str, rng: random.Random, field: PrimeField,
                        sigma: int):
    """(public, prover, theoretical bound, description) for a false statement."""
    make = _prover_spec(protocol_id).false_instance
    if make is None:
        raise ValueError(f"no soundness experiment for {protocol_id!r}")
    return make(rng, field, sigma)


def assemble_public_inputs(protocol_id: str, objects: dict) -> dict:
    """Public inputs from an instance file's objects, the certified object
    computed by the Prover's oracle; AssemblyError when the file does not fit."""
    assemble = _prover_spec(protocol_id).assemble
    if assemble is None:
        supported = ", ".join(pid for pid, s in PROVER_SPECS.items() if s.assemble)
        raise AssemblyError(
            f"cannot be assembled from an instance file; supported: {supported}"
        )
    return assemble(objects)


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
        except ProverGaveUp:
            gave_up += 1
            continue
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


# The soundness suite (`polycert experiment --suite soundness`, the acceptance
# criteria and the benchmark's soundness workload).  A single-protocol
# experiment runs any protocol whose ProverSpec has a false instance;
# field_det has one but stays out of this list, because the benchmark's
# soundness workload derives from it and field_det's 28-element exchanges
# would raise that workload's communication by about 10 %.
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
