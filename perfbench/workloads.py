"""The three workloads: certify, reverify and soundness.

Each workload builds its operation list from the seed in ``setup``, runs one
operation per ``op`` call, folds every result into its tallies in
``observe``, and checks the outputs in ``check`` after the timed loop.  The
library is driven only through its public functions.
"""

from __future__ import annotations

import json
import math
import os
import random

from polycert import PROTOCOL_IDS, Poly, Transcript, run_protocol, verify_transcript
from polycert import instances as I
from polycert import oracles as O
from polycert.experiments import SOUNDNESS_PROTOCOLS, make_false_instance
from polycert.ff import DEFAULT_MODULUS, PrimeField
from polycert.matfield import det_field
from polycert.transcript import (MODE_FIAT_SHAMIR, MODE_INTERACTIVE, ProtocolParams,
                                 TranscriptError)

import checks as C

FIELD = PrimeField(DEFAULT_MODULUS)
P = FIELD.p
# what `polycert prove` uses by default: #S = p, strict, Fiat-Shamir
PROVE_PARAMS = ProtocolParams(p=P, sigma=P, mode=MODE_FIAT_SHAMIR, strict=True)

# (rows, columns, degree) of each certify protocol; square protocols use rows
CERTIFY_SIZES = {
    "determinant": (8, 8, 4),
    "rank": (8, 10, 4),
    "rsm": (8, 10, 4),
    "rs_equality": (6, 8, 3),
    "hermite": (4, 6, 3),
    "spopov": (6, 8, 3),
    "kernel_basis": (6, 4, 3),
    "sat_basis": (5, 7, 3),
    "matmul": (8, 8, 6),
}
CERTIFY_INSTANCES = 3
REVERIFY_SIZE = (5, 6, 3)
REVERIFY_SIZES = {"hermite": (4, 5, 2), "row_basis": (4, 5, 2), "kernel_basis": (6, 4, 2),
                  "sat_basis": (4, 6, 2)}
# system_solve is left out: make_false_instance perturbs an entry of v that
# meets a zero column of A in about a fifth of seeds, and the "false"
# statement is then true and accepted every time
SOUNDNESS_CASES = tuple(p for p in SOUNDNESS_PROTOCOLS if p != "system_solve")
SOUNDNESS_SIGMAS = (32, 64)
SOUNDNESS_INSTANCES = 4            # false instances per protocol and #S
SOUNDNESS_TRIALS_PER_PASS = 3      # per instance


# -- instances ----------------------------------------------------------------------


def draw_inputs(pid, rng, m, n, d) -> dict:
    """Seeded inputs of a true statement, before its certified object exists."""
    def rand(r, c, deg=d):
        return I.rand_polymat(rng, FIELD, r, c, deg)

    if pid == "singularity":
        return {"A": I.rand_singular(rng, FIELD, m, d)}
    if pid == "nonsingularity":
        return {"A": I.rand_nonsingular(rng, FIELD, m, d)}
    if pid in ("rank", "rank_lb", "rank_ub"):
        return {"A": I.planted_rank(rng, FIELD, m, n, min(m, n) - 2, d)}
    if pid == "determinant":
        return {"A": rand(m, m)}
    if pid in ("hermite", "row_basis", "sat_basis", "kernel_basis"):
        return {"A": rand(m, n)}
    if pid == "spopov":
        return {"A": rand(m, n), "shift": [0] * n}
    if pid == "field_det":
        return {"B": I.rand_field_mat(rng, FIELD, m, m)}
    if pid == "matmul":
        return {"A": rand(m, n), "B": rand(n, m)}
    if pid == "inverse":
        a, b = I.rand_unimodular_with_inverse(rng, FIELD, m, dmax=1)
        return {"A": a, "B": b}
    if pid == "system_solve":
        a = rand(m, n)
        v0 = I.rand_poly_row(rng, FIELD, n, d)
        delta = I.rand_poly(rng, FIELD, d, nonzero=True)
        b = [sum((a.rows[i][j] * v0[j] for j in range(n)), Poly.zero(FIELD))
             for i in range(m)]
        return {"A": a, "b": b, "v": [delta * f for f in v0], "delta": delta}
    if pid in ("rsm", "frrsm"):
        a, v, q = I.planted_member(rng, FIELD, m, n, d)
        return {"A": a, "v": v, "q": q}
    if pid == "coprime":
        return {"f": I.rand_coprime_family(rng, FIELD, 3, d)}
    if pid == "rs_subset":
        b = rand(m, n)
        return {"A": rand(m + 1, m, 1).mul(b), "B": b}
    if pid == "rs_equality":
        b = rand(m, n)
        return {"A": I.rand_unimodular(rng, FIELD, m, dmax=1).mul(b), "B": b}
    if pid == "saturated":
        return {"A": I.planted_saturated(rng, FIELD, m, n, d)}
    if pid == "unimod_completable":
        return {"A": I.planted_unimodular_completable(rng, FIELD, m, n, 1)}
    raise ValueError(f"no inputs for {pid!r}")


def certify_inputs(pid, raw):
    """(public inputs, witness) with the certified object computed the way
    `polycert prove` computes it, by the Prover-side oracle."""
    a = raw.get("A")
    if pid == "determinant":
        return {"A": a, "delta": O.det_bareiss(a)}, None
    if pid in ("rank", "rank_lb", "rank_ub"):
        return {"A": a, "rho": O.rank_and_profile(a)[0]}, None
    if pid == "field_det":
        return {"B": raw["B"], "beta": det_field(raw["B"])}, None
    if pid == "matmul":
        return {"A": a, "B": raw["B"], "C": a.mul(raw["B"])}, None
    if pid in ("hermite", "row_basis"):
        h, u = O.hermite_form(a)
        return {"A": a, ("H" if pid == "hermite" else "B"): h}, u
    if pid == "spopov":
        return {"A": a, "shift": raw["shift"], "P": O.popov_form(a, raw["shift"])}, None
    if pid == "kernel_basis":
        return {"A": a, "B": O.kernel_basis_left(a)}, None
    if pid == "sat_basis":
        return {"A": a, "B": O.saturation_basis(a)}, None
    return {k: v for k, v in raw.items() if k != "q"}, raw.get("q")


def check_certified(pid, pub, witness, rng) -> bool:
    """The independent check of one true statement's certified object."""
    a = pub.get("A")
    if pid == "singularity":
        return C.rank_below_everywhere(a, a.n, P, rng)
    if pid == "nonsingularity":
        return C.check_rank(a, a.n, P, rng)
    if pid in ("rank", "rank_lb", "rank_ub"):
        return C.check_rank(a, pub["rho"], P, rng)
    if pid == "determinant":
        return C.check_det(a, pub["delta"], P, rng)
    if pid == "field_det":
        return C.det_mod(pub["B"].rows, P) == pub["beta"]
    if pid == "system_solve":
        return C.check_solve(a, pub["b"], pub["v"], pub["delta"], P, rng)
    if pid == "matmul":
        return C.check_matmul(a, pub["B"], pub["C"], P, rng)
    if pid == "inverse":
        x = C.points(rng, P, 1)[0]
        prod = C.matmul_mod(C.eval_entries(a.rows, x, P), C.eval_entries(pub["B"].rows, x, P), P)
        return prod == [[int(i == j) for j in range(a.m)] for i in range(a.m)]
    if pid in ("rsm", "frrsm"):
        return C.check_combination(a, pub["v"], witness, P, rng)
    if pid == "coprime":
        return C.poly_gcd_degree(pub["f"], P) == 0
    if pid == "rs_subset":
        return C.rows_within_at(pub["B"], a, P, rng)
    if pid == "rs_equality":
        return C.same_row_space_at(a, pub["B"], P, rng)
    if pid == "row_basis":
        b = pub["B"]
        return C.hermite_shape(b) and C.check_basis_of_saturation(a, b, P, rng)
    if pid == "hermite":
        return C.check_hermite(a, pub["H"], witness, P, rng)
    if pid == "spopov":
        return C.check_popov(a, pub["shift"], pub["P"], P, rng)
    if pid == "saturated":
        return C.check_rank(a, min(a.m, a.n), P, rng)
    if pid == "sat_basis":
        b = pub["B"]
        return C.popov_shape(b, [0] * b.n) and C.check_basis_of_saturation(a, b, P, rng)
    if pid == "unimod_completable":
        return C.check_rank(a, a.m, P, rng)
    if pid == "kernel_basis":
        return C.check_kernel(a, pub["B"], P, rng)
    raise ValueError(f"no check for {pid!r}")


def statement_is_false(pid, pub, rng):
    """Show a soundness statement false by evaluation; None where evaluation
    cannot (a row that is a rational but not a polynomial combination looks
    like a member at every point)."""
    a = pub.get("A")
    if pid == "singularity":
        return C.check_rank(a, a.n, P, rng)
    if pid == "nonsingularity":
        return C.rank_below_everywhere(a, a.n, P, rng)
    if pid == "rank_lb":
        return C.rank_below_everywhere(a, pub["rho"], P, rng)
    if pid == "rank_ub":
        x = C.points(rng, P, 1)[0]
        return C.rank_mod(C.eval_entries(a.rows, x, P), P) > pub["rho"]
    if pid == "determinant":
        return not C.check_det(a, pub["delta"], P, rng)
    if pid == "matmul":
        return not C.check_matmul(a, pub["B"], pub["C"], P, rng)
    if pid == "coprime":
        return C.poly_gcd_degree(pub["f"], P) > 0
    return None


def _save(transcript, path) -> bytes:
    transcript.save(path)
    with open(path, "rb") as fh:
        return fh.read()


def _bump(payload) -> bool:
    """Add one (mod p) to the first field element of a JSON payload."""
    for key in ("value", "values", "coeffs", "polys", "entries"):
        holder, index = payload, key
        val = payload.get(key)
        while isinstance(val, list):
            holder, index = val, next((i for i, e in enumerate(val) if e != []), None)
            if index is None:
                break
            val = val[index]
        if isinstance(val, str):
            holder[index] = str((int(val) + 1) % P)
            return True
    return False


def _reverify(raw: bytes):
    """Parse, load and verify saved certificate bytes offline."""
    try:
        t = Transcript.from_json_dict(json.loads(raw))
    except TranscriptError as exc:
        return exc
    return verify_transcript(t)


# -- workloads ------------------------------------------------------------------------


class Workload:
    """Shared tallies; subclasses define setup, op, observe and check."""

    # set-ups per run, for the median: a light set-up is sampled more often
    setup_repeats = 15

    def __init__(self, out_dir, seed):
        self.seed = seed
        self.path = os.path.join(out_dir, f"{self.name}-cert.json")

    def reset(self):
        self.problems = []
        self.comm_total = 0
        self.exchanges = 0
        self.first_pass = []

    def comm_elems(self) -> float:
        return self.comm_total / self.exchanges

    def rng(self, *key):
        return random.Random(":".join(str(k) for k in (self.name, self.seed) + key))


class Certify(Workload):
    """Mirrors `polycert prove`: compute the certified object with the
    oracle, run the Fiat-Shamir exchange, save the transcript."""

    name = "certify"

    def setup(self):
        self.items = [
            (pid, draw_inputs(pid, self.rng(pid, k), *CERTIFY_SIZES[pid]))
            for pid in CERTIFY_SIZES for k in range(CERTIFY_INSTANCES)
        ]
        return self.items

    def reset(self):
        super().reset()
        self.sizes = 0

    def op(self, item):
        pid, raw = item
        pub, witness = certify_inputs(pid, raw)
        verdict, t = run_protocol(pid, pub, PROVE_PARAMS)
        t.meta["prover_seed"] = 0
        t.save(self.path)
        return pub, witness, verdict, t

    def observe(self, i, out, err, first):
        if err is not None:
            self.problems.append(f"{self.items[i][0]}: {type(err).__name__}: {err}")
            return
        pub, witness, verdict, t = out
        if not verdict.accepted:
            self.problems.append(f"{self.items[i][0]}: honest proof rejected ({verdict})")
        self.comm_total += t.meta["communication"]
        self.exchanges += 1
        self.sizes += os.path.getsize(self.path)
        if first:
            with open(self.path, "rb") as fh:
                self.first_pass.append((self.items[i][0], pub, witness, verdict, fh.read()))

    def cert_bytes(self) -> float:
        return self.sizes / self.exchanges

    def check(self):
        rng = self.rng("check")
        for pid, pub, witness, verdict, raw in self.first_pass:
            again = _reverify(raw)
            if again != verdict:
                self.problems.append(f"{pid}: offline re-verify gave {again}")
            if not check_certified(pid, pub, witness, rng):
                self.problems.append(f"{pid}: certified object fails the independent check")
        return self.problems


class Reverify(Workload):
    """The offline Verifier on saved certificates of every protocol: honest
    ones, tampered copies with a recomputed digest, and two malformed kinds
    that the program fails on today."""

    name = "reverify"
    setup_repeats = 5
    # malformed kind -> the exception it leaks today
    EXPECTED_FAULTS = {"rank_claim": "OverflowError", "poly_matrix": "StopIteration"}

    def setup(self):
        honest, tampered, self.truths = [], [], []
        for pid in PROTOCOL_IDS:
            size = REVERIFY_SIZES.get(pid, REVERIFY_SIZE)
            pub, witness = certify_inputs(pid, draw_inputs(pid, self.rng(pid), *size))
            verdict, t = run_protocol(pid, pub, PROVE_PARAMS)
            raw = _save(t, self.path)
            honest.append(("honest", pid, raw))
            tampered.append(("tampered", pid, self._tamper(raw)))
            self.truths.append((pid, pub, witness))
        self.items = honest + tampered + self._malformed()
        docs = [json.loads(raw) for _, _, raw in self.items]
        self.comm = sum(d["meta"]["communication"] for d in docs) / len(docs)
        self.bytes = sum(len(raw) for _, _, raw in self.items) / len(self.items)
        return self.items

    def _tamper(self, raw: bytes) -> bytes:
        """Add one to the first field element the Prover sent before the last
        challenge, or, where it sent none, to the first public input; then
        recompute the digest.  Every later challenge is then re-derived from
        different bytes, so the Verifier's own replay must reject it.  A
        change after the last challenge can leave a valid proof (a kernel
        vector plus a vector of that same kernel)."""
        doc = json.loads(raw)
        msgs = doc["messages"]
        challenges = [i for i, m in enumerate(msgs)
                      if m["sender"] == "V" and m["payload"]["kind"] != "bool"]
        before = msgs[:challenges[-1]] if challenges else []
        if not any(_bump(m["payload"]) for m in before if m["sender"] == "P"):
            any(_bump(doc["public"][k]) for k in sorted(doc["public"]))
        doc["digest"] = None
        return _save(Transcript.from_json_dict(doc), self.path)

    def _malformed(self):
        """The two malformed kinds, built from fixed inputs, not from the seed."""
        rng = random.Random("reverify:malformed")
        pub, _ = certify_inputs("rank", draw_inputs("rank", rng, 4, 5, 2))
        doc = json.loads(_save(run_protocol("rank", pub, PROVE_PARAMS)[1], self.path))
        negative = json.loads(json.dumps(doc))
        negative["public"]["rho"]["value"] = -1          # digest kept
        ragged = json.loads(json.dumps(doc))
        ragged["public"]["A"]["m"] += 1                  # m disagrees with entries
        del ragged["digest"]
        return [("malformed", kind, (json.dumps(d, indent=1, sort_keys=True) + "\n").encode())
                for kind, d in (("rank_claim", negative), ("poly_matrix", ragged))]

    def op(self, item):
        return _reverify(item[2])

    def observe(self, i, out, err, first):
        kind, pid, _ = self.items[i]
        if err is not None:
            if self.EXPECTED_FAULTS.get(pid) != type(err).__name__ or kind != "malformed":
                self.problems.append(f"{kind} {pid}: {type(err).__name__}: {err}")
            return
        accepted = getattr(out, "accepted", False)
        if kind == "honest" and not accepted:
            self.problems.append(f"honest {pid} certificate rejected: {out}")
        if kind == "tampered" and (accepted or isinstance(out, TranscriptError)):
            self.problems.append(f"tampered {pid} certificate not rejected by the Verifier: {out}")
        if kind == "malformed" and accepted:
            self.problems.append(f"malformed {pid} certificate accepted")

    def comm_elems(self) -> float:
        return self.comm

    def cert_bytes(self) -> float:
        return self.bytes

    def check(self):
        rng = self.rng("check")
        for pid, pub, witness in self.truths:
            if not check_certified(pid, pub, witness, rng):
                self.problems.append(f"{pid}: certified object fails the independent check")
        return self.problems


class Soundness(Workload):
    """Cheating exchanges on false statements, driven the way
    run_soundness_experiment drives them: interactive mode, a fresh verifier
    seed per trial, one operation per exchange."""

    name = "soundness"

    def setup(self):
        self.cases = []
        for pid in SOUNDNESS_CASES:
            for sigma in SOUNDNESS_SIGMAS:
                for k in range(SOUNDNESS_INSTANCES):
                    rng = self.rng(pid, sigma, k)
                    pub, prover, bound, _ = make_false_instance(pid, rng, FIELD, sigma)
                    self.cases.append({"pid": pid, "sigma": sigma, "pub": pub,
                                       "prover": prover, "bound": bound, "rng": rng})
        self.items = [c for c in self.cases for _ in range(SOUNDNESS_TRIALS_PER_PASS)]
        return self.items

    def reset(self):
        super().reset()
        for c in self.cases:
            c["trials"] = c["accepts"] = 0

    def op(self, c):
        params = ProtocolParams(p=P, sigma=c["sigma"], mode=MODE_INTERACTIVE, strict=False,
                                seed=c["rng"].randrange(2**62))
        return run_protocol(c["pid"], c["pub"], params, prover=c["prover"])

    def observe(self, i, out, err, first):
        c = self.items[i]
        if err is not None:
            self.problems.append(f"{c['pid']}: {type(err).__name__}: {err}")
            return
        verdict, t = out
        c["trials"] += 1
        c["accepts"] += verdict.accepted
        self.comm_total += t.meta["communication"]
        self.exchanges += 1
        if first:
            self.first_pass.append((c["pid"], verdict, t))

    def cert_bytes(self) -> float:
        sizes = [len(_save(t, self.path)) for _, _, t in self.first_pass]
        return sum(sizes) / len(sizes)

    def check(self):
        for pid, verdict, t in self.first_pass:
            again = _reverify(_save(t, self.path))
            if again != verdict:
                self.problems.append(f"{pid}: offline re-verify gave {again}, live {verdict}")
        rng = self.rng("check")
        pooled = {}
        for c in self.cases:
            if statement_is_false(c["pid"], c["pub"], rng) is False:
                self.problems.append(f"{c['pid']}: the false statement checks out as true")
            n, a, b = pooled.get((c["pid"], c["sigma"]), (0, 0, 0.0))
            pooled[(c["pid"], c["sigma"])] = (n + c["trials"], a + c["accepts"],
                                              b + c["trials"] * min(c["bound"], 1.0))
        # pooled over the instances: the bound is their trial-weighted mean
        for (pid, sigma), (n, a, b) in pooled.items():
            b /= n
            tol = 3 * math.sqrt(b * (1 - b) / n)
            if a / n > b + tol:
                self.problems.append(
                    f"{pid} sigma {sigma}: acceptance {a / n:.4f} > bound {b:.4f} + {tol:.4f}")
        return self.problems


WORKLOADS = {w.name: w for w in (Certify, Reverify, Soundness)}
