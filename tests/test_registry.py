"""The protocol registry: both tables cover the same ids, and every
protocol's transcripts stay bit-identical on seeded true instances."""

import hashlib
import random

from polycert import PROTOCOL_IDS
from polycert.experiments import PROVER_SPECS, SOUNDNESS_PROTOCOLS, generate_true_instance
from polycert.ff import PrimeField
from polycert.protocols import PROTOCOLS, ProverGaveUp, run_protocol
from polycert.provers import HonestProver
from polycert.transcript import MODE_FIAT_SHAMIR, ProtocolParams

# sha256 over the digest and verdict of every protocol's Fiat-Shamir run on
# generate_true_instance inputs (seeds 0 and 1, mmax 4, dmax 2, #S = p,
# permissive) in F_{2^31-1} and F_97.  It pins the generators' draw order,
# the public-input encoding, the hash chain and every Verifier decision.
ALL_PROTOCOL_DIGESTS = "ac644f3a165794ffe15954846b000325ba69c8943b02ab37c198aacb6fdb8372"
# sha256 over the text Transcript.save writes for each of those runs: it pins
# the JSON spelling of every payload kind and the recorded meta (communication
# counts included), which the digest does not cover.
ALL_PROTOCOL_SAVED_JSON = "ac1eded19b933ec8b63bcbed9da63a0e17e136d77bd8c0d261888766bb249c31"


def _pinned_runs(prover=None):
    """(line, transcript) for each run behind the pins; transcript is None
    when the Prover gave up.  A given prover serves every run, its rng
    reseeded to the state of the HonestProver(seed=0) a run makes itself."""
    for p in (2**31 - 1, 97):
        field = PrimeField(p)
        params = ProtocolParams(p=p, sigma=p, mode=MODE_FIAT_SHAMIR, strict=False)
        for pid in PROTOCOL_IDS:
            for seed in (0, 1):
                pub = generate_true_instance(pid, random.Random(seed), field,
                                             mmax=4, dmax=2)
                if prover is not None:
                    prover.rng.seed(0)
                try:
                    verdict, t = run_protocol(pid, pub, params, prover=prover)
                except ProverGaveUp:
                    yield f"{pid} {p} {seed} gave-up", None
                    continue
                yield (f"{pid} {p} {seed} {t.digest()} {verdict.reason.value} "
                       f"{verdict.detail}"), t


def test_all_protocol_transcripts_are_pinned(tmp_path):
    h = hashlib.sha256()
    saved = hashlib.sha256()
    path = tmp_path / "t.json"
    for line, t in _pinned_runs():
        if t is not None:
            t.save(path)
            saved.update(path.read_bytes())
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == ALL_PROTOCOL_DIGESTS
    assert saved.hexdigest() == ALL_PROTOCOL_SAVED_JSON


def test_one_prover_serves_every_run_as_a_fresh_one_would():
    """No run state of one run leaks into the next: a single prover,
    reseeded before each run, reproduces the pins."""
    h = hashlib.sha256()
    for line, _ in _pinned_runs(HonestProver()):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == ALL_PROTOCOL_DIGESTS


def test_registry_covers_every_protocol():
    assert tuple(PROTOCOLS) == tuple(PROVER_SPECS) == PROTOCOL_IDS
    for pid in SOUNDNESS_PROTOCOLS:
        assert PROVER_SPECS[pid].false_instance is not None, pid
    field = PrimeField(97)
    for pid in PROTOCOL_IDS:
        for seed in range(3):
            pub = generate_true_instance(pid, random.Random(seed), field, mmax=4, dmax=2)
            assert list(pub) == list(PROTOCOLS[pid].schema), (pid, seed)
