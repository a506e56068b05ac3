"""Deterministic checks of the malformed-message and hostile-file paths.

The Verifier must reject, never crash, whatever a transcript file or a
misbehaving prover hands it.
"""

import pytest

from polycert.ff import PrimeField
from polycert.polymat import PolyMat
from polycert.protocols import run_protocol, verify_transcript
from polycert.provers import HonestProver
from polycert.transcript import (
    FORMAT_NAME,
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    FieldScalar,
    FieldVector,
    IndexSetPayload,
    Message,
    PolyMatrixPayload,
    PolyPayload,
    ProtocolParams,
    RankClaimPayload,
    Reason,
    ShiftPayload,
    Transcript,
    TranscriptError,
    encode_payload,
    payload_from_json,
)
from polycert.upoly import Poly

F = PrimeField(2**31 - 1)
PARAMS = ProtocolParams(p=F.p, sigma=1 << 16, mode="fiat-shamir", strict=False)


def test_bad_params_rejected_eagerly():
    with pytest.raises(ValueError):
        ProtocolParams(p=F.p, sigma=64, mode="telepathy")
    with pytest.raises(ValueError):
        ProtocolParams(p=F.p, sigma=0, mode="interactive")


def test_unknown_payload_kind():
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "quaternion", "value": "1"})


def test_bad_sender_in_file():
    doc = {
        "format": FORMAT_NAME,
        "protocol": "matmul",
        "params": {"p": str(F.p), "sigma": 16, "mode": "fiat-shamir",
                   "strict": False, "seed": None},
        "public": {},
        "messages": [{"sender": "X", "label": "alpha",
                      "payload": {"kind": "field_scalar", "value": "1"}}],
        "verdict": None,
        "meta": {},
    }
    with pytest.raises(TranscriptError, match="bad sender"):
        Transcript.from_json_dict(doc)


def _honest_transcript():
    a = PolyMat.identity(F, 2)
    verdict, transcript = run_protocol("nonsingularity", {"A": a}, PARAMS)
    assert verdict.accepted
    return transcript


def test_wrong_public_names_rejected():
    transcript = _honest_transcript()
    transcript.public = {"Z": transcript.public["A"]}
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_wrong_public_kind_rejected():
    transcript = _honest_transcript()
    transcript.public = {"A": FieldScalar(3)}
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_wrong_payload_type_rejected():
    transcript = _honest_transcript()
    idx = next(i for i, m in enumerate(transcript.messages) if m.sender == "P")
    msg = transcript.messages[idx]
    transcript.messages[idx] = Message(msg.sender, msg.label, PolyPayload((1, 2)))
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_out_of_range_element_rejected():
    transcript = _honest_transcript()
    idx = next(
        i for i, m in enumerate(transcript.messages)
        if m.sender == "P" and isinstance(m.payload, FieldVector)
    )
    msg = transcript.messages[idx]
    vals = list(msg.payload.values)
    vals[0] = F.p  # not reduced
    transcript.messages[idx] = Message(msg.sender, msg.label, FieldVector(tuple(vals)))
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_truncated_transcript_rejected():
    transcript = _honest_transcript()
    transcript.messages.pop()
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_non_normalized_polynomial_rejected():
    # a prover message whose polynomial carries a trailing zero breaks the
    # canonical-form requirement even though it denotes the same value
    from polycert.instances import rand_coprime_family
    import random

    fs = rand_coprime_family(random.Random(1), F, 2, 2)
    verdict, transcript = run_protocol("coprime", {"f": fs}, PARAMS)
    assert verdict.accepted
    idx = next(
        i for i, m in enumerate(transcript.messages)
        if m.sender == "P" and isinstance(m.payload, PolyPayload)
    )
    msg = transcript.messages[idx]
    padded = tuple(msg.payload.coeffs) + (0,)
    transcript.messages[idx] = Message(msg.sender, msg.label, PolyPayload(padded))
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_bad_index_sets_rejected():
    from polycert.instances import planted_rank
    import random

    a = planted_rank(random.Random(2), F, 3, 3, 2, 1)
    verdict, transcript = run_protocol("rank_lb", {"A": a, "rho": 2}, PARAMS)
    assert verdict.accepted
    idx = next(
        i for i, m in enumerate(transcript.messages)
        if isinstance(m.payload, IndexSetPayload)
    )
    msg = transcript.messages[idx]
    for bad in ((0, 0), (0, 99), (0,), (0, 1, 2)):
        transcript.messages[idx] = Message(msg.sender, msg.label,
                                           IndexSetPayload(bad))
        res = verify_transcript(transcript)
        assert not res.accepted, bad


# 10**9 is a field element outside the sample set; -1, p and 2**64 are no
# field elements, and -1 and 2**64 have no canonical bytes either
@pytest.mark.parametrize("mode", [MODE_FIAT_SHAMIR, MODE_INTERACTIVE])
@pytest.mark.parametrize("bad", [10**9, -1, F.p, 2**64], ids=["1e9", "-1", "p", "2^64"])
def test_live_misbehaving_prover_is_rejected_not_crashed(bad, mode):
    params = ProtocolParams(p=F.p, sigma=1 << 16, mode=mode, strict=False, seed=3)
    in_field = bad == 10**9

    def verdict_of(pid, pub, prover):
        verdict, _ = run_protocol(pid, pub, params, prover=prover)
        assert not verdict.accepted
        return verdict.reason, verdict.detail

    class Rogue(HonestProver):
        def nonsingularity_point(self, view, sigma, probe=None):
            return bad, None

    a = PolyMat.identity(F, 2)
    assert verdict_of("nonsingularity", {"A": a}, Rogue()) == (
        Reason.MALFORMED_MESSAGE,
        "evaluation point outside sample set" if in_field
        else "eval_point: element out of range")

    class BadKernel(HonestProver):
        def singularity_kernel_vector(self, a, alpha):
            return [bad, 0, 0]

    one, zero = Poly.one(F), Poly.zero(F)
    singular = PolyMat(F, [[one, one, zero], [one, one, zero], [zero, zero, Poly.x(F)]])
    assert verdict_of("singularity", {"A": singular}, BadKernel()) == (
        (Reason.EVALUATION_CHECK_FAILED, "v A(alpha) != 0") if in_field
        else (Reason.MALFORMED_MESSAGE, "kernel_vector: element out of range"))

    class WrongLength(HonestProver):
        def nonsingularity_solution(self, view, alpha, b, factor):
            return [0] * (view.n + 1)

    assert verdict_of("nonsingularity", {"A": a}, WrongLength()) == (
        Reason.MALFORMED_MESSAGE, "solution: wrong length")


@pytest.mark.parametrize("mode", [MODE_FIAT_SHAMIR, MODE_INTERACTIVE])
def test_rank_claim_beyond_any_word_is_rejected_in_both_modes(mode):
    """A rank claim of 2**64 has no canonical bytes; it fails its bound
    before the hash chain would encode it, with the caller's reason."""
    import random

    from polycert.instances import planted_member
    from polycert.matfield import FieldMat

    params = ProtocolParams(p=F.p, sigma=1 << 16, mode=mode, strict=False, seed=3)

    class Huge(HonestProver):
        def rsm_rank(self, a):
            return 2**64

        def field_det_factors(self, b, beta):
            return (2**64,) + super().field_det_factors(b, beta)[1:]

    a, v, _ = planted_member(random.Random(4), F, 2, 3, 2)
    verdict, _ = run_protocol("rsm", {"A": a, "v": v}, params, prover=Huge())
    assert (verdict.reason, verdict.detail) == (
        Reason.RANK_CHECK_FAILED, "rank claim exceeds the dimensions")
    # only a claim of det B = 0 sends a rank
    b = FieldMat(F, [[2, 1], [2, 1]])
    verdict, _ = run_protocol("field_det", {"B": b, "beta": 0}, params, prover=Huge())
    assert (verdict.reason, verdict.detail) == (
        Reason.MALFORMED_MESSAGE, "rank claim exceeds the dimension")


@pytest.mark.parametrize("pid", ["rank_lb", "rank"])
@pytest.mark.parametrize("mode, rho", [(MODE_FIAT_SHAMIR, 10**6), (MODE_INTERACTIVE, 2**64)],
                         ids=["fiat-shamir", "interactive"])
def test_public_rank_bound_beyond_the_dimensions_fails_before_the_prover(pid, mode, rho):
    """rho > min(m, n) is a false public claim, not a Prover fault: rank_lb
    rejects it with rank_check_failed before any Prover message, so no
    index set of rho entries is built.  2**64 has no canonical bytes, so it
    can only be public in an interactive run, whose challenges do not hash
    the public inputs; the Fiat-Shamir run is strict, as `polycert prove`."""
    import random

    from polycert.instances import rand_polymat

    class Mute(HonestProver):
        def rank_lb_sets(self, view, rho):
            raise AssertionError("the Prover was asked for rank_lb sets")

    fiat_shamir = mode == MODE_FIAT_SHAMIR
    params = ProtocolParams(p=F.p, sigma=F.p, mode=mode, strict=fiat_shamir,
                            seed=None if fiat_shamir else 3)
    a = rand_polymat(random.Random(5), F, 3, 4, 2)
    verdict, t = run_protocol(pid, {"A": a, "rho": rho}, params, prover=Mute())
    inner = (Reason.RANK_CHECK_FAILED, "rank bound exceeds the dimensions")
    if pid == "rank":
        inner = (Reason.SUBPROTOCOL_REJECTED,
                 "rank_lb: rank_check_failed (rank bound exceeds the dimensions)")
    assert (verdict.reason, verdict.detail) == inner
    assert not any(m.sender == "P" for m in t.messages)
    replayed = verify_transcript(t)
    assert (replayed.reason, replayed.detail) == inner


def test_unknown_protocol_id():
    transcript = _honest_transcript()
    transcript.protocol_id = "mystery"
    res = verify_transcript(transcript)
    assert not res.accepted and res.reason is Reason.MALFORMED_MESSAGE


def test_domain_separation_across_protocols():
    """The same public inputs under different protocol ids must yield
    different challenge streams (the domain tag is absorbed first)."""
    from polycert.transcript import ChallengeSource

    a = PolyMat.identity(F, 2)
    pub = {"A": PolyMatrixPayload.of(a)}
    streams = []
    for pid in ("singularity", "nonsingularity"):
        t = Transcript(pid, PARAMS, pub)
        src_ = ChallengeSource(PARAMS, t.domain_tag())
        src_.absorb(t.hash_prefix())
        streams.append(tuple(src_.draw_vector(4)))
    assert streams[0] != streams[1]


def test_protocol_confusion_relabel_rejected():
    """A transcript for one protocol replayed under another id must fail."""
    x = Poly.x(F)
    singular = PolyMat(F, [[x, x], [x, x]])
    verdict, transcript = run_protocol("singularity", {"A": singular}, PARAMS)
    assert verdict.accepted
    transcript.protocol_id = "nonsingularity"
    res = verify_transcript(transcript)
    assert not res.accepted


def _rank_certificate() -> dict:
    """A saved, accepted `rank` certificate as a JSON document."""
    x = Poly.x(F)
    a = PolyMat(F, [[x, Poly.one(F)], [x, Poly.one(F)]])
    verdict, transcript = run_protocol("rank", {"A": a, "rho": 1}, PARAMS)
    assert verdict.accepted
    return transcript.to_json_dict()


def test_bool_payload_kind_refused():
    """Sub-protocol markers are absorbed, not stored: a stored marker, a
    payload of the kind "bool", is an unknown kind."""
    doc = _rank_certificate()
    del doc["digest"]  # the loader itself must refuse, not the digest check
    doc["messages"].insert(0, {"sender": "V", "label": "begin:rank_lb",
                               "payload": {"kind": "bool", "value": True}})
    with pytest.raises(TranscriptError, match="unknown payload kind 'bool'"):
        Transcript.from_json_dict(doc)


def test_a_v1_certificate_is_refused_as_an_unknown_format():
    """polycert-transcript/v1 stored the sub-protocol markers; there is no
    reader for it, and its digest is never compared."""
    doc = _rank_certificate()
    doc["format"] = "polycert-transcript/v1"
    with pytest.raises(TranscriptError, match="polycert-transcript/v1") as caught:
        Transcript.from_json_dict(doc)
    assert type(caught.value) is TranscriptError


@pytest.mark.parametrize("section, key", [("params", "strict"), ("verdict", "accepted")])
def test_non_boolean_flags_rejected(section, key):
    doc = _rank_certificate()
    del doc["digest"]  # the loader itself must refuse, not the digest check
    doc[section][key] = "false"
    with pytest.raises(TranscriptError):
        Transcript.from_json_dict(doc)
    doc[section][key] = 1
    with pytest.raises(TranscriptError):
        Transcript.from_json_dict(doc)


def test_negative_rank_claim_rejected_by_loader():
    doc = _rank_certificate()
    doc["public"]["rho"]["value"] = -1  # digest kept: checked while loading
    with pytest.raises(TranscriptError):
        Transcript.from_json_dict(doc)
    doc["public"]["rho"]["value"] = 2**64
    with pytest.raises(TranscriptError):
        Transcript.from_json_dict(doc)


def test_out_of_range_word_is_transcript_error():
    with pytest.raises(TranscriptError):
        encode_payload(RankClaimPayload(-1))
    with pytest.raises(TranscriptError):
        encode_payload(ShiftPayload((2**63,)))


@pytest.mark.parametrize("lie", ["m+1", "n-1", "m<0"])
def test_matrix_dimension_lies_rejected_by_loader(lie):
    doc = _rank_certificate()
    a = doc["public"]["A"]
    if lie == "m+1":
        a["m"] += 1
    elif lie == "n-1":
        a["n"] -= 1
    else:
        a["m"], a["n"] = -a["m"], -a["n"]  # product still matches len(entries)
    del doc["digest"]
    with pytest.raises(TranscriptError):
        Transcript.from_json_dict(doc)


def test_field_matrix_and_toeplitz_dimension_lies_rejected():
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "field_matrix", "m": 2, "n": 2, "entries": ["1"] * 3})
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "field_matrix", "m": -1, "n": -1, "entries": ["1"]})
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "toeplitz_spec", "rho": -1, "m": 2, "values": []})
    ok = payload_from_json({"kind": "field_matrix", "m": 0, "n": 3, "entries": []})
    assert (ok.m, ok.n, ok.entries) == (0, 3, ())


def _loads(doc) -> bool:
    try:
        Transcript.from_json_dict(doc)
    except TranscriptError:
        return False
    return True


@pytest.mark.parametrize("value", [True, "1", 1.9, 1.0, None, [1]])
def test_non_integer_rank_claim_rejected(value):
    """A rank written as anything but a JSON integer is not the certificate."""
    doc = _rank_certificate()
    doc["public"]["rho"]["value"] = value
    assert not _loads(doc)  # digest kept: the loader refuses before checking it
    del doc["digest"]
    assert not _loads(doc)


@pytest.mark.parametrize("field_path, value", [
    (("public", "A", "m"), "2"),
    (("public", "A", "n"), True),
    (("public", "A", "m"), 2.0),
    (("params", "sigma"), "65536"),
    (("params", "sigma"), True),
    (("params", "p"), 2**31 - 1),
    (("params", "p"), "02147483647"),
    (("params", "seed"), False),
])
def test_non_canonical_integer_fields_rejected(field_path, value):
    doc = _rank_certificate()
    del doc["digest"]
    assert _loads(doc)
    *parents, key = field_path
    target = doc
    for k in parents:
        target = target[k]
    target[key] = value
    assert not _loads(doc)


@pytest.mark.parametrize("elem", ["+1", "-1", "01", " 1", "1 ", "1_0", "١", "-0", "", 1, None,
                                  True, 1.0])
def test_non_canonical_field_elements_rejected(elem):
    """Field elements are decimal strings with exactly one spelling."""
    doc = _rank_certificate()
    del doc["digest"]
    doc["public"]["A"]["entries"][0][0] = elem
    assert not _loads(doc)
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "field_scalar", "value": elem})
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "field_vector", "values": ["3", elem]})


def test_non_canonical_lists_rejected():
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "field_vector", "values": "123"})
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "poly", "coeffs": {"1": "2"}})
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "index_set", "values": ["0", "1"]})
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "shift", "values": [0, False]})
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "toeplitz_spec", "rho": "1", "m": 1, "values": ["1"]})
    assert payload_from_json({"kind": "shift", "values": [-3, 0, 2]}) == ShiftPayload((-3, 0, 2))


def test_non_string_labels_and_non_object_sections_rejected():
    doc = _rank_certificate()
    del doc["digest"]
    doc["messages"][0]["label"] = 7
    assert not _loads(doc)
    doc = _rank_certificate()
    doc["public"] = [doc["public"]["A"]]
    assert not _loads(doc)
