import json
import random
from unittest import mock

import pytest
from scipy.stats import chi2

from polycert import transcript as tr
from polycert.ff import PrimeField
from polycert.polymat import PolyMat
from polycert.protocols import run_protocol, verify_transcript
from polycert.transcript import (
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    ChallengeSource,
    DigestMismatchError,
    FieldScalar,
    FieldVector,
    IndexSetPayload,
    Message,
    PolyMatrixPayload,
    PolyPayload,
    PolyVectorPayload,
    FieldMatrixPayload,
    ProtocolParams,
    RankClaimPayload,
    ShiftPayload,
    ToeplitzSpecPayload,
    Transcript,
    TranscriptError,
    comm_elements,
    encode_payload,
    payload_from_json,
    payload_to_json,
)
from polycert.upoly import Poly

FBIG = PrimeField(2**31 - 1)


def rand_payload(rng):
    p = 2**31 - 1
    kind = rng.randrange(10)
    if kind == 0:
        return FieldScalar(rng.randrange(p))
    if kind == 1:
        return FieldVector(tuple(rng.randrange(p) for _ in range(rng.randrange(6))))
    if kind == 2:
        return PolyPayload(_rand_coeffs(rng, p))
    if kind == 3:
        return PolyVectorPayload(
            tuple(_rand_coeffs(rng, p) for _ in range(rng.randrange(1, 4)))
        )
    if kind == 4:
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        return PolyMatrixPayload(
            m, n, tuple(_rand_coeffs(rng, p) for _ in range(m * n))
        )
    if kind == 5:
        return IndexSetPayload(tuple(sorted(rng.sample(range(20), rng.randrange(4)))))
    if kind == 6:
        rho, m = rng.randrange(1, 4), rng.randrange(1, 4)
        return ToeplitzSpecPayload(
            rho, m, tuple(rng.randrange(p) for _ in range(rho + m - 1))
        )
    if kind == 7:
        return RankClaimPayload(rng.randrange(10))
    if kind == 8:
        return ShiftPayload(tuple(rng.randrange(-2**63, 2**63) for _ in range(rng.randrange(4))))
    m, n = rng.randrange(1, 4), rng.randrange(1, 4)
    return FieldMatrixPayload(m, n, tuple(rng.randrange(p) for _ in range(m * n)))


def _rand_coeffs(rng, p):
    deg = rng.randrange(-1, 5)
    if deg < 0:
        return ()
    c = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    return tuple(c)


def test_payload_json_roundtrip_fuzz():
    rng = random.Random(60)
    for _ in range(1000):
        payload = rand_payload(rng)
        doc = payload_to_json(payload)
        json.dumps(doc)  # must be JSON-serializable
        assert payload_from_json(doc) == payload


def test_canonical_encoding_injective_on_samples():
    rng = random.Random(61)
    seen = {}
    for _ in range(2000):
        payload = rand_payload(rng)
        enc = encode_payload(payload)
        if enc in seen:
            assert seen[enc] == payload
        seen[enc] = payload
    # equal inputs, equal bytes
    assert encode_payload(PolyPayload((1, 2))) == encode_payload(PolyPayload((1, 2)))
    # shifts may be negative
    sh = ShiftPayload((-3, 0, 5))
    assert payload_from_json(payload_to_json(sh)) == sh


def test_comm_element_counts():
    """Field elements and integers count; dimensions do not."""
    assert comm_elements(FieldScalar(3)) == 1
    assert comm_elements(FieldVector((1, 2, 3))) == 3
    assert comm_elements(PolyPayload((1, 0, 2))) == 3
    assert comm_elements(PolyVectorPayload(((1, 2), (), (3,)))) == 3
    assert comm_elements(PolyMatrixPayload(1, 2, ((1, 2, 3), (4,)))) == 4
    assert comm_elements(PolyMatrixPayload(0, 3, ())) == 0
    assert comm_elements(FieldMatrixPayload(2, 3, (1, 2, 3, 4, 5, 6))) == 6
    assert comm_elements(IndexSetPayload((0, 2))) == 2
    assert comm_elements(ToeplitzSpecPayload(2, 3, (1, 2, 3, 4))) == 4
    assert comm_elements(RankClaimPayload(5)) == 1
    assert comm_elements(ShiftPayload((-1, 0, 4))) == 3


def _params(mode=MODE_FIAT_SHAMIR, sigma=64, seed=None):
    return ProtocolParams(p=FBIG.p, sigma=sigma, mode=mode, strict=False, seed=seed)


def _fresh_source(params, messages=(), public=None):
    t = Transcript("matmul", params, public or {})
    src = ChallengeSource(params, t.domain_tag())
    src.absorb(t.hash_prefix())
    for m in messages:
        src.absorb(m.encode())
    return src


def test_fs_determinism_and_sensitivity():
    params = _params()
    pub = {"A": PolyMatrixPayload(1, 1, ((1, 2),))}
    m1 = Message("P", "x", FieldScalar(5))
    a = _fresh_source(params, [m1], pub)
    b = _fresh_source(params, [m1], pub)
    assert [a.draw() for _ in range(8)] == [b.draw() for _ in range(8)]
    # changing the prior message changes the challenge stream
    m2 = Message("P", "x", FieldScalar(6))
    c = _fresh_source(params, [m2], pub)
    assert [a.draw() for _ in range(4)] != [c.draw() for _ in range(4)]


def test_fs_avalanche_no_collisions():
    # flipping one byte of a prover payload must change the very next
    # challenge; with sigma = p collisions are overwhelmingly unlikely
    params = ProtocolParams(p=FBIG.p, sigma=FBIG.p, mode=MODE_FIAT_SHAMIR, strict=False)
    pub = {"A": PolyMatrixPayload(1, 1, ((1,),))}
    rng = random.Random(62)
    collisions = 0
    for _ in range(1000):
        val = rng.randrange(FBIG.p)
        other = (val + 1 + rng.randrange(100)) % FBIG.p
        src1 = _fresh_source(params, [Message("P", "m", FieldScalar(val))], pub)
        src2 = _fresh_source(params, [Message("P", "m", FieldScalar(other))], pub)
        if src1.draw() == src2.draw():
            collisions += 1
    assert collisions == 0


def test_fs_sigma_one_draws_zero():
    params = _params(sigma=1)
    src = _fresh_source(params)
    assert [src.draw() for _ in range(5)] == [0, 0, 0, 0, 0]


@pytest.mark.parametrize("sigma", [2, 16, 64])
def test_fs_uniformity_chi_square(sigma):
    params = _params(sigma=sigma)
    src = _fresh_source(params)
    n = 20000
    counts = [0] * sigma
    for _ in range(n):
        counts[src.draw()] += 1
    expected = n / sigma
    stat = sum((c - expected) ** 2 / expected for c in counts)
    # significance 0.001
    assert stat < chi2.ppf(0.999, sigma - 1)


def test_interactive_reproducibility():
    params = _params(mode=MODE_INTERACTIVE, sigma=64, seed=1234)
    a = ChallengeSource(params, "tag")
    b = ChallengeSource(params, "tag")
    assert [a.draw() for _ in range(100)] == [b.draw() for _ in range(100)]
    assert all(0 <= v < 64 for v in b.draw_vector(50))


def test_interactive_uniformity_chi_square():
    params = _params(mode=MODE_INTERACTIVE, sigma=16, seed=99)
    src = ChallengeSource(params, "tag")
    n = 100000
    counts = [0] * 16
    for _ in range(n):
        counts[src.draw()] += 1
    expected = n / 16
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, 15)


def test_transcript_save_load_roundtrip(tmp_path):
    params = _params()
    pub = {"A": PolyMatrixPayload(1, 2, ((1, 2), (0, 5)))}
    t = Transcript("matmul", params, pub)
    t.append(Message("V", "alpha", FieldScalar(7)))
    t.append(Message("P", "resp", FieldVector((1, 2, 3))))
    from polycert.transcript import Reason, Verdict

    t.verdict = Verdict(True, Reason.OK)
    t.meta["communication"] = t.comm_field_elements()
    path = tmp_path / "t.json"
    t.save(path)
    loaded = Transcript.load(path)
    assert loaded.digest() == t.digest()
    path2 = tmp_path / "t2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def _accepted_rank_transcript():
    x = Poly.x(FBIG)
    a = PolyMat(FBIG, [[x, Poly.one(FBIG)], [x + x, Poly.of(FBIG, 2)]])
    verdict, t = run_protocol("rank", {"A": a, "rho": 1}, _params())
    assert verdict.accepted
    return t


def test_save_writes_compact_sorted_json(tmp_path):
    t = _accepted_rank_transcript()
    path = tmp_path / "t.json"
    t.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(t.to_json_dict(), separators=(",", ":"), sort_keys=True) + "\n"
    loaded = Transcript.load(path)
    assert loaded.digest() == t.digest()
    assert loaded.verdict == t.verdict == verify_transcript(loaded)
    # documents written with indentation, as earlier versions saved them, still load
    path.write_text(json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n")
    again = Transcript.load(path)
    assert again.digest() == t.digest() and verify_transcript(again).accepted


def test_public_inputs_encoded_once_per_transcript():
    with mock.patch.object(tr, "encode_public", wraps=tr.encode_public) as enc:
        t = _accepted_rank_transcript()              # absorbs the public inputs
        doc = t.to_json_dict()                       # digests them
        assert enc.call_count == 1
        loaded = Transcript.from_json_dict(doc)      # checks the stored digest
        assert verify_transcript(loaded).accepted    # replays the hash chain
        loaded.digest()
        assert enc.call_count == 2
    with pytest.raises(TypeError):
        loaded.public["rho"] = RankClaimPayload(2)
    before = loaded.digest()
    loaded.public = {**loaded.public, "rho": RankClaimPayload(2)}
    assert loaded.digest() != before
    assert not verify_transcript(loaded).accepted


def test_transcript_digest_tamper_detected(tmp_path):
    params = _params()
    t = Transcript("matmul", params, {"A": PolyMatrixPayload(1, 1, ((3,),))})
    t.append(Message("P", "resp", FieldScalar(4)))
    path = tmp_path / "t.json"
    t.save(path)
    doc = json.loads(path.read_text())
    doc["messages"][0]["payload"]["value"] = "5"
    path.write_text(json.dumps(doc))
    with pytest.raises(DigestMismatchError):
        Transcript.load(path)


# files that json.load refuses with a Python error other than JSONDecodeError
HOSTILE_JSON = {
    "invalid-utf8": b'{"format": "\xff"}',
    "deep-nesting": b"[" * 100_000,
    "huge-integer": b'{"format": ' + b"7" * 5000 + b"}",
}


def test_transcript_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TranscriptError):
        Transcript.load(path)
    path.write_text(json.dumps({"format": "nope"}))
    with pytest.raises(TranscriptError):
        Transcript.load(path)
    for raw in HOSTILE_JSON.values():
        path.write_bytes(raw)
        with pytest.raises(TranscriptError):
            Transcript.load(path)


# -- public inputs have one spelling ------------------------------------------------


# Interactive runs: their challenges do not hash the public inputs, so a
# re-spelled input replays the same exchange, and only the decoder can tell.


def _respelled(t, edit):
    """t's saved document, edited by edit(doc) and loaded back under the
    digest of its new bytes."""
    doc = json.loads(json.dumps(t.to_json_dict()))
    edit(doc)
    del doc["digest"]
    return Transcript.from_json_dict(doc)


def _plus_p(entries, i, p):
    entries[i] = str(int(entries[i]) + p)


def _honest(pid, pub, params):
    verdict, t = run_protocol(pid, pub, params)
    assert verdict.accepted
    return t


def test_public_field_det_entry_plus_p_is_malformed():
    from polycert.matfield import FieldMat

    t = _honest("field_det", {"B": FieldMat(FBIG, [[2, 1], [1, 1]]), "beta": 1},
                _params(MODE_INTERACTIVE, seed=3))
    wide = _respelled(t, lambda d: _plus_p(d["public"]["B"]["entries"], 0, FBIG.p))
    assert wide.digest() != t.digest()
    verdict = verify_transcript(wide)
    assert not verdict.accepted and verdict.reason is tr.Reason.MALFORMED_MESSAGE
    # the determinant value itself, which used to fail its evaluation check
    wide = _respelled(t, lambda d: d["public"]["beta"].update(value=str(1 + FBIG.p)))
    verdict = verify_transcript(wide)
    assert not verdict.accepted and verdict.reason is tr.Reason.MALFORMED_MESSAGE


def test_public_interactive_matmul_entry_plus_p_is_malformed():
    a = PolyMat.from_coeff_lists(FBIG, [[[1, 2], [3]], [[0, 1], [4, 5]]])
    b = PolyMat.identity(FBIG, 2)
    t = _honest("matmul", {"A": a, "B": b, "C": a}, _params(MODE_INTERACTIVE, seed=3))
    wide = _respelled(t, lambda d: _plus_p(d["public"]["A"]["entries"][0], 0, FBIG.p))
    assert wide.digest() != t.digest()
    verdict = verify_transcript(wide)
    assert not verdict.accepted and verdict.reason is tr.Reason.MALFORMED_MESSAGE


def test_public_coprime_trailing_zero_is_malformed():
    x = Poly.x(FBIG)
    t = _honest("coprime", {"f": [x, x + Poly.one(FBIG)]}, _params(MODE_INTERACTIVE, seed=3))
    padded = _respelled(t, lambda d: d["public"]["f"]["polys"][0].append("0"))
    assert padded.digest() != t.digest()
    verdict = verify_transcript(padded)
    assert not verdict.accepted and verdict.reason is tr.Reason.MALFORMED_MESSAGE


F7 = PrimeField(7)


@pytest.mark.parametrize("payload", [
    FieldScalar(7),
    PolyPayload((1, 7)),
    PolyPayload((1, 0)),
    PolyPayload((0,)),
    PolyVectorPayload(((1,), (2, 0))),
    PolyVectorPayload(((1,), (9,))),
    PolyMatrixPayload(1, 2, ((1,), (3, 0))),
    PolyMatrixPayload(1, 2, ((1,), (8, 1))),
    FieldMatrixPayload(1, 2, (0, 7)),
], ids=repr)
def test_value_in_refuses_a_second_spelling(payload):
    with pytest.raises(TranscriptError):
        payload.value_in(F7)


def test_value_in_takes_canonical_values():
    assert FieldScalar(6).value_in(F7) == 6
    assert PolyPayload((1, 6)).value_in(F7) == Poly(F7, [1, 6])
    assert PolyPayload(()).value_in(F7).is_zero()
    assert PolyVectorPayload(((), (3,))).value_in(F7) == [Poly.zero(F7), Poly(F7, [3])]
    mat = PolyMatrixPayload(1, 2, ((), (0, 1))).value_in(F7)
    assert mat == PolyMat.from_coeff_lists(F7, [[[], [0, 1]]])
    assert FieldMatrixPayload(1, 2, (0, 6)).value_in(F7).rows == [[0, 6]]


def test_instance_file_with_a_second_spelling_is_a_usage_error(tmp_path):
    from click.testing import CliRunner

    from polycert.cli import main

    for entries in ([["98"]], [["1", "0"]]):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "format": "polycert-instance/v1", "p": 97,
            "objects": {"A": {"kind": "poly_matrix", "m": 1, "n": 1, "entries": entries}},
        }))
        res = CliRunner().invoke(main, ["run", "--protocol", "rank", "--instance", str(inst)])
        assert res.exit_code == 2, res.output
        assert "instance file" in res.output


def test_unencodable_value_without_digest_rejects_as_malformed():
    # without a digest the file loads unencoded.  A word of 2**64 as an
    # element fails its message's check before the replay absorbs it
    t = _honest("rank", {"A": PolyMat.identity(FBIG, 2), "rho": 2}, _params())

    def huge(doc):
        msg = next(m for m in doc["messages"] if m["payload"]["kind"] == "field_vector"
                   and m["sender"] == "P")
        msg["payload"]["values"][0] = str(2**64)

    verdict = verify_transcript(_respelled(t, huge))
    assert not verdict.accepted and verdict.reason is tr.Reason.SUBPROTOCOL_REJECTED
    assert verdict.detail == ("rank_lb/nonsingularity: malformed_message "
                              "(solution: element out of range)")

    # a rank claim of 2**64 exceeds the dimension it is checked against,
    # before the replay would encode it; only a claim of det B = 0 sends one
    from polycert.matfield import FieldMat

    t = _honest("field_det", {"B": FieldMat(FBIG, [[2, 1], [2, 1]]), "beta": 0}, _params())

    def huge_rank(doc):
        msg = next(m for m in doc["messages"] if m["payload"]["kind"] == "rank_claim")
        msg["payload"]["value"] = 2**64

    verdict = verify_transcript(_respelled(t, huge_rank))
    assert not verdict.accepted and verdict.reason is tr.Reason.MALFORMED_MESSAGE
    assert verdict.detail == "rank claim exceeds the dimension"


@pytest.mark.parametrize("kind", ["poly_matrix", "field_matrix"])
@pytest.mark.parametrize("m, n", [(10**6, 0), (0, 10**6)])
def test_declared_dimension_above_the_cap_is_malformed(kind, m, n):
    # an empty matrix lists no entries, so only the cap bounds what its
    # dimensions ask the loader to build
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": kind, "m": m, "n": n, "entries": []})


def test_dimensions_up_to_the_cap_load():
    assert tr.MAX_DIMENSION < 2**16
    for kind in ("poly_matrix", "field_matrix"):
        for m, n in ((tr.MAX_DIMENSION, 0), (0, tr.MAX_DIMENSION)):
            payload = payload_from_json({"kind": kind, "m": m, "n": n, "entries": []})
            assert (payload.m, payload.n) == (m, n)
    with pytest.raises(TranscriptError):
        payload_from_json({"kind": "toeplitz_spec", "rho": tr.MAX_DIMENSION + 1, "m": 1,
                           "values": []})


def test_empty_kernel_basis_certificate_loads():
    a = PolyMat(FBIG, [[Poly(FBIG, [1, 1]), Poly.one(FBIG)]], ncols=2)
    t = _honest("kernel_basis", {"A": a, "B": PolyMat(FBIG, [], ncols=1)}, _params())
    loaded = Transcript.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
    assert verify_transcript(loaded).accepted
