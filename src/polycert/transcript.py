"""Typed protocol messages, transcripts, and the two challenge modes.

Every value that crosses the Prover/Verifier channel is one of a small set
of typed payloads with a deterministic, injective byte encoding: tag string
(length-prefixed), then 8-byte little-endian integers; polynomials are a
coefficient count followed by coefficients low-to-high, matrices carry
their dimensions first.

Challenges come from a ChallengeSource: a seeded PRNG in interactive mode,
or a SHA-256 chain over (domain tag || public inputs || prior messages ||
counter) in Fiat-Shamir mode, with 8-byte big-endian words rejection-sampled
to be uniform on [0, sigma).  One global hash state spans a whole run,
including nested sub-protocols, so sibling sub-protocols can never see the
same challenge stream.

The digest covers the canonical byte encoding, not the JSON text.
:meth:`Transcript.save` writes the JSON on one line, without spaces, keys
sorted, and :meth:`Transcript.load` accepts any whitespace, so indented
files load as well.  The public inputs are held read-only and encoded once
per transcript; reassigning ``public`` encodes them afresh.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from .ff import PrimeField
from .polymat import PolyMat
from .matfield import FieldMat
from .upoly import Poly

FORMAT_NAME = "polycert-transcript/v1"
DOMAIN_PREFIX = "polycert/v1/"


class TranscriptError(ValueError):
    """Malformed transcript file."""


class DigestMismatchError(TranscriptError):
    """Stored digest does not match the canonical bytes."""


# -- payload types -------------------------------------------------------------


@dataclass(frozen=True)
class FieldScalar:
    value: int


@dataclass(frozen=True)
class FieldVector:
    values: tuple


@dataclass(frozen=True)
class PolyPayload:
    coeffs: tuple  # low-to-high, normalized


@dataclass(frozen=True)
class PolyVectorPayload:
    polys: tuple  # tuple of coefficient tuples


@dataclass(frozen=True)
class PolyMatrixPayload:
    m: int
    n: int
    entries: tuple  # row-major coefficient tuples


@dataclass(frozen=True)
class FieldMatrixPayload:
    m: int
    n: int
    entries: tuple  # row-major field elements


@dataclass(frozen=True)
class IndexSetPayload:
    values: tuple


@dataclass(frozen=True)
class ToeplitzSpecPayload:
    rho: int
    m: int
    values: tuple


@dataclass(frozen=True)
class RankClaimPayload:
    value: int


@dataclass(frozen=True)
class BoolPayload:
    value: bool


@dataclass(frozen=True)
class ShiftPayload:
    values: tuple  # signed integers


_KIND = {
    FieldScalar: "field_scalar",
    FieldVector: "field_vector",
    PolyPayload: "poly",
    PolyVectorPayload: "poly_vector",
    PolyMatrixPayload: "poly_matrix",
    FieldMatrixPayload: "field_matrix",
    IndexSetPayload: "index_set",
    ToeplitzSpecPayload: "toeplitz_spec",
    RankClaimPayload: "rank_claim",
    BoolPayload: "bool",
    ShiftPayload: "shift",
}
_KIND_REV = {v: k for k, v in _KIND.items()}


def payload_kind(payload) -> str:
    return _KIND[type(payload)]


def comm_elements(payload) -> int:
    """Field elements (or integers) this payload contributes to communication."""
    if isinstance(payload, FieldScalar):
        return 1
    if isinstance(payload, FieldVector):
        return len(payload.values)
    if isinstance(payload, PolyPayload):
        return len(payload.coeffs)
    if isinstance(payload, PolyVectorPayload):
        return sum(len(c) for c in payload.polys)
    if isinstance(payload, (PolyMatrixPayload,)):
        return sum(len(c) for c in payload.entries)
    if isinstance(payload, FieldMatrixPayload):
        return len(payload.entries)
    if isinstance(payload, IndexSetPayload):
        return len(payload.values)
    if isinstance(payload, ToeplitzSpecPayload):
        return len(payload.values)
    if isinstance(payload, RankClaimPayload):
        return 1
    if isinstance(payload, BoolPayload):
        return 0
    if isinstance(payload, ShiftPayload):
        return len(payload.values)
    raise TypeError(f"unknown payload {payload!r}")


# -- conversions between payloads and domain objects ---------------------------


def poly_to_payload(f: Poly) -> PolyPayload:
    return PolyPayload(tuple(f.coeffs))


def payload_to_poly(field: PrimeField, p: PolyPayload) -> Poly:
    return Poly(field, list(p.coeffs))


def polyvec_to_payload(row) -> PolyVectorPayload:
    return PolyVectorPayload(tuple(tuple(f.coeffs) for f in row))


def payload_to_polyvec(field: PrimeField, p: PolyVectorPayload):
    return [Poly(field, list(c)) for c in p.polys]


def polymat_to_payload(mat: PolyMat) -> PolyMatrixPayload:
    return PolyMatrixPayload(
        mat.m, mat.n, tuple(tuple(e.coeffs) for row in mat.rows for e in row)
    )


def payload_to_polymat(field: PrimeField, p: PolyMatrixPayload) -> PolyMat:
    rows = []
    it = iter(p.entries)
    for _ in range(p.m):
        rows.append([Poly(field, list(next(it))) for _ in range(p.n)])
    return PolyMat(field, rows, ncols=p.n)


def fieldmat_to_payload(mat: FieldMat) -> FieldMatrixPayload:
    return FieldMatrixPayload(mat.m, mat.n, tuple(c for row in mat.rows for c in row))


def payload_to_fieldmat(field: PrimeField, p: FieldMatrixPayload) -> FieldMat:
    rows = [list(p.entries[i * p.n : (i + 1) * p.n]) for i in range(p.m)]
    return FieldMat(field, rows, ncols=p.n, normalize=False)


# -- canonical byte encoding ----------------------------------------------------


def _tag(name: str) -> bytes:
    raw = name.encode("ascii")
    return len(raw).to_bytes(4, "little") + raw


def _u64(v: int) -> bytes:
    try:
        return int(v).to_bytes(8, "little")
    except OverflowError as exc:
        raise TranscriptError(f"{v} is not an unsigned 64-bit value") from exc


def _i64(v: int) -> bytes:
    try:
        return int(v).to_bytes(8, "little", signed=True)
    except OverflowError as exc:
        raise TranscriptError(f"{v} is not a signed 64-bit value") from exc


def encode_payload(payload) -> bytes:
    kind = payload_kind(payload)
    out = [_tag(kind)]
    if isinstance(payload, FieldScalar):
        out.append(_u64(payload.value))
    elif isinstance(payload, (FieldVector, IndexSetPayload)):
        out.append(_u64(len(payload.values)))
        out.extend(_u64(v) for v in payload.values)
    elif isinstance(payload, PolyPayload):
        out.append(_u64(len(payload.coeffs)))
        out.extend(_u64(c) for c in payload.coeffs)
    elif isinstance(payload, PolyVectorPayload):
        out.append(_u64(len(payload.polys)))
        for c in payload.polys:
            out.append(_u64(len(c)))
            out.extend(_u64(x) for x in c)
    elif isinstance(payload, PolyMatrixPayload):
        out.append(_u64(payload.m))
        out.append(_u64(payload.n))
        for c in payload.entries:
            out.append(_u64(len(c)))
            out.extend(_u64(x) for x in c)
    elif isinstance(payload, FieldMatrixPayload):
        out.append(_u64(payload.m))
        out.append(_u64(payload.n))
        out.extend(_u64(x) for x in payload.entries)
    elif isinstance(payload, ToeplitzSpecPayload):
        out.append(_u64(payload.rho))
        out.append(_u64(payload.m))
        out.append(_u64(len(payload.values)))
        out.extend(_u64(x) for x in payload.values)
    elif isinstance(payload, RankClaimPayload):
        out.append(_u64(payload.value))
    elif isinstance(payload, BoolPayload):
        out.append(b"\x01" if payload.value else b"\x00")
    elif isinstance(payload, ShiftPayload):
        out.append(_u64(len(payload.values)))
        out.extend(_i64(x) for x in payload.values)
    else:
        raise TypeError(f"unknown payload {payload!r}")
    return b"".join(out)


@dataclass(frozen=True)
class Message:
    sender: str  # "P" or "V"
    label: str
    payload: object

    def encode(self) -> bytes:
        return (
            _tag("message")
            + self.sender.encode("ascii")
            + _tag(self.label)
            + encode_payload(self.payload)
        )


def encode_public(public: dict) -> bytes:
    out = [_tag("public"), _u64(len(public))]
    for name in sorted(public):
        out.append(_tag(name))
        out.append(encode_payload(public[name]))
    return b"".join(out)


# -- parameters and verdict -------------------------------------------------------


MODE_INTERACTIVE = "interactive"
MODE_FIAT_SHAMIR = "fiat-shamir"


@dataclass(frozen=True)
class ProtocolParams:
    p: int
    sigma: int
    mode: str = MODE_FIAT_SHAMIR
    strict: bool = True
    seed: int | None = None  # verifier randomness, interactive mode only

    def __post_init__(self):
        if self.mode not in (MODE_INTERACTIVE, MODE_FIAT_SHAMIR):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.sigma <= self.p:
            # no field extensions: the sample set lives inside F_p
            raise ValueError(f"need 1 <= sigma <= p, got sigma={self.sigma}")
        if self.mode == MODE_INTERACTIVE and self.seed is None:
            object.__setattr__(self, "seed", 0)

    def field(self) -> PrimeField:
        return PrimeField(self.p)

    def encode_core(self) -> bytes:
        # absorbed into the Fiat-Shamir prefix: everything that shapes checks
        return _tag("params") + _u64(self.p) + _u64(self.sigma) + _tag(self.mode) + (
            b"\x01" if self.strict else b"\x00"
        )


class Reason(str, Enum):
    OK = "ok"
    DEGREE_CHECK_FAILED = "degree_check_failed"
    EVALUATION_CHECK_FAILED = "evaluation_check_failed"
    RANK_CHECK_FAILED = "rank_check_failed"
    SHAPE_CHECK_FAILED = "shape_check_failed"
    SUBPROTOCOL_REJECTED = "subprotocol_rejected"
    MALFORMED_MESSAGE = "malformed_message"
    PARAMS_INVALID = "params_invalid"


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: Reason = Reason.OK
    detail: str = ""

    def __post_init__(self):
        if self.accepted and self.reason is not Reason.OK:
            raise ValueError("accepting verdicts must carry reason OK")

    @classmethod
    def accept(cls) -> "Verdict":
        return cls(True, Reason.OK, "")

    @classmethod
    def reject(cls, reason: Reason, detail: str = "") -> "Verdict":
        return cls(False, reason, detail)


# -- challenge sources --------------------------------------------------------------


class ChallengeSource:
    """Uniform draws from {0, ..., sigma-1}, interactive or Fiat-Shamir.

    Fiat-Shamir state: an incremental SHA-256 over the domain tag, core
    parameters, public inputs, and every message appended so far.  Drawing
    hashes (state || counter), reads the digest as four 8-byte big-endian
    words, and rejection-samples each word against floor(2^64/sigma)*sigma;
    exhausting a digest increments the counter.  Appending a message resets
    the counter and discards buffered words.
    """

    def __init__(self, params: ProtocolParams, domain_tag: str):
        self.sigma = params.sigma
        self.mode = params.mode
        if self.mode == MODE_INTERACTIVE:
            self._rng = random.Random(params.seed)
        else:
            self._hasher = hashlib.sha256()
            self._hasher.update(domain_tag.encode("utf-8"))
            self._ctr = 0
            self._words = []
            self._limit = (2**64 // self.sigma) * self.sigma

    @property
    def hashes(self) -> bool:
        """Do absorbed bytes shape later draws?  Only in Fiat-Shamir mode;
        interactive draws ignore them, so callers can skip encoding."""
        return self.mode == MODE_FIAT_SHAMIR

    def absorb(self, data: bytes):
        if self.mode == MODE_FIAT_SHAMIR:
            self._hasher.update(data)
            self._ctr = 0
            self._words = []

    def draw(self) -> int:
        if self.mode == MODE_INTERACTIVE:
            return self._rng.randrange(self.sigma)
        while True:
            if not self._words:
                h = self._hasher.copy()
                h.update(self._ctr.to_bytes(8, "little"))
                digest = h.digest()
                self._ctr += 1
                self._words = [
                    int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)
                ]
            w = self._words.pop(0)
            if w < self._limit:
                return w % self.sigma

    def draw_vector(self, k: int) -> list:
        return [self.draw() for _ in range(k)]


# -- transcript ---------------------------------------------------------------------


class Transcript:
    """Ordered record of one protocol run: params, public inputs, messages, verdict."""

    def __init__(self, protocol_id: str, params: ProtocolParams, public: dict):
        self.protocol_id = protocol_id
        self.params = params
        self.public = public
        self.messages: list[Message] = []
        self.verdict: Verdict | None = None
        self.meta: dict = {}
        self._encoded: dict = {}  # id(message) -> (message, message.encode())

    @property
    def public(self):
        """The public inputs, name -> payload: a read-only mapping, so that
        their encoding, computed once, stays valid until ``public`` is
        reassigned."""
        return self._public

    @public.setter
    def public(self, public: dict):
        self._public = MappingProxyType(dict(public))
        self._public_bytes = None

    # -- construction -----------------------------------------------------

    def append(self, message: Message):
        self.messages.append(message)

    def message_bytes(self, message: Message) -> bytes:
        """``message.encode()``, computed once per message object.

        The digest and the hash chain (live or replayed) both need every
        message's bytes.  Messages are immutable, so the bytes stay valid;
        the entry keeps the message alive, so no other object can take its id.
        """
        hit = self._encoded.get(id(message))
        if hit is None:
            hit = self._encoded[id(message)] = (message, message.encode())
        return hit[1]

    # -- accounting --------------------------------------------------------

    def comm_field_elements(self) -> int:
        return sum(comm_elements(m.payload) for m in self.messages)

    def comm_breakdown(self) -> dict:
        out: dict = {}
        for m in self.messages:
            key = f"{m.sender}:{m.label}"
            out[key] = out.get(key, 0) + comm_elements(m.payload)
        return out

    # -- canonical bytes and digest -----------------------------------------

    def domain_tag(self) -> str:
        return DOMAIN_PREFIX + self.protocol_id

    def hash_prefix(self) -> bytes:
        """Domain tag, core parameters and public inputs: the bytes both the
        challenge chain and the digest start from."""
        if self._public_bytes is None:
            self._public_bytes = encode_public(self._public)
        return (
            self.domain_tag().encode("utf-8")
            + self.params.encode_core()
            + self._public_bytes
        )

    def canonical_bytes(self) -> bytes:
        out = [
            _tag(FORMAT_NAME),
            self.hash_prefix(),
            _u64(0 if self.params.seed is None else self.params.seed),
            _u64(len(self.messages)),
        ]
        out.extend(self.message_bytes(m) for m in self.messages)
        if self.verdict is None:
            out.append(_tag("no_verdict"))
        else:
            out.append(_tag("verdict"))
            out.append(b"\x01" if self.verdict.accepted else b"\x00")
            out.append(_tag(self.verdict.reason.value))
            out.append(_tag(self.verdict.detail))
        return b"".join(out)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- JSON form ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "protocol": self.protocol_id,
            "params": {
                "p": str(self.params.p),
                "sigma": self.params.sigma,
                "mode": self.params.mode,
                "strict": self.params.strict,
                "seed": self.params.seed,
            },
            "public": {k: payload_to_json(v) for k, v in self.public.items()},
            "messages": [
                {
                    "sender": m.sender,
                    "label": m.label,
                    "payload": payload_to_json(m.payload),
                }
                for m in self.messages
            ],
            "verdict": None
            if self.verdict is None
            else {
                "accepted": self.verdict.accepted,
                "reason": self.verdict.reason.value,
                "detail": self.verdict.detail,
            },
            "meta": self.meta,
            "digest": self.digest(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Transcript":
        try:
            if doc["format"] != FORMAT_NAME:
                raise TranscriptError(f"unknown format {doc.get('format')!r}")
            pr = doc["params"]
            seed = pr.get("seed")
            params = ProtocolParams(
                p=_json_elem(pr["p"]),
                sigma=_json_int(pr["sigma"]),
                mode=pr["mode"],
                strict=_json_bool(pr["strict"]),
                seed=None if seed is None else _json_int(seed),
            )
            t = cls(_json_str(doc["protocol"]), params, {
                _json_str(k): payload_from_json(v) for k, v in doc["public"].items()
            })
            for m in _json_list(doc["messages"]):
                if m["sender"] not in ("P", "V"):
                    raise TranscriptError(f"bad sender {m['sender']!r}")
                t.append(Message(m["sender"], _json_str(m["label"]),
                                 payload_from_json(m["payload"])))
            if doc.get("verdict") is not None:
                v = doc["verdict"]
                t.verdict = Verdict(
                    _json_bool(v["accepted"]), Reason(v["reason"]),
                    _json_str(v.get("detail", "")),
                )
            t.meta = dict(doc.get("meta", {}))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            if isinstance(exc, TranscriptError):
                raise
            raise TranscriptError(f"malformed transcript: {exc}") from exc
        stored = doc.get("digest")
        if stored is not None and stored != t.digest():
            raise DigestMismatchError(
                "stored digest does not match transcript contents"
            )
        return t

    def save(self, path):
        """Write the JSON form on one line, without spaces, keys sorted."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json_dict(), separators=(",", ":"),
                                sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Transcript":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise TranscriptError(f"not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


# -- JSON payload mapping -------------------------------------------------------------


def payload_to_json(payload) -> dict:
    kind = payload_kind(payload)
    if isinstance(payload, FieldScalar):
        return {"kind": kind, "value": str(payload.value)}
    if isinstance(payload, (FieldVector,)):
        return {"kind": kind, "values": [str(v) for v in payload.values]}
    if isinstance(payload, IndexSetPayload):
        return {"kind": kind, "values": [int(v) for v in payload.values]}
    if isinstance(payload, PolyPayload):
        return {"kind": kind, "coeffs": [str(c) for c in payload.coeffs]}
    if isinstance(payload, PolyVectorPayload):
        return {"kind": kind, "polys": [[str(c) for c in f] for f in payload.polys]}
    if isinstance(payload, PolyMatrixPayload):
        return {
            "kind": kind,
            "m": payload.m,
            "n": payload.n,
            "entries": [[str(c) for c in f] for f in payload.entries],
        }
    if isinstance(payload, FieldMatrixPayload):
        return {
            "kind": kind,
            "m": payload.m,
            "n": payload.n,
            "entries": [str(c) for c in payload.entries],
        }
    if isinstance(payload, ToeplitzSpecPayload):
        return {
            "kind": kind,
            "rho": payload.rho,
            "m": payload.m,
            "values": [str(v) for v in payload.values],
        }
    if isinstance(payload, RankClaimPayload):
        return {"kind": kind, "value": payload.value}
    if isinstance(payload, BoolPayload):
        return {"kind": kind, "value": payload.value}
    if isinstance(payload, ShiftPayload):
        return {"kind": kind, "values": [int(v) for v in payload.values]}
    raise TypeError(f"unknown payload {payload!r}")


# Canonical JSON: each value has exactly one accepted spelling, the one
# payload_to_json writes, so no other document maps onto a valid certificate.

_DECIMALS = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")


def _json_bool(v) -> bool:
    """A JSON true/false; any other value (the string "false", 0) is malformed."""
    if not isinstance(v, bool):
        raise TranscriptError(f"expected a JSON boolean, got {v!r}")
    return v


def _json_int(v) -> int:
    """A JSON integer; a bool, float or numeric string is malformed."""
    if type(v) is not int:
        raise TranscriptError(f"expected a JSON integer, got {v!r}")
    return v


def _json_uint(v) -> int:
    """A non-negative JSON integer: a dimension, rank or index."""
    if _json_int(v) < 0:
        raise TranscriptError(f"expected a non-negative integer, got {v!r}")
    return v


def _json_list(v) -> list:
    if not isinstance(v, list):
        raise TranscriptError(f"expected a JSON array, got {v!r}")
    return v


def _json_str(v) -> str:
    """A label, name or detail: an ASCII JSON string, as the byte encoding needs."""
    if not isinstance(v, str) or not v.isascii():
        raise TranscriptError(f"expected an ASCII JSON string, got {v!r}")
    return v


def _elems(v) -> tuple:
    """Field elements: ASCII decimal strings with no sign, whitespace,
    separator or leading zero.  One regular-expression match checks a whole
    list; ``int`` then refuses an element that itself held the comma."""
    v = _json_list(v)
    try:
        if v and not _DECIMALS.fullmatch(",".join(v)):
            raise ValueError("not canonical")
        return tuple(map(int, v))
    except (TypeError, ValueError) as exc:
        raise TranscriptError(f"field elements must be decimal strings: {exc}") from exc


def _json_elem(v) -> int:
    """One field element (or the modulus), see :func:`_elems`."""
    return _elems([v])[0]


def _matrix_dims(doc: dict) -> tuple:
    """(m, n) of a matrix payload: non-negative, with m*n entries."""
    m, n = _json_uint(doc["m"]), _json_uint(doc["n"])
    if len(_json_list(doc["entries"])) != m * n:
        raise TranscriptError(f"{len(doc['entries'])} entries for a {m} x {n} matrix")
    return m, n


def payload_from_json(doc: dict):
    kind = doc.get("kind")
    if kind not in _KIND_REV:
        raise TranscriptError(f"unknown payload kind {kind!r}")
    if kind == "field_scalar":
        return FieldScalar(_json_elem(doc["value"]))
    if kind == "field_vector":
        return FieldVector(_elems(doc["values"]))
    if kind == "index_set":
        return IndexSetPayload(tuple(_json_uint(v) for v in _json_list(doc["values"])))
    if kind == "poly":
        return PolyPayload(_elems(doc["coeffs"]))
    if kind == "poly_vector":
        return PolyVectorPayload(tuple(_elems(f) for f in _json_list(doc["polys"])))
    if kind == "poly_matrix":
        m, n = _matrix_dims(doc)
        return PolyMatrixPayload(m, n, tuple(_elems(f) for f in doc["entries"]))
    if kind == "field_matrix":
        m, n = _matrix_dims(doc)
        return FieldMatrixPayload(m, n, _elems(doc["entries"]))
    if kind == "toeplitz_spec":
        rho, m = _json_uint(doc["rho"]), _json_uint(doc["m"])
        return ToeplitzSpecPayload(rho, m, _elems(doc["values"]))
    if kind == "rank_claim":
        return RankClaimPayload(_json_uint(doc["value"]))
    if kind == "bool":
        return BoolPayload(_json_bool(doc["value"]))
    if kind == "shift":
        return ShiftPayload(tuple(_json_int(v) for v in _json_list(doc["values"])))
    raise TranscriptError(f"unknown payload kind {kind!r}")
