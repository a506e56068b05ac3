"""Typed protocol messages, transcripts, and the two challenge modes.

Every value that crosses the Prover/Verifier channel is one of 10 payload
kinds with a deterministic, injective byte encoding: tag string
(length-prefixed), then 8-byte little-endian integers; polynomials are a
coefficient count followed by coefficients low-to-high, matrices carry
their dimensions first.  Each kind is declared once (``@payload_kind``), and
its bytes, JSON form and communication count follow from that declaration.

Challenges come from a ChallengeSource: a seeded PRNG in interactive mode,
or a SHA-256 chain over (domain tag || public inputs || prior messages and
markers || counter) in Fiat-Shamir mode, with 8-byte big-endian words
rejection-sampled to be uniform on [0, sigma).  One global hash state spans
a whole run, including nested sub-protocols, so sibling sub-protocols can
never see the same challenge stream.  A sub-protocol marker is absorbed
(:func:`marker_bytes`) but not stored.

The digest covers the canonical byte encoding, not the JSON text.
:meth:`Transcript.save` writes the JSON on one line, without spaces, keys
sorted, and :meth:`Transcript.load` accepts any whitespace, so indented
files load as well.  The public inputs are held read-only and encoded once
per transcript; reassigning ``public`` encodes them afresh.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Callable, NamedTuple

from .ff import PrimeField
from .polymat import PolyMat
from .matfield import FieldMat
from .upoly import Poly

FORMAT_NAME = "polycert-transcript/v2"
DOMAIN_PREFIX = "polycert/v1/"
# the largest dimension a loaded matrix or Toeplitz operator may declare.  A
# matrix lists its m*n entries, but an empty one lists none, so without a cap
# a few bytes could declare 10**6 empty rows.  Below 2**16, the inner
# dimension up to which the Prover's int64 products in 16-bit limbs are exact
# (:meth:`PrimeField.matmul`).
MAX_DIMENSION = 2**16 - 1


class TranscriptError(ValueError):
    """Malformed transcript file."""


class DigestMismatchError(TranscriptError):
    """Stored digest does not match the canonical bytes."""


# -- wire types ------------------------------------------------------------------
#
# A wire type fixes, for one payload field, its canonical bytes, its JSON
# spelling, its strict JSON reader and the number of field elements (or
# integers) it adds to the communication count.  Words are 8-byte
# little-endian; a list carries its length first, except the entries of a
# matrix, whose count m*n the dimensions before them already give.


class Wire(NamedTuple):
    encode: Callable    # value -> canonical bytes
    to_json: Callable   # value -> its one JSON spelling
    from_json: Callable  # JSON value -> value; raises TranscriptError
    count: Callable     # value -> elements it adds to the communication


@lru_cache(maxsize=1024)
def _tag(name: str) -> bytes:
    """The length-prefixed name.  Kept for the most recent names, since kind
    names, labels and reasons repeat in every transcript; bounded, since a
    loaded file can bring any number of new ones."""
    raw = name.encode("ascii")
    return len(raw).to_bytes(4, "little") + raw


def _u64(v: int) -> bytes:
    try:
        return int(v).to_bytes(8, "little")
    except OverflowError as exc:
        raise TranscriptError(f"{v} is not an unsigned 64-bit value") from exc


def _pack(fmt: str, *words) -> bytes:
    try:
        return struct.pack(fmt, *words)
    except struct.error as exc:
        raise TranscriptError(f"a value does not fit a 64-bit word: {exc}") from exc


def _byte(flag) -> bytes:
    return b"\x01" if flag else b"\x00"


def _words(values) -> bytes:
    return _pack(f"<{len(values)}Q", *values)


def _counted(values) -> bytes:
    return _pack(f"<{len(values) + 1}Q", len(values), *values)


def _lists(lists, prefix=()) -> bytes:
    """Each list counted, one after another, after the words in prefix."""
    words = list(prefix)
    for c in lists:
        words.append(len(c))
        words.extend(c)
    return _words(words)


def _strs(values) -> list:
    return list(map(str, values))


def _ints(values) -> list:
    return list(map(int, values))


def _str_lists(lists) -> list:
    return [list(map(str, c)) for c in lists]


def _total_len(lists) -> int:
    return sum(map(len, lists))


# Canonical JSON: each value has exactly one accepted spelling, the one its
# wire type writes, so no other document maps onto a valid certificate.

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


def _json_dim(v) -> int:
    """A matrix or operator dimension: a non-negative JSON integer of at most
    :data:`MAX_DIMENSION`."""
    if _json_uint(v) > MAX_DIMENSION:
        raise TranscriptError(f"dimension {v} exceeds {MAX_DIMENSION}")
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
    """One field element (or the modulus), spelled as :func:`_elems` requires."""
    if not (type(v) is str and v.isascii() and v.isdigit() and (v[0] != "0" or len(v) == 1)):
        raise TranscriptError(f"a field element must be a decimal string, got {v!r}")
    return int(v)


def _elem_lists(v) -> tuple:
    """Lists of field elements, see :func:`_elems`, checked as one flat list
    and then cut back to the lengths they came in."""
    lists = _json_list(v)
    if not all(isinstance(c, list) for c in lists):
        raise TranscriptError(f"expected JSON arrays of field elements, got {v!r}")
    flat = _elems(list(chain.from_iterable(lists)))
    out = []
    start = 0
    for c in lists:
        stop = start + len(c)
        out.append(flat[start:stop])
        start = stop
    return tuple(out)


# encode, JSON writer, strict JSON reader, communication count
DIM = Wire(_u64, int, _json_dim, lambda v: 0)
UINT = Wire(_u64, int, _json_uint, lambda v: 1)
ELEM = Wire(_u64, str, _json_elem, lambda v: 1)
ELEMS = Wire(_counted, _strs, _elems, len)
INDICES = Wire(_counted, _ints, lambda v: tuple(map(_json_uint, _json_list(v))), len)
SIGNED = Wire(lambda c: _pack(f"<Q{len(c)}q", len(c), *c), _ints,
              lambda v: tuple(map(_json_int, _json_list(v))), len)
ELEM_LISTS = Wire(lambda c: _lists(c, (len(c),)), _str_lists, _elem_lists, _total_len)
MATRIX_ELEMS = Wire(_words, _strs, _elems, len)
MATRIX_LISTS = Wire(_lists, _str_lists, _elem_lists, _total_len)


# -- payload kinds -----------------------------------------------------------------
#
# Each kind is declared once, by ``@payload_kind`` on its class: its name and
# its fields in encoding order, each with its wire type.  A payload encodes
# as the tag of its kind name followed by its fields.  The kinds that carry
# public inputs convert from and to their domain objects with ``of(obj)``
# and ``value_in(field)``.  ``value_in`` accepts one spelling of each value:
# field elements in [0, p) and polynomials without a trailing zero, so no
# second document (an entry plus p, a padded polynomial) states the same
# inputs under another digest.


def _check_public_elems(field: PrimeField, values):
    if values and (min(values) < 0 or max(values) >= field.p):
        raise TranscriptError(f"a public field element is outside [0, {field.p})")


def _polys_in(field: PrimeField, coeff_lists) -> list:
    """The polynomials whose low-to-high coefficients these are, the lists
    checked to be canonical: elements of the field, no trailing zero."""
    if not all(c[-1] for c in coeff_lists if c):
        raise TranscriptError("a public polynomial has a trailing zero coefficient")
    _check_public_elems(field, list(chain.from_iterable(coeff_lists)))
    return [Poly(field, list(c), normalize=False) for c in coeff_lists]


class _Kind(NamedTuple):
    name: str
    tag: bytes
    fields: tuple       # (attribute, Wire) in encoding order


_KINDS: dict = {}       # payload class -> _Kind
_CLASSES: dict = {}     # kind name -> payload class


def payload_kind(name: str, **wires):
    """Make the decorated class a frozen dataclass, the payload kind ``name``
    whose fields, named in encoding order, travel as the given wire types."""
    def declare(cls):
        cls = dataclass(frozen=True)(cls)
        if tuple(wires) != tuple(f.name for f in dataclasses.fields(cls)):
            raise TypeError(f"{cls.__name__}: wire types must name its fields in order")
        _KINDS[cls] = _Kind(name, _tag(name), tuple(wires.items()))
        _CLASSES[name] = cls
        return cls
    return declare


class _PlainValue:
    """A payload whose domain form is the one value it holds."""

    @classmethod
    def of(cls, value):
        return cls(value)

    def value_in(self, field: PrimeField):
        return self.value


class _Matrix:
    """A matrix payload: m*n row-major entries, checked on construction, so
    a decoded matrix never lies about its dimensions."""

    def __post_init__(self):
        if len(self.entries) != self.m * self.n:
            raise TranscriptError(
                f"{len(self.entries)} entries for a {self.m} x {self.n} matrix")


@payload_kind("field_scalar", value=ELEM)
class FieldScalar(_PlainValue):
    value: int

    def value_in(self, field: PrimeField) -> int:
        _check_public_elems(field, (self.value,))
        return self.value


@payload_kind("field_vector", values=ELEMS)
class FieldVector:
    values: tuple


@payload_kind("poly", coeffs=ELEMS)
class PolyPayload:
    coeffs: tuple  # low-to-high, normalized

    @classmethod
    def of(cls, f: Poly) -> "PolyPayload":
        return cls(tuple(f.coeffs))

    def value_in(self, field: PrimeField) -> Poly:
        return _polys_in(field, (self.coeffs,))[0]


@payload_kind("poly_vector", polys=ELEM_LISTS)
class PolyVectorPayload:
    polys: tuple  # tuple of coefficient tuples

    @classmethod
    def of(cls, row) -> "PolyVectorPayload":
        return cls(tuple(tuple(f.coeffs) for f in row))

    def value_in(self, field: PrimeField) -> list:
        return _polys_in(field, self.polys)


@payload_kind("poly_matrix", m=DIM, n=DIM, entries=MATRIX_LISTS)
class PolyMatrixPayload(_Matrix):
    m: int
    n: int
    entries: tuple  # row-major coefficient tuples

    @classmethod
    def of(cls, mat: PolyMat) -> "PolyMatrixPayload":
        return cls(mat.m, mat.n, tuple(tuple(e.coeffs) for row in mat.rows for e in row))

    def value_in(self, field: PrimeField) -> PolyMat:
        polys = _polys_in(field, self.entries)
        n = self.n
        return PolyMat(field, [polys[i * n : (i + 1) * n] for i in range(self.m)], ncols=n)


@payload_kind("field_matrix", m=DIM, n=DIM, entries=MATRIX_ELEMS)
class FieldMatrixPayload(_Matrix):
    m: int
    n: int
    entries: tuple  # row-major field elements

    @classmethod
    def of(cls, mat: FieldMat) -> "FieldMatrixPayload":
        return cls(mat.m, mat.n, tuple(c for row in mat.rows for c in row))

    def value_in(self, field: PrimeField) -> FieldMat:
        _check_public_elems(field, self.entries)
        n = self.n
        rows = [list(self.entries[i * n : (i + 1) * n]) for i in range(self.m)]
        return FieldMat(field, rows, ncols=n, normalize=False)


@payload_kind("index_set", values=INDICES)
class IndexSetPayload:
    values: tuple


@payload_kind("toeplitz_spec", rho=DIM, m=DIM, values=ELEMS)
class ToeplitzSpecPayload:
    rho: int
    m: int
    values: tuple


@payload_kind("rank_claim", value=UINT)
class RankClaimPayload(_PlainValue):
    value: int


@payload_kind("shift", values=SIGNED)
class ShiftPayload:
    values: tuple  # signed integers

    @classmethod
    def of(cls, shift) -> "ShiftPayload":
        return cls(tuple(shift))

    def value_in(self, field: PrimeField) -> list:
        return list(self.values)


def _kind_of(payload) -> _Kind:
    try:
        return _KINDS[type(payload)]
    except KeyError:
        raise TypeError(f"unknown payload {payload!r}") from None


def comm_elements(payload) -> int:
    """Field elements (or integers) this payload contributes to communication."""
    n = 0
    for name, wire in _kind_of(payload).fields:
        n += wire.count(getattr(payload, name))
    return n


def encode_payload(payload) -> bytes:
    kind = _kind_of(payload)
    if len(kind.fields) == 1:
        (name, wire), = kind.fields
        return kind.tag + wire.encode(getattr(payload, name))
    return kind.tag + b"".join(
        [wire.encode(getattr(payload, name)) for name, wire in kind.fields])


def payload_to_json(payload) -> dict:
    kind = _kind_of(payload)
    doc = {"kind": kind.name}
    for name, wire in kind.fields:
        doc[name] = wire.to_json(getattr(payload, name))
    return doc


def payload_from_json(doc: dict):
    """The payload a JSON object spells; anything malformed is a TranscriptError."""
    try:
        cls = _CLASSES.get(doc["kind"])
        if cls is None:
            raise TranscriptError(f"unknown payload kind {doc['kind']!r}")
        return cls(*[wire.from_json(doc[name]) for name, wire in _KINDS[cls].fields])
    except (KeyError, TypeError) as exc:
        raise TranscriptError(f"malformed payload: {exc!r}") from exc


class Message(NamedTuple):
    """One message: immutable, and a tuple, which builds in a third of the
    time of a frozen dataclass; a transcript file holds thousands."""

    sender: str  # "P" or "V"
    label: str
    payload: object

    def encode(self) -> bytes:
        return _message_head(self.sender, self.label) + encode_payload(self.payload)


@lru_cache(maxsize=1024)
def _message_head(sender: str, label: str) -> bytes:
    """The bytes every message from sender under label starts with."""
    return _tag("message") + sender.encode("ascii") + _tag(label)


@lru_cache(maxsize=256)
def marker_bytes(label: str) -> bytes:
    """The bytes the chain absorbs for the marker ``begin:<id>`` or
    ``end:<id>``: a Verifier message holding a true flag, as format v1
    stored it, so every challenge stays the same."""
    return _message_head("V", label) + _tag("bool") + _byte(True)


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
        return (_tag("params") + _u64(self.p) + _u64(self.sigma) + _tag(self.mode)
                + _byte(self.strict))


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


_DIGEST_WORDS = struct.Struct(">4Q")  # a SHA-256 digest as four big-endian words


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
            self._words = iter(())
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
            self._words = iter(())

    def draw(self) -> int:
        if self.mode == MODE_INTERACTIVE:
            return self._rng.randrange(self.sigma)
        while True:
            for w in self._words:  # the digest's words not yet read
                if w < self._limit:
                    return w % self.sigma
            h = self._hasher.copy()
            h.update(self._ctr.to_bytes(8, "little"))
            self._ctr += 1
            self._words = iter(_DIGEST_WORDS.unpack(h.digest()))

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
            out.append(_byte(self.verdict.accepted))
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
                raise TranscriptError(f"unknown format {doc['format']!r}")
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
            except (ValueError, RecursionError) as exc:
                # bad JSON or UTF-8, an integer past Python's digit limit, or
                # nesting past the recursion limit
                raise TranscriptError(f"not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)
