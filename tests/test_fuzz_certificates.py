"""A structural fuzzer over the saved certificates of all 22 protocols.

Each example takes the saved JSON of an honest certificate and lies about
its structure: a value of the wrong JSON type, a wrong dimension, a deleted
or duplicated message, a huge integer, or a field element or polynomial
spelled a second way.  Loading the result may raise TranscriptError, and
re-verifying what loads must return a Verdict; no other exception may leak.
"""

import json
import random
from datetime import timedelta
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import PROTOCOL_IDS
from polycert.experiments import generate_true_instance
from polycert.ff import PrimeField
from polycert.protocols import ProverGaveUp, run_protocol, verify_transcript
from polycert.transcript import (
    MODE_FIAT_SHAMIR,
    ProtocolParams,
    Transcript,
    TranscriptError,
    Verdict,
)

F = PrimeField(97)

# values of every JSON type, and integers and strings of every troublesome size
JUNK = (None, True, False, 0, -1, 1.5, 2**64, -(2**70), "", "x", "1", "01", "-1",
        str(2**70), [], ["1"], [[]], [["1", "0"]], {}, {"kind": "bool", "value": True})
DIMENSIONS = ("m", "n", "rho")


@lru_cache(maxsize=None)
def _certificates() -> dict:
    """protocol id -> the saved JSON text of an accepted honest certificate."""
    params = ProtocolParams(p=F.p, sigma=F.p, mode=MODE_FIAT_SHAMIR, strict=False)
    out = {}
    for pid in PROTOCOL_IDS:
        for seed in range(10):
            pub = generate_true_instance(pid, random.Random(seed), F, mmax=3, dmax=2)
            try:
                verdict, t = run_protocol(pid, pub, params)
            except ProverGaveUp:
                continue
            if verdict.accepted:
                out[pid] = json.dumps(t.to_json_dict())
                break
    return out


def _nodes(node, path=()):
    """(path, value) for every node below the root of a JSON document."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _is_elem(v) -> bool:
    return isinstance(v, str) and v.isdigit()


def _mutate(data, doc):
    """Apply one structural lie to doc, in place."""
    nodes = list(_nodes(doc))
    kind = data.draw(st.sampled_from(
        ["type", "dimension", "delete", "duplicate", "huge", "second_spelling"]))
    messages = doc.get("messages")
    if kind in ("delete", "duplicate") and isinstance(messages, list) and messages:
        i = data.draw(st.integers(0, len(messages) - 1))
        if kind == "delete":
            del messages[i]
        else:
            messages.insert(data.draw(st.integers(0, len(messages))), json.loads(
                json.dumps(messages[i])))
        return
    if kind == "dimension":
        dims = [path for path, v in nodes if path[-1] in DIMENSIONS and type(v) is int]
        if dims:
            path = data.draw(st.sampled_from(dims))
            _set(doc, path, data.draw(st.sampled_from([0, 1, 2, 5, 2**31, 2**62, 2**64])))
            return
    elems = [(path, v) for path, v in nodes if _is_elem(v)]
    if kind == "huge" and elems:
        path, _ = data.draw(st.sampled_from(elems))
        _set(doc, path, data.draw(st.sampled_from(["9" * 19, "9" * 20, "9" * 400, 2**64])))
        return
    if kind == "second_spelling":
        polys = [(path, v) for path, v in nodes
                 if isinstance(v, list) and v and all(map(_is_elem, v))]
        if polys and data.draw(st.booleans()):
            path, v = data.draw(st.sampled_from(polys))
            _set(doc, path, v + ["0"])
            return
        if elems:
            path, v = data.draw(st.sampled_from(elems))
            _set(doc, path, data.draw(st.sampled_from(
                [str(int(v) + F.p), "0" + v, "+" + v, " " + v, v + ".0"])))
            return
    path, _ = data.draw(st.sampled_from(nodes))
    # a copy: a later lie may edit what this one put in
    _set(doc, path, json.loads(json.dumps(data.draw(st.sampled_from(JUNK)))))


def test_every_protocol_has_a_certificate():
    assert tuple(_certificates()) == PROTOCOL_IDS


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
@settings(max_examples=25, deadline=timedelta(seconds=5), derandomize=True)
@given(data=st.data())
def test_mutated_certificate_loads_or_fails_cleanly_and_verifies_to_a_verdict(pid, data):
    doc = json.loads(_certificates()[pid])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    if data.draw(st.booleans()):
        doc.pop("digest", None)  # judged on its new bytes, not its old digest
    try:
        t = Transcript.from_json_dict(json.loads(json.dumps(doc)))
    except TranscriptError:
        return
    assert isinstance(verify_transcript(t), Verdict)
