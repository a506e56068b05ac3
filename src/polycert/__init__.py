"""Interactive certificates for polynomial matrix computations over prime fields.

A Prover and a Verifier exchange messages so that the Verifier becomes
convinced of a claimed result (rank, determinant, row-space membership,
Hermite/Popov forms, saturation, kernel bases) without ever recomputing it.
Protocols run either interactively (seeded randomness) or non-interactively
via a Fiat-Shamir hash chain, and every exchange is recorded in a bit-exact
transcript that can be stored and re-verified offline.
"""

from .ff import PrimeField
from .upoly import NEG_INF, Poly, RatVec
from .matfield import FieldMat
from .polymat import PolyMat
from .transcript import ProtocolParams, Reason, Transcript, Verdict
from .protocols import PROTOCOL_IDS, ProverGaveUp, run_protocol, verify_transcript

__all__ = [
    "PrimeField",
    "Poly",
    "RatVec",
    "NEG_INF",
    "FieldMat",
    "PolyMat",
    "ProtocolParams",
    "Transcript",
    "Verdict",
    "Reason",
    "PROTOCOL_IDS",
    "ProverGaveUp",
    "run_protocol",
    "verify_transcript",
]

__version__ = "0.1.0"
