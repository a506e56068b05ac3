"""The interactive protocols: Verifier state machines plus the session runner.

Every protocol is a function that drives one Session: it requests prover
messages, derives Verifier challenges, performs exactly the checks the
protocol prescribes, and raises ProtocolReject on the first failure
(remaining scheduled messages are never consumed).  Sub-protocols are
invoked inline between begin/end markers and share the session's single
challenge source, so a Fiat-Shamir run has one global hash chain.

The Verifier never recomputes certified objects.  Concretely: this module
must not import :mod:`polycert.oracles`, and products like C.A exist only
as evaluation views.  Everything the Verifier does is evaluation, matrix-
vector work over the base field, degree bookkeeping, and shape checks.

A Prover answer that several messages share, such as the row and column
sets of ``rank_lb`` or the ``rsm`` commitment, is asked for once by the
runner whose messages need it (:func:`once`) and lives in that runner's
call; a sub-protocol receives the answers it needs as arguments.  The
Session holds no Prover answer, so a live run and a replay run the same
Verifier code.

The Prover sends no value that a check would fix, and the Verifier fills
it in: a ``rank_lb`` index set of all rows or all columns, the unit
diagonal and the zeros of ``field_det``'s L and U, its rank when the
claimed determinant is nonzero, and ``coprime``'s mixers for t <= 2.

Each protocol is registered once, by the ``@protocol`` decorator on its
runner: its id, its public-input schema and its advertised #S lower bound
form one :class:`ProtocolSpec` in :data:`PROTOCOLS`.  Strict mode enforces
the bound of the protocol actually being run (the top-level one); bounds of
nested sub-protocols are not enforced separately, since the top-level bound
is the one that guarantees completeness and 1/2-soundness for the composite.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .ff import PrimeField
from .matfield import FieldMat, hamming_weight, is_permutation, perm_sign
from .polymat import (
    MatView,
    PolyMat,
    ScaledVecView,
    SubmatrixView,
    ToeplitzOp,
    ToeplitzProductView,
    VecView,
    check_hermite_shape,
    check_popov_shape,
)
from .transcript import (
    ChallengeSource,
    FieldMatrixPayload,
    FieldScalar,
    FieldVector,
    IndexSetPayload,
    Message,
    PolyMatrixPayload,
    PolyPayload,
    PolyVectorPayload,
    ProtocolParams,
    RankClaimPayload,
    Reason,
    ShiftPayload,
    ToeplitzSpecPayload,
    Transcript,
    TranscriptError,
    Verdict,
    marker_bytes,
)
from .upoly import NEG_INF, Poly, deg_add, deg_le, deg_scale


class ProtocolReject(Exception):
    def __init__(self, reason: Reason, detail: str = ""):
        super().__init__(f"{reason.value}: {detail}")
        self.reason = reason
        self.detail = detail


class ProverGaveUp(Exception):
    """An honest Las Vegas prover exceeded its retry caps (not a rejection)."""


def wdeg(d) -> int:
    """The max(1, deg) convention used by every probability bound."""
    return 1 if d == NEG_INF else max(1, int(d))


def deg_lt(d, bound) -> bool:
    """deg < bound with the zero-polynomial convention."""
    if d == NEG_INF:
        return True
    if bound == NEG_INF:
        return False
    return d < bound


def rsm_rounds(sigma: int, rho: int, deg_a) -> int:
    """Number of Toeplitz compressions: 1 + ceil(log_{sigma/rho}(2 rho deg A)),
    clamped to at least 2.  Requires sigma > rho so the base exceeds 1."""
    if rho <= 0:
        raise ValueError("rsm_rounds needs a positive rank claim")
    if sigma <= rho:
        raise ValueError("sample set must be larger than the rank claim")
    x = 2 * rho * (0 if deg_a == NEG_INF else int(deg_a))
    k = 0
    num, den = 1, 1  # (sigma/rho)^k as an exact fraction
    while num < x * den:
        num *= sigma
        den *= rho
        k += 1
    return max(2, 1 + k)


class Session:
    """Single protocol run: message recording/replay plus challenge
    derivation; sub-protocol markers are absorbed, not recorded."""

    def __init__(self, spec: "ProtocolSpec", pub: dict, transcript: Transcript,
                 prover=None):
        self.spec = spec
        self.pub = pub
        self.transcript = transcript
        self.params = transcript.params
        self.field: PrimeField = transcript.params.field()
        self.sigma = transcript.params.sigma
        self.prover = prover
        self.replay = prover is None  # no Prover: replay the recorded messages
        self._cursor = 0
        self._sub_stack: list[str] = []
        self.source = ChallengeSource(self.params, transcript.domain_tag())
        if self.source.hashes:
            self.source.absorb(transcript.hash_prefix())

    # -- failure -----------------------------------------------------------

    def fail(self, reason: Reason, detail: str = ""):
        if self._sub_stack and reason is not Reason.PARAMS_INVALID:
            path = "/".join(self._sub_stack)
            raise ProtocolReject(
                Reason.SUBPROTOCOL_REJECTED, f"{path}: {reason.value}"
                + (f" ({detail})" if detail else "")
            )
        raise ProtocolReject(reason, detail)

    # -- strict-mode bound -----------------------------------------------------

    def declare_bound(self, rank_claim: int | None = None):
        """Record the run's advertised #S lower bound, the top-level spec's
        formula, and enforce it in strict mode.  A spec whose bound takes the
        Prover's rank claim is declared once the claim arrives."""
        if rank_claim is None:
            bound = self.spec.bound(self.pub)
        else:
            bound = self.spec.bound(self.pub, rank_claim)
        self.transcript.meta.setdefault("sigma_lower_bound", bound)
        if self.params.strict and self.sigma < bound:
            self.fail(
                Reason.PARAMS_INVALID,
                f"strict mode needs sigma >= {bound}, got {self.sigma}",
            )

    # -- message plumbing ----------------------------------------------------

    def _absorb(self, message: Message):
        """Feed a sent or replayed message to the hash chain, encoding it
        only when the challenges depend on it."""
        if self.source.hashes:
            self.source.absorb(self.transcript.message_bytes(message))

    def _next_recorded(self, sender: str, label: str) -> Message:
        if self._cursor >= len(self.transcript.messages):
            self.fail(Reason.MALFORMED_MESSAGE, f"transcript ended before {label}")
        msg = self.transcript.messages[self._cursor]
        self._cursor += 1
        if msg.sender != sender or msg.label != label:
            self.fail(
                Reason.MALFORMED_MESSAGE,
                f"expected {sender}:{label}, found {msg.sender}:{msg.label}",
            )
        return msg

    def _prover_payload(self, label: str, kind, produce, check):
        """The Prover's next message: recorded (live) or read (replay), then
        its type and check(payload) are checked, and only then is it
        absorbed, so an element or index with no canonical bytes (below 0,
        or 2^64 and more) is a malformed message in every mode, not an
        encoding error."""
        if self.replay:
            msg = self._next_recorded("P", label)
        else:
            msg = Message("P", label, produce())
            self.transcript.append(msg)
        if not isinstance(msg.payload, kind):
            self.fail(Reason.MALFORMED_MESSAGE, f"{label}: wrong payload type")
        check(msg.payload)
        self._absorb(msg)
        return msg.payload

    def _check_elems(self, label: str, values):
        p = self.field.p
        for v in values:
            if not isinstance(v, int) or not 0 <= v < p:
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: element out of range")

    def _check_poly(self, label: str, coeffs):
        self._check_elems(label, coeffs)
        if coeffs and coeffs[-1] == 0:
            self.fail(Reason.MALFORMED_MESSAGE, f"{label}: non-normalized polynomial")

    # -- typed prover messages --------------------------------------------------

    def prover_scalar(self, label: str, produce) -> int:
        payload = self._prover_payload(
            label, FieldScalar, lambda: FieldScalar(produce()),
            lambda pl: self._check_elems(label, [pl.value]))
        return payload.value

    def prover_vector(self, label: str, length: int, produce) -> list:
        def check(pl):
            if len(pl.values) != length:
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: wrong length")
            self._check_elems(label, pl.values)

        payload = self._prover_payload(
            label, FieldVector, lambda: FieldVector(tuple(produce())), check)
        return list(payload.values)

    def prover_poly(self, label: str, produce) -> Poly:
        payload = self._prover_payload(
            label, PolyPayload, lambda: PolyPayload.of(produce()),
            lambda pl: self._check_poly(label, list(pl.coeffs)))
        return Poly(self.field, list(payload.coeffs), normalize=False)

    def prover_index_set(self, label: str, size: int, universe: int, produce) -> list:
        def check(pl):
            vals = pl.values
            if len(vals) != size:
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: wrong cardinality")
            if len(set(vals)) != len(vals) or any(
                not isinstance(v, int) or not 0 <= v < universe for v in vals
            ):
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: bad index set")

        payload = self._prover_payload(
            label, IndexSetPayload, lambda: IndexSetPayload(tuple(produce())), check)
        return list(payload.values)

    def prover_permutation(self, label: str, n: int, produce) -> list:
        def check(pl):
            if not is_permutation(list(pl.values), n):
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: not a permutation")

        payload = self._prover_payload(
            label, IndexSetPayload, lambda: IndexSetPayload(tuple(produce())), check)
        return list(payload.values)

    def prover_rank_claim(self, label: str, bound: int, reason: Reason, detail: str,
                          produce) -> int:
        """The Prover's rank claim, which must lie in [0, bound]; a claim
        above the bound fails with the caller's reason and detail before it
        is absorbed, so no claim reaches the encoder that it cannot spell."""
        def check(pl):
            if not isinstance(pl.value, int) or pl.value < 0:
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: bad rank claim")
            if pl.value > bound:
                self.fail(reason, detail)

        payload = self._prover_payload(
            label, RankClaimPayload, lambda: RankClaimPayload(produce()), check)
        return payload.value

    def prover_toeplitz(self, label: str, rho: int, m: int, produce) -> ToeplitzOp:
        def check(pl):
            if pl.rho != rho or pl.m != m:
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: wrong Toeplitz shape")
            if len(pl.values) != max(0, rho + m - 1):
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: wrong Toeplitz length")
            self._check_elems(label, pl.values)

        payload = self._prover_payload(
            label, ToeplitzSpecPayload,
            lambda: ToeplitzSpecPayload(rho, m, tuple(produce())), check)
        return ToeplitzOp(self.field, rho, m, list(payload.values))

    # -- verifier challenges -----------------------------------------------------

    def _verifier_message(self, label: str, payload):
        """Send a challenge, whose payload the Verifier knows; in replay,
        check it against the recording."""
        if self.replay:
            message = self._next_recorded("V", label)
            if message.payload != payload:
                self.fail(Reason.MALFORMED_MESSAGE, f"{label}: challenge mismatch")
        else:
            message = Message("V", label, payload)
            self.transcript.append(message)
        self._absorb(message)

    def challenge_scalar(self, label: str) -> int:
        value = self.source.draw()
        self._verifier_message(label, FieldScalar(value))
        return value

    def challenge_vector(self, label: str, k: int) -> list:
        values = tuple(self.source.draw_vector(k))
        self._verifier_message(label, FieldVector(values))
        return list(values)

    # -- sub-protocol nesting -------------------------------------------------------

    class _Sub:
        def __init__(self, sess: "Session", proto_id: str):
            self.sess = sess
            self.proto_id = proto_id

        def __enter__(self):
            self.sess.source.absorb(marker_bytes(f"begin:{self.proto_id}"))
            self.sess._sub_stack.append(self.proto_id)

        def __exit__(self, exc_type, exc, tb):
            self.sess._sub_stack.pop()
            if exc_type is None:
                self.sess.source.absorb(marker_bytes(f"end:{self.proto_id}"))
            return False

    def subprotocol(self, proto_id: str) -> "_Sub":
        return Session._Sub(self, proto_id)

    def finish_replay(self):
        if self.replay and self._cursor != len(self.transcript.messages):
            self.fail(Reason.MALFORMED_MESSAGE, "trailing messages in transcript")


# -- the registry -------------------------------------------------------------------


class ProtocolSpec(NamedTuple):
    """Everything the Verifier side knows about one protocol.

    ``bound`` gives the advertised #S lower bound from the public inputs.  In
    the rsm family the bound grows with the rank the Prover claims mid-run for
    the public matrix ``claimed_rank_of``; there it is ``bound(pub, claim)``.
    """

    runner: Callable          # (Session, public inputs); raises ProtocolReject
    schema: dict              # public input name -> payload class, in encoding order
    bound: Callable
    claimed_rank_of: str | None = None


PROTOCOLS: dict[str, ProtocolSpec] = {}


def protocol(protocol_id: str, schema: dict, bound: Callable,
             claimed_rank_of: str | None = None):
    """Register the decorated runner as the Verifier of protocol_id."""
    def register(runner):
        PROTOCOLS[protocol_id] = ProtocolSpec(runner, schema, bound, claimed_rank_of)
        return runner
    return register


def protocol_spec(protocol_id: str) -> ProtocolSpec:
    spec = PROTOCOLS.get(protocol_id)
    if spec is None:
        raise ValueError(f"unknown protocol {protocol_id!r}")
    return spec


# -- small shared helpers -----------------------------------------------------------


def row_wdeg(row) -> int:
    """wdeg of the largest degree in a row of polynomials."""
    return wdeg(max((f.deg for f in row), default=NEG_INF))


def _vdeg(pub) -> int:
    """wdeg of the largest degree in the public matrix A and vector v."""
    return max(wdeg(pub["A"].deg), row_wdeg(pub["v"]))


def _mdeg(pub, *names) -> int:
    """wdeg of the largest degree among the named public matrices."""
    return max(wdeg(pub[name].deg) for name in names)


def _dot(field, a, b) -> int:
    return sum(x * y for x, y in zip(a, b)) % field.p


def once(produce):
    """A thunk for produce(): the one Prover call behind a group of
    messages, made on the first message's request and kept for the others.
    A replay never calls it."""
    kept = []

    def answer():
        if not kept:
            kept.append(produce())
        return kept[0]
    return answer


# -- protocol bodies ----------------------------------------------------------------
# Each body takes domain objects; the dims/kind sanity of public inputs is
# re-checked here so that verification of hostile transcript files rejects
# rather than crashes.


@protocol("singularity", {"A": PolyMatrixPayload},
          lambda pub: 2 * pub["A"].n * _mdeg(pub, "A"))
def run_singularity(sess: Session, pub):
    a: PolyMat = pub["A"]
    if a.m != a.n or a.m == 0:
        sess.fail(Reason.PARAMS_INVALID, "matrix must be square and nonempty")
    n = a.n
    sess.declare_bound()
    alpha = sess.challenge_scalar("alpha")
    v = sess.prover_vector(
        "kernel_vector", n, lambda: sess.prover.singularity_kernel_vector(a, alpha)
    )
    if not any(v):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "kernel vector is zero")
    if any(a.eval_at(alpha).vecmat(v)):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "v A(alpha) != 0")


def _nonsingularity(sess: Session, view: MatView, probe=lambda: None):
    """``probe()`` is the caller's Prover answer for
    :meth:`HonestProver.nonsingularity_point`, as ``rank_lb`` holds one."""
    n = view.m
    if n != view.n:
        sess.fail(Reason.PARAMS_INVALID, "matrix must be square")
    if n == 0:
        return  # det of the empty matrix is 1
    point = once(lambda: sess.prover.nonsingularity_point(view, sess.sigma, probe()))
    alpha = sess.prover_scalar("eval_point", lambda: point()[0])
    if alpha >= sess.sigma:
        sess.fail(Reason.MALFORMED_MESSAGE, "evaluation point outside sample set")
    b = sess.challenge_vector("rhs", n)
    w = sess.prover_vector(
        "solution", n,
        lambda: sess.prover.nonsingularity_solution(view, alpha, b, point()[1]),
    )
    if view.matvec_at(alpha, w) != b:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(alpha) w != b")


@protocol("nonsingularity", {"A": PolyMatrixPayload},
          lambda pub: pub["A"].n * _mdeg(pub, "A") + 1)
def run_nonsingularity(sess: Session, pub):
    a: PolyMat = pub["A"]
    if a.m != a.n or a.m == 0:
        sess.fail(Reason.PARAMS_INVALID, "matrix must be square and nonempty")
    sess.declare_bound()
    _nonsingularity(sess, a)


def _index_set(sess: Session, label: str, size: int, universe: int, produce) -> list:
    """A Prover index set, or all of range(universe) unsent when size is
    universe: a set of that size could only reorder it, and reordering the
    rows or columns of a submatrix keeps it nonsingular or singular."""
    if size == universe:
        return list(range(size))
    return sess.prover_index_set(label, size, universe, produce)


def _rank_lb(sess: Session, view: MatView, rho: int):
    if rho < 0:
        sess.fail(Reason.PARAMS_INVALID, "negative rank bound")
    if rho == 0:
        return  # vacuously true
    if rho > min(view.m, view.n):
        sess.fail(Reason.RANK_CHECK_FAILED, "rank bound exceeds the dimensions")
    sets = once(lambda: sess.prover.rank_lb_sets(view, rho))
    rows = _index_set(sess, "row_set", rho, view.m, lambda: sets()[0])
    cols = _index_set(sess, "col_set", rho, view.n, lambda: sets()[1])
    sub = SubmatrixView(view, rows, cols)
    with sess.subprotocol("nonsingularity"):
        _nonsingularity(sess, sub, lambda: sets()[2])


@protocol("rank_lb", {"A": PolyMatrixPayload, "rho": RankClaimPayload},
          lambda pub: max(0, pub["rho"]) * _mdeg(pub, "A") + 1)
def run_rank_lb(sess: Session, pub):
    sess.declare_bound()
    _rank_lb(sess, pub["A"], pub["rho"])


def _rank_ub(sess: Session, a: PolyMat, rho: int):
    if rho < 0:
        sess.fail(Reason.PARAMS_INVALID, "negative rank bound")
    if rho >= min(a.m, a.n):
        return  # every matrix has rank at most min(m, n)
    n = a.n
    alpha = sess.challenge_scalar("alpha")
    v = sess.challenge_vector("probe", n)
    gamma = sess.prover_vector(
        "sparse_combination", n,
        lambda: sess.prover.rank_ub_gamma(a, rho, alpha, v),
    )
    if hamming_weight(gamma) > rho:
        sess.fail(Reason.RANK_CHECK_FAILED, "Hamming weight exceeds the bound")
    ev = a.eval_at(alpha)
    if ev.matvec(gamma) != ev.matvec(v):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(alpha) gamma != A(alpha) v")


@protocol("rank_ub", {"A": PolyMatrixPayload, "rho": RankClaimPayload},
          lambda pub: 2 * max(0, pub["rho"]) * _mdeg(pub, "A") + 2)
def run_rank_ub(sess: Session, pub):
    sess.declare_bound()
    _rank_ub(sess, pub["A"], pub["rho"])


@protocol("rank", {"A": PolyMatrixPayload, "rho": RankClaimPayload},
          lambda pub: 2 * max(0, pub["rho"]) * _mdeg(pub, "A") + 2)
def run_rank(sess: Session, pub):
    a: PolyMat = pub["A"]
    rho: int = pub["rho"]
    sess.declare_bound()
    with sess.subprotocol("rank_lb"):
        _rank_lb(sess, a, rho)
    with sess.subprotocol("rank_ub"):
        _rank_ub(sess, a, rho)


def _runs(flat: list, lengths) -> list:
    """flat cut into consecutive runs of the given lengths."""
    out, at = [], 0
    for k in lengths:
        out.append(flat[at : at + k])
        at += k
    return out


def _field_det(sess: Session, b: FieldMat, beta: int):
    """det B = beta from B = P L U Q, with L unit lower nu x r and U upper
    r x nu.  Only what no check fixes is sent: row i of L below its
    diagonal, L[i][:min(i, r)], and row i of U from its diagonal on,
    U[i][i:].  The rank r is sent only when beta = 0: any r < nu claims
    det B = 0, so beta != 0 leaves r = nu as the one claim that can pass."""
    nu = b.m
    if b.m != b.n:
        sess.fail(Reason.PARAMS_INVALID, "matrix must be square")
    if nu == 0:
        if beta != 1 % sess.field.p:
            sess.fail(Reason.EVALUATION_CHECK_FAILED, "empty determinant is 1")
        return

    factors = once(lambda: sess.prover.field_det_factors(b, beta))
    if beta == 0:
        r = sess.prover_rank_claim("pluq_rank", nu, Reason.MALFORMED_MESSAGE,
                                   "rank claim exceeds the dimension",
                                   lambda: factors()[0])
    else:
        r = nu
    prows = sess.prover_permutation("perm_rows", nu, lambda: factors()[1])
    pcols = sess.prover_permutation("perm_cols", nu, lambda: factors()[2])
    lower_lengths = [min(i, r) for i in range(nu)]
    upper_lengths = [nu - i for i in range(r)]
    lower = _runs(sess.prover_vector("lower_factor", sum(lower_lengths),
                                     lambda: factors()[3]), lower_lengths)
    upper = _runs(sess.prover_vector("upper_factor", sum(upper_lengths),
                                     lambda: factors()[4]), upper_lengths)
    field = sess.field
    p = field.p
    if r < nu:
        claimed = 0
    else:
        claimed = 1
        for row in upper:
            claimed = claimed * row[0] % p
        if perm_sign(prows) * perm_sign(pcols) < 0:
            claimed = (p - claimed) % p
    if claimed != beta:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "determinant value mismatch")
    # after the value check: for beta != 0 a zero pivot claims det B = 0
    if any(row[0] == 0 for row in upper):
        sess.fail(Reason.SHAPE_CHECK_FAILED, "U diagonal vanishes")
    v = sess.challenge_vector("probe", nu)
    qv = [v[j] for j in pcols]
    uqv = [_dot(field, row, qv[i:]) for i, row in enumerate(upper)]
    pluqv = [0] * nu
    for i, row in enumerate(lower):
        pluqv[prows[i]] = (_dot(field, row, uqv) + (uqv[i] if i < r else 0)) % p
    if pluqv != b.matvec(v):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "Freivalds check failed")


@protocol("determinant", {"A": PolyMatrixPayload, "delta": PolyPayload},
          lambda pub: 2 * pub["A"].n * _mdeg(pub, "A") + 2)
def run_determinant(sess: Session, pub):
    a: PolyMat = pub["A"]
    delta: Poly = pub["delta"]
    if a.m != a.n or a.m == 0:
        sess.fail(Reason.PARAMS_INVALID, "matrix must be square and nonempty")
    sess.declare_bound()
    if not deg_le(delta.deg, a.n * wdeg(a.deg)):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "claimed determinant degree too high")
    alpha = sess.challenge_scalar("alpha")
    beta = delta(alpha)
    with sess.subprotocol("field_det"):
        _field_det(sess, a.eval_at(alpha), beta)


@protocol("field_det", {"B": FieldMatrixPayload, "beta": FieldScalar}, lambda pub: 2)
def run_field_det(sess: Session, pub):
    sess.declare_bound()
    _field_det(sess, pub["B"], pub["beta"])


@protocol("system_solve", {"A": PolyMatrixPayload, "b": PolyVectorPayload,
                           "v": PolyVectorPayload, "delta": PolyPayload},
          lambda pub: 4 * max(_mdeg(pub, "A"), row_wdeg(pub["b"]), row_wdeg(pub["v"]),
                              wdeg(pub["delta"].deg)))
def run_system_solve(sess: Session, pub):
    a: PolyMat = pub["A"]
    b: list = pub["b"]
    v: list = pub["v"]
    delta: Poly = pub["delta"]
    if len(b) != a.m or len(v) != a.n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    sess.declare_bound()
    alpha = sess.challenge_scalar("alpha")
    p = sess.field.p
    lhs = a.eval_at(alpha).matvec([f(alpha) for f in v])
    da = delta(alpha)
    rhs = [da * f(alpha) % p for f in b]
    if lhs != rhs:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(a)v(a) != delta(a) b(a)")


def _matmul(sess: Session, a: PolyMat, b: PolyMat, c: PolyMat):
    if a.n != b.m or c.m != a.m or c.n != b.n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    if not deg_le(c.deg, deg_add(a.deg, b.deg)):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "product degree too high")
    alpha = sess.challenge_scalar("alpha")
    v = sess.challenge_vector("probe", b.n)
    bv = b.eval_at(alpha).matvec(v)
    lhs = a.eval_at(alpha).matvec(bv)
    rhs = c.eval_at(alpha).matvec(v)
    if lhs != rhs:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(a)(B(a)v) != C(a)v")


@protocol("matmul", {"A": PolyMatrixPayload, "B": PolyMatrixPayload, "C": PolyMatrixPayload},
          lambda pub: 4 * _mdeg(pub, "A", "B", "C") + 2)
def run_matmul(sess: Session, pub):
    sess.declare_bound()
    _matmul(sess, pub["A"], pub["B"], pub["C"])


@protocol("inverse", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: 4 * _mdeg(pub, "A", "B") + 2)
def run_inverse(sess: Session, pub):
    a, b = pub["A"], pub["B"]
    if a.m != a.n or b.m != b.n or a.n != b.m:
        sess.fail(Reason.PARAMS_INVALID, "inverse needs square matrices")
    sess.declare_bound()
    _matmul(sess, a, b, PolyMat.identity(sess.field, a.n))


def _frrsm(sess: Session, view: MatView, vec: VecView, solution=None):
    """Full-rank membership of vec in the row space of view.

    The Prover's solution u of u A = v is one answer per sub-proof
    (:func:`once`), handed to both of its messages: ``solution()`` when the
    caller already holds it, as the ``rsm`` commitment does, else
    ``prover.frrsm_solution``.
    """
    m, n = view.m, view.n
    if vec.length != n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    if m == 0:
        sess.fail(Reason.PARAMS_INVALID, "empty matrix")

    answer = solution or once(lambda: sess.prover.frrsm_solution(view, vec))
    c = sess.challenge_vector("combination", m)
    g = sess.prover_poly(
        "inner_product", lambda: sess.prover.frrsm_g(view, vec, c, answer())
    )
    bound = deg_add(deg_scale(m, view.deg_bound), vec.deg_bound)
    # deg(v) = -inf alone must not force g = 0 when A is nonzero: the honest
    # u can be nonzero only when v is nonzero, so the absorbing rule is right
    # for soundness and never hurts completeness (v = 0 has g = 0).
    if not deg_le(g.deg, bound):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "inner product degree too high")
    alpha = sess.challenge_scalar("alpha")
    w = sess.prover_vector(
        "solution_eval", m, lambda: sess.prover.frrsm_w(view, vec, c, g, alpha, answer())
    )
    if view.vecmat_at(alpha, w) != vec.eval_at(alpha):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "w A(alpha) != v(alpha)")
    if _dot(sess.field, w, c) != g(alpha):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "w c != g(alpha)")


@protocol("frrsm", {"A": PolyMatrixPayload, "v": PolyVectorPayload},
          lambda pub: (6 * pub["A"].m + 2) * _vdeg(pub) + 2)
def run_frrsm(sess: Session, pub):
    a: PolyMat = pub["A"]
    v: list = pub["v"]
    if len(v) != a.n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    sess.declare_bound()
    _frrsm(sess, a, ScaledVecView(v))


def _coprime(sess: Session, fs: list):
    t = len(fs)
    if t < 1:
        sess.fail(Reason.PARAMS_INVALID, "need at least one polynomial")

    witness = once(lambda: sess.prover.coprime_witness(fs, sess.sigma))
    s1 = sess.prover_poly("bezout_s1", lambda: witness()[0])
    s2 = sess.prover_poly("bezout_s2", lambda: witness()[1])
    # h mixes f_3, ..., f_t into f_2; with t <= 2 there is nothing to mix
    betas = [] if t <= 2 else sess.prover_vector("mixers", t - 2, lambda: witness()[2])
    if t >= 2:
        bound1 = max(1, max(wdeg(f.deg) for f in fs[1:]))
    else:
        bound1 = wdeg(fs[0].deg)
    bound2 = wdeg(fs[0].deg)
    if not deg_lt(s1.deg, bound1):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "s1 degree too high")
    if not deg_lt(s2.deg, bound2):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "s2 degree too high")
    alpha = sess.challenge_scalar("alpha")
    p = sess.field.p
    if t >= 2:
        h = fs[1](alpha)
        for i in range(2, t):
            h = (h + betas[i - 2] * fs[i](alpha)) % p
    else:
        h = 0
    if (fs[0](alpha) * s1(alpha) + h * s2(alpha)) % p != 1:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "Bezout identity fails")


@protocol("coprime", {"f": PolyVectorPayload}, lambda pub: 2 * row_wdeg(pub["f"]))
def run_coprime(sess: Session, pub):
    fs: list = pub["f"]
    if fs:
        sess.declare_bound()
    _coprime(sess, fs)


def _rsm(sess: Session, a: PolyMat, v: list):
    m, n = a.m, a.n
    if len(v) != n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    rho = sess.prover_rank_claim("rank_claim", min(m, n), Reason.RANK_CHECK_FAILED,
                                 "rank claim exceeds the dimensions",
                                 lambda: sess.prover.rsm_rank(a))
    if sess.spec.claimed_rank_of is not None:  # run under rsm, rs_subset or rs_equality
        sess.declare_bound(rho)
    if rho == 0:
        # the row space of a rank-0 matrix is {0}
        if any(f.coeffs for f in v):
            sess.fail(Reason.EVALUATION_CHECK_FAILED, "nonzero vector, zero rank claim")
        return
    if sess.sigma <= rho:
        sess.fail(Reason.PARAMS_INVALID, "sample set must exceed the rank claim")
    if rho == m:
        # a full row rank claim is proved on A itself: a Toeplitz C would be
        # square and invertible over F, and C.A would have A's row space
        with sess.subprotocol("rank_lb"):
            _rank_lb(sess, a, m)
        with sess.subprotocol("frrsm"):
            _frrsm(sess, a, ScaledVecView(v))
        return
    t = rsm_rounds(sess.sigma, rho, a.deg)

    commitment = once(lambda: sess.prover.rsm_commitment(a, v, rho, t, sess.sigma))
    tops = []
    for i in range(t):
        tops.append(
            sess.prover_toeplitz(
                f"toeplitz_{i}", rho, m,
                (lambda i=i: commitment()[0][i].values),
            )
        )
    dens = []
    for i in range(t):
        dens.append(
            sess.prover_poly(f"denominator_{i}", (lambda i=i: commitment()[1][i]))
        )
    dbound = deg_scale(rho, a.deg)
    for i, den in enumerate(dens):
        if not deg_le(den.deg, dbound):
            sess.fail(Reason.DEGREE_CHECK_FAILED, f"denominator {i} degree too high")
    with sess.subprotocol("rank_ub"):
        _rank_ub(sess, a, rho)
    # A nonzero constant den_k is its own Bezout identity: w (C_k A) = c v
    # gives v = (c^-1 w C_k) A, so compression k alone proves membership.
    constant = next((i for i, den in enumerate(dens) if den.deg == 0), None)
    checked = range(t) if constant is None else (constant,)
    for i in checked:
        with sess.subprotocol("rank_lb"):
            _rank_lb(sess, ToeplitzProductView(tops[i], a), rho)
    if constant is None:
        with sess.subprotocol("coprime"):
            _coprime(sess, dens)
    for i in checked:
        with sess.subprotocol("frrsm"):
            _frrsm(sess, ToeplitzProductView(tops[i], a), ScaledVecView(v, dens[i]),
                   solution=lambda i=i: commitment()[2][i])


@protocol("rsm", {"A": PolyMatrixPayload, "v": PolyVectorPayload},
          lambda pub, rho: (8 * rho + 2) * _vdeg(pub) + 2, claimed_rank_of="A")
def run_rsm(sess: Session, pub):
    _rsm(sess, pub["A"], pub["v"])


def _rs_subset(sess: Session, a: PolyMat, b: PolyMat):
    if a.n != b.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    lam = sess.challenge_vector("combination", a.m)
    v = a.vecmat(lam)
    with sess.subprotocol("rsm"):
        _rsm(sess, b, v)


@protocol("rs_subset", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub, rho: (8 * rho + 2) * _mdeg(pub, "A", "B") + 4, claimed_rank_of="B")
def run_rs_subset(sess: Session, pub):
    _rs_subset(sess, pub["A"], pub["B"])


def _rs_equality(sess: Session, a: PolyMat, b: PolyMat):
    with sess.subprotocol("rs_subset"):
        _rs_subset(sess, a, b)
    with sess.subprotocol("rs_subset"):
        _rs_subset(sess, b, a)


@protocol("rs_equality", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub, rho: (8 * rho + 2) * _mdeg(pub, "A", "B") + 4, claimed_rank_of="B")
def run_rs_equality(sess: Session, pub):
    _rs_equality(sess, pub["A"], pub["B"])


@protocol("row_basis", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: (8 * pub["B"].m + 2) * _mdeg(pub, "A", "B") + 6)
def run_row_basis(sess: Session, pub):
    a, b = pub["A"], pub["B"]
    if a.n != b.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    sess.declare_bound()
    with sess.subprotocol("rank_lb"):
        _rank_lb(sess, b, b.m)
    with sess.subprotocol("rs_equality"):
        _rs_equality(sess, b, a)


@protocol("hermite", {"A": PolyMatrixPayload, "H": PolyMatrixPayload},
          lambda pub: (8 * pub["H"].m + 2) * _mdeg(pub, "A", "H") + 4)
def run_hermite(sess: Session, pub):
    a: PolyMat = pub["A"]
    h: PolyMat = pub["H"]
    if a.n != h.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    sess.declare_bound()
    if h.m > a.m:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "more rows than the input matrix")
    ok, _ = check_hermite_shape(h)
    if not ok:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "not in Hermite form")
    with sess.subprotocol("rs_equality"):
        _rs_equality(sess, a, h)


@protocol("spopov",
          {"A": PolyMatrixPayload, "shift": ShiftPayload, "P": PolyMatrixPayload},
          lambda pub: (8 * pub["P"].m + 2) * _mdeg(pub, "A", "P") + 4)
def run_spopov(sess: Session, pub):
    a: PolyMat = pub["A"]
    shift: list = pub["shift"]
    pm: PolyMat = pub["P"]
    if a.n != pm.n or len(shift) != a.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    sess.declare_bound()
    if pm.m > a.m:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "more rows than the input matrix")
    ok, _ = check_popov_shape(pm, shift)
    if not ok:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "not in shifted Popov form")
    with sess.subprotocol("rs_equality"):
        _rs_equality(sess, a, pm)


def _saturated(sess: Session, b: PolyMat):
    if b.m == 0 or b.n == 0:
        return  # trivially saturated
    if b.m <= b.n:
        ident = PolyMat.identity(sess.field, b.m)
        with sess.subprotocol("rs_subset"):
            _rs_subset(sess, ident, b.transpose())
    else:
        ident = PolyMat.identity(sess.field, b.n)
        with sess.subprotocol("rs_subset"):
            _rs_subset(sess, ident, b)


@protocol("saturated", {"A": PolyMatrixPayload},
          lambda pub: 8 * min(pub["A"].m, pub["A"].n) * _mdeg(pub, "A") + 4)
def run_saturated(sess: Session, pub):
    sess.declare_bound()
    _saturated(sess, pub["A"])


@protocol("sat_basis", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: (8 * pub["A"].n + 2) * _mdeg(pub, "A", "B") + 4)
def run_sat_basis(sess: Session, pub):
    a: PolyMat = pub["A"]
    b: PolyMat = pub["B"]
    if a.n != b.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    sess.declare_bound()
    if b.m > min(a.m, a.n):
        sess.fail(Reason.SHAPE_CHECK_FAILED, "basis has too many rows")
    with sess.subprotocol("rank_lb"):
        _rank_lb(sess, a, b.m)
    with sess.subprotocol("rs_subset"):
        _rs_subset(sess, a, b)
    with sess.subprotocol("saturated"):
        _saturated(sess, b)


@protocol("unimod_completable", {"A": PolyMatrixPayload},
          lambda pub: 8 * pub["A"].m * _mdeg(pub, "A") + 4)
def run_unimod_completable(sess: Session, pub):
    a: PolyMat = pub["A"]
    sess.declare_bound()
    if not a.m < a.n:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "matrix must be wide")
    with sess.subprotocol("rank_lb"):
        _rank_lb(sess, a, a.m)
    with sess.subprotocol("saturated"):
        _saturated(sess, a)


@protocol("kernel_basis", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: 8 * pub["A"].m * _mdeg(pub, "A", "B") + 4)
def run_kernel_basis(sess: Session, pub):
    a: PolyMat = pub["A"]
    b: PolyMat = pub["B"]
    if b.n != a.m:
        sess.fail(Reason.PARAMS_INVALID, "kernel basis has wrong column count")
    sess.declare_bound()
    if b.m > a.m:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "kernel basis has too many rows")
    with sess.subprotocol("rank_lb"):
        _rank_lb(sess, b, b.m)
    with sess.subprotocol("rank_lb"):
        _rank_lb(sess, a, a.m - b.m)
    with sess.subprotocol("matmul"):
        _matmul(sess, b, a, PolyMat.zero(sess.field, b.m, a.n))
    with sess.subprotocol("saturated"):
        _saturated(sess, b)


PROTOCOL_IDS = tuple(PROTOCOLS)  # in registration order


# -- public input encoding/decoding per protocol ---------------------------------


def encode_public_inputs(protocol_id: str, pub: dict) -> dict:
    schema = PROTOCOLS[protocol_id].schema
    if set(pub) != set(schema):
        raise ValueError(
            f"{protocol_id} needs public inputs {sorted(schema)}, got {sorted(pub)}"
        )
    return {name: cls.of(pub[name]) for name, cls in schema.items()}


def decode_public_inputs(protocol_id: str, field: PrimeField, payloads: dict) -> dict:
    spec = PROTOCOLS.get(protocol_id)
    if spec is None:
        raise TranscriptError(f"unknown protocol {protocol_id!r}")
    if set(payloads) != set(spec.schema):
        raise TranscriptError(f"{protocol_id}: wrong public input names")
    out = {}
    for name, cls in spec.schema.items():
        pl = payloads[name]
        if not isinstance(pl, cls):
            raise TranscriptError(f"{name}: expected a {cls.__name__}")
        out[name] = pl.value_in(field)
    return out


# -- top-level entry points ----------------------------------------------------------


def run_protocol(protocol_id: str, pub: dict, params: ProtocolParams,
                 prover=None, prover_seed: int = 0):
    """Run one full exchange with the given (default: honest) prover.

    Returns (Verdict, Transcript).  Raises ProverGaveUp if an honest Las
    Vegas prover exceeds its retry caps, and ValueError for malformed calls.
    """
    spec = protocol_spec(protocol_id)
    payloads = encode_public_inputs(protocol_id, pub)
    transcript = Transcript(protocol_id, params, payloads)
    if prover is None:
        from .provers import HonestProver  # prover side may use the heavy oracles

        prover = HonestProver(seed=prover_seed)
    sess = Session(spec, pub, transcript, prover=prover)
    try:
        spec.runner(sess, pub)
        verdict = Verdict.accept()
    except ProtocolReject as rej:
        verdict = Verdict.reject(rej.reason, rej.detail)
    transcript.verdict = verdict
    transcript.meta["communication"] = transcript.comm_field_elements()
    return verdict, transcript


def verify_transcript(transcript: Transcript) -> Verdict:
    """Re-verify a stored transcript with no prover present.

    Every challenge is re-derived (Fiat-Shamir hash chain or seeded PRNG)
    and compared against the recorded one, and every Verifier check is
    re-run against the recorded prover messages.  Markers, which the file
    does not hold, are absorbed where the live run absorbed them; the order
    of the recorded labels carries the schedule.  A recorded value that its
    message's check lets pass but that has no canonical bytes (a rank claim
    of 2^64 or more in a file loaded without its digest) is met when the
    replay encodes it, and rejects as malformed.
    """
    try:
        field = transcript.params.field()
        pub = decode_public_inputs(transcript.protocol_id, field, transcript.public)
    except (TranscriptError, ValueError) as exc:
        return Verdict.reject(Reason.MALFORMED_MESSAGE, str(exc))
    spec = PROTOCOLS[transcript.protocol_id]
    try:
        sess = Session(spec, pub, transcript)
        spec.runner(sess, pub)
        sess.finish_replay()
        return Verdict.accept()
    except ProtocolReject as rej:
        return Verdict.reject(rej.reason, rej.detail)
    except TranscriptError as exc:
        return Verdict.reject(Reason.MALFORMED_MESSAGE, str(exc))
