"""The interactive protocols: Verifier state machines plus the session runner.

Every protocol is a function that drives one Session: it requests prover
messages, derives Verifier challenges, performs exactly the checks the
protocol prescribes, and raises ProtocolReject on the first failure
(remaining scheduled messages are never consumed).  A composite runs a
child by its registry id, ``sess.sub("rank_lb", view, rho)``: the Session
absorbs the child's begin and end markers around it, and every child shares
the session's single challenge source, so a Fiat-Shamir run has one global
hash chain.

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

Each protocol is one function, registered by the ``@protocol`` decorator:
its id, its public-input schema and its advertised #S lower bound form one
:class:`ProtocolSpec` in :data:`PROTOCOLS`, and the function, whose
parameters are the schema names, is both the top-level runner and the
child.  :meth:`Session.play` declares the bound of the protocol actually
being run (the top-level one) and strict mode enforces it; bounds of nested
sub-protocols are not enforced separately, since the top-level bound is the
one that guarantees completeness and 1/2-soundness for the composite.  Only
``rsm``'s bound waits for the Prover's rank claim, and ``rsm`` declares it.
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

    def declare_bound(self, *rank_claim: int):
        """Record the run's advertised #S lower bound, the top-level spec's
        formula, and enforce it in strict mode.  A spec whose bound takes the
        Prover's rank claim is declared once the claim arrives."""
        bound = self.spec.bound(self.pub, *rank_claim)
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
            if type(v) is not int or not 0 <= v < p:  # a bool is no element
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

    # -- playing protocols ---------------------------------------------------------

    def play(self):
        """Run the top-level protocol: declare its #S bound, unless the bound
        takes a rank the Prover claims mid-run, then its runner on the public
        inputs; a replay must use up the recorded messages."""
        spec = self.spec
        if spec.claimed_rank_of is None:
            self.declare_bound()
        spec.runner(self, **self.pub)
        if self.replay and self._cursor != len(self.transcript.messages):
            self.fail(Reason.MALFORMED_MESSAGE, "trailing messages in transcript")

    def sub(self, protocol_id: str, *args):
        """Run the registered protocol_id as a sub-protocol on args, between
        its begin and end markers.  A rejection ends the whole run, so no
        marker or stack pop follows it."""
        source = self.source
        source.absorb(marker_bytes(f"begin:{protocol_id}"))
        self._sub_stack.append(protocol_id)
        PROTOCOLS[protocol_id].runner(self, *args)
        self._sub_stack.pop()
        source.absorb(marker_bytes(f"end:{protocol_id}"))


# -- the registry -------------------------------------------------------------------


class ProtocolSpec(NamedTuple):
    """Everything the Verifier side knows about one protocol.

    ``runner(sess, **pub)`` plays the protocol on its public inputs, named
    as in ``schema``; a composite calls it as a child through
    :meth:`Session.sub`, with positional arguments.  ``bound`` gives the
    advertised #S lower bound from the public inputs.  In the rsm family the
    bound grows with the rank the Prover claims mid-run for the public
    matrix ``claimed_rank_of``; there it is ``bound(pub, claim)``.
    """

    runner: Callable          # raises ProtocolReject
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
# Each body is the runner of its protocol, at the top level and as a child;
# its parameters after the session are its schema names.  The dims/kind sanity
# of public inputs is re-checked here so that verification of hostile
# transcript files rejects rather than crashes.


def _square_nonempty(sess: Session, a: PolyMat):
    if a.m != a.n or a.m == 0:
        sess.fail(Reason.PARAMS_INVALID, "matrix must be square and nonempty")


@protocol("singularity", {"A": PolyMatrixPayload},
          lambda pub: 2 * pub["A"].n * _mdeg(pub, "A"))
def singularity(sess: Session, A: PolyMat):
    _square_nonempty(sess, A)
    alpha = sess.challenge_scalar("alpha")
    v = sess.prover_vector(
        "kernel_vector", A.n, lambda: sess.prover.singularity_kernel_vector(A, alpha)
    )
    if not any(v):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "kernel vector is zero")
    if any(A.eval_at(alpha).vecmat(v)):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "v A(alpha) != 0")


@protocol("nonsingularity", {"A": PolyMatrixPayload},
          lambda pub: pub["A"].n * _mdeg(pub, "A") + 1)
def nonsingularity(sess: Session, A: MatView, probe=None):
    """``probe()`` is the caller's Prover answer for
    :meth:`HonestProver.nonsingularity_point`, as ``rank_lb`` holds one."""
    _square_nonempty(sess, A)
    n = A.m
    point = once(lambda: sess.prover.nonsingularity_point(
        A, sess.sigma, probe and probe()))
    alpha = sess.prover_scalar("eval_point", lambda: point()[0])
    if alpha >= sess.sigma:
        sess.fail(Reason.MALFORMED_MESSAGE, "evaluation point outside sample set")
    b = sess.challenge_vector("rhs", n)
    w = sess.prover_vector(
        "solution", n,
        lambda: sess.prover.nonsingularity_solution(A, alpha, b, point()[1]),
    )
    if A.matvec_at(alpha, w) != b:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(alpha) w != b")


def _index_set(sess: Session, label: str, size: int, universe: int, produce) -> list:
    """A Prover index set, or all of range(universe) unsent when size is
    universe: a set of that size could only reorder it, and reordering the
    rows or columns of a submatrix keeps it nonsingular or singular."""
    if size == universe:
        return list(range(size))
    return sess.prover_index_set(label, size, universe, produce)


@protocol("rank_lb", {"A": PolyMatrixPayload, "rho": RankClaimPayload},
          lambda pub: max(0, pub["rho"]) * _mdeg(pub, "A") + 1)
def rank_lb(sess: Session, A: MatView, rho: int):
    if rho < 0:
        sess.fail(Reason.PARAMS_INVALID, "negative rank bound")
    if rho == 0:
        return  # vacuously true
    if rho > min(A.m, A.n):
        sess.fail(Reason.RANK_CHECK_FAILED, "rank bound exceeds the dimensions")
    sets = once(lambda: sess.prover.rank_lb_sets(A, rho))
    rows = _index_set(sess, "row_set", rho, A.m, lambda: sets()[0])
    cols = _index_set(sess, "col_set", rho, A.n, lambda: sets()[1])
    sess.sub("nonsingularity", SubmatrixView(A, rows, cols), lambda: sets()[2])


@protocol("rank_ub", {"A": PolyMatrixPayload, "rho": RankClaimPayload},
          lambda pub: 2 * max(0, pub["rho"]) * _mdeg(pub, "A") + 2)
def rank_ub(sess: Session, A: PolyMat, rho: int):
    if rho < 0:
        sess.fail(Reason.PARAMS_INVALID, "negative rank bound")
    if rho >= min(A.m, A.n):
        return  # every matrix has rank at most min(m, n)
    n = A.n
    alpha = sess.challenge_scalar("alpha")
    v = sess.challenge_vector("probe", n)
    gamma = sess.prover_vector(
        "sparse_combination", n,
        lambda: sess.prover.rank_ub_gamma(A, rho, alpha, v),
    )
    if hamming_weight(gamma) > rho:
        sess.fail(Reason.RANK_CHECK_FAILED, "Hamming weight exceeds the bound")
    ev = A.eval_at(alpha)
    if ev.matvec(gamma) != ev.matvec(v):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(alpha) gamma != A(alpha) v")


@protocol("rank", {"A": PolyMatrixPayload, "rho": RankClaimPayload},
          lambda pub: 2 * max(0, pub["rho"]) * _mdeg(pub, "A") + 2)
def rank(sess: Session, A: PolyMat, rho: int):
    sess.sub("rank_lb", A, rho)
    sess.sub("rank_ub", A, rho)


def _runs(flat: list, lengths) -> list:
    """flat cut into consecutive runs of the given lengths."""
    out, at = [], 0
    for k in lengths:
        out.append(flat[at : at + k])
        at += k
    return out


@protocol("determinant", {"A": PolyMatrixPayload, "delta": PolyPayload},
          lambda pub: 2 * pub["A"].n * _mdeg(pub, "A") + 2)
def determinant(sess: Session, A: PolyMat, delta: Poly):
    _square_nonempty(sess, A)
    if not deg_le(delta.deg, A.n * wdeg(A.deg)):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "claimed determinant degree too high")
    alpha = sess.challenge_scalar("alpha")
    sess.sub("field_det", A.eval_at(alpha), delta(alpha))


@protocol("field_det", {"B": FieldMatrixPayload, "beta": FieldScalar}, lambda pub: 2)
def field_det(sess: Session, B: FieldMat, beta: int):
    """det B = beta from B = P L U Q, with L unit lower nu x r and U upper
    r x nu.  Only what no check fixes is sent: row i of L below its
    diagonal, L[i][:min(i, r)], and row i of U from its diagonal on,
    U[i][i:].  The rank r is sent only when beta = 0: any r < nu claims
    det B = 0, so beta != 0 leaves r = nu as the one claim that can pass."""
    nu = B.m
    if B.m != B.n:
        sess.fail(Reason.PARAMS_INVALID, "matrix must be square")
    if nu == 0:
        if beta != 1 % sess.field.p:
            sess.fail(Reason.EVALUATION_CHECK_FAILED, "empty determinant is 1")
        return

    factors = once(lambda: sess.prover.field_det_factors(B, beta))
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
    if pluqv != B.matvec(v):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "Freivalds check failed")


@protocol("system_solve", {"A": PolyMatrixPayload, "b": PolyVectorPayload,
                           "v": PolyVectorPayload, "delta": PolyPayload},
          lambda pub: 4 * max(_mdeg(pub, "A"), row_wdeg(pub["b"]), row_wdeg(pub["v"]),
                              wdeg(pub["delta"].deg)))
def system_solve(sess: Session, A: PolyMat, b: list, v: list, delta: Poly):
    if len(b) != A.m or len(v) != A.n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    alpha = sess.challenge_scalar("alpha")
    p = sess.field.p
    lhs = A.eval_at(alpha).matvec([f(alpha) for f in v])
    da = delta(alpha)
    rhs = [da * f(alpha) % p for f in b]
    if lhs != rhs:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(a)v(a) != delta(a) b(a)")


@protocol("matmul", {"A": PolyMatrixPayload, "B": PolyMatrixPayload, "C": PolyMatrixPayload},
          lambda pub: 4 * _mdeg(pub, "A", "B", "C") + 2)
def matmul(sess: Session, A: PolyMat, B: PolyMat, C: PolyMat):
    if A.n != B.m or C.m != A.m or C.n != B.n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    if not deg_le(C.deg, deg_add(A.deg, B.deg)):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "product degree too high")
    alpha = sess.challenge_scalar("alpha")
    v = sess.challenge_vector("probe", B.n)
    bv = B.eval_at(alpha).matvec(v)
    lhs = A.eval_at(alpha).matvec(bv)
    rhs = C.eval_at(alpha).matvec(v)
    if lhs != rhs:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "A(a)(B(a)v) != C(a)v")


@protocol("inverse", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: 4 * _mdeg(pub, "A", "B") + 2)
def inverse(sess: Session, A: PolyMat, B: PolyMat):
    if A.m != A.n or B.m != B.n or A.n != B.m:
        sess.fail(Reason.PARAMS_INVALID, "inverse needs square matrices")
    # matmul's checks inline: sub-protocol markers would move every challenge
    matmul(sess, A, B, PolyMat.identity(sess.field, A.n))


def frrsm_g_bound(view: MatView, vec: VecView):
    """The bound on deg g, the inner product u.c that ``frrsm`` receives."""
    return deg_add(deg_scale(view.m, view.deg_bound), vec.deg_bound)


@protocol("frrsm", {"A": PolyMatrixPayload, "v": PolyVectorPayload},
          lambda pub: (6 * pub["A"].m + 2) * _vdeg(pub) + 2)
def frrsm(sess: Session, A: MatView, v: list, den: Poly | None = None, solution=None):
    """Full-rank membership of den * v in the row space of A.

    The Prover's solution u of u A = den * v is one answer per sub-proof
    (:func:`once`), handed to both of its messages: ``solution()`` when the
    caller already holds it, as the ``rsm`` commitment does, else
    ``prover.frrsm_solution``.
    """
    vec = ScaledVecView(v, den)
    m = A.m
    if vec.length != A.n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    if m == 0:
        sess.fail(Reason.PARAMS_INVALID, "empty matrix")

    answer = solution or once(lambda: sess.prover.frrsm_solution(A, vec))
    c = sess.challenge_vector("combination", m)
    g = sess.prover_poly(
        "inner_product", lambda: sess.prover.frrsm_g(A, vec, c, answer())
    )
    # deg(v) = -inf alone must not force g = 0 when A is nonzero: the honest
    # u can be nonzero only when v is nonzero, so the absorbing rule is right
    # for soundness and never hurts completeness (v = 0 has g = 0).
    if not deg_le(g.deg, frrsm_g_bound(A, vec)):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "inner product degree too high")
    alpha = sess.challenge_scalar("alpha")
    w = sess.prover_vector(
        "solution_eval", m, lambda: sess.prover.frrsm_w(A, vec, c, g, alpha, answer())
    )
    if A.vecmat_at(alpha, w) != vec.eval_at(alpha):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "w A(alpha) != v(alpha)")
    if _dot(sess.field, w, c) != g(alpha):
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "w c != g(alpha)")


def bezout_bounds(fs: list) -> tuple:
    """The strict degree bounds on ``coprime``'s Bezout pair (s1, s2), with
    s1 f_1 + s2 h = 1 and h mixing f_2, ..., f_t."""
    bound2 = wdeg(fs[0].deg)
    return (row_wdeg(fs[1:]) if len(fs) >= 2 else bound2), bound2


@protocol("coprime", {"f": PolyVectorPayload}, lambda pub: 2 * row_wdeg(pub["f"]))
def coprime(sess: Session, f: list):
    t = len(f)
    if t < 1:
        sess.fail(Reason.PARAMS_INVALID, "need at least one polynomial")

    witness = once(lambda: sess.prover.coprime_witness(f, sess.sigma))
    s1 = sess.prover_poly("bezout_s1", lambda: witness()[0])
    s2 = sess.prover_poly("bezout_s2", lambda: witness()[1])
    # h mixes f_3, ..., f_t into f_2; with t <= 2 there is nothing to mix
    betas = [] if t <= 2 else sess.prover_vector("mixers", t - 2, lambda: witness()[2])
    bound1, bound2 = bezout_bounds(f)
    if not deg_lt(s1.deg, bound1):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "s1 degree too high")
    if not deg_lt(s2.deg, bound2):
        sess.fail(Reason.DEGREE_CHECK_FAILED, "s2 degree too high")
    alpha = sess.challenge_scalar("alpha")
    p = sess.field.p
    if t >= 2:
        h = f[1](alpha)
        for i in range(2, t):
            h = (h + betas[i - 2] * f[i](alpha)) % p
    else:
        h = 0
    if (f[0](alpha) * s1(alpha) + h * s2(alpha)) % p != 1:
        sess.fail(Reason.EVALUATION_CHECK_FAILED, "Bezout identity fails")


@protocol("rsm", {"A": PolyMatrixPayload, "v": PolyVectorPayload},
          lambda pub, rho: (8 * rho + 2) * _vdeg(pub) + 2, claimed_rank_of="A")
def rsm(sess: Session, A: PolyMat, v: list):
    m, n = A.m, A.n
    if len(v) != n:
        sess.fail(Reason.PARAMS_INVALID, "dimension mismatch")
    rho = sess.prover_rank_claim("rank_claim", min(m, n), Reason.RANK_CHECK_FAILED,
                                 "rank claim exceeds the dimensions",
                                 lambda: sess.prover.rsm_rank(A))
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
        sess.sub("rank_lb", A, m)
        sess.sub("frrsm", A, v)
        return
    t = rsm_rounds(sess.sigma, rho, A.deg)

    commitment = once(lambda: sess.prover.rsm_commitment(A, v, rho, t, sess.sigma))
    tops = [sess.prover_toeplitz(f"toeplitz_{i}", rho, m,
                                 lambda i=i: commitment()[0][i].values)
            for i in range(t)]
    dens = [sess.prover_poly(f"denominator_{i}", lambda i=i: commitment()[1][i])
            for i in range(t)]
    dbound = deg_scale(rho, A.deg)
    for i, den in enumerate(dens):
        if not deg_le(den.deg, dbound):
            sess.fail(Reason.DEGREE_CHECK_FAILED, f"denominator {i} degree too high")
    sess.sub("rank_ub", A, rho)
    # A nonzero constant den_k is its own Bezout identity: w (C_k A) = c v
    # gives v = (c^-1 w C_k) A, so compression k alone proves membership.
    constant = next((i for i, den in enumerate(dens) if den.deg == 0), None)
    checked = range(t) if constant is None else (constant,)
    for i in checked:
        sess.sub("rank_lb", ToeplitzProductView(tops[i], A), rho)
    if constant is None:
        sess.sub("coprime", dens)
    for i in checked:
        sess.sub("frrsm", ToeplitzProductView(tops[i], A), v, dens[i],
                 lambda i=i: commitment()[2][i])


@protocol("rs_subset", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub, rho: (8 * rho + 2) * _mdeg(pub, "A", "B") + 4, claimed_rank_of="B")
def rs_subset(sess: Session, A: PolyMat, B: PolyMat):
    if A.n != B.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    lam = sess.challenge_vector("combination", A.m)
    sess.sub("rsm", B, A.vecmat(lam))


@protocol("rs_equality", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub, rho: (8 * rho + 2) * _mdeg(pub, "A", "B") + 4, claimed_rank_of="B")
def rs_equality(sess: Session, A: PolyMat, B: PolyMat):
    sess.sub("rs_subset", A, B)
    sess.sub("rs_subset", B, A)


@protocol("row_basis", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: (8 * pub["B"].m + 2) * _mdeg(pub, "A", "B") + 6)
def row_basis(sess: Session, A: PolyMat, B: PolyMat):
    if A.n != B.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    sess.sub("rank_lb", B, B.m)
    sess.sub("rs_equality", B, A)


@protocol("hermite", {"A": PolyMatrixPayload, "H": PolyMatrixPayload},
          lambda pub: (8 * pub["H"].m + 2) * _mdeg(pub, "A", "H") + 4)
def hermite(sess: Session, A: PolyMat, H: PolyMat):
    if A.n != H.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    if H.m > A.m:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "more rows than the input matrix")
    ok, _ = check_hermite_shape(H)
    if not ok:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "not in Hermite form")
    sess.sub("rs_equality", A, H)


@protocol("spopov",
          {"A": PolyMatrixPayload, "shift": ShiftPayload, "P": PolyMatrixPayload},
          lambda pub: (8 * pub["P"].m + 2) * _mdeg(pub, "A", "P") + 4)
def spopov(sess: Session, A: PolyMat, shift: list, P: PolyMat):
    if A.n != P.n or len(shift) != A.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    if P.m > A.m:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "more rows than the input matrix")
    ok, _ = check_popov_shape(P, shift)
    if not ok:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "not in shifted Popov form")
    sess.sub("rs_equality", A, P)


@protocol("saturated", {"A": PolyMatrixPayload},
          lambda pub: 8 * min(pub["A"].m, pub["A"].n) * _mdeg(pub, "A") + 4)
def saturated(sess: Session, A: PolyMat):
    if A.m == 0 or A.n == 0:
        return  # trivially saturated
    if A.m <= A.n:
        sess.sub("rs_subset", PolyMat.identity(sess.field, A.m), A.transpose())
    else:
        sess.sub("rs_subset", PolyMat.identity(sess.field, A.n), A)


@protocol("sat_basis", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: (8 * pub["A"].n + 2) * _mdeg(pub, "A", "B") + 4)
def sat_basis(sess: Session, A: PolyMat, B: PolyMat):
    if A.n != B.n:
        sess.fail(Reason.PARAMS_INVALID, "column dimensions differ")
    if B.m > min(A.m, A.n):
        sess.fail(Reason.SHAPE_CHECK_FAILED, "basis has too many rows")
    sess.sub("rank_lb", A, B.m)
    sess.sub("rs_subset", A, B)
    sess.sub("saturated", B)


@protocol("unimod_completable", {"A": PolyMatrixPayload},
          lambda pub: 8 * pub["A"].m * _mdeg(pub, "A") + 4)
def unimod_completable(sess: Session, A: PolyMat):
    if not A.m < A.n:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "matrix must be wide")
    sess.sub("rank_lb", A, A.m)
    sess.sub("saturated", A)


@protocol("kernel_basis", {"A": PolyMatrixPayload, "B": PolyMatrixPayload},
          lambda pub: 8 * pub["A"].m * _mdeg(pub, "A", "B") + 4)
def kernel_basis(sess: Session, A: PolyMat, B: PolyMat):
    if B.n != A.m:
        sess.fail(Reason.PARAMS_INVALID, "kernel basis has wrong column count")
    if B.m > A.m:
        sess.fail(Reason.SHAPE_CHECK_FAILED, "kernel basis has too many rows")
    sess.sub("rank_lb", B, B.m)
    sess.sub("rank_lb", A, A.m - B.m)
    sess.sub("matmul", B, A, PolyMat.zero(sess.field, B.m, A.n))
    sess.sub("saturated", B)


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
    try:
        Session(spec, pub, transcript, prover=prover).play()
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
    try:
        Session(PROTOCOLS[transcript.protocol_id], pub, transcript).play()
        return Verdict.accept()
    except ProtocolReject as rej:
        return Verdict.reject(rej.reason, rej.detail)
    except TranscriptError as exc:
        return Verdict.reject(Reason.MALFORMED_MESSAGE, str(exc))
