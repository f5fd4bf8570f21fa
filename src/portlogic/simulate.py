"""Class-collapsing machine transformers.

Three wrappers, each turning a machine of a stronger class into an equivalent
machine of a weaker class with local overhead only:

* ``set_from_multiset``: a preamble of exactly 2*delta rounds has every node
  grow a nested certificate of its view (a pair of the previous certificate
  and the set of certificates received); after the preamble, the triples
  (certificate, degree, outgoing port) of a node's neighbours are pairwise
  distinct, so tagging each payload with its sender's triple makes the
  received *set* reconstruct the received *multiset* exactly.

* ``multiset_from_vector``: every port's outgoing message is replaced by the
  full history of messages sent through that port; the receiver sorts the
  multiset of histories lexicographically and reads the current messages off
  in that order, which realises a fixed virtual numbering of its incoming
  ports (prefix order is stable, and equal histories imply equal current
  messages, so ties are harmless).  No extra rounds.

* ``bcast_multiset_from_broadcast``: the history construction specialised to
  broadcast machines, staying inside the broadcast class.

Certificates are hash-consed: a certificate is represented by a structural
digest, so equality tests are exact while messages stay small.  Histories are
kept verbatim (no compression) behind a configurable byte budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .encoding import canon, digest
from .graphs import PortedGraph, PortlogicError
from .machines import (
    BROADCAST,
    MULTISET,
    SET,
    VECTOR,
    ClassTag,
    Machine,
)

__all__ = [
    "SymmetryTrace",
    "indistinguishability_preprocess",
    "set_from_multiset",
    "multiset_from_vector",
    "bcast_multiset_from_broadcast",
    "HistoryBudgetError",
    "WrapperError",
]

_EMPTY = digest(("cert", "empty"))


class WrapperError(PortlogicError, ValueError):
    """Wrapped machine does not satisfy the transformer's precondition."""


class HistoryBudgetError(PortlogicError, RuntimeError):
    """A history-augmented message outgrew the configured byte budget."""


def _next_cert(cert: bytes, received: frozenset) -> bytes:
    return digest(("cert", cert, received))


@dataclass(frozen=True)
class SymmetryTrace:
    """Certificates and received-triple sets per node per preamble round.

    ``beta[t][v]`` is node v's certificate after round t, ``received[t][v]``
    the set of triples (certificate, degree, outgoing port) it received in
    round t; index 0 holds the empty initial values.
    """

    delta: int
    beta: tuple[tuple[bytes, ...], ...]
    received: tuple[tuple[frozenset, ...], ...]

    @property
    def rounds(self) -> int:
        return len(self.beta) - 1

    def final_beta(self, v: int) -> bytes:
        return self.beta[-1][v]

    def final_triple(self, pg: PortedGraph, u: int, v: int) -> tuple:
        """The triple v receives from its neighbour u in the last round."""
        g = pg.graph
        port = next(
            i for i in range(1, g.degree(u) + 1) if pg.numbering.target(u, i)[0] == v
        )
        return (self.final_beta(u), g.degree(u), port)


def indistinguishability_preprocess(pg: PortedGraph, delta: int) -> SymmetryTrace:
    """Run the certificate-growing preamble for exactly 2*delta rounds.

    After the last round, distinct neighbours of any node deliver distinct
    triples (certificate, degree, port) to it; the trace retains every round
    so that property and its inductive strengthening can be audited.
    """
    g = pg.graph
    if g.max_degree() > delta:
        raise WrapperError("graph degree exceeds delta")
    beta = [tuple(_EMPTY for _ in range(g.n))]
    received: list[tuple[frozenset, ...]] = [tuple(frozenset() for _ in range(g.n))]
    incoming = [
        [pg.numbering.source(u, i) for i in range(1, g.degree(u) + 1)]
        for u in range(g.n)
    ]
    for _ in range(2 * delta):
        new_beta = tuple(
            _next_cert(beta[-1][v], received[-1][v]) for v in range(g.n)
        )
        round_received = []
        for u in range(g.n):
            triples = frozenset(
                (new_beta[v], g.degree(v), j) for (v, j) in incoming[u]
            )
            round_received.append(triples)
        beta.append(new_beta)
        received.append(tuple(round_received))
    return SymmetryTrace(delta, tuple(beta), tuple(received))


class _SetFromMultiset(Machine):
    """Preamble then simulation with triple-tagged payloads (set inbox)."""

    def __init__(self, base: Machine):
        if base.tag.inbox not in (MULTISET, SET):
            raise WrapperError("set_from_multiset needs a multiset-invariant machine")
        self.base = base
        self.delta_max = base.delta_max
        self.tag = ClassTag(SET, VECTOR)
        self.outputs = base.outputs
        self.name = f"set_from_multiset({base.name})"
        self._preamble = 2 * base.delta_max

    def init_state(self, degree: int):
        if self._preamble == 0:
            return self._enter_simulation(_EMPTY, degree)
        return ("pre", 0, _EMPTY, frozenset(), degree)

    def _enter_simulation(self, cert: bytes, degree: int):
        sim = self.base.init_state(degree)
        if self.base.is_output(sim):
            return ("out", sim)
        return ("sim", cert, degree, sim)

    def emit(self, state, port: int):
        if state[0] == "pre":
            _, _, cert, received, degree = state
            return ("pre", _next_cert(cert, received), degree, port)
        _, cert, degree, sim = state
        return ("pay", cert, degree, port, self.base.emit(sim, port))

    def transition(self, state, inbox: tuple):
        if state[0] == "pre":
            _, t, cert, received, degree = state
            new_cert = _next_cert(cert, received)
            triples = frozenset(
                (m[1], m[2], m[3]) for m in inbox if m != self.null_message
            )
            if t + 1 < self._preamble:
                return ("pre", t + 1, new_cert, triples, degree)
            return self._enter_simulation(new_cert, degree)
        _, cert, degree, sim = state
        payloads = [m[4] for m in set(inbox) if m != self.null_message]
        realised = payloads + [self.base.null_message] * (self.delta_max - len(payloads))
        realised.sort(key=self.base.encode_message)
        new_sim = self.base.transition(sim, tuple(realised))
        if self.base.is_output(new_sim):
            return ("out", new_sim)
        return ("sim", cert, degree, new_sim)

    def is_output(self, state) -> bool:
        return isinstance(state, tuple) and state[0] == "out"

    def output_value(self, state):
        return self.base.output_value(state[1])

    def encode_state(self, state) -> bytes:
        if self.is_output(state):
            return canon(("out", self.base.encode_state(state[1])))
        if state[0] == "sim":
            return canon(("sim", state[1], state[2], self.base.encode_state(state[3])))
        return canon(state)

    def encode_message(self, message) -> bytes:
        if isinstance(message, tuple) and message and message[0] == "pay":
            return canon(
                ("pay", message[1], message[2], message[3],
                 self.base.encode_message(message[4]))
            )
        return canon(message)


def set_from_multiset(base: Machine) -> Machine:
    """Wrap a multiset-invariant machine into the set class.

    The result stops in exactly 2*delta + T rounds when the base machine
    stops in T, and produces identical outputs on every ported graph.
    """
    return _SetFromMultiset(base)


def _history_key(encode):
    def key(history: tuple) -> tuple:
        return tuple(encode(m) for m in history)

    return key


class _HistoryWrapper(Machine):
    """Shared machinery for the two history-based reconstructions.

    State per node: the simulated base state, the per-port send histories,
    the multiset of frozen histories of neighbours that already stopped
    (extended by a null entry each round), and the previously received
    multiset used to detect newly stopped neighbours.
    """

    def __init__(self, base: Machine, broadcast: bool, byte_budget: int):
        self.base = base
        self.broadcast = broadcast
        self.byte_budget = byte_budget
        self.delta_max = base.delta_max
        self.tag = ClassTag(MULTISET, BROADCAST if broadcast else VECTOR)
        self.outputs = base.outputs
        kind = "bcast_multiset_from_broadcast" if broadcast else "multiset_from_vector"
        self.name = f"{kind}({base.name})"

    def init_state(self, degree: int):
        sim = self.base.init_state(degree)
        if self.base.is_output(sim):
            return ("out", sim)
        histories = ((),) if self.broadcast else tuple(() for _ in range(degree))
        previous = tuple(() for _ in range(degree))
        return ("sim", sim, histories, (), previous, degree)

    def _sent(self, sim, histories, port: int) -> tuple:
        if self.broadcast:
            return histories[0] + (self.base.emit(sim, 1),)
        return histories[port - 1] + (self.base.emit(sim, port),)

    def emit(self, state, port: int):
        _, sim, histories, _, _, _ = state
        history = self._sent(sim, histories, port)
        message = ("hist", history)
        if len(self.encode_message(message)) > self.byte_budget:
            raise HistoryBudgetError(
                f"history message exceeds {self.byte_budget} bytes"
            )
        return message

    def transition(self, state, inbox: tuple):
        _, sim, histories, frozen, previous, degree = state
        key = _history_key(self.base.encode_message)
        received = sorted(
            (m[1] for m in inbox if m != self.null_message), key=key
        )
        prefix_counts = Counter(h[:-1] for h in received)
        newly_frozen = Counter(previous)
        newly_frozen.subtract(prefix_counts)
        null = self.base.null_message
        extended = [f + (null,) for f in frozen]
        for hist, count in newly_frozen.items():
            extended.extend([hist + (null,)] * count)
        full = received + extended
        if len(full) != degree:
            raise WrapperError(
                "history reconstruction lost track of a neighbour"
            )
        full.sort(key=key)
        virtual = tuple(h[-1] for h in full)
        virtual += (null,) * (self.delta_max - len(virtual))
        new_sim = self.base.transition(sim, virtual)
        if self.base.is_output(new_sim):
            return ("out", new_sim)
        if self.broadcast:
            new_histories = (self._sent(sim, histories, 1),)
        else:
            new_histories = tuple(
                self._sent(sim, histories, i) for i in range(1, degree + 1)
            )
        return (
            "sim",
            new_sim,
            new_histories,
            tuple(sorted(extended, key=key)),
            tuple(sorted(received, key=key)),
            degree,
        )

    def is_output(self, state) -> bool:
        return isinstance(state, tuple) and state[0] == "out"

    def output_value(self, state):
        return self.base.output_value(state[1])

    def encode_state(self, state) -> bytes:
        if self.is_output(state):
            return canon(("out", self.base.encode_state(state[1])))
        _, sim, histories, frozen, previous, degree = state
        enc = self.base.encode_message
        return canon(
            (
                "sim",
                self.base.encode_state(sim),
                tuple(tuple(enc(m) for m in h) for h in histories),
                tuple(tuple(enc(m) for m in h) for h in frozen),
                tuple(tuple(enc(m) for m in h) for h in previous),
                degree,
            )
        )

    def encode_message(self, message) -> bytes:
        if isinstance(message, tuple) and message and message[0] == "hist":
            return canon(
                ("hist", tuple(self.base.encode_message(m) for m in message[1]))
            )
        return canon(message)


def multiset_from_vector(base: Machine, byte_budget: int = 1 << 16) -> Machine:
    """Wrap any machine into the multiset class with zero extra rounds."""
    return _HistoryWrapper(base, broadcast=False, byte_budget=byte_budget)


def bcast_multiset_from_broadcast(base: Machine, byte_budget: int = 1 << 16) -> Machine:
    """Specialise the history construction to broadcast machines."""
    if base.tag.outbox != BROADCAST:
        raise WrapperError("bcast_multiset_from_broadcast needs a broadcast machine")
    return _HistoryWrapper(base, broadcast=True, byte_budget=byte_budget)
