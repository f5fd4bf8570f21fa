"""Class-collapsing machine transformers.

Three wrappers, each turning a machine of a stronger class into an equivalent
machine of a weaker class with local overhead only:

* ``set_from_multiset``: a preamble of exactly 2*delta rounds has every node
  grow a nested certificate of its view (a pair of the previous certificate
  and the set of certificates received); after the preamble, the triples
  (certificate, degree, outgoing port) of a node's neighbours are pairwise
  distinct, so tagging each payload with its sender's triple makes the
  received *set* reconstruct the received *multiset* exactly.  It is the one
  preamble; recorded runs show its inbox entries ("pre", cert, degree, port).

* ``multiset_from_vector``: every port's outgoing message is replaced by the
  full history of messages sent through that port; the receiver sorts the
  multiset of histories lexicographically and reads the current messages off
  in that order, which realises a fixed virtual numbering of its incoming
  ports (prefix order is stable, and equal histories imply equal current
  messages, so ties are harmless).  Each node keeps one record, the sorted
  virtual histories of its neighbours; a recorded history that no received
  one extends is a silent neighbour's and grows by the null message, so that
  neighbour keeps its place.  No extra rounds.

* ``bcast_multiset_from_broadcast``: the history construction specialised to
  broadcast machines, staying inside the broadcast class.

Certificates are hash-consed: a certificate is represented by a structural
digest, so equality tests are exact while messages stay small.  Histories are
kept verbatim (no compression), and the ``canon`` encoding of each history
message may take at most ``HISTORY_BYTE_BUDGET`` bytes.  Every wrapper hands
its base machine the inbox ``machines.realise`` builds for the base, as the
executor does, in one step (``_Simulation._step``), encoding each payload
once per wrapper instance through its own ``functools.cache`` of ``canon``;
the history wrappers sort histories through the same cache.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .encoding import canon, digest
from .graphs import PortlogicError
from .machines import (
    BROADCAST,
    CLASSES,
    MULTISET,
    NO_MESSAGE,
    SET,
    ClassTag,
    Machine,
    message_on,
    realise,
)

__all__ = [
    "set_from_multiset",
    "multiset_from_vector",
    "bcast_multiset_from_broadcast",
    "HistoryBudgetError",
    "WrapperError",
    "HISTORY_BYTE_BUDGET",
]

# bytes of a history message's canon encoding, past which emit refuses
HISTORY_BYTE_BUDGET = 1 << 16

_EMPTY = digest(("cert", "empty"))


class WrapperError(PortlogicError, ValueError):
    """Wrapped machine does not satisfy the transformer's precondition."""


class HistoryBudgetError(PortlogicError, RuntimeError):
    """A history-augmented message outgrew ``HISTORY_BYTE_BUDGET``."""


def _next_cert(cert: bytes, received: frozenset) -> bytes:
    return digest(("cert", cert, received))


_FIRST = _next_cert(_EMPTY, frozenset())


class _Simulation(Machine):
    """A machine of a weaker class that simulates ``base``.

    A stopped base state s becomes the wrapper's stopping state ("out", s);
    every other wrapper state is ("sim", s, ...) or a preamble state.
    """

    def __init__(self, base: Machine, tag: ClassTag, kind: str):
        self.base = base
        self.delta_max = base.delta_max
        self.name = f"{kind}({base.name})"
        self.tag = tag
        self._key = cache(canon)  # the payload encoding, memoised per instance

    def _simulating(self, sim, *fields):
        if self.base.is_output(sim):
            return ("out", sim)
        return ("sim", sim, *fields)

    def _step(self, sim, payloads: list, *fields):
        """One base round on ``payloads``, realised as ``run`` would."""
        realised = realise(self.base, payloads, self._key)
        return self._simulating(self.base.transition(sim, realised), *fields)

    def is_output(self, state) -> bool:
        return state[0] == "out"

    def output_value(self, state):
        return self.base.output_value(state[1])


class _SetFromMultiset(_Simulation):
    """Preamble then simulation with triple-tagged payloads (set inbox).

    A preamble state ("pre", t, cert, degree) holds the certificate the node
    sends in round t+1, so emit only reads it and each round hashes once.
    """

    def __init__(self, base: Machine):
        if base.tag.inbox not in (MULTISET, SET):
            raise WrapperError("set_from_multiset needs a multiset-invariant machine")
        super().__init__(base, CLASSES["SV"], "set_from_multiset")
        self._preamble = 2 * base.delta_max

    def init_state(self, degree: int):
        if self._preamble == 0:
            return self._simulating(self.base.init_state(degree), _EMPTY, degree)
        return ("pre", 0, _FIRST, degree)

    def emit(self, state, port: int):
        if state[0] == "pre":
            _, _, cert, degree = state
            return ("pre", cert, degree, port)
        _, sim, cert, degree = state
        return ("pay", cert, degree, port, message_on(self.base, sim, port))

    def transition(self, state, inbox: tuple):
        if state[0] == "pre":
            _, t, cert, degree = state
            if t + 1 == self._preamble:
                return self._simulating(self.base.init_state(degree), cert, degree)
            triples = frozenset(m[1:] for m in inbox if m != NO_MESSAGE)
            return ("pre", t + 1, _next_cert(cert, triples), degree)
        _, sim, cert, degree = state
        return self._step(sim, [m[4] for m in set(inbox) if m != NO_MESSAGE], cert, degree)


def set_from_multiset(base: Machine) -> Machine:
    """Wrap a multiset-invariant machine into the set class.

    The result stops in exactly 2*delta + T rounds when the base machine
    stops in T, and produces identical outputs on every ported graph.
    """
    return _SetFromMultiset(base)


class _HistoryWrapper(_Simulation):
    """Shared machinery for the two history-based reconstructions.

    State per node: ("sim", base state, send histories, heard, degree).  The
    send histories are one per port (one in all for broadcast); ``heard`` is
    the one record of the neighbours, the virtual histories of all ``degree``
    of them after the last round, sorted by their messages' encodings.
    """

    def __init__(self, base: Machine, broadcast: bool):
        kind = "bcast_multiset_from_broadcast" if broadcast else "multiset_from_vector"
        super().__init__(base, CLASSES["MB" if broadcast else "MV"], kind)
        self.broadcast = broadcast

    def init_state(self, degree: int):
        histories = ((),) if self.broadcast else ((),) * degree
        return self._simulating(self.base.init_state(degree), histories, ((),) * degree, degree)

    def _sent(self, sim, histories, port: int) -> tuple:
        return histories[port - 1] + (message_on(self.base, sim, port),)

    def emit(self, state, port: int):
        _, sim, histories, _, _ = state
        if port > len(histories):
            # A node has no port beyond its degree, so it keeps no history
            # there; the decompiler asks every port up to delta.
            return NO_MESSAGE
        message = ("hist", self._sent(sim, histories, port))
        if len(canon(message)) > HISTORY_BYTE_BUDGET:
            raise HistoryBudgetError(f"history message exceeds {HISTORY_BYTE_BUDGET} bytes")
        return message

    def transition(self, state, inbox: tuple):
        _, sim, histories, heard, degree = state
        received = [m[1] for m in inbox if m != NO_MESSAGE]
        # the neighbours whose history no received one extends went silent
        silent = Counter(heard)
        silent.subtract(h[:-1] for h in received)
        full = received + [h + (NO_MESSAGE,) for h in silent.elements()]
        if len(full) != degree:
            raise WrapperError("history reconstruction lost track of a neighbour")
        full.sort(key=lambda history: tuple(map(self._key, history)))
        sent = tuple(self._sent(sim, histories, i) for i in range(1, len(histories) + 1))
        return self._step(sim, [h[-1] for h in full], sent, tuple(full), degree)


def multiset_from_vector(base: Machine) -> Machine:
    """Wrap any machine into the multiset class with zero extra rounds."""
    return _HistoryWrapper(base, broadcast=False)


def bcast_multiset_from_broadcast(base: Machine) -> Machine:
    """Specialise the history construction to broadcast machines."""
    if base.tag.outbox != BROADCAST:
        raise WrapperError("bcast_multiset_from_broadcast needs a broadcast machine")
    return _HistoryWrapper(base, broadcast=True)
