"""Distributed state machines and their round-synchronous executor.

A machine supplies init/emit/transition as code; states and messages are
encoded by ``encoding.canon`` and nothing else.  The executor only ever
materialises states that are actually reached, so infinite state or message
spaces are fine.  Each machine carries a class tag declaring its inbox
discipline (vector / multiset / set) and outbox discipline (vector /
broadcast), one of the six in ``CLASSES``.

Execution follows the synchronous recursion: the message arriving at port
(u, i) in round t+1 is emit(x_t(v), j) where (v, j) is the port wired to
(u, i).  A node of degree d hears d messages; ``realise`` pads them to
length delta with the null message where a transition is asked, so set
views may contain the null message.  Nodes whose state is a stopping state
are absorbing: they emit the null message and never change state again
(enforced here, not left to machine authors).  Every caller asks a broadcast machine for one
message, on port 1 (``message_on``), and sends it on every port, so no run
sees a broadcast machine's ports.

For multiset- and set-tagged machines ``realise`` canonicalises the padded
inbox into a fixed realisation of the declared view (sorted by message
encoding, with set views deduplicated) before transition is called, so
executions are deterministic and respect the discipline.  The class tag is
thus enforced by construction: the executor, the ``simulate`` wrappers and
the decompiler all build a transition's inbox through ``realise``, so no
transition can see the order or (for sets) the multiplicities the view hides.

``emit``, ``transition`` and ``is_output`` must be pure, and states (or
messages) equal under ``==`` must have equal ``canon`` encodings: the
executor keeps a memo of four tables, each for all degrees: the initial
state per degree, the next state and what it sends per (state, inbox as
heard), the messages on ports 1..d per (state, d) (``None`` once stopped),
and the next state per (state, realised view), which only ``next_state``
reads and fills.  It asks the machine only on a miss, and only then
``realise``s the inbox, encoding each message once per run through a
``functools.cache`` of ``canon`` that the run builds and drops.
``1 == True`` while their encodings differ, so a machine that tells them
apart breaks this, and equal inboxes would no longer realise equally;
``check_class_conformance`` reports such pairs.

The memo is ``machine.run_memo`` when the machine offers one, and lives as
long as the machine: ``compiler.CompiledMachine`` does, so every run of one
compiled instance, and every decompilation of it, shares that one cache of
the machine's answers.  Other machines (``run_memo`` ``None``, as in
``SimpleMachine`` and the ``simulate`` wrappers) get a fresh memo per run
and no view table, so for them the executor keeps nothing across runs,
apart from each ``PortedGraph``'s wiring (which port feeds which), computed
on its first run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Sequence

from .encoding import canon
from .graphs import Graph, PortedGraph, PortlogicError, star, cycle, path, complete
from . import smallgraphs

__all__ = [
    "NO_MESSAGE",
    "VECTOR",
    "MULTISET",
    "SET",
    "BROADCAST",
    "ClassTag",
    "CLASSES",
    "Machine",
    "SimpleMachine",
    "ExecutionError",
    "DegreeError",
    "ClassTagError",
    "MaxRoundsError",
    "canonical_inbox",
    "realise",
    "message_on",
    "next_state",
    "run",
    "Trace",
    "RunResult",
    "trace_to_json",
    "check_class_conformance",
    "ConformanceReport",
]

NO_MESSAGE = "m0"

VECTOR = "vector"
MULTISET = "multiset"
SET = "set"
BROADCAST = "broadcast"

_INBOX_KINDS = (VECTOR, MULTISET, SET)
_OUTBOX_KINDS = (VECTOR, BROADCAST)


class ExecutionError(PortlogicError, RuntimeError):
    """Executor-level failure (not a timeout; timeouts are results)."""


class DegreeError(ExecutionError):
    """Graph maximum degree exceeds the machine's declared delta."""


class ClassTagError(PortlogicError, ValueError):
    """Unknown inbox or outbox discipline."""


class MaxRoundsError(PortlogicError, ValueError):
    """A negative round budget."""


@dataclass(frozen=True)
class ClassTag:
    """Inbox/outbox discipline of a machine.

    The six combinations map onto the machine classes: inbox
    vector/multiset/set crossed with outbox vector/broadcast, coded
    VV, MV, SV, VB, MB, SB.  ``variant`` is the signature variant the class
    sees (a bit is ``+`` iff that side is a vector), and ``graded`` marks a
    multiset inbox, whose logic counts successors.
    """

    inbox: str
    outbox: str

    def __post_init__(self):
        if self.inbox not in _INBOX_KINDS:
            raise ClassTagError(f"unknown inbox discipline {self.inbox!r}")
        if self.outbox not in _OUTBOX_KINDS:
            raise ClassTagError(f"unknown outbox discipline {self.outbox!r}")

    @property
    def code(self) -> str:
        return (self.inbox[0] + self.outbox[0]).upper()

    @property
    def variant(self) -> str:
        return "".join("+" if kind == VECTOR else "-" for kind in (self.inbox, self.outbox))

    @property
    def graded(self) -> bool:
        return self.inbox == MULTISET


CLASSES = {t.code: t for t in (ClassTag(i, o) for o in _OUTBOX_KINDS for i in _INBOX_KINDS)}


class Machine:
    """Base class for distributed state machines.

    Subclasses define ``delta_max``, ``tag``, ``init_state``, ``emit``,
    ``transition`` and ``is_output``.  States and messages must be hashable
    and encodable by ``encoding.canon``, the one encoding the executor,
    traces, conformance probes and the decompiler use; ``NO_MESSAGE`` is the
    one null message.  ``emit``, ``transition`` and ``is_output`` must be
    pure, and equal states (or messages) must have equal encodings, because
    the executor memoises them.  ``run_memo`` is that memo, the one cache of
    the machine's answers (four tables, see ``machines``): ``None`` (the
    default) gives each run a fresh one, and a subclass that sets it to
    ``{}`` per instance has every run and decompilation of the instance
    share it, for as long as it lives.  Every caller hands ``transition``
    the inbox ``realise`` builds from what a node hears, and asks through
    ``message_on``, which asks a broadcast machine for one message, on
    port 1.  A vector-outbox machine's
    ``emit(state, port)`` must answer every port from 1 to ``delta_max``,
    also beyond the degree of the nodes that hold ``state``: ``run`` never
    asks there, but ``compiler.decompile_details`` does for every state it
    reaches that has not stopped, and it expects a message (``NO_MESSAGE``
    will do) or a ``PortlogicError``.  ``output_value`` maps a stopping
    state to the reported output; wrappers override it to unwrap their own
    markers.
    """

    delta_max: int
    tag: ClassTag
    name: str = ""
    run_memo: dict | None = None

    def output_value(self, state):
        return state


class SimpleMachine(Machine):
    """Machine whose methods are the callables it is given; for tests and demos.
    Nothing in the library reads an output set, so ``outputs`` is ignored."""

    def __init__(
        self,
        delta_max: int,
        tag: ClassTag,
        init: Callable[[int], object],
        emit: Callable[[object, int], object],
        transition: Callable[[object, tuple], object],
        is_output: Callable[[object], bool],
        outputs: frozenset | None = None,
        name: str = "",
    ):
        self.delta_max = delta_max
        self.tag = tag
        self.init_state = init
        self.emit = emit
        self.transition = transition
        self.is_output = is_output
        self.name = name


def canonical_inbox(kind: str, inbox: tuple, key: Callable[[object], bytes] = canon) -> tuple:
    """Fixed-length realisation of inbox discipline ``kind``'s view.

    This is the one realisation every transition receives, through
    ``realise``.  Multiset: the inbox sorted by message encoding.  Set:
    distinct messages sorted, padded back to full length by repeating the
    last one (this keeps the set of entries unchanged).  Vector: untouched.  ``key`` is the
    message encoding; callers that encode the same messages again and again
    pass ``functools.cache(canon)``.
    """
    if kind == VECTOR:
        return inbox
    if kind == MULTISET:
        return tuple(sorted(inbox, key=key))
    seen: dict[bytes, object] = {}
    for m in inbox:
        seen.setdefault(key(m), m)
    distinct = tuple(seen[code] for code in sorted(seen))
    return distinct + distinct[-1:] * (len(inbox) - len(distinct))


def realise(machine: Machine, heard: Sequence, key: Callable[[object], bytes]) -> tuple:
    """The inbox ``machine.transition`` receives on hearing ``heard``:
    padded to ``delta_max`` with ``NO_MESSAGE``, then realised in the view
    of the machine's inbox discipline, ``key`` encoding the messages."""
    padded = tuple(heard) + (NO_MESSAGE,) * (machine.delta_max - len(heard))
    return canonical_inbox(machine.tag.inbox, padded, key)


def message_on(machine: Machine, state, port: int):
    """What ``state`` sends on ``port``: a broadcast machine is asked on port 1."""
    return machine.emit(state, 1 if machine.tag.outbox == BROADCAST else port)


@dataclass
class Trace:
    """Per-round snapshots; index 0 is the initial state vector."""

    states: list[tuple]
    messages: list[tuple] | None = None


@dataclass
class RunResult:
    stopped: bool
    rounds: int
    outputs: dict[int, object] | None
    trace: Trace


def _gather(indices: tuple[int, ...]) -> Callable[[list], tuple]:
    """``gather(flat)`` is ``tuple(flat[i] for i in indices)``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda flat: (flat[i],)
    return lambda flat: ()


_MISSING = object()


def next_state(machine: Machine, state, view: tuple):
    """``machine.transition(state, view)``, ``view`` being a realised inbox.

    With a ``run_memo`` the answer is kept in its view table, keyed by
    (state, view), so the machine is asked once per pair for as long as the
    memo lives, by ``run`` and the decompiler alike; without one the machine
    is asked every time.
    """
    memo = machine.run_memo
    if memo is None:
        return machine.transition(state, view)
    views = memo.setdefault("views", {})
    key = (state, view)
    nxt = views.get(key, _MISSING)
    if nxt is _MISSING:
        nxt = views[key] = machine.transition(state, view)
    return nxt


def run(
    machine: Machine,
    ported: PortedGraph,
    max_rounds: int,
    record_messages: bool = False,
) -> RunResult:
    """Execute ``machine`` on ``ported`` until all nodes stop or time runs out.

    Returns the outputs and the stopping round on success; a timeout is a
    first-class result (``stopped=False``, outputs ``None``), not an error.
    Each round concatenates every node's messages into one flat outbox, and
    each live node gathers the d messages it hears from it through
    ``ported.wiring``, and ``realise``s them only on a memo miss; a
    recorded inbox is padded to delta but not realised.  Stopped nodes are never stepped again.  The memo (see the
    module docstring) is ``machine.run_memo`` when the machine keeps one,
    and a dict that lives for this call only otherwise; ``init_state`` is
    asked once per degree per memo, and ``transition`` only through
    ``next_state``.
    """
    if max_rounds < 0:
        raise MaxRoundsError(f"max_rounds must be at least 0, got {max_rounds}")
    degrees, sources = ported.wiring
    delta = machine.delta_max
    if max(degrees, default=0) > delta:
        raise DegreeError(
            f"graph degree {max(degrees)} exceeds machine delta {delta}"
        )
    gathers = [_gather(src) for src in sources]
    is_output = machine.is_output
    key = canon if machine.tag.inbox == VECTOR else cache(canon)
    memo = machine.run_memo
    if memo is None:
        memo = {}
    # plain dicts: a functools.cache wrapper per run costs more than most runs take
    inits = memo.setdefault("inits", {})  # degree -> initial state
    steps = memo.setdefault("steps", {})  # (state, inbox as heard) -> (next state, what it sends)
    sends = memo.setdefault("sends", {})  # (state, d) -> messages on ports 1..d, None once stopped

    def send(s, d):
        """Messages on ports 1..d from state s, or None once s has stopped."""
        sent = sends.get((s, d), _MISSING)
        if sent is _MISSING:
            sent = sends[s, d] = (
                None if is_output(s) else [message_on(machine, s, j) for j in range(1, d + 1)]
            )
        return sent

    def step(s, inbox):
        """s's next state on hearing inbox, and what that state sends."""
        nxt = next_state(machine, s, realise(machine, inbox, key))
        found = steps[s, inbox] = (nxt, send(nxt, len(inbox)))
        return found

    for d in set(degrees).difference(inits):
        inits[d] = machine.init_state(d)
    first = {d: send(inits[d], d) for d in set(degrees)}
    states = [inits[d] for d in degrees]
    outbox = [first[d] or [NO_MESSAGE] * d for d in degrees]
    live = [v for v, d in enumerate(degrees) if first[d] is not None]
    lookup = steps.get
    trace = Trace(states=[tuple(states)], messages=[] if record_messages else None)
    rounds = 0
    for t in range(1, max_rounds + 1):
        if not live:
            break
        flat = [*chain.from_iterable(outbox)]
        if record_messages:
            heard = zip(gathers, degrees)
            trace.messages.append(tuple([g(flat) + (NO_MESSAGE,) * (delta - d) for g, d in heard]))
        still = []
        for v in live:
            s = states[v]
            inbox = gathers[v](flat)
            states[v], sent = lookup((s, inbox)) or step(s, inbox)
            if sent is None:
                outbox[v] = [NO_MESSAGE] * degrees[v]
            else:
                outbox[v] = sent
                still.append(v)
        live = still
        trace.states.append(tuple(states))
        rounds = t
    if live:
        return RunResult(False, max_rounds, None, trace)
    outputs = {v: machine.output_value(s) for v, s in enumerate(states)}
    return RunResult(True, rounds, outputs, trace)


def trace_to_json(result: RunResult) -> dict:
    """Trace export: per-round hex state encodings, optional message table."""
    doc = {
        "stopped": result.stopped,
        "rounds": result.rounds,
        "states": [
            [canon(s).hex() for s in snapshot]
            for snapshot in result.trace.states
        ],
    }
    if result.trace.messages is not None:
        doc["messages"] = [
            [[canon(m).hex() for m in inbox] for inbox in round_msgs]
            for round_msgs in result.trace.messages
        ]
    return doc


# ---------------------------------------------------------------------------
# Class-conformance probing: the memo contract
# ---------------------------------------------------------------------------


@dataclass
class ConformanceViolation:
    kind: str
    detail: dict


@dataclass
class ConformanceReport:
    probes: int
    violations: list[ConformanceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _default_probe_pool(delta: int) -> list[Graph]:
    pool = [path(2), path(3), path(4), star(min(delta, 3)) if delta >= 1 else path(2)]
    if delta >= 2:
        pool += [cycle(4), cycle(5), star(2)]
    if delta >= 3:
        pool += [complete(4), star(3)]
    return [g for g in pool if g.max_degree() <= delta]


_PROBE_ROUNDS = 16  # the round budget of each observation run


def check_class_conformance(machine: Machine, seed: int = 0) -> ConformanceReport:
    """Probe of the memo contract, the one condition that class conformance
    by construction still needs: equal inboxes must realise equally.

    The machine runs on a pool of small graphs, each under three port
    numberings drawn from ``seed``, and every state and message it reaches
    is checked: two values equal under ``==`` must have the same ``canon``
    encoding (``1 == True`` but they encode differently).  Each class of
    equal values with more than one encoding is reported as an
    ``"encoding"`` violation; ``probes`` counts the distinct states and
    messages checked.
    """
    # per kind, per class of values equal under ==: encoding -> value
    met: dict[str, dict] = {"states": {}, "messages": {}}
    for gi, g in enumerate(_default_probe_pool(machine.delta_max)):
        for k in range(3):
            pg = PortedGraph(g, smallgraphs.numberings(g, cap=1, samples=1, seed=seed + 31 * gi + k)[0])
            trace = run(machine, pg, _PROBE_ROUNDS, record_messages=True).trace
            reached = {
                "states": chain.from_iterable(trace.states),
                "messages": chain.from_iterable(chain.from_iterable(trace.messages)),
            }
            for kind, values in reached.items():
                for value in values:
                    met[kind].setdefault(value, {}).setdefault(canon(value), value)

    report = ConformanceReport(probes=0)
    for kind, classes in met.items():
        for by_code in classes.values():
            report.probes += len(by_code)
            if len(by_code) > 1:
                report.violations.append(
                    ConformanceViolation("encoding", {kind: tuple(by_code.values())})
                )
    return report
