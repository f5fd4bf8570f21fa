"""Preamble certificates and the three class-collapsing wrappers."""

import itertools
from collections import Counter

import pytest

from conftest import (
    _mix,
    incoming_renumberings,
    indistinct_nodes,
    preamble_trace,
    random_multiset_machine,
    sweep,
)
from portlogic.encoding import canon
from portlogic.graphs import (
    PortedGraph,
    consistent_port_numbering,
    cycle,
    path,
    random_port_numbering,
    star,
)
from portlogic.machines import (
    BROADCAST,
    ClassTag,
    Machine,
    MULTISET,
    NO_MESSAGE,
    SET,
    SimpleMachine,
    VECTOR,
    canonical_inbox,
    check_class_conformance,
    run,
)
from portlogic.problems import leaf_election, leaf_election_machine, odd_odd_machine
from portlogic.simulate import (
    HistoryBudgetError,
    WrapperError,
    bcast_multiset_from_broadcast,
    _SetFromMultiset,
    _Simulation,
    _next_cert,
    multiset_from_vector,
    set_from_multiset,
)
from portlogic.smallgraphs import all_graphs, all_port_numberings


def test_preprocess_single_edge_symmetric():
    g = path(2)
    pg = PortedGraph(g, consistent_port_numbering(g, 0))
    trace = preamble_trace(set_from_multiset(odd_odd_machine(1)), pg)
    assert len(trace.messages) == 2
    # the two endpoints stay mutually indistinguishable under a consistent p
    assert trace.states[0][0][2] == trace.states[0][1][2]
    assert trace.states[1][0][2] == trace.states[1][1][2]
    # yet the triples they exchange are well-formed and equal by symmetry
    assert trace.messages[1][1][0][1:] == (trace.states[1][0][2], 1, 1)
    assert trace.messages[1][1][0][1:] == trace.messages[1][0][0][1:]


def test_preprocess_star_center_receives_distinct_triples():
    g = star(3)
    wrapped = set_from_multiset(odd_odd_machine(3))
    for p in sweep(g, cap=40, samples=10, seed=2):
        pg = PortedGraph(g, p)
        trace = preamble_trace(wrapped, pg)
        assert len(trace.messages) == 6
        assert indistinct_nodes(pg, trace.messages[-1]) == 0


def test_preprocess_c4_distinct_at_every_node_all_numberings():
    g = cycle(4)
    wrapped = set_from_multiset(odd_odd_machine(2))
    for p in all_port_numberings(g):
        pg = PortedGraph(g, p)
        assert indistinct_nodes(pg, preamble_trace(wrapped, pg).messages[-1]) == 0


def test_indistinguishable_pairs_strengthen_two_rounds_earlier():
    # on every small ported graph: a pair of order k in round t >= 4 was a
    # pair of order k+1 in round t-2, where the order of u's triple at v
    # counts v's neighbours that send u's certificate
    graphs = [g for g in all_graphs(4, connected=True) if g.max_degree() >= 1]
    for g in graphs:
        wrapped = set_from_multiset(odd_odd_machine(g.max_degree()))
        for p in sweep(g, cap=48, samples=6, seed=3):
            pg = PortedGraph(g, p)
            trace = preamble_trace(wrapped, pg)
            for t in range(3, len(trace.messages)):
                for v in range(g.n):
                    # in-port i of v hears the same neighbour in every round
                    now, before = (
                        [m[1:] for m in trace.messages[s][v][: g.degree(v)]]
                        for s in (t, t - 2)
                    )
                    for a, b in itertools.combinations(range(g.degree(v)), 2):
                        if now[a] != now[b]:
                            continue
                        k = sum(m[0] == now[a][0] for m in now)
                        assert before[a] == before[b]
                        assert sum(m[0] == before[a][0] for m in before) >= k + 1


class _ForgetfulPreamble(_SetFromMultiset):
    """A faulty preamble: each certificate hashes no received triples."""

    def transition(self, state, inbox: tuple):
        if state[0] == "pre" and state[1] + 1 < self._preamble:
            _, t, cert, degree = state
            return ("pre", t + 1, _next_cert(cert, frozenset()), degree)
        return super().transition(state, inbox)


def test_preamble_audit_catches_a_preamble_that_ignores_its_inbox():
    # the centre of a star then hears three equal triples
    g = star(3)
    faulty = _ForgetfulPreamble(odd_odd_machine(3))
    wrapped = set_from_multiset(odd_odd_machine(3))
    for p in sweep(g, cap=40, samples=10, seed=2):
        pg = PortedGraph(g, p)
        assert indistinct_nodes(pg, preamble_trace(faulty, pg).messages[-1]) == 1
        assert indistinct_nodes(pg, preamble_trace(wrapped, pg).messages[-1]) == 0


def test_set_from_multiset_equivalence_and_rounds():
    base = odd_odd_machine(2)
    wrapped = set_from_multiset(base)
    assert wrapped.tag == ClassTag(SET, VECTOR)
    for g in all_graphs(4, max_degree=2):
        for p in sweep(g, cap=48, samples=6, seed=5):
            pg = PortedGraph(g, p)
            r0 = run(base, pg, 8)
            r1 = run(wrapped, pg, 16)
            assert r1.outputs == r0.outputs
            assert r1.rounds == 2 * 2 + r0.rounds


def test_set_from_multiset_random_machines():
    for seed in range(6):
        base = random_multiset_machine(3, seed=seed)
        wrapped = set_from_multiset(base)
        for g in (path(3), star(3), cycle(4)):
            for p in sweep(g, cap=16, samples=4, seed=seed):
                pg = PortedGraph(g, p)
                r0 = run(base, pg, 8)
                r1 = run(wrapped, pg, 20)
                assert r1.outputs == r0.outputs
                assert r1.rounds == 2 * 3 + r0.rounds


def test_set_from_multiset_conformance_probe():
    wrapped = set_from_multiset(odd_odd_machine(2))
    report = check_class_conformance(wrapped, samples=500, seed=7)
    assert report.ok


def test_set_from_multiset_rejects_vector_machines():
    vector_machine = SimpleMachine(
        2,
        ClassTag(VECTOR, VECTOR),
        init=lambda d: ("s", d),
        emit=lambda s, i: i,
        transition=lambda s, inbox: 0,
        is_output=lambda s: isinstance(s, int),
    )
    with pytest.raises(WrapperError):
        set_from_multiset(vector_machine)


def test_multiset_from_vector_on_leaf_election():
    problem = leaf_election()
    for k in (2, 3, 4):
        base = leaf_election_machine(k)
        wrapped = multiset_from_vector(base)
        assert wrapped.tag == ClassTag(MULTISET, VECTOR)
        g = star(k)
        for p in sweep(g, cap=48, samples=10, seed=6):
            pg = PortedGraph(g, p)
            r0 = run(base, pg, 6)
            r1 = run(wrapped, pg, 6)
            assert r1.rounds == r0.rounds
            assert problem.check(g, r1.outputs)


def test_multiset_from_vector_handles_staggered_stops():
    # nodes stop after deg(v) rounds, so the wrapper must keep reconstructing
    # vectors after some neighbours have gone silent
    def transition(state, inbox):
        _, t, d, seen = state
        entry = tuple(m if m == NO_MESSAGE else m for m in inbox)
        if t + 1 >= d:
            return (d + sum(1 for m in entry if m != NO_MESSAGE)) % 7
        return ("wait", t + 1, d, seen + 1)

    base = SimpleMachine(
        3,
        ClassTag(VECTOR, VECTOR),
        init=lambda d: ("wait", 0, d, 0) if d > 0 else 0,
        emit=lambda s, i: ("m", s[1], i),
        transition=transition,
        is_output=lambda s: isinstance(s, int),
        outputs=frozenset(range(7)),
        name="staggered",
    )
    wrapped = multiset_from_vector(base)
    for g in (star(3), path(4), cycle(4)):
        for p in sweep(g, cap=24, samples=6, seed=8):
            pg = PortedGraph(g, p)
            r0 = run(base, pg, 8)
            r1 = run(wrapped, pg, 8)
            assert r1.rounds == r0.rounds
            # outputs need not be identical (incoming ports are renumbered),
            # but this machine's output only counts non-null entries, which
            # renumbering preserves
            assert r1.outputs == r0.outputs


def test_history_wrapper_realises_a_compatible_incoming_numbering():
    # a fully order-sensitive base machine: its output is the whole received
    # vector; the wrapper's joint output must coincide with the base's run
    # under some incoming renumbering of the same outgoing assignment
    base = SimpleMachine(
        3,
        ClassTag(VECTOR, VECTOR),
        init=lambda d: ("start", d),
        emit=lambda s, i: ("p", i),
        transition=lambda s, inbox: ("done", tuple(inbox)),
        is_output=lambda s: s[0] == "done",
        name="vector_probe",
    )
    wrapped = multiset_from_vector(base)

    for g in (path(3), star(3), cycle(4)):
        variants = list(incoming_renumberings(g))
        reference = variants[0]
        pg = PortedGraph(g, reference)
        got = run(wrapped, pg, 4).outputs
        candidates = []
        for p in variants:
            candidates.append(run(base, PortedGraph(g, p), 4).outputs)
        assert got in candidates


def test_bcast_wrapper_matches_multiset_invariant_base():
    base = odd_odd_machine(3)
    wrapped = bcast_multiset_from_broadcast(base)
    assert wrapped.tag == ClassTag(MULTISET, BROADCAST)
    for g in all_graphs(4, max_degree=3):
        for p in sweep(g, cap=16, samples=4, seed=9):
            pg = PortedGraph(g, p)
            r0 = run(base, pg, 6)
            r1 = run(wrapped, pg, 6)
            assert r0.outputs == r1.outputs and r0.rounds == r1.rounds


def test_bcast_wrapper_runs_the_base_under_some_incoming_renumbering():
    # MB = VB: the wrapped run's base states, round by round, are those of a
    # base run under one incoming renumbering of the graph; a broadcast base
    # sends the same on every port, so the outgoing order cannot matter.  The
    # base hashes its whole inbox vector and stops after 1-4 rounds.
    order_sensitive = 0
    for seed in range(6):
        base = _staggered_machine(seed, broadcast=True)
        wrapped = bcast_multiset_from_broadcast(base)
        for gi, g in enumerate(all_graphs(4, max_degree=3)):
            got = run(wrapped, PortedGraph(g, random_port_numbering(g, 100 * seed + gi)), 5)
            assert got.stopped
            simulated = [[s[1] for s in snap] for snap in got.trace.states]
            realised = {
                tuple(map(tuple, run(base, PortedGraph(g, p), 5).trace.states))
                for p in incoming_renumberings(g)
            }
            assert tuple(map(tuple, simulated)) in realised
            order_sensitive += len(realised) > 1
    assert order_sensitive


def test_bcast_wrapper_constant_broadcast_machine():
    constant = SimpleMachine(
        2,
        ClassTag(VECTOR, BROADCAST),
        init=lambda d: ("s", d),
        emit=lambda s, i: "hello",
        transition=lambda s, inbox: sum(1 for m in inbox if m != NO_MESSAGE),
        is_output=lambda s: isinstance(s, int),
    )
    wrapped = bcast_multiset_from_broadcast(constant)
    g = cycle(4)
    pg = PortedGraph(g, random_port_numbering(g, 1))
    assert run(wrapped, pg, 4).outputs == run(constant, pg, 4).outputs


def test_bcast_wrapper_rejects_port_dependent_senders():
    vector_machine = leaf_election_machine(2)
    with pytest.raises(WrapperError):
        bcast_multiset_from_broadcast(vector_machine)


def test_bcast_wrapper_conformance():
    wrapped = bcast_multiset_from_broadcast(odd_odd_machine(2))
    assert check_class_conformance(wrapped, samples=200, seed=3).ok


def test_history_budget_guard(monkeypatch):
    monkeypatch.setattr("portlogic.simulate.HISTORY_BYTE_BUDGET", 8)
    base = leaf_election_machine(2)
    wrapped = multiset_from_vector(base)
    g = star(2)
    pg = PortedGraph(g, consistent_port_numbering(g, 0))
    with pytest.raises(HistoryBudgetError, match="^history message exceeds 8 bytes$"):
        run(wrapped, pg, 6)


# ---------------------------------------------------------------------------
# Differential guard: the one-record history wrapper against the two-record
# one it replaced, copied here verbatim (a frozen multiset of stopped
# neighbours' histories beside the previously received multiset)
# ---------------------------------------------------------------------------


def _history_key(history: tuple) -> tuple:
    return tuple(canon(m) for m in history)


class _TwoRecordHistoryWrapper(_Simulation):
    """Shared machinery for the two history-based reconstructions.

    State per node: the simulated base state, the per-port send histories,
    the multiset of frozen histories of neighbours that already stopped
    (extended by a null entry each round), and the previously received
    multiset used to detect newly stopped neighbours.
    """

    def __init__(self, base: Machine, broadcast: bool, byte_budget: int):
        kind = "bcast_multiset_from_broadcast" if broadcast else "multiset_from_vector"
        super().__init__(base, ClassTag(MULTISET, BROADCAST if broadcast else VECTOR), kind)
        self.broadcast = broadcast
        self.byte_budget = byte_budget

    def init_state(self, degree: int):
        histories = ((),) if self.broadcast else tuple(() for _ in range(degree))
        previous = tuple(() for _ in range(degree))
        return self._simulating(self.base.init_state(degree), histories, (), previous, degree)

    def _sent(self, sim, histories, port: int) -> tuple:
        if self.broadcast:
            return histories[0] + (self.base.emit(sim, 1),)
        return histories[port - 1] + (self.base.emit(sim, port),)

    def emit(self, state, port: int):
        _, sim, histories, _, _, degree = state
        if port > degree and not self.broadcast:
            # A node has no port beyond its degree, so it keeps no history
            # there; the decompiler asks every port up to delta.
            return NO_MESSAGE
        message = ("hist", self._sent(sim, histories, port))
        if len(canon(message)) > self.byte_budget:
            raise HistoryBudgetError(
                f"history message exceeds {self.byte_budget} bytes"
            )
        return message

    def transition(self, state, inbox: tuple):
        _, sim, histories, frozen, previous, degree = state
        received = sorted(
            (m[1] for m in inbox if m != NO_MESSAGE), key=_history_key
        )
        prefix_counts = Counter(h[:-1] for h in received)
        newly_frozen = Counter(previous)
        newly_frozen.subtract(prefix_counts)
        extended = [f + (NO_MESSAGE,) for f in frozen]
        for hist, count in newly_frozen.items():
            extended.extend([hist + (NO_MESSAGE,)] * count)
        full = received + extended
        if len(full) != degree:
            raise WrapperError(
                "history reconstruction lost track of a neighbour"
            )
        full.sort(key=_history_key)
        virtual = tuple(h[-1] for h in full)
        virtual += (NO_MESSAGE,) * (self.delta_max - len(virtual))
        new_sim = self.base.transition(sim, canonical_inbox(self.base.tag.inbox, virtual))
        ports = (1,) if self.broadcast else range(1, degree + 1)
        return self._simulating(
            new_sim,
            tuple(self._sent(sim, histories, i) for i in ports),
            tuple(sorted(extended, key=_history_key)),
            tuple(received),
            degree,
        )


def _staggered_machine(seed: int, broadcast: bool) -> Machine:
    """Seeded order-sensitive machine that stops after 1 + (degree + seed) % 4
    rounds, so the neighbours of one node go silent at different rounds."""

    def init(degree):
        return ("w", 0, degree, _mix(seed, "z", degree) % 3)

    def emit(state, port):
        _, t, _, z = state
        return _mix(seed, "m", t, z, 1 if broadcast else port) % 3

    def transition(state, inbox):
        _, t, degree, z = state
        z = _mix(seed, "d", t, z, inbox) % 4
        if t + 1 >= 1 + (degree + seed) % 4:
            return z % 2
        return ("w", t + 1, degree, z)

    tag = ClassTag(VECTOR, BROADCAST if broadcast else VECTOR)
    return SimpleMachine(3, tag, init, emit, transition, lambda s: isinstance(s, int))


def _history_bases():
    """(base, broadcast) pairs: every base under the vector wrapper, the
    broadcast ones under the broadcast wrapper too."""
    bases = [leaf_election_machine(3), odd_odd_machine(3)]
    for seed in range(4):
        bases += [
            random_multiset_machine(3, seed),
            random_multiset_machine(3, seed, broadcast=True),
            _staggered_machine(seed, False),
            _staggered_machine(seed, True),
        ]
    for base in bases:
        yield base, False
        if base.tag.outbox == BROADCAST:
            yield base, True


def test_history_wrapper_matches_the_two_record_wrapper():
    long_silences = 0
    for base, broadcast in _history_bases():
        new = (bcast_multiset_from_broadcast if broadcast else multiset_from_vector)(base)
        old = _TwoRecordHistoryWrapper(base, broadcast, 1 << 16)
        for gi, g in enumerate(all_graphs(5, max_degree=3)):
            for p in (consistent_port_numbering(g, gi), random_port_numbering(g, gi)):
                pg = PortedGraph(g, p)
                got, want = run(new, pg, 8), run(old, pg, 8)
                assert (got.stopped, got.rounds, got.outputs) == (
                    want.stopped, want.rounds, want.outputs
                )
                assert [[s[1] for s in snap] for snap in got.trace.states] == [
                    [s[1] for s in snap] for snap in want.trace.states
                ]
                # a neighbour silent for two rounds while its receiver runs
                long_silences += any(
                    s[0] == "sim" and any(h[-2:] == (NO_MESSAGE,) * 2 for h in s[3])
                    for snap in got.trace.states
                    for s in snap
                )
    assert long_silences
