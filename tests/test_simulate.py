"""Preamble certificates and the three class-collapsing wrappers."""

import itertools

import pytest

from conftest import (
    indistinct_nodes,
    preamble_trace,
    random_multiset_machine,
    sweep,
)
from portlogic import machines, simulate
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


def test_set_from_multiset_without_a_preamble_runs_as_its_base():
    # at delta 0 the preamble has 2 * 0 rounds: the wrapper starts simulating
    base = odd_odd_machine(0)
    pg = PortedGraph(path(1), consistent_port_numbering(path(1), 0))
    want = run(base, pg, 8)
    got = run(set_from_multiset(base), pg, 8)
    assert got.stopped and (got.rounds, got.outputs) == (want.rounds, want.outputs)


def test_history_wrapper_refuses_a_history_that_extends_no_recorded_one():
    # exact-mode inboxes may hand the wrapper what no run of it would
    wrapped = multiset_from_vector(odd_odd_machine(1))
    state = wrapped.init_state(1)
    with pytest.raises(WrapperError, match="^history reconstruction lost track of a neighbour$"):
        wrapped.transition(state, (("hist", ("x", "y")),))


def test_indistinguishable_pairs_strengthen_two_rounds_earlier():
    # on every small ported graph: a pair of order k in round t >= 4 was a
    # pair of order k+1 in round t-2, where the order of u's triple at v
    # counts v's neighbours that send u's certificate
    graphs = [g for g in all_graphs(4) if g.is_connected() and g.max_degree() >= 1]
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
    report = check_class_conformance(wrapped, seed=7)
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
    assert check_class_conformance(wrapped, seed=3).ok


def test_history_budget_guard(monkeypatch):
    monkeypatch.setattr("portlogic.simulate.HISTORY_BYTE_BUDGET", 8)
    base = leaf_election_machine(2)
    wrapped = multiset_from_vector(base)
    g = star(2)
    pg = PortedGraph(g, consistent_port_numbering(g, 0))
    with pytest.raises(HistoryBudgetError, match="^history message exceeds 8 bytes$"):
        run(wrapped, pg, 6)


@pytest.mark.parametrize(
    "wrap, base",
    [
        (set_from_multiset, odd_odd_machine),
        (multiset_from_vector, leaf_election_machine),
        (bcast_multiset_from_broadcast, odd_odd_machine),
    ],
)
def test_wrapper_encodes_each_payload_once(wrap, base, monkeypatch):
    # the canon calls made while a base inbox is realised, over every run of
    # one wrapper instance: at most one per distinct payload
    encoded = []
    realising = []

    def counted(message):
        if realising:
            encoded.append(message)
        return canon(message)

    def spy(kind, inbox, key):
        realising.append(kind)
        try:
            return canonical_inbox(kind, inbox, key)
        finally:
            realising.pop()

    monkeypatch.setattr(simulate, "canon", counted)
    monkeypatch.setattr(machines, "canonical_inbox", spy)
    wrapped = wrap(base(3))
    for gi, g in enumerate(all_graphs(4)):
        assert run(wrapped, PortedGraph(g, consistent_port_numbering(g, gi)), 32).stopped
    assert encoded
    assert len(encoded) == len({canon(m) for m in encoded})


@pytest.mark.parametrize(
    "wrap, base",
    [(multiset_from_vector, leaf_election_machine), (bcast_multiset_from_broadcast, odd_odd_machine)],
)
def test_history_sort_encodes_each_message_once(wrap, base, monkeypatch):
    # the canon calls made while the wrapper steps (its history sort and the
    # base inbox's realisation), over every run of one wrapper instance: at
    # most one per distinct message
    encoded = []
    stepping = []

    def counted(message):
        if stepping:
            encoded.append(message)
        return canon(message)

    monkeypatch.setattr(simulate, "canon", counted)
    wrapped = wrap(base(3))
    transition = wrapped.transition

    def spy(state, inbox):
        stepping.append(state)
        try:
            return transition(state, inbox)
        finally:
            stepping.pop()

    wrapped.transition = spy
    for gi, g in enumerate(all_graphs(4)):
        assert run(wrapped, PortedGraph(g, consistent_port_numbering(g, gi)), 32).stopped
    assert encoded
    assert len(encoded) == len({canon(m) for m in encoded})
