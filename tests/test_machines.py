"""Executor semantics: views, padding, absorption, determinism, conformance."""

import json

import pytest
from hypothesis import given, strategies as st

from conftest import (
    incoming_renumberings,
    outgoing_renumberings,
    random_multiset_machine,
    sweep,
)
from portlogic.graphs import (
    Graph,
    PortedGraph,
    PortlogicError,
    consistent_port_numbering,
    cycle,
    path,
    star,
)
from portlogic.machines import (
    BROADCAST,
    MULTISET,
    NO_MESSAGE,
    SET,
    VECTOR,
    ClassTag,
    ClassTagError,
    DegreeError,
    SimpleMachine,
    check_class_conformance,
    inbox_view,
    run,
    trace_to_json,
)


def test_inbox_views():
    assert set(inbox_view(SET, ("a", "a", "b", NO_MESSAGE))) == {"a", "b", NO_MESSAGE}
    assert len(inbox_view(SET, ("a", "a", "b", NO_MESSAGE))) == 3
    assert dict(inbox_view(MULTISET, ("a", "a", "b"))) == {"a": 2, "b": 1}
    assert inbox_view(VECTOR, ("a", "b")) == ("a", "b")
    assert inbox_view(VECTOR, ("a", "b")) != inbox_view(VECTOR, ("b", "a"))
    assert inbox_view(MULTISET, ("a", "b")) == inbox_view(MULTISET, ("b", "a"))
    assert inbox_view(ClassTag(SET, VECTOR), ("a",)) == ("a",)


@given(st.lists(st.sampled_from(["a", "b", NO_MESSAGE]), min_size=1, max_size=6))
def test_views_are_order_insensitive(items):
    fwd = tuple(items)
    rev = tuple(reversed(items))
    assert inbox_view(MULTISET, fwd) == inbox_view(MULTISET, rev)
    assert inbox_view(SET, fwd) == inbox_view(SET, rev)
    assert set(inbox_view(SET, fwd)) == set(fwd)


def degree_parity_machine(delta):
    return SimpleMachine(
        delta,
        ClassTag(VECTOR, VECTOR),
        init=lambda d: d % 2,
        emit=lambda s, i: NO_MESSAGE,
        transition=lambda s, inbox: s,
        is_output=lambda s: isinstance(s, int),
        name="degree_parity",
    )


def test_immediate_stop_runs_zero_rounds():
    g = star(3)
    result = run(degree_parity_machine(3), PortedGraph(g, consistent_port_numbering(g, 0)), 10)
    assert result.stopped and result.rounds == 0
    assert result.outputs == {0: 1, 1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("kind", [VECTOR, MULTISET, SET])
def test_delta_zero_machine_gets_an_empty_inbox(kind):
    machine = SimpleMachine(
        0,
        ClassTag(kind, VECTOR),
        init=lambda d: ("s", d),
        emit=lambda s, i: "x",
        transition=lambda s, inbox: len(inbox),
        is_output=lambda s: isinstance(s, int),
    )
    g = Graph.from_edges(1, [])
    result = run(machine, PortedGraph(g, consistent_port_numbering(g, 0)), 3)
    assert result.stopped and result.rounds == 1 and result.outputs == {0: 0}


def test_non_stopping_machine_times_out():
    spinner = SimpleMachine(
        2,
        ClassTag(VECTOR, VECTOR),
        init=lambda d: ("spin", 0),
        emit=lambda s, i: NO_MESSAGE,
        transition=lambda s, inbox: ("spin", s[1] + 1),
        is_output=lambda s: isinstance(s, int),
        name="spinner",
    )
    g = path(3)
    result = run(spinner, PortedGraph(g, consistent_port_numbering(g, 0)), 10)
    assert result.timed_out and not result.stopped
    assert result.outputs is None
    assert result.rounds == 10


@pytest.mark.parametrize("inbox,outbox", [("x", BROADCAST), (VECTOR, "y")])
def test_unknown_discipline_is_a_library_error(inbox, outbox):
    with pytest.raises(ClassTagError) as caught:
        ClassTag(inbox, outbox)
    assert isinstance(caught.value, PortlogicError) and isinstance(caught.value, ValueError)


def test_degree_error():
    g = star(3)
    with pytest.raises(DegreeError):
        run(degree_parity_machine(2), PortedGraph(g, consistent_port_numbering(g, 0)), 5)


def stop_at_own_degree_machine(delta):
    """Stops after exactly deg(v) rounds; exercises staggered stopping."""

    def transition(state, inbox):
        _, t, d = state
        if t + 1 >= d:
            return d
        return ("wait", t + 1, d)

    return SimpleMachine(
        delta,
        ClassTag(VECTOR, VECTOR),
        init=lambda d: ("wait", 0, d) if d > 0 else 0,
        emit=lambda s, i: ("tick", s[1]),
        transition=transition,
        is_output=lambda s: isinstance(s, int),
        name="stop_at_degree",
    )


def test_stopped_nodes_absorb():
    g = star(3)
    machine = stop_at_own_degree_machine(3)
    result = run(machine, PortedGraph(g, consistent_port_numbering(g, 0)), 10, record_messages=True)
    assert result.rounds == 3
    assert result.outputs == {0: 3, 1: 1, 2: 1, 3: 1}
    # once a leaf stops its state never changes, and it sends the null message
    for t in range(1, len(result.trace.states)):
        for v in range(1, 4):
            if isinstance(result.trace.states[t - 1][v], int):
                assert result.trace.states[t][v] == result.trace.states[t - 1][v]
    final_round_inbox = result.trace.messages[-1][0]
    assert all(m == NO_MESSAGE for m in final_round_inbox)


def test_inbox_padded_to_delta():
    seen = {}

    def transition(state, inbox):
        seen["inbox"] = inbox
        return 0

    probe = SimpleMachine(
        4,
        ClassTag(VECTOR, VECTOR),
        init=lambda d: ("go", d),
        emit=lambda s, i: "x",
        transition=transition,
        is_output=lambda s: isinstance(s, int),
    )
    g = path(2)
    run(probe, PortedGraph(g, consistent_port_numbering(g, 0)), 3)
    assert seen["inbox"] == ("x", NO_MESSAGE, NO_MESSAGE, NO_MESSAGE)


def test_determinism_byte_for_byte():
    g = cycle(5)
    machine = random_multiset_machine(2, seed=5)
    pg = PortedGraph(g, sweep(g, cap=4, samples=1, seed=7)[0])
    a = trace_to_json(machine, run(machine, pg, 12, record_messages=True))
    b = trace_to_json(machine, run(machine, pg, 12, record_messages=True))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_trace_json_shape():
    g = star(2)
    machine = random_multiset_machine(2, seed=1)
    result = run(machine, PortedGraph(g, consistent_port_numbering(g, 0)), 12, record_messages=True)
    doc = trace_to_json(machine, result)
    assert doc["stopped"] is True
    assert len(doc["states"]) == result.rounds + 1
    assert len(doc["messages"]) == result.rounds
    json.dumps(doc)


@pytest.mark.parametrize("seed", range(4))
def test_multiset_machines_ignore_incoming_renumbering(seed):
    machine = random_multiset_machine(3, seed=seed)
    for g in (path(3), star(3), cycle(4)):
        outputs = set()
        for p in incoming_renumberings(g):
            result = run(machine, PortedGraph(g, p), 16)
            outputs.add(tuple(sorted(result.outputs.items())))
        assert len(outputs) == 1


@pytest.mark.parametrize("seed", range(4))
def test_broadcast_machines_ignore_outgoing_renumbering(seed):
    machine = random_multiset_machine(3, seed=seed, broadcast=True)
    for g in (path(3), star(3), cycle(4)):
        outputs = set()
        for p in outgoing_renumberings(g):
            result = run(machine, PortedGraph(g, p), 16)
            outputs.add(tuple(sorted(result.outputs.items())))
        assert len(outputs) == 1


def test_conformance_passes_for_honest_machines():
    assert check_class_conformance(random_multiset_machine(3, seed=2), samples=150, seed=0).ok
    assert check_class_conformance(
        random_multiset_machine(3, seed=3, broadcast=True), samples=150, seed=0
    ).ok


def test_conformance_catches_order_sensitive_machine_tagged_multiset():
    echo_first = SimpleMachine(
        3,
        ClassTag(MULTISET, VECTOR),  # mis-tagged on purpose
        init=lambda d: ("go", d),
        emit=lambda s, i: i,
        transition=lambda s, inbox: ("echo", inbox[0]) if s[0] == "go" else 0,
        is_output=lambda s: isinstance(s, int),
        name="echo_first",
    )
    report = check_class_conformance(echo_first, samples=300, seed=1)
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind == MULTISET
    assert violation.detail["inbox"] != violation.detail["variant"]


def test_conformance_catches_port_dependent_broadcast():
    liar = SimpleMachine(
        3,
        ClassTag(VECTOR, BROADCAST),
        init=lambda d: ("go", d),
        emit=lambda s, i: i,  # port-dependent, so not a broadcast
        transition=lambda s, inbox: 0,
        is_output=lambda s: isinstance(s, int),
        name="liar",
    )
    report = check_class_conformance(liar, samples=50, seed=0)
    assert not report.ok
    assert any(v.kind == "broadcast" for v in report.violations)
