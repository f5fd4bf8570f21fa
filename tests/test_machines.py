"""Executor semantics: views, padding, absorption, determinism, conformance."""

import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import (
    incoming_renumberings,
    outgoing_renumberings,
    port_reading_broadcast_machine,
    random_formula,
    random_multiset_machine,
    sweep,
)
from portlogic import machines, problems
from portlogic.compiler import compile_formula
from portlogic.graphs import (
    Graph,
    PortedGraph,
    PortlogicError,
    consistent_port_numbering,
    cycle,
    numbering_from_orders,
    path,
    random_port_numbering,
    star,
)
from portlogic.logic import STAR, VARIANTS, Signature, dia, neg, prop
from portlogic.machines import (
    BROADCAST,
    CLASSES,
    MULTISET,
    NO_MESSAGE,
    SET,
    VECTOR,
    ClassTag,
    ClassTagError,
    DegreeError,
    MaxRoundsError,
    RunResult,
    SimpleMachine,
    Trace,
    canonical_inbox,
    check_class_conformance,
    run,
    trace_to_json,
)
from portlogic.simulate import (
    bcast_multiset_from_broadcast,
    multiset_from_vector,
    set_from_multiset,
)
from portlogic.smallgraphs import all_graphs, numberings


def test_inbox_views():
    # a set view keeps the null message and drops duplicates
    with_null = ("a", "a", "b", NO_MESSAGE)
    assert set(canonical_inbox(SET, with_null)) == {"a", "b", NO_MESSAGE}
    assert len(canonical_inbox(SET, with_null)) == len(with_null)
    assert canonical_inbox(SET, with_null) == canonical_inbox(SET, ("a", "b", "b", NO_MESSAGE))
    assert Counter(canonical_inbox(MULTISET, ("a", "a", "b"))) == {"a": 2, "b": 1}
    assert canonical_inbox(VECTOR, ("a", "b")) == ("a", "b")
    assert canonical_inbox(VECTOR, ("a", "b")) != canonical_inbox(VECTOR, ("b", "a"))
    assert canonical_inbox(MULTISET, ("a", "b")) == canonical_inbox(MULTISET, ("b", "a"))


@given(st.lists(st.sampled_from(["a", "b", NO_MESSAGE]), min_size=1, max_size=6))
def test_views_are_order_insensitive(items):
    fwd = tuple(items)
    rev = tuple(reversed(items))
    assert canonical_inbox(MULTISET, fwd) == canonical_inbox(MULTISET, rev)
    assert canonical_inbox(SET, fwd) == canonical_inbox(SET, rev)
    assert set(canonical_inbox(SET, fwd)) == set(fwd)
    assert sorted(canonical_inbox(MULTISET, fwd)) == sorted(fwd)


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
    assert not result.stopped
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


def test_run_work_follows_the_arcs():
    # a leaf hears one message; gathering every inbox padded to delta makes
    # a round cost n * delta on a star, a peak of about 33 MB here
    g = star(2000)
    pg = PortedGraph(g, random_port_numbering(g, 0))
    tracemalloc.start()
    try:
        result = run(problems.odd_odd_machine(2000), pg, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stopped
    assert peak < 4_000_000


def test_determinism_byte_for_byte():
    g = cycle(5)
    machine = random_multiset_machine(2, seed=5)
    pg = PortedGraph(g, sweep(g, cap=4, samples=1, seed=7)[0])
    a = trace_to_json(run(machine, pg, 12, record_messages=True))
    b = trace_to_json(run(machine, pg, 12, record_messages=True))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_trace_json_shape():
    g = star(2)
    machine = random_multiset_machine(2, seed=1)
    result = run(machine, PortedGraph(g, consistent_port_numbering(g, 0)), 12, record_messages=True)
    doc = trace_to_json(result)
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


def test_class_table():
    assert {code: (tag.variant, tag.graded) for code, tag in CLASSES.items()} == {
        "VV": ("++", False),
        "MV": ("-+", True),
        "SV": ("-+", False),
        "VB": ("+-", False),
        "MB": ("--", True),
        "SB": ("--", False),
    }
    assert all(tag.code == code for code, tag in CLASSES.items())


def _outgoing_reshuffles(g: Graph) -> list[PortedGraph]:
    """Three numberings of g that keep every node's incoming map and reshuffle
    the order in which its outgoing ports reach its neighbours."""
    in_port = [{u: i for i, u in enumerate(g.adjacency[v], start=1)} for v in range(g.n)]
    ported = []
    for seed in range(3):
        rng = random.Random(seed)
        out_order = [rng.sample(g.adjacency[v], g.degree(v)) for v in range(g.n)]
        ported.append(PortedGraph(g, numbering_from_orders(out_order, in_port)))
    return ported


BROADCAST_MACHINES = {
    "port_reader": port_reading_broadcast_machine,
    "odd_odd": problems.odd_odd_machine,
    "random_multiset": lambda delta: random_multiset_machine(delta, seed=5, broadcast=True),
}


@pytest.mark.parametrize("name", sorted(BROADCAST_MACHINES))
def test_broadcast_runs_ignore_the_outgoing_port_order(name):
    # a broadcast machine is asked on port 1 only, so not even one whose emit
    # reads the port can tell these numberings apart; odd_odd and the random
    # machine are honest controls
    machine = BROADCAST_MACHINES[name](3)
    wrapped = set_from_multiset(machine)
    graphs = all_graphs(5, max_degree=3)
    traces_changed = outputs_changed = 0  # graphs on which the order shows
    for g in graphs:
        ported = _outgoing_reshuffles(g)
        traces = {
            json.dumps(trace_to_json(run(machine, pg, 8, record_messages=True)))
            for pg in ported
        }
        outputs = {tuple(sorted(run(wrapped, pg, 16).outputs.items())) for pg in ported}
        traces_changed += len(traces) > 1
        outputs_changed += len(outputs) > 1
    assert (traces_changed, outputs_changed) == (0, 0), f"of {len(graphs)} graphs"


def first_reader_machine(code: str):
    """Tagged ``code``, it sends its degree and outputs the first slot of the
    inbox it is handed, so only the realised view keeps that output blind to
    the incoming numbering."""
    return SimpleMachine(
        3,
        CLASSES[code],
        init=lambda d: ("go", d),
        emit=lambda s, j: s[1],
        transition=lambda s, inbox: ("read", inbox[0]),
        is_output=lambda s: s[0] == "read",
        name=f"first_reader_{code}",
    )


@pytest.mark.parametrize("code", ["MV", "MB", "SV"])
def test_realised_inboxes_hide_the_incoming_numbering(code):
    machine = first_reader_machine(code)
    for g in all_graphs(4):
        outputs = {
            tuple(sorted(run(machine, PortedGraph(g, p), 2).outputs.items()))
            for p in incoming_renumberings(g)
        }
        assert len(outputs) == 1, g.edges


@pytest.mark.parametrize(
    "wrap, code",
    [(set_from_multiset, "MV"), (set_from_multiset, "MB"), (bcast_multiset_from_broadcast, "MB")],
    ids=["set_from_multiset-MV", "set_from_multiset-MB", "bcast_multiset_from_broadcast-MB"],
)
def test_wrappers_hand_their_base_the_realised_view(wrap, code):
    base = first_reader_machine(code)
    wrapped = wrap(base)
    for gi, g in enumerate(all_graphs(4)):
        for p in numberings(g, cap=3, samples=3, seed=gi):
            pg = PortedGraph(g, p)
            assert run(wrapped, pg, 8).outputs == run(base, pg, 2).outputs, g.edges


def test_set_view_hides_multiplicities_at_the_parity_hubs():
    g, u, w = problems.parity_union()
    counter = SimpleMachine(
        3,
        CLASSES["SV"],
        init=lambda d: ("go", d),
        emit=lambda s, j: ("deg", s[1]),
        transition=lambda s, inbox: inbox.count(("deg", 2)),
        is_output=lambda s: isinstance(s, int),
    )
    for p in numberings(g, cap=3, samples=3, seed=0):
        result = run(counter, PortedGraph(g, p), 2, record_messages=True)
        heard_u, heard_w = result.trace.messages[0][u], result.trace.messages[0][w]
        # equal sets, different multiplicities
        assert set(heard_u) == set(heard_w) and Counter(heard_u) != Counter(heard_w)
        assert result.outputs[u] == result.outputs[w]


def test_conformance_passes_for_honest_machines():
    assert check_class_conformance(random_multiset_machine(3, seed=2), seed=0).ok
    assert check_class_conformance(random_multiset_machine(3, seed=3, broadcast=True), seed=0).ok


def test_conformance_catches_equal_values_with_different_encodings():
    # 1 == True, so the executor's memo would treat the two messages alike
    bool_counter = SimpleMachine(
        2,
        ClassTag(MULTISET, BROADCAST),
        init=lambda d: d,
        emit=lambda s, j: True if s == 1 else 1,
        transition=lambda s, inbox: ("done", sum(type(x) is bool for x in inbox)),
        is_output=lambda s: isinstance(s, tuple),
    )
    report = check_class_conformance(bool_counter)
    assert not report.ok
    assert any(v.kind == "encoding" for v in report.violations)


def test_negative_max_rounds_is_a_library_error():
    g = star(3)
    pg = PortedGraph(g, consistent_port_numbering(g, 0))
    with pytest.raises(MaxRoundsError) as caught:
        run(problems.odd_odd_machine(3), pg, -1)
    assert isinstance(caught.value, PortlogicError) and isinstance(caught.value, ValueError)


def test_run_encodes_each_message_once(monkeypatch):
    sig = Signature(2, "--")
    formula = dia((STAR, STAR), neg(dia((STAR, STAR), prop(2), 2)), 2)
    machine = compile_formula(formula, sig)
    assert machine.tag.inbox == MULTISET
    canon = machines.canon
    calls = []

    def counting_canon(value):
        calls.append(value)
        return canon(value)

    monkeypatch.setattr(machines, "canon", counting_canon)
    g = cycle(5)
    result = run(machine, PortedGraph(g, consistent_port_numbering(g, 0)), 8, record_messages=True)
    distinct = {m for round_msgs in result.trace.messages for inbox in round_msgs for m in inbox}
    assert result.stopped and result.rounds == 3
    assert 0 < len(calls) <= len(distinct)


def test_run_keeps_no_state_across_runs():
    calls = Counter()

    def emit(s, j):
        calls["emit"] += 1
        return ("m", s[1] % 3)

    def transition(s, inbox):
        calls["transition"] += 1
        heard = sum(m[1] for m in inbox if m != NO_MESSAGE)
        return ("done", heard) if s[0] == 2 else (s[0] + 1, (s[1] + heard) % 5)

    counting = SimpleMachine(
        3,
        ClassTag(MULTISET, VECTOR),
        init=lambda d: (0, d),
        emit=emit,
        transition=transition,
        is_output=lambda s: s[0] == "done",
    )
    g = cycle(5)
    pg = PortedGraph(g, consistent_port_numbering(g, 0))
    per_run = []
    for _ in range(2):
        calls.clear()
        result = run(counting, pg, 8)
        assert result.stopped and result.rounds == 3 and len(result.trace.states) == 4
        per_run.append((calls["emit"], calls["transition"], result.outputs))
    assert per_run[0] == per_run[1]
    assert per_run[0][0] > 0 and per_run[0][1] > 0


# ---------------------------------------------------------------------------
# Differential check against the unmemoised executor
# ---------------------------------------------------------------------------


def reference_run(
    machine,
    ported: PortedGraph,
    max_rounds: int,
    record_messages: bool = False,
) -> RunResult:
    """Execute ``machine`` on ``ported`` until all nodes stop or time runs out.

    Returns the outputs and the stopping round on success; a timeout is a
    first-class result (``stopped=False``, outputs ``None``), not an error.
    A broadcast machine is asked for its one message on port 1.
    """
    g = ported.graph
    if g.max_degree() > machine.delta_max:
        raise DegreeError(
            f"graph degree {g.max_degree()} exceeds machine delta {machine.delta_max}"
        )
    p = ported.numbering
    delta = machine.delta_max
    kind = machine.tag.inbox
    broadcast = machine.tag.outbox == BROADCAST
    incoming = [
        [p.source(u, i) for i in range(1, g.degree(u) + 1)] for u in range(g.n)
    ]
    states = [machine.init_state(g.degree(v)) for v in range(g.n)]
    stopped = [machine.is_output(s) for s in states]
    trace = Trace(states=[tuple(states)], messages=[] if record_messages else None)
    rounds = 0
    for t in range(1, max_rounds + 1):
        if all(stopped):
            break
        inboxes = []
        for u in range(g.n):
            inbox = [
                NO_MESSAGE if stopped[v] else machine.emit(states[v], 1 if broadcast else j)
                for (v, j) in incoming[u]
            ]
            inbox += [NO_MESSAGE] * (delta - len(inbox))
            inboxes.append(tuple(inbox))
        if record_messages:
            trace.messages.append(tuple(inboxes))
        new_states = []
        for u in range(g.n):
            if stopped[u]:
                new_states.append(states[u])
            else:
                new_states.append(
                    machine.transition(states[u], canonical_inbox(kind, inboxes[u]))
                )
        states = new_states
        stopped = [machine.is_output(s) for s in states]
        trace.states.append(tuple(states))
        rounds = t
        if all(stopped):
            break
    if not all(stopped):
        return RunResult(False, max_rounds, None, trace)
    outputs = {v: machine.output_value(states[v]) for v in range(g.n)}
    return RunResult(True, rounds, outputs, trace)


def _compiled_machines():
    for variant in VARIANTS:
        for delta in (1, 2, 3):
            rng = random.Random(f"{variant}/{delta}")
            sig = Signature(delta, variant)
            for _ in range(3):
                yield compile_formula(random_formula(rng, sig, max_depth=3), sig)


def _problem_machines():
    for name in sorted(problems.MACHINES):
        for delta in (1, 2, 3):
            yield problems.MACHINES[name](delta)


def _wrapped_machines():
    for delta in (1, 2, 3):
        yield set_from_multiset(problems.odd_odd_machine(delta))
        yield set_from_multiset(random_multiset_machine(delta, seed=delta))
        yield multiset_from_vector(problems.leaf_election_machine(delta))
        yield multiset_from_vector(problems.symmetry_break_machine(delta))


def _random_multiset_machines():
    for seed in range(4):
        yield random_multiset_machine(3, seed=seed)
        yield random_multiset_machine(3, seed=seed, broadcast=True)


def _small_delta_machines():
    # delta 0 and 1: every inbox has at most one slot
    for delta in (0, 1):
        for name in sorted(problems.MACHINES):
            yield problems.MACHINES[name](delta)
        yield random_multiset_machine(delta, seed=delta)
        yield random_multiset_machine(delta, seed=delta, broadcast=True)


def _never_stopping_machines():
    for tag in (ClassTag(VECTOR, VECTOR), ClassTag(MULTISET, BROADCAST), ClassTag(SET, VECTOR)):
        yield SimpleMachine(
            2,
            tag,
            init=lambda d: d,
            emit=lambda s, j: s % 3,
            transition=lambda s, inbox: (s + sum(m for m in inbox if m != NO_MESSAGE)) % 5,
            is_output=lambda s: False,
            name=f"never_stops_{tag.code}",
        )


def _staggered_stop_machines():
    # a node stops after deg(v) rounds and counts the messages it hears, so
    # its neighbours see it fall silent while they run on
    for tag in (ClassTag(VECTOR, VECTOR), ClassTag(MULTISET, BROADCAST)):
        yield SimpleMachine(
            3,
            tag,
            init=lambda d: (d, 0),
            emit=lambda s, j: s[1] % 2,
            transition=lambda s, inbox: (s[0] - 1, s[1] + sum(m != NO_MESSAGE for m in inbox)),
            is_output=lambda s: s[0] <= 0,
            name=f"staggered_{tag.code}",
        )


@pytest.mark.parametrize(
    "family",
    [
        _compiled_machines,
        _problem_machines,
        _wrapped_machines,
        _random_multiset_machines,
        _small_delta_machines,
        _never_stopping_machines,
        _staggered_stop_machines,
    ],
    ids=[
        "compiled", "problems", "wrapped", "random_multiset", "small_delta", "never_stopping",
        "staggered_stops",
    ],
)
def test_run_matches_the_unmemoised_executor(family):
    graphs = all_graphs(4)
    for machine in family():
        for gi, g in enumerate(graphs):
            if g.max_degree() > machine.delta_max:
                continue
            for p in numberings(g, cap=1, samples=2, seed=gi) + [consistent_port_numbering(g, gi)]:
                pg = PortedGraph(g, p)
                # 3 rounds time out every machine that needs more
                for max_rounds, record in itertools.product((3, 16), (True, False)):
                    expected = reference_run(machine, pg, max_rounds, record_messages=record)
                    actual = run(machine, pg, max_rounds, record_messages=record)
                    where = (machine.name, gi, max_rounds, record)
                    assert json.dumps(trace_to_json(actual)) == json.dumps(
                        trace_to_json(expected)
                    ), where
                    assert actual.outputs == expected.outputs, where


# ---------------------------------------------------------------------------
# The run memo a compiled machine keeps across runs
# ---------------------------------------------------------------------------


def test_compiled_machines_share_no_run_memo():
    sig = Signature(3, "--")
    f = dia((STAR, STAR), prop(1))
    a, b = compile_formula(f, sig), compile_formula(f, sig)
    assert a.run_memo == {} and b.run_memo == {} and a.run_memo is not b.run_memo
    g = star(3)
    run(a, PortedGraph(g, consistent_port_numbering(g, 0)), f.md + 1)
    assert a.run_memo and b.run_memo == {}
    # machines that keep no memo get a fresh one per run
    base = problems.odd_odd_machine(3)
    for machine in (base, set_from_multiset(base)):
        run(machine, PortedGraph(g, consistent_port_numbering(g, 0)), 16)
        assert machine.run_memo is None


# degrees 3, 1, 1, 2, 1 and 2, 2, 3, 3, 1, 1: states a formula cannot tell
# apart by degree meet at nodes of different degrees
_MIXED_A = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
_MIXED_B = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5)])


@pytest.mark.parametrize("variant", VARIANTS)
def test_compiled_reruns_on_mixed_degrees_match_the_reference(variant):
    sig = Signature(3, variant)
    rng = random.Random(f"rerun/{variant}")
    a, b = (
        PortedGraph(g, numberings(g, cap=1, samples=1, seed=k)[0])
        for k, g in enumerate((_MIXED_A, _MIXED_B))
    )
    formulas = [f for f in (random_formula(rng, sig, max_depth=3) for _ in range(12)) if f.md >= 1]
    assert len(formulas) >= 4
    for f in formulas:
        machine, fresh = compile_formula(f, sig), compile_formula(f, sig)
        h = f.md + 1  # a compiled machine stops after exactly h rounds
        # A, B and A again, each with and without messages; B first times out
        for pg, rounds, record in [
            (a, h, True), (a, h, False),
            (b, h - 1, True), (b, h, False),
            (a, h, False), (a, h, True),
        ]:
            got = run(machine, pg, rounds, record_messages=record)
            expected = reference_run(fresh, pg, rounds, record_messages=record)
            assert got.stopped is (rounds == h)
            assert json.dumps(trace_to_json(got)) == json.dumps(trace_to_json(expected))
            assert got.outputs == expected.outputs
