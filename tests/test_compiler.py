"""Both compiler directions: closure, staged evaluation, round-trips."""

import hashlib
import random
from collections import Counter

import pytest

from conftest import (
    cached_model,
    port_reading_broadcast_machine,
    random_formula,
    random_multiset_machine,
    sweep,
)
from portlogic import compiler
from portlogic.cli import WRAPPERS
from portlogic.compiler import (
    CompileError,
    DecompileBudgetError,
    DecompileError,
    ModelSuite,
    compile_formula,
    decompile_details,
    default_decompile_suite,
)
from portlogic.graphs import (
    Graph,
    PortedGraph,
    PortlogicError,
    consistent_port_numbering,
    cycle,
    path,
    random_port_numbering,
    star,
)
from portlogic.logic import (
    Dia,
    Signature,
    VARIANTS,
    alphas_for,
    eval_formula,
    format_formula,
    kripke_model,
    parse,
    prop,
    subformulas,
)
from portlogic.machines import (
    BROADCAST,
    MULTISET,
    SET,
    VECTOR,
    ClassTag,
    SimpleMachine,
    canonical_inbox,
    check_class_conformance,
    run,
    trace_to_json,
)
from portlogic.problems import MACHINES, odd_odd_machine
from portlogic.simulate import WrapperError, multiset_from_vector
from portlogic.smallgraphs import all_graphs


def test_closure_of_atom():
    machine = compile_formula(parse("q1"), Signature(2, "++"))
    assert machine.closure == (prop(1),)
    state = machine.init_state(1)
    assert machine.emit(state, 1) == ("f", 1, ())
    assert machine.emit(state, 2) == ("f", 2, ())


def test_closure_port_indexed():
    # the payload on port j holds the targets of the diamonds with outgoing index j
    machine = compile_formula(parse("<1,2>q1"), Signature(2, "++"))
    assert machine.closure == (prop(1), parse("<1,2>q1"))
    state = machine.init_state(1)
    assert machine.emit(state, 2) == ("f", 2, (1,))
    assert machine.emit(state, 1) == ("f", 1, ())


def test_closure_mixed():
    machine = compile_formula(parse("!(<*,*>q1 & q2)"), Signature(2, "--"))
    assert len(machine.closure) == 5
    # children precede parents
    order = {id(f): k for k, f in enumerate(machine.closure)}
    assert order[id(prop(1))] < order[id(parse("<*,*>q1"))]
    # a hidden outgoing port: one untagged payload, the trit of q1
    assert machine.emit(machine.init_state(1), 1) == ("f", (1,))
    assert machine.emit(machine.init_state(2), 2) == ("f", (0,))


def test_compile_rejects_bad_signature():
    with pytest.raises(CompileError):
        compile_formula(parse("<1,1>q1"), Signature(3, "--"))
    with pytest.raises(CompileError):
        compile_formula(parse("<*,*;2>q1"), Signature(3, "+-"))


def test_compiled_class_tags():
    assert compile_formula(parse("<1,1>q1"), Signature(2, "++")).tag.inbox == VECTOR
    assert compile_formula(parse("<*,1>q1"), Signature(2, "-+")).tag.inbox == SET
    assert compile_formula(parse("<*,1;2>q1"), Signature(2, "-+")).tag.inbox == MULTISET
    m = compile_formula(parse("<*,*;2>q1"), Signature(2, "--"))
    assert m.tag.inbox == MULTISET and m.tag.outbox == BROADCAST
    m = compile_formula(parse("<*,*>q1"), Signature(2, "--"))
    assert m.tag.inbox == SET and m.tag.outbox == BROADCAST
    assert compile_formula(parse("<1,*>q1"), Signature(2, "+-")).tag.outbox == BROADCAST


CLASS_CODES = {"++": {"VV"}, "-+": {"MV", "SV"}, "+-": {"VB"}, "--": {"MB", "SB"}}


@pytest.mark.parametrize("variant", VARIANTS)
def test_compiled_tags_read_the_class_table(variant):
    rng = random.Random(11)
    sig = Signature(3, variant)
    seen = set()
    for _ in range(40):
        formula = random_formula(rng, sig)
        tag = compile_formula(formula, sig).tag
        assert tag.variant == variant
        assert tag.graded == any(isinstance(f, Dia) and f.grade > 1 for f in subformulas(formula))
        seen.add(tag.code)
    assert seen == CLASS_CODES[variant]


def test_compile_atom_runs_one_round():
    machine = compile_formula(parse("q1"), Signature(3, "++"))
    for g in (star(3), cycle(4), path(2)):
        pg = PortedGraph(g, consistent_port_numbering(g, 0))
        result = run(machine, pg, 5)
        assert result.rounds == 1
        assert result.outputs == {v: int(g.degree(v) == 1) for v in range(g.n)}


def test_compile_diamond_on_star():
    f = parse("<*,*>q1")
    machine = compile_formula(f, Signature(3, "--"))
    g = star(3)
    for p in sweep(g, cap=40, samples=8, seed=0):
        pg = PortedGraph(g, p)
        result = run(machine, pg, 5)
        assert result.rounds == 2 == f.md + 1
        assert result.outputs == {0: 1, 1: 0, 2: 0, 3: 0}


def test_compile_graded_matches_eval_on_parity_style_graphs():
    from portlogic.problems import parity_separation_pair

    f = parse("<*,*;2>q3")
    machine = compile_formula(f, Signature(3, "--"))
    pair = parity_separation_pair()
    for g in (star(3), cycle(4), path(4), cycle(5), pair[0], pair[1]):
        pg = PortedGraph(g, consistent_port_numbering(g, 2))
        model = cached_model(pg, "--", 3)
        expect = eval_formula(model, f)
        result = run(machine, pg, 5)
        assert {v for v, x in result.outputs.items() if x == 1} == set(expect)


def test_staged_definedness_invariant():
    f = parse("!(<1,1><2,2>q1 & q2)")
    sig = Signature(2, "++")
    machine = compile_formula(f, sig)
    depths = [node.md for node in machine.closure]
    g = cycle(4)
    for p in sweep(g, cap=12, samples=4, seed=1):
        result = run(machine, PortedGraph(g, p), 6, record_messages=True)
        for t, snapshot in enumerate(result.trace.states):
            for state in snapshot:
                if machine.is_output(state):
                    continue
                for k, md in enumerate(depths):
                    assert (state[k] != 2) == (md <= t)


@pytest.mark.parametrize("variant", ["++", "-+", "+-", "--"])
def test_compile_matches_eval_random_suite(variant):
    rng = random.Random(99 + VARIANTS.index(variant))
    for trial in range(10):
        delta = rng.randint(1, 3)
        sig = Signature(delta, variant)
        f = random_formula(rng, sig)
        machine = compile_formula(f, sig)
        for g in all_graphs(4, max_degree=delta):
            for p in sweep(g, cap=6, samples=3, seed=trial):
                pg = PortedGraph(g, p)
                result = run(machine, pg, f.md + 2)
                assert result.stopped and result.rounds == f.md + 1
                model = cached_model(pg, variant, delta)
                expect = eval_formula(model, f)
                got = {v for v, x in result.outputs.items() if x == 1}
                assert got == set(expect)


@pytest.mark.parametrize("variant", ["++", "-+", "+-", "--"])
def test_compiled_machines_pass_conformance(variant):
    rng = random.Random(5)
    sig = Signature(2, variant)
    for trial in range(3):
        machine = compile_formula(random_formula(rng, sig), sig)
        assert check_class_conformance(machine, seed=trial).ok


# one formula per variant, plus graded ones on the two hidden-incoming variants
TABULATED = [
    pytest.param("++", 2, "<1,2>(q1 & !<2,1>q2)", id="++"),
    pytest.param("-+", 2, "<*,1>q1 & !<*,2><*,1>q2", id="-+"),
    pytest.param("+-", 2, "<2,*>!q1 & <1,*><2,*>q2", id="+-"),
    pytest.param("--", 3, "<*,*>(q2 & !<*,*>q1)", id="--"),
    pytest.param("-+", 3, "<*,1;2><*,2>q1", id="-+graded"),
    pytest.param("--", 3, "<*,*;2>(q3 | <*,*;3>q1)", id="--graded"),
]


def _small_ported(delta: int):
    """Every graph of at most 4 nodes that fits delta, under 3 numberings each."""
    for n, g in enumerate(all_graphs(4, max_degree=delta)):
        for p in sweep(g, cap=3, samples=3, seed=n):
            yield PortedGraph(g, p)


@pytest.mark.parametrize("variant, delta, text", TABULATED)
def test_tabulated_machine_runs_like_a_fresh_one(variant, delta, text):
    f, sig = parse(text), Signature(delta, variant)
    machine = compile_formula(f, sig)
    for pg in _small_ported(delta):
        got = run(machine, pg, f.md + 1, record_messages=True)
        fresh = run(compile_formula(f, sig), pg, f.md + 1, record_messages=True)
        assert trace_to_json(got) == trace_to_json(fresh)


@pytest.mark.parametrize("variant, delta, text", TABULATED)
def test_tabulated_bodies_run_once_per_key(variant, delta, text):
    f, sig = parse(text), Signature(delta, variant)
    machine = compile_formula(f, sig)
    asked = Counter()

    def counting(method, name):
        def wrapped(*key):
            asked[name, key] += 1
            return method(*key)
        return wrapped

    for name in ("init_state", "emit", "transition"):
        setattr(machine, name, counting(getattr(machine, name), name))
    ported = list(_small_ported(delta))
    first = [trace_to_json(run(machine, pg, f.md + 1)) for pg in ported]
    # through the instance's memo the machine is asked for each initial state
    # once, and for the next state once per (state, realised view)
    degrees = {(pg.graph.degree(v),) for pg in ported for v in range(pg.graph.n)}
    assert sorted(key for name, key in asked if name == "init_state") == sorted(degrees)
    assert any(name == "transition" for name, _ in asked)
    assert all(n == 1 for (name, _), n in asked.items() if name != "emit")
    # and answers a second pass over the same graphs without asking anything
    asked.clear()
    again = [trace_to_json(run(machine, pg, f.md + 1)) for pg in ported]
    assert again == first
    assert not asked


@pytest.mark.parametrize("variant, delta, text", TABULATED)
def test_decompile_after_runs_on_the_suite_asks_no_transition(variant, delta, text):
    # runs on every suite graph meet every (state, realised view) the
    # decompiler enumerates, and the memo they fill answers it
    f, sig = parse(text), Signature(delta, variant)
    suite = ModelSuite(default_decompile_suite(delta, node_bound=4), variant, delta)
    machine = compile_formula(f, sig)
    for pg in suite.ported:
        assert run(machine, pg, f.md + 1).stopped
    asked = []
    body = machine.transition

    def counted(state, view):
        asked.append((state, view))
        return body(state, view)

    machine.transition = counted
    got = decompile_details(machine, delta, f.md + 1, variant, suite=suite)
    assert asked == []
    fresh = decompile_details(compile_formula(f, sig), delta, f.md + 1, variant, suite=suite)
    assert got.formula is fresh.formula and got.table == fresh.table == suite.table(f)


@pytest.mark.parametrize("delta", [1, 2, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_diamond_mask_matches_a_per_world_recount(variant, delta):
    suite = ModelSuite(default_decompile_suite(delta, node_bound=4), variant, delta)
    rng = random.Random(delta)
    subs = [suite.degree_mask(d) for d in range(delta + 1)] + [suite.full_mask, 0]
    subs += [rng.getrandbits(suite.union.size) for _ in range(4)]

    # the layout and the degree tables, recounted from the graphs themselves
    sizes = [pg.graph.n for pg in suite.ported]
    assert suite.offsets == [sum(sizes[:k]) for k in range(len(sizes))]
    for d in range(delta + 1):
        expected = 0
        for pg, offset in zip(suite.ported, suite.offsets):
            for v in range(pg.graph.n):
                if pg.graph.degree(v) == d:
                    expected |= 1 << (offset + v)
        assert suite.degree_mask(d) == expected

    def recount(alpha, grade, sub):
        out = 0
        for model, offset in zip(suite.models, suite.offsets):
            for v, succ in model.successors.get(alpha, {}).items():
                if sum(sub >> (offset + w) & 1 for w in set(succ)) >= grade:
                    out |= 1 << (offset + v)
        return out

    # each sub table under every alpha and grade in a row, each key twice, so
    # a memo key that drops a field hands back another key's table
    for sub in subs:
        for alpha in alphas_for(variant, delta):
            for grade in range(1, delta + 1):
                expected = recount(alpha, grade, sub)
                assert suite.diamond_mask(alpha, grade, sub) == expected
                assert suite.diamond_mask(alpha, grade, sub) == expected


def test_decompile_round_trip_small(monkeypatch):
    monkeypatch.setattr("portlogic.compiler.SUITE_NUMBERINGS", 2)
    for variant, text in [
        ("--", "<*,*>q1"),
        ("--", "<*,*;2>q1"),
        ("++", "<1,1>q2"),
        ("+-", "<2,*>!q1"),
        ("-+", "<*,1>q1 & q2"),
    ]:
        f = parse(text)
        delta = 2
        sig = Signature(delta, variant)
        machine = compile_formula(f, sig)
        suite = ModelSuite(default_decompile_suite(delta, node_bound=3), variant, delta)
        result = decompile_details(machine, delta, f.md + 1, variant, suite=suite)
        for pg, model in zip(suite.ported, suite.models):
            assert eval_formula(model, result.formula) == eval_formula(model, f)


def test_decompile_matches_machine_runs(monkeypatch):
    monkeypatch.setattr("portlogic.compiler.SUITE_NUMBERINGS", 2)
    variant, delta = "--", 2
    machine = odd_odd_machine(delta)
    suite = ModelSuite(default_decompile_suite(delta, node_bound=3), variant, delta)
    result = decompile_details(machine, delta, 2, variant, suite=suite)
    for pg, model in zip(suite.ported, suite.models):
        got = run(machine, pg, 4).outputs
        worlds = eval_formula(model, result.formula)
        assert {v for v, x in got.items() if x == 1} == set(worlds)


def _ones(result) -> set:
    return {v for v, x in result.outputs.items() if x == 1}


def test_decompile_gives_set_machines_their_set_view():
    # the transition counts entries, which a set view makes meaningless; run
    # hands it the set view, so the decompiled formula must see that view too
    machine = SimpleMachine(
        3,
        ClassTag(SET, BROADCAST),
        init=lambda d: ("s", d),
        emit=lambda s, i: "a" if s[1] == 1 else "b",
        transition=lambda s, inbox: int(inbox.count("a") >= 2),
        is_output=lambda s: isinstance(s, int),
        outputs=frozenset({0, 1}),
    )
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    pg = PortedGraph(g, random_port_numbering(g, 0))
    formula = decompile_details(machine, 3, 1, "--", suite=ModelSuite([pg], "--", 3)).formula
    assert set(eval_formula(kripke_model(pg, "--", 3), formula)) == _ones(run(machine, pg, 4))


@pytest.mark.parametrize("kind", [MULTISET, SET])
def test_decompile_hands_every_transition_a_realised_inbox(kind):
    # a realised inbox has delta entries, and realising it again changes nothing
    seen = []

    def transition(state, inbox):
        seen.append(inbox)
        return int("b" in inbox)

    machine = SimpleMachine(
        3,
        ClassTag(kind, BROADCAST),
        init=lambda d: ("s", d),
        emit=lambda s, i: "a" if s[1] == 1 else "b",
        transition=transition,
        is_output=lambda s: isinstance(s, int),
        outputs=frozenset({0, 1}),
    )
    decompile_details(machine, 3, 1, "--", node_bound=3)
    assert seen
    assert all(len(inbox) == 3 and canonical_inbox(kind, inbox) == inbox for inbox in seen)


@pytest.mark.parametrize("variant", ["--", "++"])
def test_decompile_below_machine_delta_pads_like_run(variant):
    # run pads every inbox to the machine's delta, and these machines count
    # the null messages, so the decompiler must pad to that delta as well
    suite = ModelSuite(default_decompile_suite(2, node_bound=3), variant, 2)
    for seed in (0, 1):
        machine = random_multiset_machine(3, seed, broadcast=variant == "--")
        result = decompile_details(machine, 2, 3, variant, suite=suite)
        for pg, model in zip(suite.ported, suite.models):
            assert set(eval_formula(model, result.formula)) == _ones(run(machine, pg, 4))


def test_decompile_history_wrapper_skips_ports_beyond_the_degree():
    # emit is asked for every port up to delta, also on nodes of smaller degree
    variant, delta = "-+", 3
    machine = multiset_from_vector(odd_odd_machine(delta))
    suite = ModelSuite(default_decompile_suite(delta, node_bound=3), variant, delta)
    result = decompile_details(machine, delta, 2, variant, suite=suite)
    for pg, model in zip(suite.ported, suite.models):
        assert set(eval_formula(model, result.formula)) == _ones(run(machine, pg, 4))


def test_decompile_of_a_port_reading_broadcast_machine_agrees_with_run():
    # the decompiler asks a broadcast machine on port 1 only, as run does
    machine = port_reading_broadcast_machine(3)
    formula = decompile_details(machine, 3, 2, "--").formula
    graphs = all_graphs(4, max_degree=3)
    disagreeing = 0
    for g in graphs:
        for seed in (0, 1):
            pg = PortedGraph(g, random_port_numbering(g, seed))
            worlds = set(eval_formula(kripke_model(pg, "--", 3), formula))
            disagreeing += worlds != _ones(run(machine, pg, 4))
    assert disagreeing == 0, f"of {2 * len(graphs)} ported graphs"


def test_decompile_depth_matches_horizon():
    f = parse("<*,*>q1")
    machine = compile_formula(f, Signature(2, "--"))
    psi = decompile_details(machine, 2, f.md + 1, "--", node_bound=3).formula
    assert psi.md == f.md + 1


def test_decompile_refuses_vector_machine_for_count_variants():
    machine = compile_formula(parse("<1,1>q1"), Signature(2, "++"))
    with pytest.raises(DecompileError):
        decompile_details(machine, 2, 2, "-+", node_bound=2)
    with pytest.raises(DecompileError):
        decompile_details(machine, 2, 2, "--", node_bound=2)
    # the outbox side: a vector-outbox machine cannot hide the outgoing port
    with pytest.raises(DecompileError):
        decompile_details(machine, 2, 2, "+-", node_bound=2)


@pytest.mark.parametrize("delta", [0, -1])
def test_decompile_refuses_delta_below_one(delta):
    with pytest.raises(DecompileError):
        decompile_details(odd_odd_machine(2), delta, 2, "--", node_bound=2)


@pytest.mark.parametrize(
    "horizon, message",
    [(-1, "horizon must be at least 0"), (0, "machine still running after 0 rounds")],
)
def test_decompile_refuses_a_negative_horizon(horizon, message):
    with pytest.raises(DecompileError, match=message):
        decompile_details(odd_odd_machine(2), 2, horizon, "--", node_bound=2)


def _stopping_on_init(init):
    return SimpleMachine(
        3,
        ClassTag(MULTISET, BROADCAST),
        init=init,
        emit=lambda s, i: "m",
        transition=lambda s, inbox: s,
        is_output=lambda s: isinstance(s, int),
    )


def test_decompile_skips_a_running_state_no_suite_world_holds():
    # only degree-3 nodes keep running, and no graph of at most 3 nodes has one
    suite = ModelSuite(default_decompile_suite(3, node_bound=3), "--", 3)
    machine = _stopping_on_init(lambda d: 1 if d <= 2 else ("run", d))
    assert decompile_details(machine, 3, 0, "--", suite=suite).table == suite.full_mask


def test_decompile_refuses_an_output_other_than_0_or_1():
    machine = _stopping_on_init(lambda d: 2)
    with pytest.raises(DecompileError, match="^decompilation needs a binary-output machine$"):
        decompile_details(machine, 3, 0, "--", node_bound=3)


@pytest.mark.parametrize("suite", [{"node_bound": 0}, {"node_bound": -2},
                                   {"suite": ModelSuite([], "--", 2)}],
                         ids=["node-bound-0", "node-bound-negative", "no-graphs"])
def test_decompile_refuses_a_suite_without_worlds(suite):
    # every table is 0 there, so any formula would pass for the machine
    with pytest.raises(DecompileError):
        decompile_details(odd_odd_machine(2), 2, 2, "--", **suite)


def _shipped_machines(delta: int):
    """Every shipped machine, bare and under each wrapper that accepts it."""
    for _, make in sorted(MACHINES.items()):
        yield make(delta)
        for wrap in WRAPPERS.values():
            try:
                yield wrap(make(delta))
            except WrapperError:
                continue


@pytest.mark.parametrize("delta", [2, 3])
def test_decompile_of_shipped_machines_fails_only_with_library_errors(delta):
    # the decompiler asks emit for every port up to delta, also on nodes of
    # smaller degree, and feeds transition every inbox its slots allow
    graphs = [
        PortedGraph(g, consistent_port_numbering(g, 0)) for g in all_graphs(4, max_degree=delta)
    ]
    decompiled = 0
    for machine in _shipped_machines(delta):
        horizon = max(run(machine, pg, 32).rounds for pg in graphs)
        for variant in VARIANTS:
            hidden_in, hidden_out = variant[0] == "-", variant[1] == "-"
            if (hidden_in and machine.tag.inbox == VECTOR) or (
                hidden_out and machine.tag.outbox != BROADCAST
            ):
                continue
            try:
                decompile_details(machine, delta, horizon, variant, node_bound=3)
            except PortlogicError:
                pass
            decompiled += 1
    assert decompiled == 21


def test_decompile_output_is_stable():
    # formulas are kept per (depth, table) in the order the enumeration meets
    # them; this pins that order on counted and positional slots alike
    lines = []
    for variant, broadcast in (("-+", False), ("--", True), ("+-", True)):
        for seed in range(6):
            machine = random_multiset_machine(2, seed, broadcast=broadcast)
            result = decompile_details(machine, 2, 3, variant)
            lines.append(format_formula(result.formula) + " " + str(result.table))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b3e34500e0a1a745788911e411232a127ac10798174c52098b87ed23df7f2c01"


def test_decompile_encodes_each_message_once_per_call(monkeypatch):
    machine = compile_formula(parse("<*,*;2>!<*,*;2>q2"), Signature(2, "--"))
    assert machine.tag.inbox == MULTISET
    encode = compiler.canon
    encoded = Counter()

    def counting_canon(value):
        if isinstance(value, tuple) and value[:1] == ("f",):  # a message
            encoded[value] += 1
        return encode(value)

    monkeypatch.setattr(compiler, "canon", counting_canon)
    suite = ModelSuite(default_decompile_suite(2, node_bound=3), "--", 2)
    decompile_details(machine, 2, 3, "--", suite)
    assert encoded and set(encoded.values()) == {1}
    # nothing is kept across calls, so a second call encodes them all again
    decompile_details(machine, 2, 3, "--", suite)
    assert set(encoded.values()) == {2}


@pytest.mark.parametrize(
    "machine, variant, visits",
    [
        (lambda: random_multiset_machine(2, 1), "-+", 86),
        (lambda: compile_formula(parse("<1,2>(q1 & <2,1>q2)"), Signature(2, "++")), "++", 74),
    ],
    ids=["counted-slots", "positional-slots"],
)
def test_decompile_visit_budget_boundary(machine, variant, visits, monkeypatch):
    monkeypatch.setattr("portlogic.compiler.MAX_VISITS", visits)
    decompile_details(machine(), 2, 3, variant, node_bound=4)
    monkeypatch.setattr("portlogic.compiler.MAX_VISITS", visits - 1)
    message = f"^transition enumeration exceeded {visits - 1} visits$"
    with pytest.raises(DecompileBudgetError, match=message):
        decompile_details(machine(), 2, 3, variant, node_bound=4)


@pytest.mark.parametrize("seed", range(6))
def test_decompile_keeps_a_stopped_state_without_enumerating_it(seed, monkeypatch):
    # run keeps a stopped node as it is: a horizon past the stopping round
    # costs no visit and returns the very formula of the stopping round
    machine = random_multiset_machine(2, seed)
    g = path(2)
    stop = run(machine, PortedGraph(g, consistent_port_numbering(g)), 4).rounds
    suite = ModelSuite(default_decompile_suite(2), "-+", 2)
    worker = compiler._Decompiler(machine, Signature(2, "-+"), stop, suite)
    formula = worker.build().formula
    monkeypatch.setattr("portlogic.compiler.MAX_VISITS", worker.visits)
    for horizon in range(stop, 5):
        assert decompile_details(machine, 2, horizon, "-+", suite).formula is formula


def test_decompile_refuses_budget_overrun(monkeypatch):
    monkeypatch.setattr("portlogic.compiler.MAX_VISITS", 3)
    machine = odd_odd_machine(2)
    with pytest.raises(DecompileBudgetError, match="^transition enumeration exceeded 3 visits$"):
        decompile_details(machine, 2, 2, "--", node_bound=3)


@pytest.mark.parametrize(
    "budget, message",
    [("MAX_STATES", "^2 states at round 1 exceed the budget 1$"),
     ("MAX_MESSAGES", "^2 distinct messages exceed the budget 1$")],
)
def test_decompile_state_and_message_budget_boundaries(budget, message, monkeypatch):
    # odd_odd on -- reaches 2 states and sends 2 distinct messages in round 1
    monkeypatch.setattr(f"portlogic.compiler.{budget}", 2)
    decompile_details(odd_odd_machine(2), 2, 2, "--", node_bound=3)
    monkeypatch.setattr(f"portlogic.compiler.{budget}", 1)
    with pytest.raises(DecompileBudgetError, match=message):
        decompile_details(odd_odd_machine(2), 2, 2, "--", node_bound=3)


@pytest.mark.parametrize(
    "delta, suite, message",
    [(3, None, "^delta exceeds the machine's declared bound$"),
     (2, ("-+", 2), "^suite was built for a different signature$"),
     (2, ("--", 1), "^suite was built for a different signature$")],
    ids=["delta-above-bound", "other-variant", "other-delta"],
)
def test_decompile_refuses_a_delta_or_suite_that_does_not_fit(delta, suite, message):
    if suite:
        variant, suite_delta = suite
        suite = ModelSuite(default_decompile_suite(suite_delta, node_bound=2), variant, suite_delta)
    with pytest.raises(DecompileError, match=message):
        decompile_details(odd_odd_machine(2), delta, 2, "--", suite, node_bound=2)


def test_decompile_requires_stopping_within_horizon():
    machine = compile_formula(parse("<*,*><*,*>q1"), Signature(2, "--"))
    with pytest.raises(DecompileError):
        decompile_details(machine, 2, 1, "--", node_bound=3)
