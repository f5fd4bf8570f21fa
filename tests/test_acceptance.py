"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  All tolerances are exact (zero mismatches); sweeps marked
"all numberings" enumerate exhaustively up to a cap on the numbering count
(the count grows as the product of deg!^2 over nodes, cf. 6e13 for K5) and
fall back to a fixed-size seeded sample beyond it.
"""

import itertools
import math
import random

import pytest

from conftest import (
    indistinct_nodes,
    random_formula,
    random_multiset_machine,
    staggered_machine,
)
from portlogic.bisim import (
    Refutation,
    coarsest_bisimulation,
    coarsest_graded_bisimulation,
    verify_bisimulation,
)
from portlogic.cli import separation
from portlogic.compiler import ModelSuite, compile_formula, decompile_details
from portlogic.graphs import (
    PortNumbering,
    PortedGraph,
    complete,
    cycle,
    has_one_factor,
    no_one_factor_cubic,
    symmetric_port_numbering,
)
from portlogic.logic import (
    Dia,
    Signature,
    VARIANTS,
    eval_formula,
    kripke_model,
    subformulas,
)
from portlogic.machines import NO_MESSAGE, canonical_inbox, run
from portlogic.problems import leaf_election_machine, odd_odd_machine
from portlogic.simulate import bcast_multiset_from_broadcast, multiset_from_vector, set_from_multiset
from portlogic.smallgraphs import all_graphs, numberings

SUITE_SEED = 20240809


def report(criterion: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# Criteria 1 and 2: compiler-checker equivalence and round exactness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def formula_suite():
    rng = random.Random(SUITE_SEED)
    suite = []
    for variant in VARIANTS:
        for _ in range(50):
            sig = Signature(rng.randint(1, 3), variant)
            suite.append((sig, random_formula(rng, sig, max_depth=3)))
    return suite


@pytest.fixture(scope="session")
def model_suites():
    """One ModelSuite per (variant, delta): all graphs <=5 nodes, >=20
    numberings each (every numbering when a graph has at most 20)."""
    suites = {}
    for delta in (1, 2, 3):
        flat = []
        for gi, g in enumerate(all_graphs(5, max_degree=delta)):
            for p in numberings(g, cap=20, samples=20, seed=1000 + gi):
                flat.append(PortedGraph(g, p))
        for variant in VARIANTS:
            suites[(variant, delta)] = ModelSuite(flat, variant, delta)
    return suites


@pytest.fixture(scope="session")
def compiler_sweep(formula_suite, model_suites):
    stats = {
        "formulas": 0,
        "runs": 0,
        "output_mismatches": 0,
        "round_violations": 0,
        "eval_spot_mismatches": 0,
        "decompile_table_mismatches": 0,
        "decompile_eval_mismatches": 0,
    }
    rng = random.Random(SUITE_SEED + 1)
    for sig, formula in formula_suite:
        suite = model_suites[(sig.variant, sig.delta)]
        machine = compile_formula(formula, sig)
        expected = suite.table(formula)
        horizon = formula.md + 1
        stats["formulas"] += 1
        for pg, offset in zip(suite.ported, suite.offsets):
            result = run(machine, pg, horizon + 1)
            stats["runs"] += 1
            if not result.stopped or result.rounds != horizon:
                stats["round_violations"] += 1
                continue
            for v in range(pg.graph.n):
                if result.outputs[v] != (expected >> (offset + v)) & 1:
                    stats["output_mismatches"] += 1
        # the packed table must agree with the reference evaluator
        for idx in rng.sample(range(len(suite.models)), k=min(3, len(suite.models))):
            model, offset = suite.models[idx], suite.offsets[idx]
            worlds = eval_formula(model, formula)
            for v in range(model.size):
                if ((expected >> (offset + v)) & 1) != (v in worlds):
                    stats["eval_spot_mismatches"] += 1
        # reverse direction on the same suite
        res = decompile_details(machine, sig.delta, horizon, sig.variant, suite=suite)
        if res.table != expected:
            stats["decompile_table_mismatches"] += 1
        idx = rng.randrange(len(suite.models))
        model, offset = suite.models[idx], suite.offsets[idx]
        worlds = eval_formula(model, res.formula)
        for v in range(model.size):
            if ((expected >> (offset + v)) & 1) != (v in worlds):
                stats["decompile_eval_mismatches"] += 1
    return stats


def test_criterion_1_compiler_checker_equivalence(compiler_sweep):
    stats = compiler_sweep
    assert stats["formulas"] >= 200
    assert stats["output_mismatches"] == 0
    assert stats["eval_spot_mismatches"] == 0
    assert stats["decompile_table_mismatches"] == 0
    assert stats["decompile_eval_mismatches"] == 0
    report(
        1,
        "compiler-checker equivalence (both directions)",
        f"{stats['formulas']} formulas, {stats['runs']} runs, 0 mismatches",
    )


def test_criterion_2_round_exactness(compiler_sweep):
    assert compiler_sweep["round_violations"] == 0
    report(
        2,
        "compiled machines stop at exactly md+1",
        f"{compiler_sweep['runs']} runs",
    )


# ---------------------------------------------------------------------------
# Criterion 3: the set-from-multiset collapse
# ---------------------------------------------------------------------------


def test_criterion_3_set_from_multiset_collapse():
    output_diffs = 0
    round_diffs = 0
    distinctness_violations = 0
    cases = 0
    for gi, g in enumerate(all_graphs(5)):
        delta = max(1, g.max_degree())
        base = odd_odd_machine(delta)
        wrapped = set_from_multiset(base)
        for p in numberings(g, cap=256, samples=24, seed=2000 + gi):
            pg = PortedGraph(g, p)
            r0 = run(base, pg, 8)
            r1 = run(wrapped, pg, 8 + 2 * delta, record_messages=True)
            cases += 1
            if r1.outputs != r0.outputs:
                output_diffs += 1
            if r1.rounds != 2 * delta + r0.rounds:
                round_diffs += 1
            # the distinct-triples property in the last preamble round, at
            # every node, read off the wrapper's own run
            distinctness_violations += indistinct_nodes(pg, r1.trace.messages[2 * delta - 1])
    random_cases = 0
    for seed in range(20):
        base = random_multiset_machine(3, seed=seed)
        wrapped = set_from_multiset(base)
        for gi, g in enumerate(all_graphs(5, max_degree=3)):
            for p in numberings(g, cap=24, samples=8, seed=3000 + 71 * seed + gi):
                pg = PortedGraph(g, p)
                r0 = run(base, pg, 8)
                r1 = run(wrapped, pg, 8 + 6)
                random_cases += 1
                if r1.outputs != r0.outputs:
                    output_diffs += 1
                if r1.rounds != 6 + r0.rounds:
                    round_diffs += 1
    assert output_diffs == 0
    assert round_diffs == 0
    assert distinctness_violations == 0
    report(
        3,
        "set-from-multiset collapse",
        f"{cases} odd_odd cases, {random_cases} random-machine cases, "
        "phase one exactly 2*delta, distinctness everywhere",
    )


# ---------------------------------------------------------------------------
# Criterion 4: VV = MV and VB = MB through the history wrappers
# ---------------------------------------------------------------------------


def _realising_numbering(base, pg: PortedGraph, got):
    """(numbering, order-sensitive) for ``got``, a run of a history wrapper of
    ``base`` on ``pg`` recorded with messages.

    The numbering keeps ``pg``'s outgoing ports and orders each node's
    incoming ports so that ``base``, fed the last message of each history
    received, reaches the wrapped run's base states (None if some node has
    no such order).  The base states fix every message, so each node is
    searched alone.  Order-sensitive: some node rules out some order.
    """
    g = pg.graph
    states = [[s[1] for s in snap] for snap in got.trace.states]
    mapping, sensitive = {}, False
    for v in range(g.n):
        d = g.degree(v)
        rounds = [
            (t, [NO_MESSAGE if m == NO_MESSAGE else m[1][-1] for m in inboxes[v]])
            for t, inboxes in enumerate(got.trace.messages)
            if not base.is_output(states[t][v])
        ]
        fits = [
            order
            for order in itertools.permutations(range(d))
            if all(
                base.transition(
                    states[t][v],
                    canonical_inbox(base.tag.inbox, tuple(current[k] for k in order) + tuple(current[d:])),
                )
                == states[t + 1][v]
                for t, current in rounds
            )
        ]
        if not fits:
            return None, sensitive
        sensitive |= len(fits) < math.factorial(d)
        mapping.update((pg.numbering.source(v, k + 1), (v, j)) for j, k in enumerate(fits[0], start=1))
    return PortNumbering(mapping), sensitive


def test_criterion_4_multiset_from_vector_collapse():
    # The paper's VV = MV and VB = MB: a wrapped run stops in the base's
    # rounds, and its base states, round by round, are those of one base run
    # under a numbering that keeps the wrapped run's outgoing ports and
    # renumbers only incoming ones.  The staggered bases hash their whole
    # inbox vector, so a wrong order shows, and stop at degree-dependent
    # rounds, so a node keeps hearing neighbours that went silent.
    counts = []
    for wrap, broadcast in ((multiset_from_vector, False), (bcast_multiset_from_broadcast, True)):
        bases = [staggered_machine(seed, broadcast) for seed in range(6)]
        if not broadcast:
            bases.append(leaf_election_machine(3))
        cases = order_sensitive = silences = 0
        for bi, base in enumerate(bases):
            wrapped = wrap(base)
            for gi, g in enumerate(all_graphs(4, max_degree=3)):
                for p in numberings(g, cap=16, samples=16, seed=100 * bi + gi):
                    pg = PortedGraph(g, p)
                    got = run(wrapped, pg, 6, record_messages=True)
                    numbering, sensitive = _realising_numbering(base, pg, got)
                    assert got.stopped and numbering is not None
                    want = run(base, PortedGraph(g, numbering), 6)
                    assert got.rounds == want.rounds
                    assert [[s[1] for s in snap] for snap in got.trace.states] == [
                        list(snap) for snap in want.trace.states
                    ]
                    cases += 1
                    order_sensitive += sensitive
                    # a neighbour silent for two rounds while its receiver runs
                    silences += any(
                        s[0] == "sim" and any(h[-2:] == (NO_MESSAGE,) * 2 for h in s[3])
                        for snap in got.trace.states
                        for s in snap
                    )
        assert order_sensitive and silences
        counts.append(
            f"{wrap.__name__}: {cases} cases, {order_sensitive} order-sensitive, "
            f"{silences} with two-round silences"
        )
    report(4, "history wrappers run the base under an incoming renumbering", "; ".join(counts))


# ---------------------------------------------------------------------------
# Criterion 5: separation certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "demo,expected_class",
    [
        ("star", "VB"),
        ("parity", "SB"),
        ("regular", "VV"),
    ],
)
def test_criterion_5_separation_certificates(demo, expected_class):
    doc = separation(demo, SUITE_SEED)
    assert doc["positive_runs_valid"] is True
    certificate = doc["certificate"]
    assert isinstance(certificate, Refutation)
    assert certificate.machine_class == expected_class
    recheck = verify_bisimulation(
        certificate.model, None, certificate.partition.as_pairs()
    )
    assert recheck.ok
    report(
        5,
        f"separation demo {doc['demo']}",
        f"solved in {doc['solved_in']}, {expected_class} refuted and reverified",
    )


# ---------------------------------------------------------------------------
# Criteria 6 and 7: the constructive symmetric numbering and its graph
# ---------------------------------------------------------------------------


def test_criterion_6_symmetric_numbering_collapses_everything():
    # a valid numbering whose every arc keeps its port index is k disjoint
    # perfect matchings of the bipartite double cover that cover it, one per index
    targets = [cycle(3), cycle(4), cycle(5), cycle(6), complete(4), no_one_factor_cubic()]
    for g in targets:
        p = symmetric_port_numbering(g)
        model = kripke_model(PortedGraph(g, p), "++")
        assert all(i == j for (_, i), (_, j) in p.items())
        assert all(i == j for i, j in model.successors)
        partition = coarsest_bisimulation(model)
        assert len(partition.blocks) == 1
    report(6, "symmetric numberings collapse regular graphs", f"{len(targets)} graphs")


def test_criterion_7_cubic_graph_without_one_factor():
    g = no_one_factor_cubic()
    assert g.regularity() == 3
    assert g.is_connected()
    assert not has_one_factor(g)
    report(7, "3-regular connected graph with no perfect matching", "16 nodes")


# ---------------------------------------------------------------------------
# Criterion 8: bisimulation engine soundness and maximality
# ---------------------------------------------------------------------------


def _formula_pool(variant: str, delta: int, graded: bool):
    rng = random.Random(SUITE_SEED + delta * 10 + VARIANTS.index(variant))
    sig = Signature(delta, variant)
    pool = []
    while len(pool) < 200:
        f = random_formula(rng, sig, max_depth=3)
        has_grades = any(
            isinstance(n, Dia) and n.grade > 1 for n in subformulas(f)
        )
        if graded or not has_grades:
            pool.append(f)
    return pool


def test_criterion_8_bisimulation_soundness_maximality_transfer():
    pools: dict = {}
    models_checked = 0
    fact1_checks = 0
    for gi, g in enumerate(all_graphs(6)):
        delta = max(1, g.max_degree())
        ports = numberings(g, cap=1, samples=2, seed=5000 + gi)[:2]
        for p in ports:
            pg = PortedGraph(g, p)
            for variant in VARIANTS:
                model = kripke_model(pg, variant, delta)
                plain = coarsest_bisimulation(model)
                graded = coarsest_graded_bisimulation(model)
                models_checked += 1
                assert verify_bisimulation(model, None, plain.as_pairs())
                assert verify_bisimulation(model, None, graded.as_pairs(), graded=True)
                assert graded.refines(plain)
                for a in range(len(plain.blocks)):
                    for b in range(a + 1, len(plain.blocks)):
                        merged = plain.merge(a, b)
                        assert not verify_bisimulation(model, None, merged.as_pairs())
            # formula transfer on the two extreme variants
            for variant, graded_pool in (("--", False), ("--", True), ("++", False)):
                model = kripke_model(pg, variant, delta)
                part = (
                    coarsest_graded_bisimulation(model)
                    if graded_pool
                    else coarsest_bisimulation(model)
                )
                key = (variant, delta, graded_pool)
                if key not in pools:
                    pools[key] = _formula_pool(variant, delta, graded_pool)
                for f in pools[key]:
                    worlds = eval_formula(model, f)
                    fact1_checks += 1
                    for block in part.blocks:
                        agreement = {w in worlds for w in block}
                        assert len(agreement) == 1
    report(
        8,
        "refinement sound, maximal, and formula-transferring",
        f"{models_checked} models, {fact1_checks} formula checks",
    )
