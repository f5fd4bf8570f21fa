"""The benchmark's workloads: seeded inputs and self-checking cases.

Each ``setup_*`` function builds every input of its workload from a seed and
returns the cases; ``setup_s`` times exactly that.  A case is a closure over
its inputs that calls into portlogic and returns ``(observed, expected)``;
the case passes when the two are equal.  Expected values come from a
reference that does not share the code under test wherever one exists: the
benchmark's own odd_odd solution, the problem verifiers, ``ModelSuite.table``
and ``eval_formula`` for compiled machines, the pairwise verifier for
refinement.  For random machines the base machine's own run is the
reference, as in the collapse theorem.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from portlogic import bisim, cli, compiler, logic, machines, problems, simulate, smallgraphs
from portlogic.graphs import PortedGraph, random_port_numbering, star
from portlogic.logic import VARIANTS, Signature

import gen

# collapse: numberings per graph (exhaustive up to the cap, else sampled)
ODD_CAP, ODD_SAMPLES = 24, 4
RANDOM_MACHINES = 9
RANDOM_CAP, RANDOM_SAMPLES = 6, 3
STAR_CAP, STAR_SAMPLES = 36, 12
LEAF_CAP, LEAF_SAMPLES = 16, 4
# roundtrip: sampled numberings per suite graph, formulas per (variant, delta, depth)
SUITE_NUMBERINGS = 2
FORMULAS_PER_CELL = 9
# certify: formulas per transfer pool, and the (variant, graded) transfer checks
POOL_SIZE = 20
TRANSFER = (("--", False), ("--", True), ("++", False))
DEMOS = ("star", "parity", "regular")
# held-out decompilation: numbering seeds start above every seed the default
# decompile suite uses (at most 101 * 41 + 3 for delta 3, node bound 5)
HELDOUT_SEED_BASE = 9_000_000
HELDOUT_MACHINES = 4
HELDOUT_NUMBERINGS = 2


@dataclass
class Case:
    label: str
    check: Callable[[], tuple]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def in_seeded_order(cases: list[Case], rng: random.Random) -> list[Case]:
    """The cases in a seeded random order.

    Enumeration puts the heaviest cases (the largest graphs) next to each
    other.  A slow stretch of the shared machine that the calibration does
    not catch would then slow all of them at once and move the tail
    percentile as a block; shuffled, it slows only a few of them.
    """
    rng.shuffle(cases)
    return cases


def clear_caches():
    """Forget what an earlier set-up computed, so set-up is timed cold."""
    smallgraphs.all_graphs.cache_clear()


# ---------------------------------------------------------------------------
# collapse: set_from_multiset and multiset_from_vector against their bases
# ---------------------------------------------------------------------------


def odd_odd_solution(g) -> dict:
    """The unique odd_odd solution, computed without any machine."""
    return {
        v: sum(g.degree(u) % 2 for u in g.adjacency[v]) % 2 for v in range(g.n)
    }


def collapse_case(base, wrapped, pg, max_rounds, offset, expected_outputs=None, problem=None):
    """Run base and wrapped machine; outputs, stopping and round offset must match.

    Without ``expected_outputs`` the base run is the reference.
    """
    r0 = machines.run(base, pg, max_rounds)
    r1 = machines.run(wrapped, pg, max_rounds + offset)
    reference = r0.outputs if expected_outputs is None else expected_outputs
    observed = (r0.stopped, r1.stopped, r0.outputs, r1.outputs, r1.rounds - r0.rounds)
    expected = (True, True, reference, reference, offset)
    if problem is not None:
        observed += (problem.check(pg.graph, r1.outputs),)
        expected += (True,)
    return observed, expected


def machine_shape(k: int) -> tuple[int, int, int]:
    """(rounds, states, letters) of the k-th random machine: a fixed mix."""
    return 1 + k % 3, 2 + k // 3 % 3, 2 + k % 2


def setup_collapse(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for gi, g in enumerate(smallgraphs.all_graphs(5)):
        delta = max(1, g.max_degree())
        base = problems.odd_odd_machine(delta)
        wrapped = simulate.set_from_multiset(base)
        solution = odd_odd_solution(g)
        for p in smallgraphs.numberings(g, cap=ODD_CAP, samples=ODD_SAMPLES, seed=_seed(rng)):
            check = partial(collapse_case, base, wrapped, PortedGraph(g, p), 8, 2 * delta, solution)
            cases.append(Case(f"odd_odd/g{gi}", check))
    graphs = smallgraphs.all_graphs(5, max_degree=3)
    for k in range(RANDOM_MACHINES):
        base = gen.random_multiset_machine(3, _seed(rng), *machine_shape(k))
        wrapped = simulate.set_from_multiset(base)
        for gi, g in enumerate(graphs):
            for p in smallgraphs.numberings(g, cap=RANDOM_CAP, samples=RANDOM_SAMPLES, seed=_seed(rng)):
                check = partial(collapse_case, base, wrapped, PortedGraph(g, p), 8, 6)
                cases.append(Case(f"random{k}/g{gi}", check))
    problem = problems.leaf_election()
    leaf_inputs = [(k, [star(k)], STAR_CAP, STAR_SAMPLES) for k in (2, 3, 4)]
    leaf_inputs.append((3, smallgraphs.all_graphs(4, max_degree=3), LEAF_CAP, LEAF_SAMPLES))
    for k, graphs, cap, samples in leaf_inputs:
        base = problems.leaf_election_machine(k)
        wrapped = simulate.multiset_from_vector(base)
        for gi, g in enumerate(graphs):
            for p in smallgraphs.numberings(g, cap=cap, samples=samples, seed=_seed(rng)):
                check = partial(collapse_case, base, wrapped, PortedGraph(g, p), 6, 0, problem=problem)
                cases.append(Case(f"leaf{k}/g{gi}", check))
    return in_seeded_order(cases, rng)


# ---------------------------------------------------------------------------
# roundtrip: formula -> machine -> formula on packed model suites
# ---------------------------------------------------------------------------


def roundtrip_case(suite, sig, formula, spot):
    """Compile, run on every suite graph, spot-check, decompile on the suite."""
    machine = compiler.compile_formula(formula, sig)
    expected = suite.table(formula)
    horizon = formula.md + 1
    bad_outputs = bad_rounds = 0
    for pg, offset in zip(suite.ported, suite.offsets):
        result = machines.run(machine, pg, horizon + 1)
        if not result.stopped or result.rounds != horizon:
            bad_rounds += 1
            continue
        for v in range(pg.graph.n):
            bad_outputs += result.outputs[v] != (expected >> (offset + v)) & 1
    model, offset = suite.models[spot], suite.offsets[spot]
    bits = [(expected >> (offset + v)) & 1 for v in range(model.size)]
    worlds = logic.eval_formula(model, formula)
    bad_spot = sum(bit != (v in worlds) for v, bit in enumerate(bits))
    result = compiler.decompile_details(machine, sig.delta, horizon, sig.variant, suite=suite)
    worlds = logic.eval_formula(model, result.formula)
    bad_decompiled = sum(bit != (v in worlds) for v, bit in enumerate(bits))
    observed = (bad_outputs, bad_rounds, bad_spot, result.table == expected, bad_decompiled)
    return observed, (0, 0, 0, True, 0)


def setup_roundtrip(seed: int) -> list[Case]:
    rng = random.Random(seed)
    suites = {}
    for delta in (1, 2, 3):
        ported = [
            PortedGraph(g, p)
            for g in smallgraphs.all_graphs(5, max_degree=delta)
            for p in smallgraphs.numberings(
                g, cap=SUITE_NUMBERINGS, samples=SUITE_NUMBERINGS, seed=_seed(rng)
            )
        ]
        for variant in VARIANTS:
            suites[(variant, delta)] = compiler.ModelSuite(ported, variant, delta)
    cases = []
    for variant in VARIANTS:
        for delta in (1, 2, 3):
            suite = suites[(variant, delta)]
            sig = Signature(delta, variant)
            for depth in (1, 2, 3):
                for k in range(FORMULAS_PER_CELL):
                    formula = gen.random_formula(rng, sig, depth)
                    spot = rng.randrange(len(suite.models))
                    check = partial(roundtrip_case, suite, sig, formula, spot)
                    cases.append(Case(f"{variant}/d{delta}/md{depth}/{k}", check))
    return in_seeded_order(cases, rng)


def heldout_mismatches(seed: int) -> tuple[int, int]:
    """Decompile random counting-variant machines; check them off their suite.

    Each machine is decompiled on the default suite (graphs with at most 5
    nodes) and its formula is compared with the machine on every 6-node
    graph of degree at most 3, under numbering seeds from
    ``HELDOUT_SEED_BASE`` up.  Returns (mismatched node outputs, outputs).
    """
    rng = random.Random(seed)
    graphs = [g for g in smallgraphs.all_graphs(6, max_degree=3) if g.n == 6]
    mismatches = outputs = 0
    for variant, broadcast in (("-+", False), ("--", True)):
        for k in range(HELDOUT_MACHINES):
            rounds, states, letters = machine_shape(k)
            machine = gen.random_multiset_machine(3, _seed(rng), rounds, states, letters, broadcast)
            formula = compiler.decompile_details(machine, 3, rounds, variant).formula
            for g in graphs:
                for _ in range(HELDOUT_NUMBERINGS):
                    p = random_port_numbering(g, HELDOUT_SEED_BASE + _seed(rng))
                    pg = PortedGraph(g, p)
                    result = machines.run(machine, pg, rounds + 1)
                    worlds = logic.eval_formula(logic.kripke_model(pg, variant, 3), formula)
                    mismatches += sum(result.outputs[v] != (v in worlds) for v in range(g.n))
                    outputs += g.n
    return mismatches, outputs


# ---------------------------------------------------------------------------
# certify: refinement audits on every small graph, plus the separation demos
# ---------------------------------------------------------------------------


def certify_case(pg, delta, pools):
    """Soundness, graded refinement, maximality and formula transfer on (G, p)."""
    unsound = not_refining = not_maximal = not_transferred = 0
    partitions = {}
    for variant in VARIANTS:
        model = logic.kripke_model(pg, variant, delta)
        plain = bisim.coarsest_bisimulation(model)
        graded = bisim.coarsest_graded_bisimulation(model)
        partitions[(variant, False)] = (model, plain)
        partitions[(variant, True)] = (model, graded)
        unsound += not bisim.verify_bisimulation(model, None, plain.as_pairs())
        unsound += not bisim.verify_bisimulation(model, None, graded.as_pairs(), graded=True)
        not_refining += not graded.refines(plain)
        for a in range(len(plain.blocks)):
            for b in range(a + 1, len(plain.blocks)):
                merged = plain.merge(a, b)
                not_maximal += bool(bisim.verify_bisimulation(model, None, merged.as_pairs()))
    for variant, graded in TRANSFER:
        model, partition = partitions[(variant, graded)]
        for formula in pools[(variant, delta, graded)]:
            worlds = logic.eval_formula(model, formula)
            not_transferred += sum(
                len({w in worlds for w in block}) != 1 for block in partition.blocks
            )
    return (unsound, not_refining, not_maximal, not_transferred), (0, 0, 0, 0)


def demo_case(demo: str, seed: int):
    """``portlogic separate <demo> --json``: must succeed and re-verify."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["separate", demo, "--json", "--seed", str(seed)])
    doc = json.loads(out.getvalue())
    return (code, doc["ok"], doc["certificate"].get("reverified")), (0, True, True)


def setup_certify(seed: int) -> list[Case]:
    rng = random.Random(seed)
    audits = []
    for gi, g in enumerate(smallgraphs.all_graphs(6)):
        delta = max(1, g.max_degree())
        for p in smallgraphs.numberings(g, cap=1, samples=2, seed=_seed(rng))[:2]:
            audits.append((f"g{gi}", PortedGraph(g, p), delta))
    pools = {}
    for variant, graded in TRANSFER:
        for delta in sorted({delta for _, _, delta in audits}):
            sig = Signature(delta, variant)
            pools[(variant, delta, graded)] = [
                gen.random_formula(rng, sig, 1 + k % 3, graded=graded) for k in range(POOL_SIZE)
            ]
    cases = [
        Case(label, partial(certify_case, pg, delta, pools)) for label, pg, delta in audits
    ]
    for demo in DEMOS:
        cases.append(Case(f"separate-{demo}", partial(demo_case, demo, _seed(rng))))
    return in_seeded_order(cases, rng)


WORKLOADS = {
    "collapse": setup_collapse,
    "roundtrip": setup_roundtrip,
    "certify": setup_certify,
}
