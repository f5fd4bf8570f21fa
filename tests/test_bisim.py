"""Refinement, direct verification, and the impossibility checker."""

import dataclasses
import random
import tracemalloc

import pytest

from conftest import cached_model, full_audit, random_formula, sweep
from portlogic.bisim import (
    EnumerationBudgetError,
    ImpossibilityInputError,
    Inconclusive,
    NonEquivalenceError,
    Partition,
    Refutation,
    RelationRangeError,
    VerifyResult,
    coarsest_bisimulation,
    coarsest_graded_bisimulation,
    impossibility_check,
    verify_bisimulation,
)
from portlogic.graphs import (
    PortedGraph,
    PortlogicError,
    complete,
    consistent_port_numbering,
    cycle,
    disjoint_union,
    no_one_factor_cubic,
    random_port_numbering,
    star,
    symmetric_port_numbering,
)
from portlogic import logic, problems
from portlogic.cli import SEPARATIONS
from portlogic.logic import Signature, eval_formula, kripke_model
from portlogic.machines import CLASSES
from portlogic.problems import (
    leaf_election,
    nonconstant_on_unmatchable,
    odd_odd,
    parity_union,
)
from portlogic.smallgraphs import all_graphs


def test_c4_collapses_to_one_block():
    g = cycle(4)
    model = cached_model(PortedGraph(g, consistent_port_numbering(g, 0)), "--", 2)
    assert coarsest_bisimulation(model).blocks == ((0, 1, 2, 3),)


def test_star_splits_center_from_leaves_under_outgoing_ports():
    g = star(3)
    for p in sweep(g, cap=40, samples=6, seed=0):
        model = kripke_model(PortedGraph(g, p), "+-")
        assert coarsest_bisimulation(model).blocks == ((0,), (1, 2, 3))


def test_union_of_c4_and_c8_is_one_block():
    union, _ = disjoint_union(cycle(4), cycle(8))
    model = cached_model(PortedGraph(union, consistent_port_numbering(union, 0)), "--", 2)
    assert len(coarsest_bisimulation(model).blocks) == 1


def test_union_of_c4_and_c8_labels_number_blocks_by_least_world():
    union, _ = disjoint_union(cycle(4), cycle(8))
    model = cached_model(PortedGraph(union, consistent_port_numbering(union, 0)), "++", 2)
    part = coarsest_bisimulation(model)
    assert part.labels == (0, 1, 2, 3, 4, 4, 5, 6, 7, 7, 6, 5)
    assert part.blocks == ((0,), (1,), (2,), (3,), (4, 5), (6, 11), (7, 10), (8, 9))


def test_graded_star_blocks():
    g = star(3)
    model = cached_model(PortedGraph(g, consistent_port_numbering(g, 0)), "--", 3)
    assert coarsest_graded_bisimulation(model).blocks == ((0,), (1, 2, 3))


def test_plain_bisimilar_graded_distinct_pair_exists():
    union, u, w = parity_union()
    model = cached_model(PortedGraph(union, consistent_port_numbering(union, 0)), "--", 3)
    plain = coarsest_bisimulation(model)
    graded = coarsest_graded_bisimulation(model)
    assert plain.block_index(u) == plain.block_index(w)
    assert graded.block_index(u) != graded.block_index(w)


def test_graded_always_refines_plain():
    rng = random.Random(4)
    for g in [g for g in all_graphs(5, max_degree=3) if g.is_connected()]:
        p = random_port_numbering(g, rng.randrange(1000))
        for variant in ("--", "++"):
            model = kripke_model(PortedGraph(g, p), variant)
            plain = coarsest_bisimulation(model)
            graded = coarsest_graded_bisimulation(model)
            assert graded.refines(plain)


def test_partition_helpers():
    part = Partition((0, 1, 0, 2))
    assert part.block_index(2) == 0
    assert part.block_index(0) == 0 and part.block_index(1) == 1
    merged = part.merge(0, 2)
    assert merged.blocks == ((0, 2, 3), (1,))
    assert part.refines(merged)
    assert not merged.refines(part)
    assert part.to_json() == [[0, 2], [1], [3]]
    assert part.merge(1, 1) == part
    with pytest.raises(IndexError):
        part.merge(0, 3)
    with pytest.raises(IndexError):
        part.merge(5, 5)


def test_merge_is_symmetric():
    part = Partition((0, 1, 0, 2))
    assert part.merge(2, 0) == part.merge(0, 2) == Partition((0, 1, 0, 0))


def test_partition_refuses_labels_not_numbered_by_least_world():
    for labels in ((0, 2), (1, 0)):
        with pytest.raises(PortlogicError, match="^partition labels must number blocks by their least world$"):
            Partition(labels)
    assert Partition((0, 1, 0, 2)).blocks == ((0, 2), (1,), (3,))


def test_refines_refuses_different_world_counts():
    with pytest.raises(PortlogicError):
        Partition((0, 1, 0)).refines(Partition((0, 1, 0, 2)))
    with pytest.raises(PortlogicError):
        Partition((0, 1, 0, 2)).refines(Partition((0, 1, 0)))


def test_verify_explicit_relation_on_star():
    g = star(3)
    model = kripke_model(PortedGraph(g, random_port_numbering(g, 3)), "+-")
    relation = [(v, w) for v in range(1, 4) for w in range(1, 4)] + [(0, 0)]
    assert verify_bisimulation(model, None, relation)
    bad = verify_bisimulation(model, None, [(0, 1)])
    assert not bad.ok and bad.clause == "B1"
    for graded in (False, True):
        assert verify_bisimulation(model, None, [], graded=graded) == VerifyResult(False, "empty", ())


def test_verify_cross_model():
    g1, g2 = cycle(4), cycle(8)
    m1 = cached_model(PortedGraph(g1, consistent_port_numbering(g1, 0)), "--", 2)
    m2 = cached_model(PortedGraph(g2, consistent_port_numbering(g2, 0)), "--", 2)
    full = [(v, w) for v in range(4) for w in range(8)]
    assert verify_bisimulation(m1, m2, full)
    assert verify_bisimulation(m1, m2, full, graded=False).ok
    s = star(2)
    m3 = cached_model(PortedGraph(s, consistent_port_numbering(s, 0)), "--", 2)
    # cycle node against a star leaf: different degree propositions
    res = verify_bisimulation(m1, m3, [(0, 1)])
    assert not res.ok and res.clause == "B1"
    # against the star centre the valuations agree but the zig clause fails
    res = verify_bisimulation(m1, m3, [(0, 0)])
    assert not res.ok and res.clause == "B2"


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
def test_verify_rejects_worlds_outside_the_models(graded):
    c3 = cycle(3)
    m3 = cached_model(PortedGraph(c3, consistent_port_numbering(c3, 0)), "--", 2)
    c4 = cycle(4)
    m4 = cached_model(PortedGraph(c4, consistent_port_numbering(c4, 0)), "--", 2)
    bad = [
        (m3, m3, [(0, -3), (1, -2), (2, -1)]),  # negative worlds of the second model
        (m4, None, [(0, 9)]),
        (m4, None, [(-1, 0)]),
        (m4, m3, [(0, 3)]),
        (m4, m3, [(4, 0)]),
    ]
    for model, other, relation in bad:
        with pytest.raises(RelationRangeError) as caught:
            verify_bisimulation(model, other, relation, graded=graded)
        assert isinstance(caught.value, PortlogicError)
        assert isinstance(caught.value, ValueError)
    # worlds up to the last of each model are fine: 2-regular cycles are bisimilar
    full = [(v, w) for v in range(4) for w in range(3)]
    assert verify_bisimulation(m4, m3, full, graded=graded)


def test_verify_graded_requires_equivalence():
    g = cycle(4)
    model = cached_model(PortedGraph(g, consistent_port_numbering(g, 0)), "--", 2)
    # opposite nodes share both neighbours, so merging just them verifies
    assert verify_bisimulation(model, None, [(0, 2)], graded=True)
    # adjacent nodes do not: their successor counts hit different singletons
    # the witness names the block's reference world first, then the one that differs
    assert verify_bisimulation(model, None, [(0, 1)], graded=True) == VerifyResult(
        False, "B2*/B3*", (0, 1, ("*", "*"))
    )
    # and a relation that is not closed under transitivity is rejected outright
    with pytest.raises(NonEquivalenceError):
        verify_bisimulation(model, None, [(0, 1), (1, 2)], graded=True)
    # the full relation on a star is one block, whose least world, the
    # centre, is the first to differ from a leaf in its degree proposition
    s = star(2)
    m2 = kripke_model(PortedGraph(s, consistent_port_numbering(s, 0)), "--")
    full = [(v, w) for v in range(s.n) for w in range(s.n)]
    assert verify_bisimulation(m2, None, full, graded=True) == VerifyResult(False, "B1", (0, 1))


def test_refinement_partitions_verify_and_are_maximal():
    rng = random.Random(11)
    for g in [g for g in all_graphs(4) if g.is_connected()]:
        p = random_port_numbering(g, rng.randrange(999))
        for variant in ("--", "+-", "++"):
            model = kripke_model(PortedGraph(g, p), variant)
            part = coarsest_bisimulation(model)
            assert verify_bisimulation(model, None, part.as_pairs())
            gpart = coarsest_graded_bisimulation(model)
            assert verify_bisimulation(model, None, gpart.as_pairs(), graded=True)
            for a in range(len(part.blocks)):
                for b in range(a + 1, len(part.blocks)):
                    merged = part.merge(a, b)
                    assert not verify_bisimulation(model, None, merged.as_pairs())


@pytest.mark.parametrize("refine", [coarsest_bisimulation, coarsest_graded_bisimulation])
def test_refinement_work_follows_the_arcs(refine):
    # a star with 300 leaves carries 600 indices, one arc each; plain keys
    # with a part for every index, most of them empty, peak at about 40 MB here
    g = star(300)
    model = kripke_model(PortedGraph(g, random_port_numbering(g, 0)), "++")
    tracemalloc.start()
    try:
        part = refine(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(part.blocks) == 301
    assert peak < 4_000_000


def test_model_building_and_refinement_follow_the_arcs():
    # a star with 600 leaves carries 1,200 indices, one arc each; a
    # world-indexed successor tuple for every index, built again by the union
    # of the one model, peaks at about 12.8 MB in this test
    g = star(600)
    pg = PortedGraph(g, random_port_numbering(g, 0))
    tracemalloc.start()
    try:
        model = kripke_model(pg, "++")
        part = coarsest_bisimulation(model)
        logic.disjoint_union([model])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(part.blocks) == 601
    assert peak < 4_000_000


def test_formula_transfer_within_blocks():
    rng = random.Random(21)
    union, _, _ = parity_union()
    pg = PortedGraph(union, consistent_port_numbering(union, 0))
    model = cached_model(pg, "--", 3)
    plain = coarsest_bisimulation(model)
    graded = coarsest_graded_bisimulation(model)
    sig = Signature(3, "--")
    for _ in range(200):
        f = random_formula(rng, sig, max_depth=4)
        if any(d.grade > 1 for d in _diamonds(f)):
            part = graded
        else:
            part = plain
        worlds = eval_formula(model, f)
        for block in part.blocks:
            assert len({w in worlds for w in block}) == 1


def _diamonds(f):
    from portlogic.logic import subformulas, Dia

    return [n for n in subformulas(f) if isinstance(n, Dia)]


def test_symmetric_numbering_induces_diagonal_bisimilar_model():
    # only the diagonal relations are inhabited, and the full relation VxV
    # passes direct verification (all degrees equal on a regular graph)
    for g in (cycle(4), complete(4), no_one_factor_cubic()):
        p = symmetric_port_numbering(g)
        model = kripke_model(PortedGraph(g, p), "++")
        assert all(i == j for i, j in model.successors)
        everything = [(v, w) for v in range(g.n) for w in range(g.n)]
        assert verify_bisimulation(model, None, everything)


def test_impossibility_star_vb():
    g = star(3)
    result = impossibility_check(
        g, [1, 2, 3], leaf_election(), "VB", consistent_port_numbering(g, 0)
    )
    assert isinstance(result, Refutation)
    assert result.model.variant == "+-"
    assert result.audited_candidates == 4
    assert verify_bisimulation(result.model, None, result.partition.as_pairs())


def test_impossibility_parity_sb():
    union, u, w = parity_union()
    result = impossibility_check(
        union, [u, w], odd_odd(), "SB", consistent_port_numbering(union, 0)
    )
    assert isinstance(result, Refutation)
    assert result.audited_candidates == 1024  # 11 nodes, 2 of them in X


def test_impossibility_regular_vv():
    g = no_one_factor_cubic()
    result = impossibility_check(
        g, range(g.n), nonconstant_on_unmatchable(), "VV", symmetric_port_numbering(g)
    )
    assert isinstance(result, Refutation)
    assert len(result.partition.blocks) == 1
    assert result.to_json()["refuted_class"] == "VV"


def test_impossibility_inconclusive_when_not_bisimilar():
    g = star(3)
    result = impossibility_check(
        g, [0, 1], leaf_election(), "VB", consistent_port_numbering(g, 0)
    )
    assert isinstance(result, Inconclusive)
    assert result.to_json() == {"inconclusive": "nodes of X are not mutually bisimilar"}


def test_impossibility_inconclusive_when_solution_constant_on_x():
    g = cycle(4)  # odd_odd's unique solution is all zeros here
    result = impossibility_check(
        g, [0, 1], odd_odd(), "SB", consistent_port_numbering(g, 0)
    )
    assert isinstance(result, Inconclusive)
    assert result.to_json() == {
        "inconclusive": "a valid solution is constant on X",
        "witness": {"0": 0, "1": 0},
    }


def test_impossibility_decides_applies_once():
    calls = {"applies": 0, "verifier": 0}
    problem = leaf_election()

    def applies(g):
        calls["applies"] += 1
        return problem.applies(g)

    def verifier(g, solution):
        calls["verifier"] += 1
        return problem.verifier(g, solution)

    spy = dataclasses.replace(problem, applies=applies, verifier=verifier)
    g = cycle(4)  # not a star: every candidate is valid, the first constant on X
    result = impossibility_check(g, [0, 1], spy, "SB", consistent_port_numbering(g, 0))
    assert result == Inconclusive("a valid solution is constant on X", {0: 0, 1: 0})
    assert calls == {"applies": 1, "verifier": 0}


def test_impossibility_budget(monkeypatch):
    monkeypatch.setattr("portlogic.bisim.MAX_CANDIDATES", 1000)
    g = no_one_factor_cubic()
    p = symmetric_port_numbering(g)
    message = "^32768 candidate solutions exceed the budget 1000$"
    with pytest.raises(EnumerationBudgetError, match=message):
        impossibility_check(g, [0, 1], nonconstant_on_unmatchable(), "VV", p)
    result = impossibility_check(g, range(g.n), nonconstant_on_unmatchable(), "VV", p)
    assert result.audited_candidates == 2


def _audit_outcome(g, x_nodes, problem, machine_class, p):
    """impossibility_check's verdict, held to the full-enumeration reference."""
    result = impossibility_check(g, x_nodes, problem, machine_class, p)
    expected = full_audit(g, x_nodes, problem)
    if expected == "refuted":
        assert isinstance(result, Refutation)
        assert result.audited_candidates == len(problem.outputs) ** (g.n - len(set(x_nodes)) + 1)
        return "refuted"
    assert result == Inconclusive("a valid solution is constant on X", expected)
    return f"witness {set(expected.values())}"


def test_impossibility_agrees_with_the_full_audit():
    # X is a refinement block or one of its 1- and 2-node prefixes, so the
    # bisimilarity hypothesis holds and the audit decides the verdict.  The
    # seeded pseudo-random valid set over three outputs makes the witness
    # depend on the enumeration order, which the shipped problems do not.
    scattered = problems.GraphProblem(
        "scattered", (0, 1, 2), lambda g: True,
        lambda g, solution: random.Random(repr(sorted(solution.items()))).random() < 0.2,
    )
    tried = [odd_odd(), leaf_election(), nonconstant_on_unmatchable(), scattered]
    outcomes = set()
    for gi, g in enumerate(all_graphs(4)):
        for p in (consistent_port_numbering(g, gi), random_port_numbering(g, gi)):
            for machine_class, tag in CLASSES.items():
                if tag.graded:
                    continue
                blocks = coarsest_bisimulation(kripke_model(PortedGraph(g, p), tag.variant)).blocks
                for x_nodes in sorted({x for b in blocks for x in (b, b[:1], b[:2])}):
                    for problem in tried:
                        outcomes.add(_audit_outcome(g, x_nodes, problem, machine_class, p))
    for spec in SEPARATIONS.values():
        g, *x_nodes = spec.instance()
        problem = getattr(problems, spec.problem)()
        p = spec.refuting_numbering(g, 0)
        assert _audit_outcome(g, x_nodes, problem, spec.refuted_class, p) == "refuted"
    assert outcomes == {"refuted", "witness {0}", "witness {1}", "witness {2}"}


def test_impossibility_rejects_unknown_class():
    g = star(2)
    for machine_class in ("vb", "XX"):  # codes are the CLASSES keys, upper case
        with pytest.raises(ImpossibilityInputError) as caught:
            impossibility_check(g, [1], leaf_election(), machine_class, consistent_port_numbering(g, 0))
        assert isinstance(caught.value, PortlogicError) and isinstance(caught.value, ValueError)
        assert str(caught.value) == "machine class must be one of ['SB', 'SV', 'VB', 'VV']"


def _sv_solved_instance(name: str):
    """(graph, X, problem) of a separate demo whose problem SV solves."""
    if name == "star":
        return star(3), [1, 2, 3], leaf_election()
    union, u, w = parity_union()
    return union, [u, w], odd_odd()


@pytest.mark.parametrize("instance", ["star", "parity"])
def test_impossibility_accepts_sv_and_finds_no_refutation_where_it_solves(instance):
    g, x_nodes, problem = _sv_solved_instance(instance)
    result = impossibility_check(g, x_nodes, problem, "SV", consistent_port_numbering(g, 0))
    assert result == Inconclusive("nodes of X are not mutually bisimilar")


@pytest.mark.parametrize("machine_class", ["MV", "MB"])
def test_impossibility_refuses_the_graded_classes(machine_class):
    g = star(3)
    with pytest.raises(ImpossibilityInputError):
        impossibility_check(g, [1], leaf_election(), machine_class, consistent_port_numbering(g, 0))


def test_impossibility_rejects_empty_x():
    g = star(2)
    with pytest.raises(ImpossibilityInputError) as caught:
        impossibility_check(g, [], leaf_election(), "VB", consistent_port_numbering(g, 0))
    assert isinstance(caught.value, PortlogicError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize("xs", [[3], [1, 3], [-1]], ids=["n", "node-and-n", "negative"])
def test_impossibility_rejects_x_outside_the_graph(xs):
    g = star(2)  # nodes 0, 1, 2
    with pytest.raises(ImpossibilityInputError, match="X must be a nonempty set of graph nodes"):
        impossibility_check(g, xs, leaf_election(), "VB", consistent_port_numbering(g, 0))


# ---------------------------------------------------------------------------
# Differential guard: the plain verifier against the pairwise one it replaced,
# copied here verbatim (an any(...) over successors for each zig-zag clause)
# ---------------------------------------------------------------------------


def _pairwise_verify(model, other, relation):
    pairs = list(relation)
    if not pairs:
        return VerifyResult(False, "empty", ())
    if other is None:
        union, lifted = model, [(v, w) for v, w in pairs]
    else:
        union, (_, offset) = logic.disjoint_union([model, other])
        lifted = [(v, w + offset) for v, w in pairs]
    alphas = sorted(union.successors, key=str)
    zset = set(lifted)
    for v, w in sorted(zset):
        if union.valuation_profile(v) != union.valuation_profile(w):
            return VerifyResult(False, "B1", (v, w))
        for alpha in alphas:
            succ = union.successors[alpha]
            for s in succ.get(v, ()):
                if not any((s, t) in zset for t in succ.get(w, ())):
                    return VerifyResult(False, "B2", (v, w, alpha, s))
            for t in succ.get(w, ()):
                if not any((s, t) in zset for s in succ.get(v, ())):
                    return VerifyResult(False, "B3", (v, w, alpha, t))
    return VerifyResult(True)


def test_plain_verify_matches_the_pairwise_verifier():
    rng = random.Random(77)
    cases = []
    previous = {}
    for gi, g in enumerate(all_graphs(5)):
        delta = max(1, g.max_degree())
        p = random_port_numbering(g, gi)
        for variant in ("++", "-+", "+-", "--"):
            model = kripke_model(PortedGraph(g, p), variant, delta)
            partitions = [coarsest_bisimulation(model), coarsest_graded_bisimulation(model)]
            for partition in partitions:
                cases.append((model, None, partition.as_pairs()))
                blocks = len(partition.blocks)
                for a in range(blocks):
                    for b in range(a + 1, blocks):
                        cases.append((model, None, partition.merge(a, b).as_pairs()))
            worlds = [(v, w) for v in range(g.n) for w in range(g.n)]
            for _ in range(4):
                cases.append((model, None, rng.sample(worlds, rng.randint(1, len(worlds)))))
            # across two models of one signature: the last one seen
            other = previous.get((variant, delta))
            if other is not None:
                cross = [(v, w) for v in range(model.size) for w in range(other.size)]
                for _ in range(4):
                    cases.append((model, other, rng.sample(cross, rng.randint(1, len(cross)))))
            previous[(variant, delta)] = model
    clauses = {}
    for model, other, relation in cases:
        got = verify_bisimulation(model, other, relation)
        assert got == _pairwise_verify(model, other, relation)
        clauses[got.clause] = clauses.get(got.clause, 0) + 1
    # every outcome of the plain check occurred
    assert set(clauses) == {None, "B1", "B2", "B3"}
