"""Problem verifiers, their machines, and the frozen separation artifacts."""

from conftest import all_consistent_numberings, cached_model, local_type, sweep
from portlogic.bisim import coarsest_bisimulation, coarsest_graded_bisimulation
from portlogic.graphs import (
    PortedGraph,
    complete,
    consistent_port_numbering,
    cycle,
    disjoint_union,
    no_one_factor_cubic,
    path,
    star,
    symmetric_port_numbering,
)
from portlogic.machines import check_class_conformance, run
from portlogic.problems import (
    MACHINES,
    is_unmatchable_odd_regular,
    leaf_election,
    leaf_election_machine,
    nonconstant_on_unmatchable,
    odd_odd,
    odd_odd_machine,
    parity_separation_pair,
    parity_union,
    symmetry_break_machine,
)
from portlogic.smallgraphs import all_graphs


def test_leaf_election_verifier_on_stars():
    problem = leaf_election()
    g = star(3)
    assert problem.check(g, {0: 0, 1: 1, 2: 0, 3: 0})
    assert not problem.check(g, {0: 0, 1: 1, 2: 1, 3: 0})
    assert not problem.check(g, {0: 1, 1: 1, 2: 0, 3: 0})
    assert not problem.check(g, {0: 0, 1: 0, 2: 0, 3: 0})
    # non-stars are unconstrained
    assert problem.check(cycle(3), {0: 1, 1: 1, 2: 1})
    # a single edge is not a k-star with k > 1
    assert problem.check(path(2), {0: 0, 1: 0})


def test_leaf_election_applies_exactly_to_stars():
    # a graph whose degrees are k ones and one k is the star with k leaves
    applies = leaf_election().applies
    degrees = [sorted(map(g.degree, range(g.n))) for g in all_graphs(6) if applies(g)]
    assert degrees == [[1] * k + [k] for k in range(2, 6)]
    assert not applies(star(1))


def test_leaf_election_machine_exhaustive_on_stars():
    problem = leaf_election()
    for k in (2, 3, 4):
        machine = leaf_election_machine(k)
        g = star(k)
        numberings = sweep(g, cap=600, samples=20, seed=1)
        for p in numberings:
            result = run(machine, PortedGraph(g, p), 4)
            assert result.stopped and result.rounds == 2
            assert problem.check(g, result.outputs)


def test_leaf_election_machine_harmless_on_non_stars():
    machine = leaf_election_machine(3)
    problem = leaf_election()
    for g in [g for g in all_graphs(6, max_degree=3) if g.is_connected()]:
        for p in sweep(g, cap=32, samples=4, seed=2):
            result = run(machine, PortedGraph(g, p), 4)
            assert result.stopped
            assert problem.check(g, result.outputs)


def test_odd_odd_verifier():
    problem = odd_odd()
    g = star(3)
    # centre has three odd-degree neighbours; each leaf sees one node of odd
    # degree (the centre has degree 3), so the unique solution is all ones
    assert problem.check(g, {0: 1, 1: 1, 2: 1, 3: 1})
    assert not problem.check(g, {0: 1, 1: 0, 2: 0, 3: 0})
    c4 = cycle(4)
    assert problem.check(c4, {v: 0 for v in range(4)})
    s4 = star(4)
    # centre: four odd-degree neighbours (even count); leaves: centre is even
    assert problem.check(s4, {v: 0 for v in range(5)})


def test_odd_odd_machine_matches_unique_solution():
    problem = odd_odd()
    for g in all_graphs(6):
        delta = max(1, g.max_degree())
        machine = odd_odd_machine(delta)
        for p in sweep(g, cap=48, samples=6, seed=3):
            result = run(machine, PortedGraph(g, p), 4)
            assert result.stopped and result.rounds == 2
            assert problem.check(g, result.outputs)


def test_odd_odd_machine_conformance():
    report = check_class_conformance(odd_odd_machine(3), seed=0)
    assert report.ok


def test_parity_pair_certificate():
    g_one, g_zero, u, w = parity_separation_pair()
    assert g_one.n <= 6 and g_zero.n <= 6
    problem = odd_odd()
    sol_one = {v: sum(1 for x in g_one.adjacency[v] if g_one.degree(x) % 2) % 2 for v in range(g_one.n)}
    sol_zero = {v: sum(1 for x in g_zero.adjacency[v] if g_zero.degree(x) % 2) % 2 for v in range(g_zero.n)}
    assert problem.check(g_one, sol_one) and problem.check(g_zero, sol_zero)
    assert sol_one[u] == 1 and sol_zero[w] == 0
    union, uu, ww = parity_union()
    model = cached_model(PortedGraph(union, consistent_port_numbering(union, 0)), "--", 3)
    plain = coarsest_bisimulation(model)
    graded = coarsest_graded_bisimulation(model)
    assert plain.block_index(uu) == plain.block_index(ww)
    assert graded.block_index(uu) != graded.block_index(ww)


def test_local_type_single_edge():
    g = path(2)
    pg = PortedGraph(g, consistent_port_numbering(g, 0))
    assert local_type(pg, 0, delta=2) == (1, 0)
    assert local_type(pg, 1, delta=2) == (1, 0)


def test_symmetry_break_on_single_edge():
    machine = symmetry_break_machine(1)
    g = path(2)
    pg = PortedGraph(g, consistent_port_numbering(g, 0))
    result = run(machine, pg, 4)
    assert result.outputs == {0: 1, 1: 1}
    assert result.rounds == 2


def test_symmetry_break_valid_on_consistent_numberings():
    problem = nonconstant_on_unmatchable()
    extra = [cycle(6), cycle(8), star(6), complete(4), no_one_factor_cubic()]
    for g in [g for g in all_graphs(5) if g.is_connected()] + extra:
        delta = max(1, g.max_degree())
        machine = symmetry_break_machine(delta)
        count = 0
        for p in all_consistent_numberings(g):
            count += 1
            if count > 24:
                break
            result = run(machine, PortedGraph(g, p), 4)
            assert result.stopped and result.rounds == 2
            assert problem.check(g, result.outputs)


def test_symmetry_break_separates_on_fig_graph():
    g = no_one_factor_cubic()
    machine = symmetry_break_machine(3)
    problem = nonconstant_on_unmatchable()
    for seed in range(3):
        pg = PortedGraph(g, consistent_port_numbering(g, seed))
        result = run(machine, pg, 4)
        assert len(set(result.outputs.values())) == 2
        assert problem.check(g, result.outputs)
    # under the symmetric (inconsistent) numbering all local types agree,
    # the output is constant, and the verifier rejects it
    pg = PortedGraph(g, symmetric_port_numbering(g))
    types = {local_type(pg, v) for v in range(g.n)}
    assert len(types) == 1
    result = run(machine, pg, 4)
    assert len(set(result.outputs.values())) == 1
    assert not problem.check(g, result.outputs)


def test_script_g_membership():
    assert is_unmatchable_odd_regular(no_one_factor_cubic())
    assert not is_unmatchable_odd_regular(cycle(4))  # even degree
    assert not is_unmatchable_odd_regular(complete(4))  # has a perfect matching
    assert not is_unmatchable_odd_regular(disjoint_union(complete(4), complete(4))[0])
    assert not is_unmatchable_odd_regular(star(3))  # not regular


def test_nonconstant_verifier():
    problem = nonconstant_on_unmatchable()
    g = no_one_factor_cubic()
    assert not problem.check(g, {v: 1 for v in range(g.n)})
    assert problem.check(g, {v: int(v == 0) for v in range(g.n)})
    # unconstrained outside the class
    assert problem.check(cycle(4), {v: 0 for v in range(4)})


def test_machines_carry_declared_classes():
    assert leaf_election_machine(3).tag.code == "SV"
    assert odd_odd_machine(3).tag.code == "MB"
    assert symmetry_break_machine(3).tag.code == "VV"

def test_shipped_machines_pass_conformance():
    for name, build in MACHINES.items():
        machine = build(3)
        report = check_class_conformance(machine, seed=42)
        assert report.ok, (name, report.violations[:1])
