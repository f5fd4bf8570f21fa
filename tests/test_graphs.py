"""Graphs, numberings, symmetric numberings, generators, file formats."""

import itertools
import re
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import are_isomorphic, complete_bipartite, is_consistent
from portlogic.graphs import (
    MATCHING_NODE_CAP,
    MAX_GRAPH_NODES,
    Graph,
    GraphError,
    GraphFormatError,
    PortNumbering,
    PortNumberingError,
    PortedGraph,
    PortlogicError,
    SearchBoundError,
    complete,
    consistent_port_numbering,
    cycle,
    disjoint_union,
    format_graph,
    format_ported,
    has_one_factor,
    load_graph,
    load_ported,
    no_one_factor_cubic,
    parse_graph,
    parse_ported,
    path,
    random_port_numbering,
    star,
    symmetric_port_numbering,
    validate_port_numbering,
)
from portlogic.smallgraphs import (
    all_graphs,
    all_port_numberings,
    count_port_numberings,
)


def test_single_edge_involution_validates():
    g = path(2)
    p = PortNumbering({(0, 1): (1, 1), (1, 1): (0, 1)})
    validate_port_numbering(g, p)
    assert is_consistent(p)


def test_self_arc_rejected():
    g = path(2)
    p = PortNumbering({(0, 1): (0, 1), (1, 1): (1, 1)})
    with pytest.raises(PortNumberingError, match=r"^arcs: "):
        validate_port_numbering(g, p)


def test_four_node_numbering_validates_against_bruteforce():
    # hand-entered numbering of a 4-node path-with-chord; the brute-force
    # arc comparison below is the oracle the validator must agree with
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    p = PortNumbering(
        {
            (0, 1): (1, 2),
            (1, 1): (2, 2),
            (1, 2): (0, 1),
            (1, 3): (3, 1),
            (2, 1): (3, 2),
            (2, 2): (1, 1),
            (3, 1): (1, 3),
            (3, 2): (2, 1),
        }
    )
    induced = {(src[0], dst[0]) for src, dst in p.items()}
    assert induced == set(g.arcs())
    validate_port_numbering(g, p)


def test_missing_port_named_in_report():
    g = path(3)
    mapping = dict(consistent_port_numbering(g, 0).items())
    mapping.pop((1, 2))
    with pytest.raises(PortNumberingError, match=r"^domain: port \(1, 2\) has no image$"):
        validate_port_numbering(g, PortNumbering(mapping))


def _triangle_rotation():
    # every arc of the triangle runs one way round: 0 -> 1 -> 2 -> 0, twice
    return {(v, i): ((v + 1) % 3, i) for v in range(3) for i in (1, 2)}


def _path3_without_port_1_2():
    mapping = dict(consistent_port_numbering(path(3), 0).items())
    mapping.pop((1, 2))
    return mapping


# (graph, mapping, the exact message); the .pn text of the same mapping
# implies the same graph
VIOLATIONS = {
    "domain-missing": (path(3), _path3_without_port_1_2(), "domain: port (1, 2) has no image"),
    "domain-extra": (
        path(2),
        {(0, 1): (1, 1), (1, 1): (0, 1), (0, 2): (1, 2)},
        "domain: port (0, 2) does not belong to the graph",
    ),
    "range": (path(2), {(0, 1): (1, 2), (1, 1): (0, 1)}, "range: image (1, 2) is not a port of the graph"),
    "arcs": (cycle(3), _triangle_rotation(), "arcs: induced arc set differs at (0, 2)"),
}


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_every_numbering_violation_raises(case):
    g, mapping, message = VIOLATIONS[case]
    exact = "^" + re.escape(message) + "$"
    p = PortNumbering(mapping)
    with pytest.raises(PortNumberingError, match=exact):
        validate_port_numbering(g, p)
    with pytest.raises(PortNumberingError, match=exact):
        PortedGraph(g, p)
    text = f"nodes {g.n}\n" + "".join(f"p {u} {i} {v} {j}\n" for (u, i), (v, j) in mapping.items())
    with pytest.raises(PortNumberingError, match=exact):
        parse_ported(text)


def test_c3_rotation_numbering_is_consistent():
    g = cycle(3)
    mapping = {}
    for v in range(3):
        mapping[(v, 1)] = ((v + 1) % 3, 2)
        mapping[(v, 2)] = ((v - 1) % 3, 1)
    p = PortNumbering(mapping)
    validate_port_numbering(g, p)
    assert is_consistent(p)


def test_one_way_mapping_is_inconsistent():
    g = cycle(3)
    mapping = {}
    for v in range(3):
        mapping[(v, 1)] = ((v + 1) % 3, 1)
        mapping[(v, 2)] = ((v - 1) % 3, 2)
    p = PortNumbering(mapping)
    validate_port_numbering(g, p)
    assert not is_consistent(p)


def test_random_port_numbering_deterministic_and_valid():
    g = star(2)
    p1 = random_port_numbering(g, 0)
    p2 = random_port_numbering(g, 0)
    assert p1 == p2
    validate_port_numbering(g, p1)


@given(st.integers(min_value=0, max_value=999))
def test_random_numberings_on_c4_always_validate(seed):
    g = cycle(4)
    validate_port_numbering(g, random_port_numbering(g, seed))


def test_consistent_port_numbering_always_involutive():
    for g in (star(3), cycle(5), complete(4), no_one_factor_cubic()):
        for seed in range(3):
            p = consistent_port_numbering(g, seed)
            validate_port_numbering(g, p)
            assert is_consistent(p)


def test_symmetric_port_numbering_validates_and_c3_not_consistent():
    g = cycle(3)
    p = symmetric_port_numbering(g)
    validate_port_numbering(g, p)
    assert not is_consistent(p)


def test_symmetric_port_numbering_of_a_long_cycle():
    # augmenting paths grow with the cycle; the search holds them on a list,
    # not on the interpreter's stack
    g = cycle(20_000)
    validate_port_numbering(g, symmetric_port_numbering(g))


def test_symmetric_port_numbering_needs_no_room_for_the_double_cover(monkeypatch):
    # the cover has twice the nodes of the graph, but is never built as a Graph
    monkeypatch.setattr("portlogic.graphs.MAX_GRAPH_NODES", 64)
    g = cycle(40)
    validate_port_numbering(g, symmetric_port_numbering(g))


def test_symmetric_port_numbering_rejects_irregular():
    with pytest.raises(GraphError):
        symmetric_port_numbering(star(2))


def test_has_one_factor_small():
    assert has_one_factor(path(2))
    assert not has_one_factor(cycle(3))
    assert has_one_factor(cycle(4))
    assert has_one_factor(complete(4))


def test_has_one_factor_cap():
    assert MATCHING_NODE_CAP == 24 and has_one_factor(cycle(24))
    for n in (25, 30):
        with pytest.raises(SearchBoundError, match=f"^{n} nodes exceeds the brute-force cap 24$"):
            has_one_factor(cycle(n))


def test_no_one_factor_cubic_certificate():
    g = no_one_factor_cubic()
    assert g.n == 16
    assert g.regularity() == 3
    assert g.is_connected()
    assert not has_one_factor(g)


def test_generators():
    s = star(3)
    assert s.degree(0) == 3 and all(s.degree(v) == 1 for v in range(1, 4))
    c = cycle(5)
    assert c.regularity() == 2 and c.is_connected()
    with pytest.raises(GraphError):
        star(0)
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError, match="^path needs at least one node$"):
        path(0)
    assert Graph(0, ()).is_connected()


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, ((1,), ()))  # asymmetric adjacency
    with pytest.raises(GraphError, match="^adjacency length must equal node count$"):
        Graph(2, ((1,),))
    for adjacency, message in [
        (((1,), ()), "asymmetric adjacency between 0 and 1"),
        (((0,),), "loop at node 0"),
        (((2, 1), (0,), (0,)), "adjacency of node 0 must be sorted"),
        (((1, 1), (0,)), "adjacency of node 0 must be sorted"),
        (((3,), (), ()), "neighbor 3 of node 0 out of range"),
    ]:
        with pytest.raises(GraphError, match=message):
            Graph(len(adjacency), adjacency)


def test_from_edges_rejects_an_endpoint_equal_to_n():
    # out of range by one: a GraphError, not an IndexError from the adjacency
    for n in (2, 3):
        for u, v in ((0, n), (n, 0)):
            with pytest.raises(GraphError, match=re.escape(f"edge ({u},{v}) out of range")):
                Graph.from_edges(n, [(u, v)])


def test_graph_size_is_bounded_before_allocation():
    def never_consumed():
        raise AssertionError("edges consumed before the size check")
        yield

    with pytest.raises(GraphError, match="exceed the limit"):
        Graph.from_edges(MAX_GRAPH_NODES + 1, never_consumed())
    for make in (star, cycle, path, complete):
        with pytest.raises(GraphError, match="exceed the limit"):
            make(10**9)
    with pytest.raises(GraphError, match="exceed the limit"):
        complete_bipartite(10**9, 10**9)
    for parse in (parse_graph, parse_ported):
        with pytest.raises(GraphFormatError, match="line 1: 10000000000 nodes exceed"):
            parse("nodes 10000000000\n")
    assert Graph.from_edges(MAX_GRAPH_NODES, []).n == MAX_GRAPH_NODES


def test_large_star_builds_in_linear_time():
    # a symmetry check that scans a neighbour tuple per arc is quadratic in
    # the centre's degree and takes far longer than this bound here
    started = time.perf_counter()
    g = star(50_000)
    assert time.perf_counter() - started < 1.0
    assert g.degree(0) == 50_000


def test_disjoint_union():
    g, offset = disjoint_union(path(2), cycle(3))
    assert offset == 2 and g.n == 5
    assert 1 in g.adjacency[0] and 3 in g.adjacency[2] and 2 not in g.adjacency[1]


def test_graph_format_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    assert parse_graph(format_graph(g)) == g
    parsed = parse_graph("# comment\nnodes 3\ne 0 1\ne 1 2\n")
    assert parsed == path(3)
    with pytest.raises(GraphFormatError):
        parse_graph("e 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("nodes 2\nxyz\n")
    # a nodes line of more than one field is not a nodes line
    with pytest.raises(GraphFormatError, match="^line 1: unrecognised line"):
        parse_graph("nodes 2 3\n")


def test_ported_format_roundtrip_and_validation():
    g = star(3)
    pg = PortedGraph(g, consistent_port_numbering(g, 1))
    again = parse_ported(format_ported(pg))
    assert again.graph == g and again.numbering == pg.numbering
    with pytest.raises(PortNumberingError):
        parse_ported("nodes 2\np 0 1 0 1\np 1 1 1 1\n")
    with pytest.raises(GraphFormatError):
        parse_ported("nodes 2\np 0 1 1\n")


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_graph, "nodes abc\n", 1),
        (parse_graph, "nodes 2\ne a b\n", 2),
        (parse_graph, "nodes 2\ne 0 1.5\n", 2),
        (parse_ported, "# ported\nnodes 2\np 0 1 1 x\n", 3),
        (parse_ported, "nodes two\np 0 1 1 1\n", 1),
    ],
)
def test_non_integer_fields_name_their_line(parse, text, line):
    with pytest.raises(GraphFormatError, match=f"^line {line}: expected integers"):
        parse(text)


@pytest.mark.parametrize("load", [load_graph, load_ported])
def test_undecodable_file_names_the_file(load, tmp_path):
    target = tmp_path / "latin1.g"
    target.write_bytes(b"nodes 2\n# caf\xe9\ne 0 1\n")
    with pytest.raises(GraphFormatError, match="latin1.g: not UTF-8"):
        load(str(target))


def test_ported_graph_rejects_invalid_numbering():
    g = path(3)
    bad = dict(consistent_port_numbering(g, 0).items())
    bad[(0, 1)] = (2, 1)  # not an edge of the path
    with pytest.raises(PortNumberingError):
        PortedGraph(g, PortNumbering(bad))


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(3, []), path(2), star(3), cycle(5), complete(4),
        disjoint_union(path(3), cycle(3))[0],
    ],
    ids=["edgeless", "path2", "star3", "cycle5", "k4", "union"],
)
def test_wiring_decodes_to_the_numbering_sources(g):
    for seed in range(3):
        pg = PortedGraph(g, random_port_numbering(g, seed))
        twin = PortedGraph(g, pg.numbering)
        before = hash(pg)
        degrees, sources = pg.wiring
        assert degrees == g.degrees()
        port_of_number = [(v, j) for v in range(g.n) for j in range(1, g.degree(v) + 1)]
        for u in range(g.n):
            assert len(sources[u]) == g.degree(u)
            for i, number in enumerate(sources[u], start=1):
                assert port_of_number[number] == pg.numbering.source(u, i)
        assert pg.wiring is pg.wiring
        assert hash(pg) == before == hash(twin) and pg == twin


def test_numbering_enumeration_count():
    g = path(3)
    # product over nodes of deg! squared: (1*2*1)^2 = 4
    assert count_port_numberings(g) == 4
    seen = list(all_port_numberings(g))
    assert len(seen) == 4
    assert len({p.items() for p in seen}) == 4
    for p in seen:
        validate_port_numbering(g, p)


def test_numberings_are_equal_exactly_when_their_maps_are():
    seen = list(all_port_numberings(path(3)))
    for p, q in itertools.product(seen, repeat=2):
        same = p.items() == q.items()
        assert (p == q) is same and (p != q) is not same


def test_numbering_is_immutable_and_shows_its_size():
    p = consistent_port_numbering(cycle(3), 0)
    with pytest.raises(AttributeError, match="^PortNumbering is immutable$"):
        p.extra = 1
    assert repr(p) == "PortNumbering(6 ports)"


def test_all_graphs_enumeration_counts():
    # non-isomorphic graph counts on 1..6 nodes (OEIS A000088 and A001349)
    assert Counter(g.n for g in all_graphs(6)) == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    connected = Counter(g.n for g in all_graphs(6) if g.is_connected())
    assert connected == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def _edge_mask(g: Graph, relabel=None) -> int:
    pairs = list(itertools.combinations(range(g.n), 2))
    relabel = relabel or range(g.n)
    return sum(
        1 << pairs.index(tuple(sorted((relabel[u], relabel[v])))) for u, v in g.edges()
    )


def test_all_graphs_lists_least_mask_of_each_orbit_in_order():
    graphs = all_graphs(6)
    for g in graphs:
        mask = _edge_mask(g)
        assert mask == min(_edge_mask(g, p) for p in itertools.permutations(range(g.n)))
    keys = [(g.n, _edge_mask(g)) for g in graphs]
    assert keys == sorted(keys)


def _one_component(g: Graph) -> bool:
    # union-find over the edge list, apart from Graph.is_connected's search
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges():
        root[find(u)] = find(v)
    return len({find(v) for v in range(g.n)}) <= 1


@pytest.mark.parametrize("connected", [False, True])
@pytest.mark.parametrize("max_degree", [None, 1, 2, 3])
@pytest.mark.parametrize("max_nodes", range(1, 7))
def test_all_graphs_filters_the_unfiltered_enumeration(max_nodes, max_degree, connected):
    # a caller that needs connected graphs filters on is_connected itself; the
    # connected ids hold that filter to a union-find count of components
    expected = tuple(
        g
        for g in all_graphs(max_nodes)
        if (max_degree is None or g.max_degree() <= max_degree)
        and (not connected or _one_component(g))
    )
    got = all_graphs(max_nodes, max_degree=max_degree)
    assert tuple(g for g in got if not connected or g.is_connected()) == expected


def _first_of_class(n: int, max_degree: int | None) -> list[Graph]:
    """Reference: keep each mask unless are_isomorphic matches an earlier one."""
    pairs = list(itertools.combinations(range(n), 2))
    out: list[Graph] = []
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
        if max_degree is not None and g.max_degree() > max_degree:
            continue
        if not any(are_isomorphic(g, h) for h in out):
            out.append(g)
    return out


@pytest.mark.parametrize("max_degree", [None, 2, 3])
def test_all_graphs_matches_first_of_class_reference(max_degree):
    expected = tuple(g for n in range(1, 6) for g in _first_of_class(n, max_degree))
    assert all_graphs(5, max_degree=max_degree) == expected


def test_all_graphs_refuses_more_than_seven_nodes():
    with pytest.raises(SearchBoundError) as caught:
        all_graphs(8)
    assert isinstance(caught.value, PortlogicError)
