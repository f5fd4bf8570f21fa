"""Graphs, port numberings and the symmetric-numbering construction.

Nodes are 0-based integers; port indices are 1-based, node ``v`` owning ports
``1..deg(v)``.  A port numbering is a bijection ``p`` on the port set whose
induced arc set equals the arc set of the graph; it is *consistent* when it is
an involution (each channel carries the same port index at both endpoints).

The module also builds fully symmetric numberings of regular graphs, one
perfect matching of the bipartite double cover per port index, found on the
graph's own adjacency without building the cover.  A brute-force
perfect-matching oracle certifies that the shipped 3-regular graph has none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "MAX_GRAPH_NODES",
    "MATCHING_NODE_CAP",
    "Graph",
    "PortNumbering",
    "PortedGraph",
    "PortlogicError",
    "GraphError",
    "GraphFormatError",
    "PortNumberingError",
    "MatchingError",
    "SearchBoundError",
    "validate_port_numbering",
    "numbering_from_orders",
    "random_port_numbering",
    "consistent_port_numbering",
    "symmetric_port_numbering",
    "has_one_factor",
    "star",
    "cycle",
    "path",
    "complete",
    "no_one_factor_cubic",
    "disjoint_union",
    "parse_graph",
    "format_graph",
    "parse_ported",
    "format_ported",
    "load_graph",
    "load_ported",
]


# the largest node count a graph may have; constructors and loaders check it
# before they allocate anything proportional to the size
MAX_GRAPH_NODES = 1 << 16

# the largest graph has_one_factor searches by backtracking
MATCHING_NODE_CAP = 24


class PortlogicError(Exception):
    """Base of the library's errors: invalid input or an exceeded budget."""


class GraphError(PortlogicError, ValueError):
    """Invalid graph construction or operation precondition."""


class GraphFormatError(GraphError):
    """Malformed ``.g`` / ``.pn`` text."""


class PortNumberingError(GraphError):
    """A port numbering failed validation against its graph."""


class MatchingError(GraphError):
    """A symmetric numbering was asked of a graph that is not regular."""


class SearchBoundError(GraphError):
    """Brute-force search requested above its configured node cap."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: node count plus sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adjacency) != self.n:
            raise GraphError("adjacency length must equal node count")
        # one set per node keeps the symmetry test linear in the arcs
        nbr_sets = [set(nbrs) for nbrs in self.adjacency]
        for v, nbrs in enumerate(self.adjacency):
            if tuple(sorted(nbr_sets[v])) != nbrs:
                raise GraphError(f"adjacency of node {v} must be sorted and duplicate-free")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise GraphError(f"neighbor {u} of node {v} out of range")
                if u == v:
                    raise GraphError(f"loop at node {v}")
                if v not in nbr_sets[u]:
                    raise GraphError(f"asymmetric adjacency between {v} and {u}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on nodes 0..n-1; ``edges`` is consumed only once ``n`` has
        passed the ``MAX_GRAPH_NODES`` check."""
        if n > MAX_GRAPH_NODES:
            raise GraphError(f"{n} nodes exceed the limit of {MAX_GRAPH_NODES}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (v, u) for v in range(self.n) for u in self.adjacency[v] if v < u
        )

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((v, u) for v in range(self.n) for u in self.adjacency[v])

    def ports(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (v, i) for v in range(self.n) for i in range(1, self.degree(v) + 1)
        )

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def regularity(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None


class PortNumbering:
    """A bijection on the port set, stored as a plain mapping.

    Immutable after construction; equality and hashing are structural.
    """

    __slots__ = ("_map", "_inverse")

    def __init__(self, mapping: Mapping[tuple[int, int], tuple[int, int]]):
        fwd = dict(mapping)
        inv: dict[tuple[int, int], tuple[int, int]] = {}
        for src, dst in fwd.items():
            if dst in inv:
                raise PortNumberingError(f"two ports map to {dst}")
            inv[dst] = src
        object.__setattr__(self, "_map", fwd)
        object.__setattr__(self, "_inverse", inv)

    def __setattr__(self, name, value):
        raise AttributeError("PortNumbering is immutable")

    def source(self, v: int, i: int) -> tuple[int, int]:
        """p^{-1}((v, i)): the port whose messages arrive at (v, i)."""
        return self._inverse[(v, i)]

    def items(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        return tuple(sorted(self._map.items()))

    def domain(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, PortNumbering) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        return f"PortNumbering({len(self._map)} ports)"


def validate_port_numbering(g: Graph, p: PortNumbering) -> None:
    """Raise ``PortNumberingError`` unless p is a total bijection on P(g)
    inducing exactly g's arcs.

    The message is ``"<violation>: <detail>"`` for the first violated
    condition: ``domain`` (a port of g without an image, or a mapped port
    that is not g's), ``range`` (an image that is not a port of g) or
    ``arcs``.  ``PortNumbering`` already refuses two ports with one image.
    """
    ports = set(g.ports())
    dom = p.domain()
    if dom != ports:
        missing = ports - dom
        if missing:
            raise PortNumberingError(f"domain: port {sorted(missing)[0]} has no image")
        raise PortNumberingError(f"domain: port {sorted(dom - ports)[0]} does not belong to the graph")
    images = p._map  # its keys are exactly the ports now
    bad = sorted(set(images.values()) - ports)
    if bad:
        raise PortNumberingError(f"range: image {bad[0]} is not a port of the graph")
    induced = {(v, u) for (v, _), (u, _) in images.items()}
    arcs = g.arcs()
    if induced != arcs:
        wrong = sorted(induced - arcs) + sorted(arcs - induced)
        raise PortNumberingError(f"arcs: induced arc set differs at {wrong[0]}")


@dataclass(frozen=True)
class PortedGraph:
    """A graph together with a numbering that validates against it."""

    graph: Graph
    numbering: PortNumbering

    def __post_init__(self):
        validate_port_numbering(self.graph, self.numbering)

    @cached_property
    def wiring(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(degrees, sources)``: the message wiring, computed on first use.

        Ports are numbered 0, 1, ... node by node, so port (v, j) is
        ``sum(degrees[:v]) + j - 1``; ``sources[u]`` holds the numbers of the
        ports that feed u's ports 1..deg(u).  It is not a field: equality and
        hashing ignore it.
        """
        degrees = self.graph.degrees()
        first = tuple(accumulate(degrees, initial=0))
        source = self.numbering.source
        sources = tuple(
            tuple(first[v] + j - 1 for v, j in (source(u, i) for i in range(1, d + 1)))
            for u, d in enumerate(degrees)
        )
        return degrees, sources


def numbering_from_orders(
    out_order: Sequence[Sequence[int]], in_port: Sequence[Mapping[int, int]]
) -> PortNumbering:
    """Port i of v feeds port ``in_port[u][v]`` of ``u = out_order[v][i-1]``.

    ``out_order[v]`` lists v's neighbours in the order of its ports and
    ``in_port[u]`` maps each neighbour of u to the port of u its arc lands on.
    """
    return PortNumbering({
        (v, i): (u, in_port[u][v])
        for v, order in enumerate(out_order)
        for i, u in enumerate(order, start=1)
    })


def random_port_numbering(g: Graph, seed: int) -> PortNumbering:
    """Uniformly sampled valid numbering, deterministic per seed.

    Sampling decomposes a numbering into an outgoing order (which neighbour
    each port sends to) and an incoming order (which arriving arc lands on
    which port), drawn independently per node, which ranges exactly over all
    valid numberings.  Uses Python's Mersenne Twister, which is stable across
    platforms.
    """
    rng = random.Random(seed)
    out_order: list[list[int]] = []
    in_port: list[dict[int, int]] = []
    for v in range(g.n):
        order = list(g.adjacency[v])
        rng.shuffle(order)
        out_order.append(order)
        incoming = list(g.adjacency[v])
        rng.shuffle(incoming)
        in_port.append({u: j for j, u in enumerate(incoming, start=1)})
    return numbering_from_orders(out_order, in_port)


def consistent_port_numbering(g: Graph, seed: int = 0) -> PortNumbering:
    """Involutive numbering: each node numbers its incident edges 1..deg."""
    rng = random.Random(seed)
    out_order: list[list[int]] = []
    for v in range(g.n):
        nbrs = list(g.adjacency[v])
        rng.shuffle(nbrs)
        out_order.append(nbrs)
    in_port = [{u: i for i, u in enumerate(order, start=1)} for order in out_order]
    return numbering_from_orders(out_order, in_port)


def _augment(adj: dict[int, set[int]], root: int, match: dict[int, int], seen: set[int]) -> None:
    """Depth-first search for an augmenting path from ``root``, flipped into
    ``match``; a regular bipartite graph always has one, so it returns
    nothing.  Iterative, so the path length is not bounded by the recursion
    limit; each vertex scans its neighbours in ``adj`` iteration order.
    """
    path = [root]  # left vertices of the current path
    via: list[int] = []  # via[k] is the right vertex matched to path[k + 1]
    scans = [iter(adj[root])]
    while scans:
        for v in scans[-1]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match:
                for u, w in reversed(list(zip(path, via + [v]))):
                    match[w] = u
                    match[u] = w
                return
            via.append(v)
            path.append(match[v])
            scans.append(iter(adj[match[v]]))
            break
        else:
            scans.pop()
            path.pop()
            if via:
                via.pop()


def symmetric_port_numbering(g: Graph) -> PortNumbering:
    """Numbering of a regular graph whose induced model is fully symmetric.

    Round i finds a perfect matching of the bipartite double cover, whose
    left copy of v is v and whose right copy of u is ``g.n + u``, and port i
    of v feeds port i of v's partner ``match[g.n + v]``; the matched arcs
    are then dropped.  A k-regular bipartite graph stays regular when a
    perfect matching is removed, so each of the k rounds succeeds.  Only the
    diagonal relations of the induced model are nonempty, which makes all
    nodes mutually bisimilar.
    """
    k = g.regularity()
    if k is None:
        raise MatchingError("graph is not regular")
    adj = {v: {g.n + u for u in g.adjacency[v]} for v in range(g.n)}
    mapping = {}
    for i in range(1, k + 1):
        match: dict[int, int] = {}
        for v in range(g.n):
            _augment(adj, v, match, set())
        for v in range(g.n):
            u = match[g.n + v]
            mapping[(v, i)] = (u, i)
            adj[u].discard(g.n + v)
    return PortNumbering(mapping)


def has_one_factor(g: Graph) -> bool:
    """Brute-force perfect-matching existence (desk-scale oracle).

    Exhaustive backtracking on general graphs of at most ``MATCHING_NODE_CAP`` nodes.
    """
    if g.n > MATCHING_NODE_CAP:
        raise SearchBoundError(f"{g.n} nodes exceeds the brute-force cap {MATCHING_NODE_CAP}")
    if g.n % 2 == 1:
        return False

    def search(unmatched: frozenset[int]) -> bool:
        if not unmatched:
            return True
        v = min(unmatched)
        rest = unmatched - {v}
        for u in g.adjacency[v]:
            if u in rest and search(rest - {u}):
                return True
        return False

    return search(frozenset(range(g.n)))


def star(k: int) -> Graph:
    """Star with centre 0 and leaves 1..k."""
    if k < 1:
        raise GraphError("star needs at least one leaf")
    return Graph.from_edges(k + 1, ((0, i) for i in range(1, k + 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least three nodes")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least one node")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def no_one_factor_cubic() -> Graph:
    """Connected 3-regular 16-node graph without a perfect matching.

    Centre node 0 joined to three 5-node gadgets.  Each gadget has odd order
    and meets the rest of the graph in a single edge, so a perfect matching
    would have to match the centre into all three gadgets at once.  The
    adjacency is fixed here; the certificate (3-regular, connected, no
    1-factor by the brute-force oracle) is re-checked in the test suite.
    """
    edges = [(0, 1), (0, 6), (0, 11)]
    for base in (1, 6, 11):
        a, b, c, d, e = range(base, base + 5)
        edges += [(a, b), (a, c), (b, d), (b, e), (c, d), (c, e), (d, e)]
    return Graph.from_edges(16, edges)


def disjoint_union(g1: Graph, g2: Graph) -> tuple[Graph, int]:
    """Union with g2's nodes shifted; returns (graph, offset of g2)."""
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + g2.n, list(g1.edges()) + shifted), g1.n


# ---------------------------------------------------------------------------
# Text formats: ".g" (graph only) and ".pn" (graph + numbering)
# ---------------------------------------------------------------------------


def _clean_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int_fields(lineno: int, fields: list[str]) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: expected integers, got {' '.join(fields)!r}"
        ) from None


def _parse_records(text: str, tag: str, arity: int, name: str) -> tuple[int, list]:
    """Node count and the (line number, integer fields) of each ``tag`` line.

    The text holds one ``nodes <n>`` line and ``tag`` lines of ``arity``
    integers each; ``name`` names a ``tag`` line in error messages.
    """
    n = None
    records = []
    for lineno, fields in _clean_lines(text):
        if fields[0] == "nodes" and len(fields) == 2:
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate nodes line")
            (n,) = _int_fields(lineno, fields[1:])
            if n > MAX_GRAPH_NODES:
                raise GraphFormatError(
                    f"line {lineno}: {n} nodes exceed the limit of {MAX_GRAPH_NODES}"
                )
        elif fields[0] == tag and len(fields) == arity + 1:
            if n is None:
                raise GraphFormatError(f"line {lineno}: {name} before nodes line")
            records.append((lineno, _int_fields(lineno, fields[1:])))
        else:
            raise GraphFormatError(f"line {lineno}: unrecognised line {' '.join(fields)!r}")
    if n is None:
        raise GraphFormatError("missing nodes line")
    return n, records


def parse_graph(text: str) -> Graph:
    """Parse the ".g" format: ``nodes <n>`` then ``e <u> <v>`` lines."""
    n, records = _parse_records(text, "e", 2, "edge")
    try:
        return Graph.from_edges(n, [ints for _, ints in records])
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from exc


def format_graph(g: Graph) -> str:
    lines = [f"nodes {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_ported(text: str) -> PortedGraph:
    """Parse the ".pn" format: ``nodes <n>`` then ``p <u> <i> <v> <j>`` lines.

    Each ``p`` line states p((u, i)) = (v, j); the implied graph is recovered
    from the arcs and the numbering is then validated in full.
    """
    n, records = _parse_records(text, "p", 4, "port line")
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, (u, i, v, j) in records:
        if (u, i) in entries:
            raise GraphFormatError(f"line {lineno}: port ({u},{i}) mapped twice")
        entries[(u, i)] = (v, j)
    edges = {(min(u, v), max(u, v)) for (u, _), (v, _) in entries.items()}
    try:
        graph = Graph.from_edges(n, sorted(edges))
        return PortedGraph(graph, PortNumbering(entries))
    except GraphError as exc:
        raise PortNumberingError(str(exc)) from exc


def format_ported(pg: PortedGraph) -> str:
    lines = [f"nodes {pg.graph.n}"]
    for (u, i), (v, j) in pg.numbering.items():
        lines.append(f"p {u} {i} {v} {j}")
    return "\n".join(lines) + "\n"


def _read_text(filename) -> str:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{filename}: not UTF-8 text ({exc.reason})") from exc


def load_graph(filename) -> Graph:
    return parse_graph(_read_text(filename))


def load_ported(filename) -> PortedGraph:
    return parse_ported(_read_text(filename))
