"""Exhaustive enumeration of small graphs and their port numberings.

Desk-scale sweeps drive most of the toolkit's verification: run a machine on
every graph up to a node bound, under every numbering when that is feasible
and under a seeded sample otherwise.  The number of numberings of a graph is
the product of deg(v)!^2 over its nodes, so exhaustion is capped and sampling
takes over beyond the cap.

Each isomorphism class on n nodes is its least edge mask, bit k standing for
pair k of ``itertools.combinations(range(n), 2)``; flagging each new mask's
orbit costs n! images per class plus 2^(n(n-1)/2) flag checks, hence a 7-node cap.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from functools import lru_cache
from math import factorial
from typing import Iterator

from .graphs import (
    Graph,
    PortNumbering,
    SearchBoundError,
    numbering_from_orders,
    random_port_numbering,
)

__all__ = [
    "all_graphs",
    "all_port_numberings",
    "count_port_numberings",
    "numberings",
]

MAX_NODES = 7


def _graphs_on(n: int) -> Iterator[Graph]:
    """Each isomorphism class on n nodes once, as its least edge mask."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    # lanes[k]: the bit of pair k's image under each vertex permutation, one
    # 4-byte lane per permutation, so ORing two of these ints ORs every lane
    lanes = [
        int.from_bytes(
            array("I", [1 << index[min(p[u], p[v]), max(p[u], p[v])] for p in perms]).tobytes(),
            sys.byteorder,
        )
        for u, v in pairs
    ]
    width = 4 * len(perms)
    seen = bytearray(1 << len(pairs))
    mask = 0
    while mask >= 0:
        bits = [k for k in range(len(pairs)) if mask >> k & 1]
        orbit = 0
        for k in bits:
            orbit |= lanes[k]
        for image in set(memoryview(orbit.to_bytes(width, sys.byteorder)).cast("I")):
            seen[image] = 1
        yield Graph.from_edges(n, [pairs[k] for k in bits])
        mask = seen.find(0, mask + 1)


@lru_cache(maxsize=None)
def all_graphs(max_nodes: int, max_degree: int | None = None) -> tuple[Graph, ...]:
    """All non-isomorphic graphs with 1..max_nodes nodes (cached).

    Each class once, as its least edge mask, by node count and then by mask;
    the degree filter only drops classes.  Costs n! images per class plus
    2^(n(n-1)/2) flag checks per n; above 7 nodes raises ``SearchBoundError``.
    """
    if max_nodes > MAX_NODES:
        raise SearchBoundError(f"graph enumeration capped at {MAX_NODES} nodes")
    graphs = (g for n in range(1, max_nodes + 1) for g in _graphs_on(n))
    return tuple(g for g in graphs if max_degree is None or g.max_degree() <= max_degree)


def count_port_numberings(g: Graph) -> int:
    total = 1
    for v in range(g.n):
        total *= factorial(g.degree(v)) ** 2
    return total


def all_port_numberings(g: Graph) -> Iterator[PortNumbering]:
    """Every valid numbering: outgoing orders x incoming orders, per node."""
    out_choices = [list(itertools.permutations(g.adjacency[v])) for v in range(g.n)]
    in_choices = [list(itertools.permutations(range(1, g.degree(v) + 1))) for v in range(g.n)]
    for outs in itertools.product(*out_choices):
        for ins in itertools.product(*in_choices):
            in_port = [dict(zip(g.adjacency[v], ins[v])) for v in range(g.n)]
            yield numbering_from_orders(outs, in_port)


def numberings(g: Graph, cap: int = 256, samples: int = 24, seed: int = 0) -> list[PortNumbering]:
    """All numberings when there are at most ``cap``, else a seeded sample."""
    if count_port_numberings(g) <= cap:
        return list(all_port_numberings(g))
    return [random_port_numbering(g, seed * 7919 + k) for k in range(samples)]
