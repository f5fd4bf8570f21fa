"""Graph problems as verifiers, and the machines that solve them.

A problem is a name, a finite output alphabet, a graph-level ``applies(g)``
and a ``verifier(g, solution)`` that judges only graphs the problem applies
to.  ``check`` is the total verifier: every solution is valid on a graph the
problem does not apply to.  Verifiers are the testable surface because
solution sets grow exponentially, and keeping ``applies`` apart lets an
audit over many candidate solutions decide it once per graph.  The three
problems here power the class separations: electing a leaf in a star
(solvable with incoming sets only), counting odd-degree neighbours mod 2
(needs multiplicities), and producing a non-constant labelling on connected
odd-regular graphs without a perfect matching (needs a consistent
numbering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .graphs import (
    Graph,
    disjoint_union,
    has_one_factor,
)
from .machines import CLASSES, Machine, NO_MESSAGE

__all__ = [
    "GraphProblem",
    "leaf_election",
    "leaf_election_machine",
    "odd_odd",
    "odd_odd_machine",
    "parity_separation_pair",
    "parity_union",
    "symmetry_break_machine",
    "nonconstant_on_unmatchable",
    "is_unmatchable_odd_regular",
    "MACHINES",
]


@dataclass(frozen=True)
class GraphProblem:
    name: str
    outputs: tuple
    applies: Callable[[Graph], bool]
    verifier: Callable[[Graph, Mapping[int, object]], bool]

    def check(self, g: Graph, solution: Mapping[int, object]) -> bool:
        return not self.applies(g) or self.verifier(g, solution)


class _TwoPhaseMachine(Machine):
    """A machine of this module: it stops after two rounds, in its int
    output; each subclass declares its class ``tag`` and its ``name``."""

    def __init__(self, delta_max: int):
        self.delta_max = delta_max

    def is_output(self, state) -> bool:
        return isinstance(state, int)


def _star_center(g: Graph) -> int | None:
    """Centre of a k-star with k > 1, else None."""
    if g.n < 3 or g.edge_count() != g.n - 1:
        return None
    # n - 1 edges all meet a node of degree n - 1: it is the one centre, the rest are leaves
    return next((v for v in range(g.n) if g.degree(v) == g.n - 1), None)


def leaf_election() -> GraphProblem:
    """Exactly one leaf of a star outputs 1; non-stars are unconstrained."""

    def applies(g: Graph) -> bool:
        return _star_center(g) is not None

    def verifier(g: Graph, solution: Mapping[int, object]) -> bool:
        center = _star_center(g)
        if solution[center] != 0:
            return False
        ones = [v for v in range(g.n) if v != center and solution[v] == 1]
        zeros = [v for v in range(g.n) if v != center and solution[v] == 0]
        return len(ones) == 1 and len(ones) + len(zeros) == g.n - 1

    return GraphProblem("leaf_election", (0, 1), applies, verifier)


class _LeafElectionMachine(_TwoPhaseMachine):
    """Send each port its own index; a leaf that got message 1 wins.

    Two rounds: the decision is fixed after the exchange and published as the
    stopping state one round later.  Inbox discipline is set: only whether
    message 1 arrived matters.  On non-stars the outputs are arbitrary but
    deterministic, which the problem permits.
    """

    tag = CLASSES["SV"]
    name = "leaf_election"

    def init_state(self, degree: int):
        return ("start", degree)

    def emit(self, state, port: int):
        if state[0] == "start":
            return ("port", port)
        return NO_MESSAGE

    def transition(self, state, inbox: tuple):
        if state[0] == "start":
            degree = state[1]
            received = {m for m in inbox if m != NO_MESSAGE}
            win = degree == 1 and received == {("port", 1)}
            return ("decided", 1 if win else 0)
        return state[1]


def leaf_election_machine(delta_max: int) -> Machine:
    return _LeafElectionMachine(delta_max)


def odd_odd() -> GraphProblem:
    """S(v) = 1 iff v has an odd number of odd-degree neighbours (unique S)."""

    def verifier(g: Graph, solution: Mapping[int, object]) -> bool:
        for v in range(g.n):
            odd_nbrs = sum(1 for u in g.adjacency[v] if g.degree(u) % 2 == 1)
            if solution[v] != odd_nbrs % 2:
                return False
        return True

    return GraphProblem("odd_odd", (0, 1), lambda g: True, verifier)


class _OddOddMachine(_TwoPhaseMachine):
    """Broadcast own degree parity, then count odd parities mod 2 (2 rounds)."""

    tag = CLASSES["MB"]
    name = "odd_odd"

    def init_state(self, degree: int):
        return ("start", degree % 2)

    def emit(self, state, port: int):
        if state[0] == "start":
            return ("parity", state[1])
        return NO_MESSAGE

    def transition(self, state, inbox: tuple):
        if state[0] == "start":
            odd = sum(1 for m in inbox if m == ("parity", 1))
            return ("decided", odd % 2)
        return state[1]


def odd_odd_machine(delta_max: int) -> Machine:
    return _OddOddMachine(delta_max)


def parity_separation_pair() -> tuple[Graph, Graph, int, int]:
    """Two graphs whose marked nodes split odd_odd yet are bisimilar.

    Found once by searching small graph pairs with the refinement engine and
    frozen here; the certificate is re-checked by the test suite.  Returns
    (g_one, g_zero, u, w): in the unique odd_odd solution u gets 1 and w gets
    0, but u and w share a block of the coarsest bisimulation on the
    degree-valued edge model of the disjoint union.

    g_one: hub 0 of degree 3 carrying one leaf and two pendant paths of
    length 2.  g_zero: hub 0 of degree 3 carrying two leaves and one pendant
    path of length 2.  Both hubs see the block set {leaf, path-midpoint} but
    with swapped multiplicities, so they are bisimilar without being
    g-bisimilar, while their odd-degree-neighbour counts have different
    parities.
    """
    g_one = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5)])
    g_zero = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    return g_one, g_zero, 0, 0


def parity_union() -> tuple[Graph, int, int]:
    """Disjoint union of the parity pair with both marked nodes relocated."""
    g_one, g_zero, u, w = parity_separation_pair()
    union, offset = disjoint_union(g_one, g_zero)
    return union, u, w + offset


class _SymmetryBreakMachine(_TwoPhaseMachine):
    """Exchange port numbers, then local types; locally maximal types win.

    Correct under consistent numberings: the value arriving on port i is then
    exactly the neighbour-side number of the channel at port i.  The tie
    order on types is lexicographic on the zero-padded tuple.
    """

    tag = CLASSES["VV"]
    name = "symmetry_break"

    def init_state(self, degree: int):
        return ("start", degree)

    def emit(self, state, port: int):
        if state[0] == "start":
            return ("pn", port)
        return ("type", state[2])

    def transition(self, state, inbox: tuple):
        if state[0] == "start":
            degree = state[1]
            own = tuple(
                inbox[i][1] if inbox[i] != NO_MESSAGE else 0 for i in range(degree)
            ) + (0,) * (self.delta_max - degree)
            return ("typed", degree, own)
        degree, own = state[1], state[2]
        types = [inbox[i][1] for i in range(degree)]
        return 1 if all(t <= own for t in types) else 0


def symmetry_break_machine(delta_max: int) -> Machine:
    return _SymmetryBreakMachine(delta_max)


def is_unmatchable_odd_regular(g: Graph) -> bool:
    """Connected, k-regular with k odd, and without a perfect matching."""
    k = g.regularity()
    if k is None or k % 2 == 0:
        return False
    if not g.is_connected():
        return False
    return not has_one_factor(g)


def nonconstant_on_unmatchable() -> GraphProblem:
    """Non-constant output required exactly on unmatchable odd-regular graphs."""

    def verifier(g: Graph, solution: Mapping[int, object]) -> bool:
        return len({solution[v] for v in range(g.n)}) > 1

    return GraphProblem(
        "nonconstant_on_unmatchable", (0, 1), is_unmatchable_odd_regular, verifier
    )


MACHINES: dict[str, Callable[[int], Machine]] = {
    "leaf_election": leaf_election_machine,
    "odd_odd": odd_odd_machine,
    "symmetry_break": symmetry_break_machine,
}
