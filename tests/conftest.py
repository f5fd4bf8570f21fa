"""Shared test helpers: seeded generators, oracles, exhaustive sweeps."""

from __future__ import annotations

import itertools
import random

from hypothesis import settings

from portlogic.encoding import canon, digest
from portlogic.graphs import Graph, GraphError, PortNumbering, PortedGraph
from portlogic.logic import (
    And,
    Dia,
    KripkeModel,
    Not,
    Prop,
    Signature,
    alphas_for,
    conj,
    dia,
    kripke_model,
    neg,
    prop,
)
from portlogic.machines import ClassTag, MULTISET, NO_MESSAGE, VECTOR, BROADCAST, SimpleMachine, run
from portlogic.smallgraphs import numberings

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# Deterministic random formulas
# ---------------------------------------------------------------------------


def random_formula(rng: random.Random, sig: Signature, max_depth: int = 3, budget: int = 8):
    """Random formula valid for ``sig`` with modal depth at most ``max_depth``."""

    def gen(depth_left: int, nodes_left: int):
        choices = ["prop"]
        if nodes_left > 1:
            choices += ["not", "and"]
        if depth_left > 0 and nodes_left > 1:
            choices += ["dia", "dia"]
        kind = rng.choice(choices)
        if kind == "prop":
            return prop(rng.randint(1, sig.delta)), 1
        if kind == "not":
            sub, used = gen(depth_left, nodes_left - 1)
            return neg(sub), used + 1
        if kind == "and":
            left, used_l = gen(depth_left, nodes_left - 2)
            right, used_r = gen(depth_left, nodes_left - 1 - used_l)
            return conj(left, right), used_l + used_r + 1
        alpha = rng.choice(alphas_for(sig.variant, sig.delta))
        grade = 1
        if sig.allows_grading and rng.random() < 0.35:
            grade = rng.randint(1, sig.delta)
        sub, used = gen(depth_left - 1, nodes_left - 1)
        return dia(alpha, sub, grade), used + 1

    return gen(max_depth, budget)[0]


# ---------------------------------------------------------------------------
# Deterministic random machines
# ---------------------------------------------------------------------------


def _mix(*parts) -> int:
    return int.from_bytes(digest(tuple(parts)), "big")


def random_multiset_machine(delta: int, seed: int, broadcast: bool = False):
    """Seeded finite machine whose transitions depend on the inbox multiset.

    Runs a fixed number of rounds (1..3 per seed) and then stops with a
    binary output; emit may be port-dependent unless broadcast is set.
    """
    rounds = 1 + _mix(seed, "rounds") % 3
    states = 2 + _mix(seed, "states") % 3
    letters = 2 + _mix(seed, "letters") % 2

    def init(degree):
        return ("r", 0, _mix(seed, "z0", degree) % states)

    def emit(state, port):
        _, t, s = state
        slot = 1 if broadcast else port
        return _mix(seed, "mu", t, s, slot) % letters

    def transition(state, inbox):
        _, t, s = state
        bag = tuple(
            sorted(((m, inbox.count(m)) for m in set(inbox)), key=lambda kv: canon(kv[0]))
        )
        if t + 1 == rounds:
            return _mix(seed, "out", s, bag) % 2
        return ("r", t + 1, _mix(seed, "delta", t, s, bag) % states)

    tag = ClassTag(MULTISET, BROADCAST if broadcast else VECTOR)
    return SimpleMachine(
        delta,
        tag,
        init,
        emit,
        transition,
        is_output=lambda s: isinstance(s, int),
        outputs=frozenset({0, 1}),
        name=f"random_multiset[{seed}]",
    )


def port_reading_broadcast_machine(delta: int):
    """A machine tagged multiset-broadcast whose ``emit`` sends the port it is
    asked about, so it breaks its class.  Every library caller asks a
    broadcast machine on port 1 only, which keeps its runs in the class.  It
    stops after two rounds with a binary output."""

    def transition(state, inbox):
        t, seen = state
        bag = tuple(sorted(inbox, key=canon))
        return _mix(seen, bag) % 2 if t == 1 else (1, bag)

    return SimpleMachine(
        delta,
        ClassTag(MULTISET, BROADCAST),
        init=lambda degree: (0, degree),
        emit=lambda state, port: port,
        transition=transition,
        is_output=lambda s: isinstance(s, int),
        outputs=frozenset({0, 1}),
        name="port_reader",
    )


def staggered_machine(seed: int, broadcast: bool):
    """Seeded order-sensitive machine that stops after 1 + (degree + seed) % 4
    rounds, so the neighbours of one node go silent at different rounds."""

    def init(degree):
        return ("w", 0, degree, _mix(seed, "z", degree) % 3)

    def emit(state, port):
        _, t, _, z = state
        return _mix(seed, "m", t, z, 1 if broadcast else port) % 3

    def transition(state, inbox):
        _, t, degree, z = state
        z = _mix(seed, "d", t, z, inbox) % 4
        if t + 1 >= 1 + (degree + seed) % 4:
            return z % 2
        return ("w", t + 1, degree, z)

    tag = ClassTag(VECTOR, BROADCAST if broadcast else VECTOR)
    return SimpleMachine(3, tag, init, emit, transition, lambda s: isinstance(s, int))


# ---------------------------------------------------------------------------
# Independent modal-logic oracle (naive per-world recursion)
# ---------------------------------------------------------------------------


def naive_holds(model: KripkeModel, world: int, formula) -> bool:
    if isinstance(formula, Prop):
        return world in model.valuation.get(formula.index, frozenset())
    if isinstance(formula, And):
        return naive_holds(model, world, formula.left) and naive_holds(
            model, world, formula.right
        )
    if isinstance(formula, Not):
        return not naive_holds(model, world, formula.sub)
    if isinstance(formula, Dia):
        count = 0
        for b in model.successors.get(formula.alpha, {}).get(world, ()):
            if naive_holds(model, b, formula.sub):
                count += 1
        return count >= formula.grade
    raise TypeError(formula)


# ---------------------------------------------------------------------------
# Full-enumeration reference for the impossibility audit
# ---------------------------------------------------------------------------


def full_audit(g: Graph, x_nodes, problem):
    """"refuted", or X's values in the first valid solution constant on X.

    Walks all |O|^n solutions in ``itertools.product`` order, with no
    shortcut over X.
    """
    xs = sorted(set(x_nodes))
    applies = problem.applies(g)
    for values in itertools.product(list(problem.outputs), repeat=g.n):
        solution = dict(enumerate(values))
        if applies and not problem.verifier(g, solution):
            continue
        if len({solution[v] for v in xs}) == 1:
            return {v: solution[v] for v in xs}
    return "refuted"


# ---------------------------------------------------------------------------
# The set_from_multiset preamble, read off the wrapper's own run
# ---------------------------------------------------------------------------


def preamble_trace(wrapped, pg: PortedGraph):
    """Trace, messages included, of the 2*delta preamble rounds of ``wrapped``.

    ``wrapped`` is ``set_from_multiset`` of some machine.  ``states[t][v]`` is
    ("pre", t, cert, degree), cert being what v sends in round t+1, and each
    neighbour's entry of ``messages[t][v]`` is ("pre", cert, degree, port).
    """
    rounds = 2 * wrapped.delta_max
    trace = run(wrapped, pg, rounds, record_messages=True).trace
    assert len(trace.messages) == rounds
    assert all(s[0] == "pre" for snapshot in trace.states[:rounds] for s in snapshot)
    return trace


def indistinct_nodes(pg: PortedGraph, inboxes) -> int:
    """Nodes whose neighbours' (certificate, degree, port) triples in one
    round's ``inboxes`` are not pairwise distinct."""
    return sum(
        len({m[1:] for m in inbox if m != NO_MESSAGE}) != pg.graph.degree(v)
        for v, inbox in enumerate(inboxes)
    )


# ---------------------------------------------------------------------------
# Graph and numbering oracles
# ---------------------------------------------------------------------------

ISO_NODE_CAP = 8


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism test, capped at ``ISO_NODE_CAP`` nodes per graph."""
    if g1.n > ISO_NODE_CAP or g2.n > ISO_NODE_CAP:
        raise GraphError(f"isomorphism search capped at {ISO_NODE_CAP} nodes")
    if g1.n != g2.n or sorted(g1.degrees()) != sorted(g2.degrees()):
        return False

    def profile(g: Graph, v: int) -> tuple:
        return (g.degree(v), tuple(sorted(g.degree(u) for u in g.adjacency[v])))

    candidates = {
        v: [w for w in range(g2.n) if profile(g2, w) == profile(g1, v)]
        for v in range(g1.n)
    }
    order = sorted(range(g1.n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for w in candidates[v]:
            if w not in mapping.values() and all(
                (u in g1.adjacency[v]) == (x in g2.adjacency[w]) for u, x in mapping.items()
            ):
                mapping[v] = w
                if extend(idx + 1):
                    return True
                del mapping[v]
        return False

    return extend(0)


def is_consistent(p: PortNumbering) -> bool:
    """True iff p is an involution: p(p((v, i))) = (v, i) for every port."""
    return all(p.source(*src) == dst for src, dst in p.items())


def local_type(pg: PortedGraph, v: int, delta: int | None = None) -> tuple[int, ...]:
    """Neighbour-side port numbers seen from v's ports, zero-padded to delta."""
    g = pg.graph
    if delta is None:
        delta = g.max_degree()
    targets = dict(pg.numbering.items())
    entries = [targets[(v, i)][1] for i in range(1, g.degree(v) + 1)]
    return tuple(entries) + (0,) * (delta - g.degree(v))


def model_to_json(model: KripkeModel) -> dict:
    return {
        "worlds": model.size,
        "delta": model.delta,
        "variant": model.variant,
        "relations": {
            f"({alpha[0]},{alpha[1]})": [[v, w] for v, ws in succ.items() for w in ws]
            for alpha, succ in sorted(model.successors.items(), key=lambda kv: str(kv[0]))
        },
        "valuation": {
            f"q{i}": sorted(ws) for i, ws in sorted(model.valuation.items())
        },
    }


# ---------------------------------------------------------------------------
# Numbering sweeps
# ---------------------------------------------------------------------------


def sweep(g: Graph, cap: int = 256, samples: int = 20, seed: int = 0):
    """Exhaustive numberings when feasible, a seeded sample otherwise."""
    return numberings(g, cap=cap, samples=samples, seed=seed)


def incoming_renumberings(g: Graph):
    """All numberings sharing one fixed outgoing assignment."""
    outs = [g.adjacency[v] for v in range(g.n)]
    pools = [
        list(itertools.permutations(range(1, g.degree(v) + 1))) for v in range(g.n)
    ]
    for ins in itertools.product(*pools):
        in_index = [
            {u: ins[v][k] for k, u in enumerate(g.adjacency[v])} for v in range(g.n)
        ]
        mapping = {}
        for v in range(g.n):
            for i, u in enumerate(outs[v], start=1):
                mapping[(v, i)] = (u, in_index[u][v])
        yield PortNumbering(mapping)


def outgoing_renumberings(g: Graph):
    """All numberings sharing one fixed incoming assignment."""
    in_index = [
        {u: k for k, u in enumerate(g.adjacency[v], start=1)} for v in range(g.n)
    ]
    pools = [list(itertools.permutations(g.adjacency[v])) for v in range(g.n)]
    for outs in itertools.product(*pools):
        mapping = {}
        for v in range(g.n):
            for i, u in enumerate(outs[v], start=1):
                mapping[(v, i)] = (u, in_index[u][v])
        yield PortNumbering(mapping)


def all_consistent_numberings(g: Graph):
    """Every involutive numbering: product of per-node incident-edge orders."""
    pools = [list(itertools.permutations(g.adjacency[v])) for v in range(g.n)]
    for orders in itertools.product(*pools):
        port_of = {}
        for v in range(g.n):
            for i, u in enumerate(orders[v], start=1):
                port_of[(v, u)] = i
        mapping = {}
        for v in range(g.n):
            for u in g.adjacency[v]:
                mapping[(v, port_of[(v, u)])] = (u, port_of[(u, v)])
        yield PortNumbering(mapping)


_model_cache: dict = {}


def cached_model(pg: PortedGraph, variant: str, delta: int) -> KripkeModel:
    key = (pg.graph.adjacency, pg.numbering.items(), variant, delta)
    model = _model_cache.get(key)
    if model is None:
        model = kripke_model(pg, variant, delta)
        _model_cache[key] = model
    return model
