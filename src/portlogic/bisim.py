"""Coarsest (graded) bisimulation by signature refinement, plus verifiers.

Refinement starts from the valuation profile and repeatedly splits blocks by
the signature a world shows to the current partition: for each relation index
the world has successors under, the index's rank with the set of successor
blocks (plain), or the successor count into each block (graded), so a round's
work follows the arcs.  Each round numbers the worlds by the first occurrence
of their signature, and the fixpoint's numbering is the ``Partition`` itself:
one block label per world.  Every round but the last adds a block, so there
are at most as many rounds as blocks at the fixpoint, each following the
arcs.  That is why the naive refinement suffices, and it wins on simplicity
and auditability over Paige-Tarjan.

``verify_bisimulation`` checks an explicitly given relation directly against
the back-and-forth conditions.  Graded verification is restricted to
relations that are restrictions of an equivalence on the disjoint union:
for those, the counting conditions reduce to per-block successor-count
equality, which is what gets checked.  General graded relations would need
bipartite matching arguments and are out of scope.

``impossibility_check`` packages the bisimulation route to unsolvability: if
all nodes of X are mutually bisimilar in the model variant a machine class
can see, every machine of that class gives them one output, so the problem
is unsolvable in that class when no valid solution is constant on X.  The
audit enumerates exactly the candidate solutions constant on X,
|O|^(n-|X|+1) of them, so it is strictly a desk-scale certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .graphs import Graph, PortNumbering, PortedGraph, PortlogicError
from .logic import KripkeModel, disjoint_union, kripke_model
from .machines import CLASSES

__all__ = [
    "Partition",
    "coarsest_bisimulation",
    "coarsest_graded_bisimulation",
    "VerifyResult",
    "verify_bisimulation",
    "NonEquivalenceError",
    "RelationRangeError",
    "Refutation",
    "Inconclusive",
    "impossibility_check",
    "EnumerationBudgetError",
    "ImpossibilityInputError",
    "MAX_CANDIDATES",
]

# the classes whose invariance is plain bisimulation, by lower-case code
CLASS_VARIANTS = {code.lower(): tag.variant for code, tag in CLASSES.items() if not tag.graded}

# X-constant candidate solutions impossibility_check may enumerate
# (outputs ** (nodes - |X| + 1))
MAX_CANDIDATES = 1 << 20


class NonEquivalenceError(PortlogicError, ValueError):
    """Graded verification needs (a restriction of) an equivalence."""


class EnumerationBudgetError(PortlogicError, RuntimeError):
    """Solution enumeration would exceed ``MAX_CANDIDATES``."""


class ImpossibilityInputError(PortlogicError, ValueError):
    """Unknown machine class, or X not a nonempty set of graph nodes."""


class RelationRangeError(PortlogicError, ValueError):
    """A relation pair names a world outside its model."""


@dataclass(frozen=True)
class Partition:
    """A partition of worlds 0..n-1 as per-world block labels.

    ``labels[w]`` is the block of world w; blocks are numbered in the order
    of their least world, so equal partitions have equal labels.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        fresh = 0  # the label the next new block must take
        for k in self.labels:
            if k == fresh:
                fresh += 1
            elif not 0 <= k < fresh:
                raise PortlogicError("partition labels must number blocks by their least world")

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Each block's worlds in ascending order, blocks in label order."""
        grouped: dict[int, list[int]] = {}  # first-occurrence order is label order
        for world, k in enumerate(self.labels):
            grouped.setdefault(k, []).append(world)
        return tuple(map(tuple, grouped.values()))

    def block_index(self, world: int) -> int:
        return self.labels[world]

    def refines(self, other: "Partition") -> bool:
        if len(self.labels) != len(other.labels):
            raise PortlogicError(
                f"partitions of {len(self.labels)} and {len(other.labels)} worlds"
            )
        return len(set(zip(self.labels, other.labels))) == len(set(self.labels))

    def as_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (v, w) for block in self.blocks for v in block for w in block
        )

    def merge(self, a: int, b: int) -> "Partition":
        """Partition with blocks a and b merged (for maximality checks)."""
        indices = range(len(self.blocks))  # negatives and IndexError as in blocks[a]
        a, b = indices[a], indices[b]
        return Partition(tuple(_numbered([a if k == b else k for k in self.labels])))

    def to_json(self) -> list[list[int]]:
        return [list(block) for block in self.blocks]


def _numbered(keys: list) -> list[int]:
    """Number each key by the rank of its first occurrence in ``keys``."""
    ids: dict[object, int] = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def _refine(model: KripkeModel, graded: bool) -> Partition:
    # each world's successors by the rank of each index it has any under
    outs: list[dict[int, tuple[int, ...]]] = [{} for _ in range(model.size)]
    for rank, alpha in enumerate(sorted(model.successors, key=str)):
        for v, succ in model.successors[alpha].items():
            outs[v][rank] = succ
    current = _numbered([model.valuation_profile(v) for v in range(model.size)])
    while True:
        keys = []
        for v, succs in enumerate(outs):
            parts = []
            for rank, succ in succs.items():
                succ_blocks = [current[w] for w in succ]
                if graded:
                    counts: dict[int, int] = {}
                    for b in succ_blocks:
                        counts[b] = counts.get(b, 0) + 1
                    part = tuple(sorted(counts.items()))
                else:
                    part = frozenset(succ_blocks)
                parts.append((rank, part))
            keys.append((current[v], tuple(parts)))
        # Each key starts with the world's current block, so numbering the
        # same partition again reproduces ``current`` exactly.
        refined = _numbered(keys)
        if refined == current:
            return Partition(tuple(current))
        current = refined


def coarsest_bisimulation(model: KripkeModel) -> Partition:
    """Fixpoint partition: two worlds share a block iff they are bisimilar."""
    return _refine(model, graded=False)


def coarsest_graded_bisimulation(model: KripkeModel) -> Partition:
    """Counting variant; always refines the plain partition."""
    return _refine(model, graded=True)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    clause: str | None = None
    detail: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_bisimulation(
    model: KripkeModel,
    other: KripkeModel | None,
    relation: Iterable[tuple[int, int]],
    graded: bool = False,
) -> VerifyResult:
    """Check an explicit relation against the bisimulation conditions.

    ``relation`` pairs worlds of ``model`` with worlds of ``other`` (or of
    ``model`` itself when ``other`` is None); a pair naming a world outside
    its model raises ``RelationRangeError``.  Plain verification checks the
    valuation clause and both zig-zag clauses pair by pair, in sorted pair,
    sorted index and successor order, and reports the first violating
    triple; it reads the relation's image and preimage of each world, so
    the first violation is the same as testing every (s, t) pair directly.
    Graded verification requires the relation to be the
    cross part of an equivalence on the disjoint union; it then checks
    per-block successor-count equality for the equivalence generated by the
    relation (worlds it does not mention count as singleton blocks), which
    for equivalences is the same condition as the counting zig-zag clauses.
    """
    pairs = list(relation)
    if not pairs:
        return VerifyResult(False, "empty", ())
    second = model if other is None else other
    for v, w in pairs:
        if not (0 <= v < model.size and 0 <= w < second.size):
            raise RelationRangeError(f"pair {(v, w)} names a world outside its model")
    union, offsets = disjoint_union([model] if other is None else [model, other])
    offset = offsets[-1]
    lifted = [(v, w + offset) for v, w in pairs]
    tables = [(alpha, union.successors[alpha]) for alpha in sorted(union.successors, key=str)]

    if not graded:
        zset = set(lifted)
        image: list[set[int]] = [set() for _ in range(union.size)]
        preimage: list[set[int]] = [set() for _ in range(union.size)]
        for v, w in zset:
            image[v].add(w)
            preimage[w].add(v)
        for v, w in sorted(zset):
            if union.valuation_profile(v) != union.valuation_profile(w):
                return VerifyResult(False, "B1", (v, w))
            for alpha, succ in tables:
                succ_v, succ_w = succ.get(v, ()), succ.get(w, ())
                for s in succ_v:
                    if image[s].isdisjoint(succ_w):
                        return VerifyResult(False, "B2", (v, w, alpha, s))
                for t in succ_w:
                    if preimage[t].isdisjoint(succ_v):
                        return VerifyResult(False, "B3", (v, w, alpha, t))
        return VerifyResult(True)

    # Graded: build the equivalence generated by the relation and insist the
    # given relation is all of it on left x right: its cross-model part for
    # two models, its restriction to the worlds the relation touches for one.
    parent = list(range(union.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, w in lifted:
        parent[find(w)] = find(v)
    touched = {x for pair in lifted for x in pair}
    if other is None:
        left = right = touched
        expected = set(lifted) | {(w, v) for v, w in lifted} | {(v, v) for v in touched}
        message = "relation is not an equivalence on its worlds"
    else:
        left, right = range(offset), range(offset, union.size)
        expected = set(lifted)
        message = "relation is not the cross part of an equivalence on the union"
    if {(v, w) for v in left for w in right if find(v) == find(w)} != expected:
        raise NonEquivalenceError(message)

    block_of = {v: find(v) for v in range(union.size)}
    classes: dict[int, list[int]] = {}
    for v in sorted(touched):
        classes.setdefault(find(v), []).append(v)
    for members in classes.values():
        first = members[0]
        profile = union.valuation_profile(first)
        bad = next((v for v in members[1:] if union.valuation_profile(v) != profile), None)
        if bad is not None:
            return VerifyResult(False, "B1", (first, bad))
        for alpha, succ in tables:
            reference = None
            for v in members:
                counts: dict[int, int] = {}
                for w in succ.get(v, ()):
                    b = block_of[w]
                    counts[b] = counts.get(b, 0) + 1
                signature = tuple(sorted(counts.items()))
                if reference is None:
                    reference = (v, signature)
                elif signature != reference[1]:
                    return VerifyResult(False, "B2*/B3*", (reference[0], v, alpha))
    return VerifyResult(True)


@dataclass(frozen=True)
class Refutation:
    """Machine-checkable witness that a problem is outside a machine class."""

    problem: str
    machine_class: str
    variant: str
    x_nodes: tuple[int, ...]
    partition: Partition
    audited_candidates: int  # X-constant candidates audited, every one invalid
    model: KripkeModel

    def to_json(self) -> dict:
        return {
            "refuted_class": self.machine_class,
            "variant": self.variant,
            "problem": self.problem,
            "x_nodes": list(self.x_nodes),
            "partition": self.partition.to_json(),
            "audited_candidates": self.audited_candidates,
        }


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    witness: dict | None = None

    def to_json(self) -> dict:
        doc = {"inconclusive": self.reason}
        if self.witness is not None:
            doc["witness"] = {str(k): v for k, v in self.witness.items()}
        return doc


def impossibility_check(
    g: Graph,
    x_nodes: Iterable[int],
    problem,
    machine_class: str,
    p: PortNumbering,
):
    """Bisimulation refutation for ``problem`` in ``machine_class`` on (g, p).

    Builds the Kripke variant the class can observe, tests the X nodes
    mutually bisimilar via refinement, and audits by exhaustive enumeration
    that no candidate solution constant on X is valid.  A candidate has one
    value shared by X, placed at X's least node, and one value per other
    node; enumerating these variables in node order visits the X-constant
    solutions in the lexicographic order of all solutions, so the first
    valid one (the ``Inconclusive`` witness) is the first that a full
    enumeration would meet.  Whether the problem applies to ``g`` is decided
    once; where it does not, the first candidate is valid and the verifier
    is never called.  ``MAX_CANDIDATES`` bounds the number of X-constant
    candidates.  Returns a ``Refutation`` certificate or an ``Inconclusive``
    with the failing hypothesis.
    """
    if machine_class not in CLASS_VARIANTS:
        raise ImpossibilityInputError(f"machine class must be one of {sorted(CLASS_VARIANTS)}")
    xs = tuple(sorted(set(x_nodes)))
    if not xs or any(not 0 <= v < g.n for v in xs):
        raise ImpossibilityInputError("X must be a nonempty set of graph nodes")
    variant = CLASS_VARIANTS[machine_class]
    model = kripke_model(PortedGraph(g, p), variant)
    partition = coarsest_bisimulation(model)
    if len({partition.block_index(v) for v in xs}) != 1:
        return Inconclusive("nodes of X are not mutually bisimilar")
    outputs = list(problem.outputs)
    total = len(outputs) ** (g.n - len(xs) + 1)
    if total > MAX_CANDIDATES:
        raise EnumerationBudgetError(
            f"{total} candidate solutions exceed the budget {MAX_CANDIDATES}"
        )
    # one variable per node outside X and one for all of X, at its least node
    shared = set(xs)
    variables = [v for v in range(g.n) if v == xs[0] or v not in shared]
    slot = {v: k for k, v in enumerate(variables)}
    slots = [slot[xs[0] if v in shared else v] for v in range(g.n)]
    applies = problem.applies(g)
    for values in itertools.product(outputs, repeat=len(variables)):
        solution = {v: values[k] for v, k in enumerate(slots)}
        if not applies or problem.verifier(g, solution):
            return Inconclusive(
                "a valid solution is constant on X", {v: solution[v] for v in xs}
            )
    return Refutation(
        problem=problem.name,
        machine_class=machine_class,
        variant=variant,
        x_nodes=xs,
        partition=partition,
        audited_candidates=total,
        model=model,
    )
