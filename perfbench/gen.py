"""Seeded input generators owned by the benchmark.

They share no code with the test suite, so a result can be re-checked on a
seed that was not used while the result was produced.  Each generator is a
pure function of its seed: the same seed gives the same formulas and the
same machines on every run.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from portlogic.logic import Signature, alphas_for, conj, dia, neg, prop
from portlogic.machines import BROADCAST, MULTISET, VECTOR, ClassTag, SimpleMachine


def random_formula(
    rng: random.Random, sig: Signature, depth: int, budget: int = 8, graded: bool = True
):
    """Random formula valid for ``sig`` with modal depth exactly ``depth``.

    The formula has exactly ``budget`` syntax-tree nodes; formulas of another
    depth or size are redrawn, so how much work a workload's formulas make
    does not depend on the seed.  Diamonds get a grade above 1 only when
    ``graded`` is set and the signature allows grading.
    """
    grading = graded and sig.allows_grading and sig.delta > 1
    if budget < depth + 1:
        raise ValueError("budget too small for the requested depth")

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
        grade = rng.randint(2, sig.delta) if grading and rng.random() < 0.35 else 1
        sub, used = gen(depth_left - 1, nodes_left - 1)
        return dia(alpha, sub, grade), used + 1

    while True:
        formula = gen(depth, budget)[0]
        if formula.md == depth and formula.size == budget:
            return formula


def _mix(*parts) -> int:
    return int.from_bytes(hashlib.blake2b(repr(parts).encode(), digest_size=8).digest(), "big")


def random_multiset_machine(
    delta: int, seed: int, rounds: int, states: int, letters: int, broadcast: bool = False
) -> SimpleMachine:
    """Seeded finite machine whose transitions see only the inbox multiset.

    It stops after exactly ``rounds`` rounds with a binary output, using at
    most ``states`` working states and ``letters`` message letters; its
    transition and emit tables come from ``seed``.  Emit depends on the port
    unless ``broadcast`` is set.
    """

    def init(degree):
        return ("r", 0, _mix(seed, "z0", degree) % states)

    def emit(state, port):
        _, t, s = state
        return _mix(seed, "mu", t, s, 1 if broadcast else port) % letters

    def transition(state, inbox):
        _, t, s = state
        bag = tuple(sorted((repr(m), c) for m, c in Counter(inbox).items()))
        if t + 1 == rounds:
            return _mix(seed, "out", s, bag) % 2
        return ("r", t + 1, _mix(seed, "delta", t, s, bag) % states)

    return SimpleMachine(
        delta,
        ClassTag(MULTISET, BROADCAST if broadcast else VECTOR),
        init,
        emit,
        transition,
        is_output=lambda s: isinstance(s, int),
        outputs=frozenset({0, 1}),
        name=f"bench_multiset[{seed}]",
    )
