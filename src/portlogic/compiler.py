"""Compilation between modal formulas and local algorithms.

Both directions read the variant only through the ``logic.Signature``, the
one reading of a variant code: they branch on its two visibility bits
(``in_visible``, ``out_visible``) and take the index values a side may take
from ``sides``.  A visible incoming port means a positional (vector) inbox, a
hidden one a counted (multiset or set) inbox.  A visible outgoing port means
messages tagged with their port (vector outbox), a hidden one broadcast
messages.

Forward direction: a formula becomes a machine whose states are truth
assignments over the subformula closure (one tuple, sorted by modal depth
once), three-valued with U for "not yet determined".  A subformula of modal
depth d becomes determined exactly after round d, and the machine stops at
round md+1 with the root's truth value as output.  The message sent on a
port carries the assignment restricted to the targets of the diamonds whose
outgoing index is the one the signature shows there (the port, or "*" when
it is hidden), tagged with the port when it is visible.

Reverse direction: a finite-horizon binary-output machine becomes a formula
built from three families per round: state formulas ("the node is in state z
after round t"), send formulas ("the node sends message m in round t"), and
receive formulas (diamonds over send formulas).  State formulas are canonical
DNF over the previous level: one term per (state, inbox) pair, and a stopped
state keeps its formula, as a run keeps a stopped node.  One enumerator
builds the inboxes, slot by slot, and hands each to ``machines.realise``, as
a run does.  A slot maps the number of messages placed so far to its
options, each a pin formula with the messages it places.  A visible incoming
port is one slot per port, with a null pin (expressed negatively, so padding
and explicit nulls coincide) and one pin per message.  A hidden incoming
port is one slot per (message, outgoing index), whose options place that
message 0..delta-placed times, pinned by exact counts.  The senders of a
message are grouped by outgoing port when it is visible and all together
(under "*") when it is hidden.

The reverse direction is evaluated against a fixed suite of ported-graph
models, held as their disjoint union (``logic.disjoint_union``), which
preserves modal truth: a table over the union is the models' tables side by
side.  Formulas are deduplicated semantically (truth table over the suite,
keyed together with modal depth so depth bookkeeping survives), and DNF terms
that are unsatisfiable on the whole suite are dropped; the resulting formula
agrees with the machine on every model of the suite, which is the scale this
toolkit certifies.  A suite without worlds is refused, since every table on
it is 0.  State and message enumeration is budgeted, and exceeding a budget
is an explicit refusal rather than a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence

from .encoding import canon
from .graphs import PortedGraph, PortlogicError, consistent_port_numbering, random_port_numbering
from .logic import (
    STAR,
    And,
    Dia,
    Formula,
    KripkeModel,
    Not,
    Prop,
    Signature,
    SignatureMismatchError,
    conj,
    conj_all,
    dia,
    disj_all,
    disjoint_union,
    kripke_model,
    neg,
    prop,
    subformulas,
    validate_signature,
    _node_problems,
)
from .machines import CLASSES, NO_MESSAGE, Machine, message_on, next_state, realise
from .smallgraphs import all_graphs

__all__ = [
    "CompiledMachine",
    "compile_formula",
    "decompile_details",
    "DecompileResult",
    "ModelSuite",
    "default_decompile_suite",
    "CompileError",
    "DecompileError",
    "DecompileBudgetError",
    "MAX_STATES",
    "MAX_MESSAGES",
    "MAX_VISITS",
    "SUITE_NUMBERINGS",
]

U = 2

# decompiler budgets: distinct states per round, distinct messages per round,
# enumeration visits per call
MAX_STATES = 512
MAX_MESSAGES = 256
MAX_VISITS = 2_000_000

# sampled numberings per graph of the default decompile suite, beside the
# consistent one
SUITE_NUMBERINGS = 3


class CompileError(PortlogicError, ValueError):
    pass


class DecompileError(PortlogicError, ValueError):
    pass


class DecompileBudgetError(DecompileError):
    """State/message/term enumeration exceeded its budget."""


# ---------------------------------------------------------------------------
# Formula -> machine
# ---------------------------------------------------------------------------


def _connective(node: tuple, g) -> int:
    """Trit of an "&" or "!" node from the trits ``g`` of the closure."""
    if node[0] == "&":
        a, b = g[node[1]], g[node[2]]
        return U if U in (a, b) else (1 if a == 1 and b == 1 else 0)
    a = g[node[1]]
    return U if a == U else 1 - a


class CompiledMachine(Machine):
    """Truth-assignment machine evaluating one formula on ported graphs.

    ``closure`` is the formula's subformulas sorted by modal depth, so
    children precede parents.  States are trit tuples over it (0, 1, or U);
    stopping states are the plain ints 0 and 1.  The message on an outgoing
    index the signature shows (a port, or "*" when the outgoing port is
    hidden) is the trit restriction to the closure positions of the targets
    of the diamonds carrying that index, tagged with the port for the
    variants whose diamonds see it; the null message acts as the all-zero
    restriction tagged with port 1.

    Its ``run_memo`` is an instance dict, so the executor's memo (see
    ``machines``) answers every run of the instance, and the decompiler's
    transitions through ``machines.next_state``, for as long as the instance
    lives; the machine keeps no table of its own.
    """

    def __init__(self, formula: Formula, sig: Signature):
        problems = validate_signature(formula, sig)
        if problems:
            raise CompileError("; ".join(problems))
        self.sig = sig
        self.delta_max = sig.delta
        self.closure = tuple(sorted(subformulas(formula), key=lambda f: f.md))
        index = {id(f): k for k, f in enumerate(self.closure)}
        self._root = index[id(formula)]
        targets: dict[int | str, set[int]] = {j: set() for j in sig.sides[1]}
        for f in self.closure:
            if isinstance(f, Dia):
                targets[f.alpha[1]].add(index[id(f.sub)])
        self._domains = {j: tuple(sorted(ks)) for j, ks in targets.items()}
        self._nodes = []
        for f in self.closure:
            if isinstance(f, Prop):
                self._nodes.append(("q", f.index))
            elif isinstance(f, And):
                self._nodes.append(("&", index[id(f.left)], index[id(f.right)]))
            elif isinstance(f, Not):
                self._nodes.append(("!", index[id(f.sub)]))
            else:
                sub = index[id(f.sub)]
                pos = self._domains[f.alpha[1]].index(sub)
                self._nodes.append(("<>", f.alpha, f.grade, sub, pos))
        row = (sig.variant, any(isinstance(f, Dia) and f.grade > 1 for f in self.closure))
        self.tag = next(t for t in CLASSES.values() if (t.variant, t.graded) == row)
        self.name = f"compiled[{sig.variant}]"
        self.run_memo = {}

    def init_state(self, degree: int):
        g = [U] * len(self._nodes)
        for k, node in enumerate(self._nodes):
            if node[0] == "q":
                g[k] = 1 if node[1] == degree else 0
            elif node[0] != "<>":
                g[k] = _connective(node, g)
        return tuple(g)

    def emit(self, state, port: int):
        if self.sig.out_visible:
            return ("f", port, tuple(state[k] for k in self._domains[port]))
        return ("f", tuple(state[k] for k in self._domains[STAR]))

    def transition(self, state, inbox: tuple):
        if state[self._root] != U:
            return state[self._root]
        g = list(state)
        in_visible, out_visible = self.sig.in_visible, self.sig.out_visible
        for k, node in enumerate(self._nodes):
            if g[k] != U:
                continue
            if node[0] != "<>":
                g[k] = _connective(node, g)
                continue
            _, (i, j), grade, sub, pos = node
            if state[sub] == U:
                continue
            # The payload is a message's last field.  A visible outgoing
            # port rides in front of it as the port tag, and the tag must
            # match before pos indexes that port's payload.
            hits = sum(
                1
                for m in ((inbox[i - 1],) if in_visible else inbox)
                if m != NO_MESSAGE and (not out_visible or m[1] == j) and m[-1][pos] == 1
            )
            g[k] = 1 if hits >= grade else 0
        return tuple(g)

    def is_output(self, state) -> bool:
        return isinstance(state, int)


def compile_formula(formula: Formula, sig: Signature) -> CompiledMachine:
    """Machine that outputs the formula's truth value in exactly md+1 rounds."""
    return CompiledMachine(formula, sig)


# ---------------------------------------------------------------------------
# Machine -> formula
# ---------------------------------------------------------------------------


class ModelSuite:
    """Ported-graph models as their disjoint union, with truth tables over it.

    ``union, offsets`` is ``logic.disjoint_union(models)``, or the 0-world
    union for no graphs.  Union world w is bit w of a truth table, so a table
    is a single int and Boolean combination of tables is int arithmetic.  For
    the lifetime of the suite, ``functools.cache`` keeps each degree's table,
    each alpha's (world bit, successor mask) pairs for the worlds with a
    successor, and each diamond's table per (alpha, grade, sub table).
    """

    def __init__(self, ported: Sequence[PortedGraph], variant: str, delta: int):
        self.ported = list(ported)
        self.models = [kripke_model(pg, variant, delta) for pg in self.ported]
        empty = KripkeModel(0, delta, variant, {}, {}), []
        self.union, self.offsets = disjoint_union(self.models) if self.models else empty
        self.sig = self.union.signature()
        self.full_mask = (1 << self.union.size) - 1
        self.degree_mask = cache(self.degree_mask)
        self._successor_masks = cache(self._successor_masks)
        self.diamond_mask = cache(self.diamond_mask)

    def degree_mask(self, degree: int) -> int:
        """Degree 0 has no proposition: its worlds are outside the other degrees'
        tables, which are disjoint, so their sum is their union."""
        if degree:
            return sum(1 << w for w in self.union.sat_prop(degree))
        others = sum(self.degree_mask(d) for d in range(1, self.sig.delta + 1))
        return self.full_mask & ~others

    def _successor_masks(self, alpha: tuple) -> list[tuple[int, int]]:
        """(world bit, successor mask) of each world with an alpha-successor."""
        succ = self.union.successors.get(alpha, {})
        return [(1 << v, sum(1 << w for w in ws)) for v, ws in succ.items()]

    def diamond_mask(self, alpha: tuple, grade: int, sub_mask: int) -> int:
        out = 0
        for bit, succ in self._successor_masks(alpha):
            if (succ & sub_mask).bit_count() >= grade:
                out |= bit
        return out

    def table(self, formula: Formula) -> int:
        """Truth table of ``formula`` over all suite worlds.

        A formula that breaks the suite's signature raises
        ``SignatureMismatchError`` with the problems ``eval_formula`` lists.
        """
        problems: list[str] = []
        memo: dict[int, int] = {}
        for node in subformulas(formula):
            problems += _node_problems(node, self.sig)
            if problems:
                continue
            if isinstance(node, Prop):
                mask = self.degree_mask(node.index)
            elif isinstance(node, And):
                mask = memo[id(node.left)] & memo[id(node.right)]
            elif isinstance(node, Not):
                mask = self.full_mask & ~memo[id(node.sub)]
            else:
                mask = self.diamond_mask(node.alpha, node.grade, memo[id(node.sub)])
            memo[id(node)] = mask
        if problems:
            raise SignatureMismatchError("; ".join(problems))
        return memo[id(formula)]


def default_decompile_suite(delta: int, node_bound: int = 5) -> list[PortedGraph]:
    """Enumeration suite: all graphs up to the bound, sampled numberings."""
    out = []
    for gi, g in enumerate(all_graphs(node_bound, max_degree=delta)):
        for k in range(SUITE_NUMBERINGS):
            out.append(PortedGraph(g, random_port_numbering(g, 101 * gi + k)))
        out.append(PortedGraph(g, consistent_port_numbering(g, gi)))
    return out


@dataclass
class DecompileResult:
    formula: Formula
    table: int


class _Entry(NamedTuple):
    """A state reachable after some round, its state formula and its table."""

    state: object
    formula: Formula | None
    table: int


def _disjoin(pairs: list[tuple[Formula, int]]) -> tuple[Formula, int]:
    """Disjunction of (formula, table) pairs, with the union of their tables."""
    table = 0
    for _, mask in pairs:
        table |= mask
    return disj_all([f for f, _ in pairs]), table


class _Decompiler:
    def __init__(self, machine: Machine, horizon: int, suite: ModelSuite):
        self.machine = machine
        self.sig = suite.sig
        self.delta = self.sig.delta
        self.horizon = horizon
        self.suite = suite
        self.visits = 0
        # (modal depth, suite table) -> the first formula met with both
        self.interned: dict[tuple[int, int], Formula] = {}
        # message encodings, for this call only
        self.code = cache(canon)

    def _charge(self):
        self.visits += 1
        if self.visits > MAX_VISITS:
            raise DecompileBudgetError(f"transition enumeration exceeded {MAX_VISITS} visits")

    def _intern(self, formula: Formula, table: int) -> tuple[Formula, int]:
        """Semantic deduplication: one formula per (modal depth, truth table),
        the first one met.  ``_level`` looks its key up before it builds a
        formula, so a disjunction whose key is taken is never built."""
        return self.interned.setdefault((formula.md, table), formula), table

    def _level(self, terms: list[tuple], t: int) -> list[_Entry]:
        """One entry per state after round t: the disjunction of its (state,
        conjuncts, table)s, built only when its (modal depth, table) is new.
        After the last round only a state that outputs 1 gets a formula, the
        only kind ``build`` keeps; the others carry None."""
        machine = self.machine
        by_state: dict[object, list] = {}
        for state, conjuncts, table in terms:
            group = by_state.setdefault(state, [[], 0])
            group[0].append(conjuncts)
            group[1] |= table
        level = []
        for state, (parts, table) in by_state.items():
            formula = None
            if t < self.horizon or machine.is_output(state) and machine.output_value(state) == 1:
                md = max(f.md for conjuncts in parts for f in conjuncts)
                formula = self.interned.get((md, table))
                if formula is None:
                    formula, _ = self._intern(disj_all([conj_all(p) for p in parts]), table)
            level.append(_Entry(state, formula, table))
        return level

    def _initial_level(self) -> list[_Entry]:
        no_degree = conj_all([neg(prop(i)) for i in range(1, self.delta + 1)])
        return self._level([
            (self.machine.init_state(d), [prop(d) if d else no_degree], self.suite.degree_mask(d))
            for d in range(self.delta + 1)
        ], 0)

    def _messages(self, live: list[_Entry]) -> dict[bytes, tuple]:
        """Distinct non-null messages sent from live states: code -> (message,
        senders by shown outgoing index).  A stopped state sends nothing."""
        machine = self.machine
        pool: dict[bytes, tuple] = {}
        for entry in live:
            if machine.is_output(entry.state):
                continue
            for j in self.sig.sides[1]:
                m = message_on(machine, entry.state, 1 if j == STAR else j)
                if m != NO_MESSAGE:
                    pool.setdefault(self.code(m), (m, {}))[1].setdefault(j, []).append(entry)
        if len(pool) > MAX_MESSAGES:
            raise DecompileBudgetError(
                f"{len(pool)} distinct messages exceed the budget {MAX_MESSAGES}"
            )
        return pool

    def _theta(self, senders: list[_Entry]) -> tuple[Formula, int]:
        return self._intern(*_disjoin([(e.formula, e.table) for e in senders]))

    def _chi(self, alpha: tuple, grade: int, theta: tuple[Formula, int]) -> tuple[Formula, int]:
        formula, table = theta
        mask = self.suite.diamond_mask(alpha, grade, table)
        return self._intern(dia(alpha, formula, grade), mask)

    # -- inbox slots --------------------------------------------------------
    # A slot maps the number of messages placed so far to its options:
    # (pin formula, pin table, messages the option places).

    def _slots(self, pool: dict) -> list:
        if self.sig.in_visible:
            return [self._port_slot(i, pool) for i in self.sig.sides[0]]
        grades = {}
        for code, (_, senders) in pool.items():
            for j, group in sorted(senders.items()):
                theta = self._theta(group)
                grades[code, j] = [
                    self._chi((STAR, j), k, theta) for k in range(1, self.delta + 1)
                ]
        return [self._count_slot(pool[code][0], grades[code, j]) for code, j in sorted(grades)]

    def _port_slot(self, i: int, pool: dict):
        """Incoming port i: the null pin, then one pin per message code."""
        pins = {
            code: self._intern(*_disjoin([
                self._chi((i, j), 1, self._theta(group))
                for j, group in sorted(senders.items())
            ]))
            for code, (_, senders) in pool.items()
        }
        null_table = self.suite.full_mask
        for _, mask in pins.values():
            null_table &= ~mask
        null_formula, _ = self._intern(conj_all([neg(f) for f, _ in pins.values()]), null_table)
        options = [(null_formula, null_table, (NO_MESSAGE,))] + [
            (*pins[code], (pool[code][0],)) for code in sorted(pins)
        ]
        return lambda placed: options

    def _count_slot(self, message, grades: list[tuple[Formula, int]]):
        """One (message, outgoing index) behind a hidden incoming port: place
        it 0..(delta - placed) times, pinned exactly by the graded at-least
        diamonds ``grades``.  Each count's pin is built and interned once,
        when the enumeration first asks for it: interning keeps the first
        formula met per table, so this order picks the formulas that get
        printed."""
        full = self.suite.full_mask

        @cache
        def pin(count: int) -> tuple[Formula, int]:
            if count == 0:
                return self._intern(neg(grades[0][0]), full & ~grades[0][1])
            if count == self.delta:
                return self._intern(*grades[-1])
            (lo, lo_table), (hi, hi_table) = grades[count - 1 : count + 1]
            return self._intern(conj(lo, neg(hi)), lo_table & ~hi_table)

        def options(placed: int):
            for count in range(self.delta - placed + 1):
                yield *pin(count), (message,) * count

        return options

    def _enumerate(self, entry: _Entry, slots: list, terms: list):
        """One (next state, term, table) per inbox the slots leave satisfiable.
        A stopped entry is kept as it is, as ``run`` keeps a stopped node."""
        machine = self.machine
        if machine.is_output(entry.state):
            terms.append((entry.state, [entry.formula], entry.table))
            return

        def recurse(idx: int, table: int, parts: list[Formula], placed: tuple):
            self._charge()
            if idx == len(slots):
                realised = realise(machine, placed, self.code)
                terms.append((next_state(machine, entry.state, realised), parts, table))
                return
            for formula, pin_table, messages in slots[idx](len(placed)):
                narrowed = table & pin_table
                if narrowed:
                    recurse(idx + 1, narrowed, parts + [formula], placed + messages)

        recurse(0, entry.table, [entry.formula], ())

    def _level_step(self, previous: list[_Entry], t: int) -> list[_Entry]:
        live = [e for e in previous if e.table]
        slots = self._slots(self._messages(live))
        terms: list[tuple] = []
        for entry in live:
            self._enumerate(entry, slots, terms)
        level = self._level(terms, t)
        if len(level) > MAX_STATES:
            raise DecompileBudgetError(
                f"{len(level)} states at round {t} exceed the budget {MAX_STATES}"
            )
        return level

    def build(self) -> DecompileResult:
        level = self._initial_level()
        for t in range(1, self.horizon + 1):
            level = self._level_step(level, t)
        machine = self.machine
        positive: list[tuple[Formula, int]] = []
        for entry in level:
            if not entry.table:
                continue
            if not machine.is_output(entry.state):
                raise DecompileError(
                    f"machine still running after {self.horizon} rounds on the suite"
                )
            value = machine.output_value(entry.state)
            if value not in (0, 1):
                raise DecompileError("decompilation needs a binary-output machine")
            if value == 1:
                positive.append((entry.formula, entry.table))
        formula, table = _disjoin(positive)
        return DecompileResult(formula, table)


def decompile_details(
    machine: Machine,
    delta: int,
    horizon: int,
    variant: str,
    suite: ModelSuite | None = None,
    node_bound: int = 5,
) -> DecompileResult:
    """Reverse compilation, with the formula's table over the suite it was built on.

    The formula's modal depth equals the horizon whenever the machine's
    behaviour at the horizon actually depends on the last exchange.
    """
    if delta < 1:
        raise DecompileError("delta must be at least 1")
    if horizon < 0:
        raise DecompileError("horizon must be at least 0")
    if delta > machine.delta_max:
        raise DecompileError("delta exceeds the machine's declared bound")
    sig, seen = Signature(delta, variant), Signature(delta, machine.tag.variant)
    if seen.in_visible > sig.in_visible or seen.out_visible > sig.out_visible:
        raise DecompileError(f"variant {variant} hides a port that class {machine.tag.code} sees")
    if suite is None:
        suite = ModelSuite(default_decompile_suite(delta, node_bound), variant, delta)
    if suite.sig != sig:
        raise DecompileError("suite was built for a different signature")
    if not suite.union.size:
        raise DecompileError("the decompile suite has no worlds")
    worker = _Decompiler(machine, horizon, suite)
    return worker.build()

