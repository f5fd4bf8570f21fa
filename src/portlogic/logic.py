"""Modal formulas, their concrete syntax, and Kripke models of ported graphs.

Formulas range over degree propositions q1..qD and diamonds indexed by port
pairs.  A signature variant is two visibility bits: does a diamond index see
the incoming port, and does it see the outgoing port?  The public API names
the variants by the codes "++", "-+", "+-", "--" (incoming bit first), and a
``Signature`` is the one reading of a code: it derives the two bits, the
index values each side may take, and ``project``, which maps a port pair to
the index the variant sees, writing "*" for a hidden port.  Every model
shares one ``Signature`` per (delta, variant).  A diamond may carry a grade
k >= 1 (count at least k successors); grade 1 is the plain diamond, and
grades above 1 are only legal when the incoming port is hidden, since a
visible one pins down at most one successor.

Concrete grammar (whitespace insignificant)::

    formula := or
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | dia unary | atom
    dia     := "<" idx "," idx (";" nat)? ">"
    idx     := nat | "*"
    atom    := "q" nat | "T" | "F" | "(" formula ")"

Disjunction, T and F are sugar eliminated at parse time; F is the fixed
contradiction (q1 & !q1) and T its negation.  Negations, diamonds and
parentheses nest at most ``MAX_NESTING`` levels deep.  Nodes are
hash-consed through one ``functools.cache`` per node class, so structurally
equal formulas are the same object and big shared structures (such as
decompiled formulas) stay compact; the caches never shrink.  Printing
expands that sharing into a tree, so ``format_formula`` refuses formulas
of more than ``MAX_FORMAT_SIZE`` tree nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable

from .graphs import PortedGraph, PortlogicError

__all__ = [
    "Formula",
    "Prop",
    "And",
    "Not",
    "Dia",
    "prop",
    "conj",
    "neg",
    "dia",
    "disj",
    "true_",
    "false_",
    "conj_all",
    "disj_all",
    "parse",
    "format_formula",
    "FormulaError",
    "FormulaSyntaxError",
    "Signature",
    "SignatureMismatchError",
    "SignatureError",
    "validate_signature",
    "VARIANTS",
    "alphas_for",
    "KripkeModel",
    "kripke_model",
    "disjoint_union",
    "eval_formula",
]

STAR = "*"
VARIANTS = ("++", "-+", "+-", "--")


class FormulaError(PortlogicError, ValueError):
    """A formula node with a bad proposition index, grade or modality index."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureMismatchError(PortlogicError, ValueError):
    pass


class SignatureError(PortlogicError, ValueError):
    """A signature with an unknown variant code or a delta below 1."""


class Formula:
    """Base class; instances are interned, so == is identity.  ``md`` is the
    modal depth (grades do not add depth), ``size`` the syntax-tree size."""

    __slots__ = ("md", "size")

    def __repr__(self):
        if self.size > MAX_FORMAT_SIZE:
            return (
                f"Formula(<modal depth {self.md}, {len(subformulas(self))} "
                f"distinct nodes, tree size {self.size}>)"
            )
        return f"Formula({format_formula(self)})"


class Prop(Formula):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self.md = 0
        self.size = 1


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self.md = max(left.md, right.md)
        self.size = left.size + right.size + 1


class Not(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        self.sub = sub
        self.md = sub.md
        self.size = sub.size + 1


class Dia(Formula):
    __slots__ = ("alpha", "grade", "sub")

    def __init__(self, alpha: tuple, grade: int, sub: Formula):
        self.alpha = alpha
        self.grade = grade
        self.sub = sub
        self.md = sub.md + 1
        self.size = sub.size + 1


# One cache per node class.  Children compare by identity (Formula has no __eq__);
# calls are positional, since a keyword call gets its own key and a second node.
_prop, _conj, _neg, _dia = cache(Prop), cache(And), cache(Not), cache(Dia)


def prop(index: int) -> Formula:
    if index < 1:
        raise FormulaError("proposition indices start at 1")
    return _prop(index)


def conj(left: Formula, right: Formula) -> Formula:
    return _conj(left, right)


def neg(sub: Formula) -> Formula:
    return _neg(sub)


def dia(alpha: tuple, sub: Formula, grade: int = 1) -> Formula:
    if grade < 1:
        raise FormulaError("grades start at 1")
    if len(alpha) != 2 or not all(x == STAR or isinstance(x, int) for x in alpha):
        raise FormulaError(f"bad modality index {alpha!r}")
    return _dia(tuple(alpha), grade, sub)


def disj(left: Formula, right: Formula) -> Formula:
    return neg(conj(neg(left), neg(right)))


def false_() -> Formula:
    return conj(prop(1), neg(prop(1)))


def true_() -> Formula:
    return neg(false_())


def _fold_balanced(items: list[Formula], combine) -> Formula:
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return combine(_fold_balanced(items[:mid], combine), _fold_balanced(items[mid:], combine))


def conj_all(items: Iterable[Formula]) -> Formula:
    items = list(items)
    if not items:
        return true_()
    return _fold_balanced(items, conj)


def disj_all(items: Iterable[Formula]) -> Formula:
    items = list(items)
    if not items:
        return false_()
    return _fold_balanced(items, disj)


def subformulas(formula: Formula) -> list[Formula]:
    """Distinct subformulas in children-first order (iterative postorder)."""
    out: list[Formula] = []
    seen: set[int] = set()
    stack: list[tuple[Formula, bool]] = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            out.append(node)
            continue
        stack.append((node, True))
        if isinstance(node, And):
            stack.append((node.right, False))
            stack.append((node.left, False))
        elif isinstance(node, Not):
            stack.append((node.sub, False))
        elif isinstance(node, Dia):
            stack.append((node.sub, False))
    return out


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


# Each nesting level costs the recursive-descent parser at most four Python
# frames (a parenthesis passes through atom, formula, and_ and unary), so
# this bound keeps parsing well inside the interpreter's default recursion
# limit of 1000.
MAX_NESTING = 200

# The printed text of a formula is its syntax tree, a few characters per
# tree node, however much of the tree hash-consing shares.
MAX_FORMAT_SIZE = 1 << 20


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise FormulaSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def descend(self):
        """Open one nesting level: a "!", a diamond or a parenthesis."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"formula nested more than {MAX_NESTING} levels deep")

    def take(self, char: str):
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start : self.pos])

    def formula(self) -> Formula:
        node = self.and_()
        while self.peek() == "|":
            self.take("|")
            node = disj(node, self.and_())
        return node

    def and_(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            self.take("&")
            node = conj(node, self.unary())
        return node

    def unary(self) -> Formula:
        ch = self.peek()
        if ch not in ("!", "<"):
            return self.atom()
        self.descend()
        if ch == "!":
            self.take("!")
            node = neg(self.unary())
        else:
            alpha, grade = self.dia()
            node = dia(alpha, self.unary(), grade)
        self.depth -= 1
        return node

    def dia(self) -> tuple[tuple, int]:
        self.take("<")
        a = self.idx()
        self.take(",")
        b = self.idx()
        grade = 1
        if self.peek() == ";":
            self.take(";")
            grade = self.nat()
            if grade < 1:
                self.error("grade must be at least 1")
        self.take(">")
        return (a, b), grade

    def idx(self):
        if self.peek() == "*":
            self.take("*")
            return STAR
        return self.nat()

    def atom(self) -> Formula:
        ch = self.peek()
        if ch == "q":
            self.take("q")
            index = self.nat()
            if index < 1:
                self.error("proposition index must be at least 1")
            return prop(index)
        if ch == "T":
            self.take("T")
            return true_()
        if ch == "F":
            self.take("F")
            return false_()
        if ch == "(":
            self.descend()
            self.take("(")
            node = self.formula()
            self.depth -= 1
            self.take(")")
            return node
        self.error("expected an atom")


def parse(text: str) -> Formula:
    parser = _Parser(text)
    node = parser.formula()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return node


def format_formula(formula: Formula) -> str:
    """Render a formula as text in the grammar above.

    ``parse(format_formula(f))`` is ``f`` whenever ``f`` nests at most
    ``MAX_NESTING`` levels deep; deeper formulas (such as a conjunction
    chain of 300) print, but ``parse`` refuses the text.  Rendering walks
    the distinct subformulas children first, without recursion, so any
    depth prints.  Raises ``FormulaError`` for a formula of more than
    ``MAX_FORMAT_SIZE`` tree nodes (``formula.size``) instead of building
    its text.
    """
    if formula.size > MAX_FORMAT_SIZE:
        raise FormulaError(
            f"formula has {formula.size} tree nodes, more than the "
            f"{MAX_FORMAT_SIZE} that can be printed"
        )
    text: dict[int, str] = {}
    for node in subformulas(formula):
        if isinstance(node, Prop):
            rendered = f"q{node.index}"
        elif isinstance(node, And):
            rendered = f"({text[id(node.left)]} & {text[id(node.right)]})"
        elif isinstance(node, Not):
            rendered = "!" + text[id(node.sub)]
        else:
            a, b = node.alpha
            grade = f";{node.grade}" if node.grade > 1 else ""
            rendered = f"<{a},{b}{grade}>" + text[id(node.sub)]
        text[id(node)] = rendered
    return text[id(formula)]


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Degree bound plus a variant code, one of ``VARIANTS``: the one reading
    of a code.

    ``in_visible`` and ``out_visible`` say whether a diamond index sees the
    incoming and the outgoing port; ``sides`` holds, for the incoming and
    then the outgoing index, the values it may take: ``range(1, delta + 1)``
    for a visible port and ``(STAR,)`` for a hidden one.  All three are
    derived once, at construction, and checking an index against them takes
    constant time whatever the delta.
    """

    delta: int
    variant: str
    in_visible: bool = field(init=False, repr=False, compare=False)
    out_visible: bool = field(init=False, repr=False, compare=False)
    sides: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SignatureError(f"unknown variant {self.variant!r}")
        if self.delta < 1:
            raise SignatureError("delta must be at least 1")
        in_visible, out_visible = (bit == "+" for bit in self.variant)
        ports = range(1, self.delta + 1)
        object.__setattr__(self, "in_visible", in_visible)
        object.__setattr__(self, "out_visible", out_visible)
        object.__setattr__(
            self, "sides", (ports if in_visible else (STAR,), ports if out_visible else (STAR,))
        )

    @property
    def allows_grading(self) -> bool:
        # Fixing the incoming port pins down at most one successor, so graded
        # diamonds only make sense when the incoming index is unconstrained.
        return not self.in_visible

    def project(self, i, j) -> tuple:
        """Index under which this variant sees the port pair (i, j)."""
        return (i if self.in_visible else STAR, j if self.out_visible else STAR)


# One Signature per (delta, variant), shared by every model as formula nodes
# are hash-consed; called positionally, like the node caches.
_signature = cache(Signature)


def alphas_for(variant: str, delta: int) -> list[tuple]:
    """Every index legal for (variant, delta), incoming index first."""
    return list(itertools.product(*_signature(delta, variant).sides))


def _node_problems(node: Formula, sig: Signature) -> list[str]:
    """Signature violations of ``node`` itself, its subformulas aside.

    This is the one place that states the signature rules;
    ``validate_signature`` and ``eval_formula`` both apply it node by node.
    """
    problems: list[str] = []
    if isinstance(node, Prop):
        if node.index > sig.delta:
            problems.append(f"proposition q{node.index} exceeds delta {sig.delta}")
    elif isinstance(node, Dia):
        # STAR is matched first: range membership is constant time for an
        # int, but a linear scan for STAR
        if not all(
            side == (STAR,) if x == STAR else x in side
            for x, side in zip(node.alpha, sig.sides)
        ):
            problems.append(
                f"modality index {node.alpha} not legal for variant {sig.variant}"
                f" with delta {sig.delta}"
            )
        if node.grade > 1 and not sig.allows_grading:
            problems.append(f"grade {node.grade} requires a graded variant (-+ or --)")
    return problems


def validate_signature(formula: Formula, sig: Signature) -> list[str]:
    """All signature violations of ``formula`` (empty list means ok)."""
    return [problem for node in subformulas(formula) for problem in _node_problems(node, sig)]


# ---------------------------------------------------------------------------
# Kripke models of ported graphs
# ---------------------------------------------------------------------------


class KripkeModel:
    """Worlds with indexed accessibility relations and a degree valuation.

    The constructor takes each relation as (v, w) pairs, w being an
    alpha-successor of v, and keeps it once: ``successors`` maps each index
    some pair carries to ``{world: successors}`` for the worlds with any
    successor under it, worlds ascending and each successor tuple sorted and
    distinct.  ``valuation`` maps each proposition some world satisfies to
    those worlds.  An index or proposition nothing carries has no entry: it
    has no successors and no worlds, whatever the signature allows, so a
    model's size follows its pairs and worlds, not delta.  Each world's
    valuation profile is computed once, here, and the model's ``Signature``
    is looked up here too, so an unknown variant or a delta below 1 is
    refused at construction.  Immutable by convention.
    """

    def __init__(self, size: int, delta: int, variant: str, relations: dict, valuation: dict):
        self._signature = _signature(delta, variant)
        self.size = size
        self.delta = delta
        self.variant = variant
        self.successors: dict[tuple, dict[int, tuple[int, ...]]] = {}
        for alpha, pairs in relations.items():
            if pairs:
                succ: dict[int, list[int]] = {}
                for v, w in sorted(set(pairs)):
                    succ.setdefault(v, []).append(w)
                self.successors[alpha] = {v: tuple(ws) for v, ws in succ.items()}
        self.valuation = {i: frozenset(ws) for i, ws in valuation.items() if ws}
        self._profiles = tuple(
            frozenset(i for i, ws in self.valuation.items() if world in ws)
            for world in range(size)
        )

    def sat_prop(self, index: int) -> frozenset[int]:
        return self.valuation.get(index, frozenset())

    def signature(self) -> Signature:
        """The ``Signature`` every model of this (delta, variant) shares."""
        return self._signature

    def valuation_profile(self, world: int) -> frozenset[int]:
        """Indices of the propositions true at ``world`` (0 <= world < size)."""
        return self._profiles[world]


def disjoint_union(models: Iterable[KripkeModel]) -> tuple[KripkeModel, list[int]]:
    """The models side by side in one model, and the offset of each: world w
    of the k-th model is world ``offsets[k] + w`` of the union.  A single
    model is its own union."""
    models = list(models)
    signatures = {(m.delta, m.variant) for m in models}
    if len(signatures) != 1:
        raise SignatureMismatchError("a union needs one or more models of one delta and variant")
    if len(models) == 1:
        return models[0], [0]
    ((delta, variant),) = signatures
    *offsets, size = itertools.accumulate((m.size for m in models), initial=0)
    relations: dict[tuple, list] = {}
    valuation: dict[int, list] = {}
    for m, offset in zip(models, offsets):
        for alpha, succ in m.successors.items():
            relations.setdefault(alpha, []).extend(
                (v + offset, w + offset) for v, ws in succ.items() for w in ws
            )
        for i, ws in m.valuation.items():
            valuation.setdefault(i, []).extend(w + offset for w in ws)
    return KripkeModel(size, delta, variant, relations, valuation), offsets


def kripke_model(pg: PortedGraph, variant: str, delta: int | None = None) -> KripkeModel:
    """Model of (G, p): worlds are nodes, relations encode the numbering.

    The base relation for (i, j) holds (u, v) when v's port j feeds u's
    port i; variants with a star take unions over the hidden index.  The
    valuation marks node degrees.
    """
    g = pg.graph
    sig = _signature(max(1, g.max_degree()) if delta is None else delta, variant)
    if g.max_degree() > sig.delta:
        raise SignatureMismatchError("graph degree exceeds requested delta")
    relations: dict[tuple, set] = {}
    for (v, j), (u, i) in pg.numbering.items():
        relations.setdefault(sig.project(i, j), set()).add((u, v))
    valuation: dict[int, list] = {}
    for v in range(g.n):
        if g.degree(v):
            valuation.setdefault(g.degree(v), []).append(v)
    return KripkeModel(g.n, sig.delta, variant, relations, valuation)


def eval_formula(model: KripkeModel, formula: Formula) -> frozenset[int]:
    """Worlds satisfying ``formula``, computed bottom-up over the DAG.

    One postorder walk checks each distinct node against the model's
    signature and evaluates it.  Once a node breaks the signature, the walk
    only collects problems; ``SignatureMismatchError`` lists them all, in
    the order ``validate_signature`` gives.
    """
    sig = model.signature()
    worlds = frozenset(range(model.size))
    problems: list[str] = []
    # memo doubles as the walk's "seen" set; once a problem is found the
    # walk stores None instead of evaluating
    memo: dict[int, frozenset[int] | None] = {}
    stack: list[tuple[Formula, bool]] = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        kind = type(node)
        if not expanded:
            stack.append((node, True))
            if kind is And:
                stack.append((node.right, False))
                stack.append((node.left, False))
            elif kind is not Prop:
                stack.append((node.sub, False))
            continue
        if kind is Prop or kind is Dia:
            problems += _node_problems(node, sig)
        if problems:
            memo[key] = None
        elif kind is Prop:
            memo[key] = model.sat_prop(node.index)
        elif kind is And:
            memo[key] = memo[id(node.left)] & memo[id(node.right)]
        elif kind is Not:
            memo[key] = worlds - memo[id(node.sub)]
        else:
            target = memo[id(node.sub)]
            succ = model.successors.get(node.alpha, {}).items()
            if node.grade == 1:
                memo[key] = frozenset(v for v, ws in succ if not target.isdisjoint(ws))
            else:
                memo[key] = frozenset(
                    v for v, ws in succ if sum(w in target for w in ws) >= node.grade
                )
    if problems:
        raise SignatureMismatchError("; ".join(problems))
    return memo[id(formula)]
