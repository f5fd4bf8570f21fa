"""Formula syntax, signatures, Kripke models, and the evaluator."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import cached_model, model_to_json, naive_holds, random_formula, sweep
from portlogic.bisim import coarsest_graded_bisimulation
from portlogic.compiler import ModelSuite
from portlogic.graphs import (
    PortNumbering,
    PortlogicError,
    PortedGraph,
    consistent_port_numbering,
    cycle,
    path,
    random_port_numbering,
    star,
)
from portlogic.logic import (
    VARIANTS,
    And,
    Dia,
    FormulaError,
    FormulaSyntaxError,
    KripkeModel,
    MAX_FORMAT_SIZE,
    MAX_NESTING,
    Not,
    Signature,
    SignatureError,
    SignatureMismatchError,
    STAR,
    alphas_for,
    conj,
    dia,
    disj,
    disjoint_union,
    eval_formula,
    false_,
    format_formula,
    kripke_model,
    parse,
    neg,
    prop,
    subformulas,
    true_,
    validate_signature,
    variant_of,
)
from portlogic.smallgraphs import all_graphs


def test_parse_atoms_and_diamonds():
    assert parse("q1") is prop(1)
    f = parse("<*,*;3> q1")
    assert isinstance(f, Dia) and f.alpha == (STAR, STAR) and f.grade == 3
    assert f.sub is prop(1)
    g = parse("!(q1 & <2,1> q2)")
    assert isinstance(g, Not) and isinstance(g.sub, And)
    inner = g.sub.right
    assert isinstance(inner, Dia) and inner.alpha == (2, 1) and inner.grade == 1


def test_parse_sugar():
    assert parse("F") is false_()
    assert parse("T") is true_()
    assert parse("q1 | q2") is disj(prop(1), prop(2))
    assert parse("q1 & q2 & q3") is conj(conj(prop(1), prop(2)), prop(3))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse("q1 & ")
    assert info.value.position == 5
    with pytest.raises(FormulaSyntaxError):
        parse("<1 2>q1")
    with pytest.raises(FormulaSyntaxError):
        parse("q1 q2")
    with pytest.raises(FormulaSyntaxError):
        parse("<1,1;0>q1")


def test_modal_depth():
    assert parse("q1").md == 0
    assert parse("<*,*>q1").md == 1
    assert parse("<1,1><2,2>q1 & q2").md == 2
    assert parse("<*,*;4>q1").md == 1  # grades do not add depth


def test_hash_consing_gives_one_node_whatever_the_call_shape():
    f = prop(2)
    assert dia([1, 2], f) is dia((1, 2), f, 1) is dia((1, 2), f, grade=1)
    assert dia(alpha=(1, 2), sub=f) is dia((1, 2), f)
    assert conj(prop(1), f) is conj(prop(1), f) is conj(left=prop(1), right=f)
    assert neg(f) is neg(sub=f)
    assert prop(1) is parse("q1") is prop(index=1)


@given(st.integers(min_value=0, max_value=10_000))
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    variant = rng.choice(["++", "-+", "+-", "--"])
    sig = Signature(rng.randint(1, 3), variant)
    f = random_formula(rng, sig)
    assert parse(format_formula(f)) is f


@pytest.mark.parametrize("opener, closer", [("!", ""), ("<*,*>", ""), ("(", ")")])
def test_parse_bounds_nesting(opener, closer):
    f = parse(opener * 200 + "q1" + closer * 200)
    assert f.md == (200 if opener.startswith("<") else 0)
    assert f.size == (1 if opener == "(" else 201)
    with pytest.raises(FormulaSyntaxError, match="nested more than"):
        parse(opener * (MAX_NESTING + 1) + "q1" + closer * (MAX_NESTING + 1))
    # siblings each open and close one level, so the depth never passes 1
    one = parse(opener + "q1" + closer)
    expected = one
    for _ in range(MAX_NESTING):
        expected = conj(expected, one)
    assert parse(" & ".join([opener + "q1" + closer] * (MAX_NESTING + 1))) is expected


def test_format_formula_refuses_trees_above_max_format_size():
    # conjoining a formula with itself doubles its tree; negated, the chain
    # of 2**20 - 1 nodes is a tree of exactly MAX_FORMAT_SIZE nodes, which prints
    f = prop(1)
    while 2 * f.size + 1 < MAX_FORMAT_SIZE:
        f = conj(f, f)
    f = neg(f)
    assert f.size == MAX_FORMAT_SIZE
    text = format_formula(f)
    assert text.startswith("!(") and text.count("q1") == MAX_FORMAT_SIZE // 2
    assert repr(f) == f"Formula({text})"
    with pytest.raises(FormulaError, match=f"formula has {MAX_FORMAT_SIZE + 1} tree nodes"):
        format_formula(neg(f))
    # hash-consing keeps the DAG small while the printed tree doubles
    f = prop(1)
    while f.size <= MAX_FORMAT_SIZE:
        f = dia((STAR, STAR), conj(f, neg(f)))
    assert len(subformulas(f)) < 100
    with pytest.raises(FormulaError, match=f"formula has {f.size} tree nodes"):
        format_formula(f)
    assert repr(f) == (
        f"Formula(<modal depth {f.md}, {len(subformulas(f))} distinct nodes, "
        f"tree size {f.size}>)"
    )
    assert repr(neg(prop(1))) == "Formula(!q1)"


@pytest.mark.parametrize("wrap", [neg, lambda f: dia((STAR, STAR), f), lambda f: conj(f, prop(2))])
def test_format_formula_prints_formulas_deeper_than_the_recursion_limit(wrap):
    f = prop(1)
    for _ in range(3000):
        f = wrap(f)
    text = format_formula(f)
    assert len(text) > 3000 and text.count("q1") == 1
    assert repr(f) == f"Formula({text})"


def test_parse_reads_back_printed_formulas_only_up_to_max_nesting():
    for depth, readable in ((MAX_NESTING, True), (300, False)):
        f = prop(1)
        for _ in range(depth):
            f = conj(f, prop(2))
        text = format_formula(f)
        if readable:
            assert parse(text) is f
        else:
            with pytest.raises(FormulaSyntaxError, match="nested more than"):
                parse(text)


def test_signature_derives_its_variant_and_legal_indices():
    for variant in VARIANTS:
        for delta in range(1, 4):
            sig = Signature(delta, variant)
            assert sig.kind == variant_of(variant)
            candidates = (STAR, *range(delta + 2))
            accepted = [
                (i, j)
                for i in candidates
                for j in candidates
                if not validate_signature(dia((i, j), prop(1)), sig)
            ]
            assert accepted == alphas_for(variant, delta)
    sig = Signature(2, "-+")
    # the derived fields stay out of equality, hashing and repr
    assert sig == Signature(2, "-+") and hash(sig) == hash(Signature(2, "-+"))
    assert repr(sig) == "Signature(delta=2, variant='-+')"


def test_model_signature_is_built_once_and_only_on_use():
    g = path(1)
    model = kripke_model(PortedGraph(g, consistent_port_numbering(g, 0)), "--", 0)
    with pytest.raises(SignatureError):
        eval_formula(model, parse("q1"))
    model = kripke_model(PortedGraph(g, consistent_port_numbering(g, 0)), "--", 1)
    assert model.signature() is model.signature()


def test_signature_validation():
    sig = Signature(2, "-+")
    assert validate_signature(parse("<1,2>q1"), sig)  # first index must be *
    assert not validate_signature(parse("<*,2>q1"), sig)
    assert validate_signature(parse("q5"), Signature(3, "--"))
    assert validate_signature(parse("<*,*;2>q1"), Signature(3, "+-"))  # graded needs -+/--
    assert not validate_signature(parse("<*,*;2>q1"), Signature(3, "--"))
    with pytest.raises(ValueError):
        Signature(3, "+*")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Signature(0, "--"),
        lambda: variant_of("+*"),
        lambda: KripkeModel(1, 1, "+*", {}, {}),
    ],
)
def test_signature_errors_share_the_library_base(build):
    with pytest.raises(SignatureError) as caught:
        build()
    assert isinstance(caught.value, PortlogicError)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: prop(0),
        lambda: dia((1, 2), prop(1), 0),
        lambda: dia((1, "x"), prop(1)),
        lambda: parse("<1,1"),
    ],
    ids=["prop-0", "grade-0", "bad-index", "syntax"],
)
def test_formula_constructor_errors_share_the_library_base(build):
    with pytest.raises(FormulaError) as caught:
        build()
    assert isinstance(caught.value, PortlogicError)
    assert isinstance(caught.value, ValueError)


def test_kripke_model_star_variant_is_edge_relation():
    for g in (star(3), cycle(4), path(4)):
        pg = PortedGraph(g, consistent_port_numbering(g, 1))
        model = kripke_model(pg, "--")
        succ = model.successors[(STAR, STAR)]
        pairs = {(v, w) for v, ws in succ.items() for w in ws}
        assert pairs == set(g.arcs())
        assert len(pairs) == 2 * g.edge_count()


def test_kripke_model_single_edge_by_hand():
    g = path(2)
    p = PortNumbering({(0, 1): (1, 1), (1, 1): (0, 1)})
    model = kripke_model(PortedGraph(g, p), "++", 1)
    assert model.successors[(1, 1)] == {0: (1,), 1: (0,)}


def test_valuation_marks_degrees():
    g = star(2)
    model = kripke_model(PortedGraph(g, consistent_port_numbering(g, 0)), "--")
    assert model.valuation[2] == frozenset({0})
    assert model.valuation[1] == frozenset({1, 2})
    # every node of positive degree is counted exactly once
    assert sum(len(ws) for ws in model.valuation.values()) == g.n


def test_eval_examples():
    c4 = cycle(4)
    model = kripke_model(PortedGraph(c4, consistent_port_numbering(c4, 0)), "--")
    assert eval_formula(model, parse("q2")) == frozenset(range(4))
    s3 = star(3)
    m3 = kripke_model(PortedGraph(s3, consistent_port_numbering(s3, 0)), "--", 3)
    assert eval_formula(m3, parse("<*,*>q1")) == frozenset({0})
    assert eval_formula(m3, parse("<*,*;3>q1")) == frozenset({0})
    s2 = star(2)
    m2 = kripke_model(PortedGraph(s2, consistent_port_numbering(s2, 0)), "--", 3)
    assert eval_formula(m2, parse("<*,*;3>q1")) == frozenset()


def test_eval_rejects_signature_mismatch():
    g = star(2)
    model = kripke_model(PortedGraph(g, consistent_port_numbering(g, 0)), "--")
    with pytest.raises(SignatureMismatchError):
        eval_formula(model, parse("<1,1>q1"))
    with pytest.raises(SignatureMismatchError):
        eval_formula(model, parse("q5"))


@pytest.mark.parametrize("variant", ["++", "-+", "+-", "--"])
def test_eval_agrees_with_naive_recursion(variant):
    rng = random.Random(17 + VARIANTS.index(variant))
    graphs = [path(2), path(4), star(3), cycle(4), cycle(5)]
    for trial in range(25):
        g = graphs[trial % len(graphs)]
        delta = max(g.max_degree(), rng.randint(1, 3))
        sig = Signature(delta, variant)
        f = random_formula(rng, sig)
        p = sweep(g, cap=1, samples=1, seed=trial)[0]
        model = cached_model(PortedGraph(g, p), variant, delta)
        got = eval_formula(model, f)
        for v in range(model.size):
            assert (v in got) == naive_holds(model, v, f)


def test_eval_supports_hand_built_models():
    # models need not come from graphs; eval only needs successors + valuation
    model = KripkeModel(
        3,
        2,
        "--",
        {(STAR, STAR): [(0, 1), (0, 2), (1, 2)]},
        {1: {1, 2}, 2: {0}},
    )
    assert eval_formula(model, parse("<*,*;2>q1")) == frozenset({0})
    assert eval_formula(model, parse("<*,*>q2")) == frozenset()


def test_kripke_model_drops_duplicate_pairs():
    # (0, 1) listed twice is one successor: no second q1-successor for a grade
    model = KripkeModel(3, 2, "--", {(STAR, STAR): [(0, 1), (0, 1), (2, 1)]}, {1: {0, 1, 2}})
    assert model.successors[(STAR, STAR)] == {0: (1,), 2: (1,)}
    assert eval_formula(model, parse("<*,*;2>q1")) == frozenset()
    assert eval_formula(model, parse("<*,*>q1")) == frozenset({0, 2})
    # graded refinement counts one successor for both 0 and 2
    graded = coarsest_graded_bisimulation(model)
    assert graded.block_index(0) == graded.block_index(2)


def test_kripke_model_answers_an_uncarried_index_with_no_successors():
    model = KripkeModel(2, 2, "-+", {(STAR, 1): [(0, 1)]}, {1: {0, 1}})
    assert (STAR, 2) not in model.successors
    assert eval_formula(model, parse("<*,2>q1")) == frozenset()
    assert eval_formula(model, parse("<*,1>q1")) == frozenset({0})


@pytest.mark.parametrize("variant", VARIANTS)
def test_kripke_model_keeps_only_what_the_graph_carries(variant):
    # a star with 40 leaves carries 80 arcs; 40 * 40 indices are legal under ++
    g = star(40)
    model = kripke_model(PortedGraph(g, random_port_numbering(g, 0)), variant)
    assert len(model.successors) <= 2 * g.edge_count()
    assert set(model.valuation) == {1, 40}


def test_signature_checks_an_index_without_listing_the_legal_ones():
    tracemalloc.start()
    try:
        sig = Signature(300, "++")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a 90,000-index set takes about 12 MB
    assert not validate_signature(parse("<300,1>q1"), sig)
    assert validate_signature(parse("<301,1>q1"), sig)


def test_valuation_profile_is_each_worlds_propositions():
    model = KripkeModel(3, 2, "--", {}, {1: {1, 2}, 2: {0, 2}})
    assert [model.valuation_profile(v) for v in range(3)] == [
        frozenset({2}),
        frozenset({1}),
        frozenset({1, 2}),
    ]


def test_diamond_monotone_in_relation():
    rng = random.Random(0)
    base_pairs = [(0, 1), (1, 2), (3, 0)]
    model = KripkeModel(4, 1, "--", {(STAR, STAR): base_pairs}, {1: {0, 1, 2, 3}})
    f = parse("<*,*>q1")
    small = eval_formula(model, f)
    for extra in [(0, 2), (2, 3), (1, 0)]:
        grown = KripkeModel(
            4, 1, "--", {(STAR, STAR): base_pairs + [extra]}, {1: {0, 1, 2, 3}}
        )
        assert small <= eval_formula(grown, f)


def test_model_json_dump():
    g = star(2)
    model = kripke_model(PortedGraph(g, consistent_port_numbering(g, 0)), "-+")
    doc = model_to_json(model)
    assert doc["worlds"] == 3
    assert "(*,1)" in doc["relations"] and "(*,2)" in doc["relations"]
    assert doc["valuation"]["q2"] == [0]
    json.dumps(doc)


def test_disjoint_union_offsets():
    g1 = star(2)
    g2 = cycle(3)
    m1 = kripke_model(PortedGraph(g1, consistent_port_numbering(g1, 0)), "--", 2)
    m2 = kripke_model(PortedGraph(g2, consistent_port_numbering(g2, 0)), "--", 2)
    union, offsets = disjoint_union([m1, m2])
    assert union.size == 6 and offsets == [0, 3]
    assert eval_formula(union, parse("q2")) == frozenset({0, 3, 4, 5})


def test_disjoint_union_of_one_model_is_that_model():
    model = KripkeModel(2, 2, "-+", {(STAR, 1): [(0, 1)]}, {1: {0, 1}})
    union, offsets = disjoint_union([model])
    assert union is model and offsets == [0]


def test_disjoint_union_of_many_models_nests_pairwise():
    graphs = [star(2), cycle(3), path(4)]
    m1, m2, m3 = (kripke_model(PortedGraph(g, random_port_numbering(g, 5)), "-+", 2) for g in graphs)
    union, offsets = disjoint_union([m1, m2, m3])
    assert offsets == [0, m1.size, m1.size + m2.size]
    nested, _ = disjoint_union([disjoint_union([m1, m2])[0], m3])
    assert model_to_json(union) == model_to_json(nested)
    pg = PortedGraph(graphs[0], consistent_port_numbering(graphs[0], 0))
    for variant, delta in (("-+", 3), ("--", 2)):
        with pytest.raises(SignatureMismatchError):
            disjoint_union([m1, kripke_model(pg, variant, delta)])
    with pytest.raises(PortlogicError):
        disjoint_union([])


def _outcome(evaluate, model, formula):
    try:
        return evaluate(model, formula)
    except SignatureMismatchError as error:
        return str(error)


def _loose_formula(rng, delta, depth):
    """Random formula that may break the signature at any node: propositions
    up to delta + 1, any index pair over {*, 1..delta+1}, grades up to 3."""
    indices = [STAR] + list(range(1, delta + 2))
    kind = rng.choice(["prop", "not", "and", "dia", "dia"] if depth else ["prop"])
    if kind == "prop":
        return prop(rng.randint(1, delta + 1))
    if kind == "not":
        return neg(_loose_formula(rng, delta, depth - 1))
    if kind == "and":
        return conj(_loose_formula(rng, delta, depth - 1), _loose_formula(rng, delta, depth - 1))
    alpha = (rng.choice(indices), rng.choice(indices))
    return dia(alpha, _loose_formula(rng, delta, depth - 1), rng.choice((1, 1, 2, 3)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_eval_lists_every_signature_problem_and_matches_the_suite_table(variant):
    rng = random.Random(700 + VARIANTS.index(variant))
    pools = {}
    ported = {delta: [] for delta in range(1, 5)}
    for delta in range(1, 5):
        sig = Signature(delta, variant)
        signed = [random_formula(rng, sig, max_depth=3, budget=10) for _ in range(25)]
        loose = [_loose_formula(rng, delta, 4) for _ in range(25)]
        # ill-signed on purpose: one problem of each kind, several in one formula
        legal = alphas_for(variant, delta)
        illegal = (delta + 1, STAR) if variant[0] == "+" else (1, STAR)
        loose += [
            conj(signed[0], prop(delta + 1)),
            dia(illegal, signed[1]),
            dia(legal[0], signed[2], 2),
            conj(dia(illegal, prop(delta + 1), 3), neg(dia(legal[-1], prop(delta + 2), 2))),
        ]
        pools[delta] = signed + loose
    for gi, g in enumerate(all_graphs(5)):
        delta = max(1, g.max_degree())
        for p in (consistent_port_numbering(g, 0), random_port_numbering(g, gi)):
            ported[delta].append(PortedGraph(g, p))
    compared = mismatches = rejected = several = 0
    for delta, graphs in ported.items():
        suite = ModelSuite(graphs, variant, delta)
        for formula in pools[delta]:
            # eval_formula raises exactly when validate_signature lists
            # problems, and its message is all of them in that order
            problems = validate_signature(formula, suite.sig)
            expected = "; ".join(problems) if problems else None
            outcomes = [_outcome(eval_formula, model, formula) for model in suite.models]
            mismatches += sum(
                (got if isinstance(got, str) else None) != expected for got in outcomes
            )
            # ModelSuite.table, which shares nothing with eval_formula but the
            # per-node signature rules: equal tables, equal errors
            compared += 1
            mismatches += _outcome(lambda s, f: s.table(f), suite, formula) != _packed(
                suite, outcomes
            )
            rejected += bool(problems)
            several += len(problems) > 1
    assert mismatches == 0
    # both outcomes, and messages listing several problems, were compared
    assert 0 < several < rejected < compared


def _packed(suite, outcomes):
    """Per-model eval_formula outcomes, packed as ModelSuite.table packs."""
    table = 0
    for worlds, offset in zip(outcomes, suite.offsets):
        if isinstance(worlds, str):
            return worlds
        for v in worlds:
            table |= 1 << (offset + v)
    return table
