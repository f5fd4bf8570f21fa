"""Golden byte-identity hashes of traces, decompiled formulas, symmetric
numberings and ``separate --json`` reports.

The trace and report hashes were recorded with the isinstance-chain
``canon`` (commit c3293df), before ``canon`` dispatched on the type, except
the ``bcast_multiset_from_broadcast`` trace hash, recorded at commit 812edea
with the one-record history wrapper; the
decompile hash at commit cf7b3a2, before the decompiler's message memo
became ``functools.cache``; the symmetric-numbering hash at commit 58481f7,
while ``symmetric_port_numbering`` still built the double cover as a graph.
Those rewrites promise unchanged output, and so
does any later change to the encoding, the executor or the decompiler, so a
hash that moves is a change of output, whatever the reason.  Each test
states its recipe in full.

The report hashes were re-derived at commit 4893ebd, whose audit still
enumerated every solution, when the certificate's ``audited_solutions``
became ``audited_candidates``: each report of that commit, made by the
recipe of ``test_separate_reports_are_byte_identical``, with
``"audited_solutions": N`` replaced by
``"audited_candidates": 2 ** (n - |X| + 1)`` (4 for star, 1024 for parity
and 2 for regular; n nodes, X the demo's X, 2 outputs), then dumped and
hashed by that recipe.
"""

import hashlib
import json

import pytest

from conftest import complete_bipartite, random_multiset_machine
from portlogic import problems
from portlogic.cli import main
from portlogic.compiler import ModelSuite, compile_formula, decompile_details, default_decompile_suite
from portlogic.graphs import (
    PortedGraph,
    consistent_port_numbering,
    cycle,
    format_ported,
    no_one_factor_cubic,
    symmetric_port_numbering,
)
from portlogic.logic import VARIANTS, Signature, format_formula, parse
from portlogic.machines import run, trace_to_json
from portlogic.simulate import bcast_multiset_from_broadcast, multiset_from_vector, set_from_multiset
from portlogic.smallgraphs import all_graphs

# one compiled formula per variant, all at delta 3
FORMULAS = {
    "++": "<1,2>(q2 & !<3,1>q1) | <2,2>q3",
    "-+": "<*,1;2>q2 & !<*,2><*,1>q1",
    "+-": "<1,*>!q2 & <2,*>(q1 | <3,*>q3)",
    "--": "<*,*;2>(q1 & <*,*;3>q2) | !<*,*>q3",
}

TRACE_HASHES = {
    "bcast_multiset_from_broadcast(odd_odd)": "d71a0033f63835d68241a8e0faf9fde6fe5975e0e5fbd44ac01ccf6551aa80a3",
    "set_from_multiset(odd_odd)": "62ebc5cf609aae621587b07ef6f6b183760d010d0a2d94824e72fbe6de4de56b",
    "multiset_from_vector(leaf_election)": "6f7e9442d3ebae915d805afcbe8d053ac6359feab4eff4a4722d1ea122b2049c",
    "compiled ++": "969d442996c977fc3888e1cb11eff47e146763492eb0b210b46ab5be78177e6d",
    "compiled -+": "81041826d1689dc82db1e78825e917651e1c3b9cd29d7fe67a6f7b630bee7de6",
    "compiled +-": "e05805e5c2ca0db60458e566e667d700af4bd28bb3ed1a10d5682fbb494ec779",
    "compiled --": "73a362e4a40451f03adeaf7ee218f82fd6612c1be6e261e898dcad156db11050",
}

# one compiled formula per variant, all at delta 2
DECOMPILE_FORMULAS = {
    "++": "<1,2>(q2 & !<2,1>q1) | <2,2>q1",
    "-+": "<*,1;2>q2 & !<*,2><*,1>q1",
    "+-": "<1,*>!q2 & <2,*>(q1 | <1,*>q2)",
    "--": "<*,*;2>(q1 & <*,*>q2) | !<*,*>q2",
}

DECOMPILE_HASH = "30562a3e82a9696385eda4480ca80415a900ec10c860770da4126e72dcf667aa"

SYMMETRIC_HASH = "aecc654a2c23ad0299955ee0274ba032f7728a842dadc3c89ed8b0be8d46158f"

SEPARATE_HASHES = {
    "star": "be3f165d78f45951edc6f9cc9617e9c360865473f4eb44c6489b5823973ca5db",
    "parity": "43eae2269a272b48e233a6d46e39dd6aa72e8f8e1780c93a40bc5c9d6f31c6cc",
    "regular": "de925003544b1c1f705baf1ddd45572201ff2418ae39edd6b036067fdad051d4",
}


def golden_machine(name: str):
    if name == "set_from_multiset(odd_odd)":
        return set_from_multiset(problems.odd_odd_machine(3))
    if name == "bcast_multiset_from_broadcast(odd_odd)":
        return bcast_multiset_from_broadcast(problems.odd_odd_machine(3))
    if name == "multiset_from_vector(leaf_election)":
        return multiset_from_vector(problems.leaf_election_machine(3))
    variant = name.split()[1]
    return compile_formula(parse(FORMULAS[variant]), Signature(3, variant))


@pytest.mark.parametrize("name", sorted(TRACE_HASHES))
def test_traces_are_byte_identical(name):
    # recipe: every graph gi of all_graphs(4) under consistent_port_numbering(g, gi),
    # run for at most 32 rounds with record_messages=True; sha256 of
    # json.dumps([trace_to_json(...) per graph], sort_keys=True)
    machine = golden_machine(name)
    docs = []
    for gi, g in enumerate(all_graphs(4)):
        pg = PortedGraph(g, consistent_port_numbering(g, gi))
        docs.append(trace_to_json(run(machine, pg, 32, record_messages=True)))
    assert all(doc["stopped"] for doc in docs)
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_HASHES[name]


def test_decompiled_formulas_are_byte_identical():
    # recipe, at delta 2 on the suite ModelSuite(default_decompile_suite(2,
    # node_bound=3), variant, 2): each DECOMPILE_FORMULAS machine at horizon
    # md+1, in VARIANTS order; random_multiset_machine(2, seed) for seeds 0-5
    # at horizon 4, first all on -+, then all on -- with broadcast=True (they
    # stop in 1-3 rounds, so the decompiles walk stopped entries); then
    # odd_odd_machine(2) on -- at horizon 3.  One line per decompile,
    # "<variant> <name> <table in hex> <printed formula>", joined by "\n"
    ports = default_decompile_suite(2, node_bound=3)
    suites = {variant: ModelSuite(ports, variant, 2) for variant in VARIANTS}
    jobs = []
    for variant in VARIANTS:
        formula = parse(DECOMPILE_FORMULAS[variant])
        jobs.append((variant, "compiled", compile_formula(formula, Signature(2, variant)), formula.md + 1))
    for variant, broadcast in (("-+", False), ("--", True)):
        for seed in range(6):
            jobs.append((variant, f"random{seed}", random_multiset_machine(2, seed, broadcast=broadcast), 4))
    jobs.append(("--", "odd_odd", problems.odd_odd_machine(2), 3))
    lines = []
    for variant, name, machine, horizon in jobs:
        result = decompile_details(machine, 2, horizon, variant, suites[variant])
        lines.append(f"{variant} {name} {result.table:x} {format_formula(result.formula)}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DECOMPILE_HASH


def test_symmetric_numberings_are_byte_identical():
    # recipe: every regular graph of all_graphs(7), then no_one_factor_cubic(),
    # complete_bipartite(4, 4) and cycle(101); sha256 of the format_ported
    # text of each under symmetric_port_numbering, joined with ""
    graphs = [g for g in all_graphs(7) if g.regularity() is not None]
    graphs += [no_one_factor_cubic(), complete_bipartite(4, 4), cycle(101)]
    assert len(graphs) == 29
    text = "".join(format_ported(PortedGraph(g, symmetric_port_numbering(g))) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == SYMMETRIC_HASH


@pytest.mark.parametrize("demo", sorted(SEPARATE_HASHES))
def test_separate_reports_are_byte_identical(demo, capsys):
    # recipe: the report of `portlogic separate <demo> --json` without its
    # "timing" field, dumped again as the CLI prints it (indent 2, sorted keys)
    assert main(["separate", demo, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["timing"]
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SEPARATE_HASHES[demo]
