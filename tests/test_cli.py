"""CLI surface: subcommands, exit codes, JSON report round-trips."""

import dataclasses
import importlib
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from portlogic.cli import SEPARATIONS, WRAPPERS, main
from portlogic.compiler import compile_formula
from portlogic.graphs import (
    PortedGraph,
    consistent_port_numbering,
    cycle,
    format_graph,
    format_ported,
    parse_ported,
    random_port_numbering,
    star,
)
from portlogic.logic import Signature, parse
from portlogic.machines import CLASSES, SET, VECTOR, ClassTag, SimpleMachine, run, trace_to_json
from portlogic.problems import MACHINES


@pytest.fixture()
def star3_g(tmp_path):
    target = tmp_path / "star3.g"
    target.write_text(format_graph(star(3)))
    return str(target)


@pytest.fixture()
def star3_pn(tmp_path):
    g = star(3)
    target = tmp_path / "star3.pn"
    target.write_text(format_ported(PortedGraph(g, consistent_port_numbering(g, 0))))
    return str(target)


@pytest.fixture()
def malformed(tmp_path):
    """A directory of graph files the loaders must refuse."""
    (tmp_path / "nodes.g").write_text("nodes abc\n")
    (tmp_path / "edge.g").write_text("nodes 2\ne a b\n")
    (tmp_path / "port.pn").write_text("nodes 2\np 0 1 1 x\np 1 1 0 1\n")
    (tmp_path / "range.pn").write_text("nodes 2\np 0 1 1 2\np 1 1 0 1\n")
    (tmp_path / "latin1.g").write_bytes(b"nodes 2\n# caf\xe9\ne 0 1\n")
    (tmp_path / "latin1.pn").write_bytes(b"nodes 2\n# caf\xe9\np 0 1 1 1\np 1 1 0 1\n")
    (tmp_path / "nodes_twice.g").write_text("nodes 2\nnodes 2\ne 0 1\n")
    (tmp_path / "no_nodes.g").write_text("# no nodes line\n")
    (tmp_path / "port_twice.pn").write_text("nodes 2\np 0 1 1 1\np 0 1 1 1\np 1 1 0 1\n")
    (tmp_path / "edge_range.g").write_text("nodes 2\ne 0 5\n")
    return str(tmp_path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_json(out: str) -> dict:
    return json.loads(out)


def test_run_formula(star3_pn, capsys):
    code, out = run_cli(
        ["run", "--graph", star3_pn, "--formula", "<*,*>q1", "--variant", "--",
         "--max-rounds", "10", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["outputs"] == {"0": 1, "1": 0, "2": 0, "3": 0}
    assert doc["rounds"] == 2 and doc["timed_out"] is False


def test_run_builtin_machine(star3_g, capsys):
    code, out = run_cli(
        ["run", "--graph", star3_g, "--machine", "odd_odd", "--seed", "1", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["class"] == "MB"
    assert doc["outputs"] == {"0": 1, "1": 1, "2": 1, "3": 1}


def test_run_wrapped_machine(star3_g, capsys):
    code, out = run_cli(
        ["run", "--graph", star3_g, "--machine", "set_from_multiset:odd_odd", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["class"] == "SV"
    assert doc["rounds"] == 2 * 3 + 2


def test_run_timeout_exit_code(star3_g, capsys):
    code, _ = run_cli(
        ["run", "--graph", star3_g, "--machine", "odd_odd", "--max-rounds", "1"],
        capsys,
    )
    assert code == 3


def test_bad_port_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pn"
    bad.write_text("nodes 2\np 0 1 0 1\np 1 1 1 1\n")
    code, _ = run_cli(["verify", "--graph", str(bad)], capsys)
    assert code == 2


def test_check_command(star3_pn, capsys):
    reports = []
    for variant in (["--variant", "--"], ["--variant=--"]):
        code, out = run_cli(
            ["check", "--graph", star3_pn, "--formula", "<*,*;3>q1", *variant, "--json"], capsys
        )
        assert code == 0
        reports.append({k: v for k, v in parse_json(out).items() if k != "timing"})
    assert reports[0]["satisfying_worlds"] == [0]
    # the two spellings of --variant give the same report
    assert reports[0] == reports[1]


def test_check_signature_error(star3_pn, capsys):
    code, _ = run_cli(
        ["check", "--graph", star3_pn, "--formula", "q9", "--variant", "--"],
        capsys,
    )
    assert code == 2


def test_compile_command(capsys):
    code, out = run_cli(
        ["compile", "--formula", "<*,2>q1", "--variant", "-+", "--delta", "2", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["class"] == "SV"
    assert doc["stopping_round"] == 2
    assert doc["conformance"] is True


def test_decompile_command(capsys):
    code, out = run_cli(
        ["decompile", "--machine", "odd_odd", "--horizon", "2", "--variant", "--",
         "--delta", "2", "--node-bound", "3", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["formula"] == "(<*,*>q1 & !<*,*;2>q1)"
    assert (doc["dag_nodes"], doc["tree_size"]) == (5, 6)


def test_decompile_past_the_state_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("portlogic.compiler.MAX_STATES", 1)
    code = main(
        ["decompile", "--machine", "odd_odd", "--horizon", "2", "--variant", "--",
         "--delta", "2", "--node-bound", "3"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: 2 states at round 1 exceed the budget 1\n"


def test_unprintable_decompile_exits_2_within_a_second(capsys):
    # a 605-node DAG whose tree has about 4e12 nodes
    started = time.perf_counter()
    code = main(
        ["decompile", "--machine", "set_from_multiset:leaf_election", "--delta", "3",
         "--horizon", "8", "--variant", "++", "--node-bound", "3"]
    )
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "error: formula has 4115278342753 tree nodes, "
        "more than the 1048576 that can be printed\n"
    )


def test_bisim_command_union(star3_g, tmp_path, capsys):
    other = tmp_path / "star3b.g"
    other.write_text(format_graph(star(3)))
    code, out = run_cli(
        ["bisim", "--graph", star3_g, "--graph", str(other), "--variant", "+-", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["blocks"] == [[0, 4], [1, 2, 3, 5, 6, 7]]


def test_gen_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "c5.pn"
    code, _ = run_cli(
        ["gen", "--family", "cycle", "--k", "5", "--numbering", "consistent",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    code, out = run_cli(
        ["check", "--graph", str(out_path), "--formula", "q2", "--variant", "--", "--json"],
        capsys,
    )
    assert code == 0
    assert parse_json(out)["satisfying_worlds"] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "flags, numbering",
    [([], random_port_numbering), (["--consistent"], consistent_port_numbering)],
    ids=["random", "consistent"],
)
def test_run_trace_is_the_trace_of_the_same_library_run(flags, numbering, tmp_path, capsys):
    g = cycle(5)
    target = tmp_path / "cycle5.g"
    target.write_text(format_graph(g))
    code, out = run_cli(
        ["run", "--graph", str(target), "--formula", "<1,2>q2", "--variant", "++",
         "--trace", "--json", *flags],
        capsys,
    )
    assert code == 0
    machine = compile_formula(parse("<1,2>q2"), Signature(2, "++"))
    traces = {
        fn: trace_to_json(run(machine, PortedGraph(g, fn(g, 0)), 64, record_messages=True))
        for fn in (random_port_numbering, consistent_port_numbering)
    }
    # on cycle(5) under seed 0 the two numberings give different traces
    assert traces[random_port_numbering] != traces[consistent_port_numbering]
    assert parse_json(out)["trace"] == traces[numbering]


def test_gen_random_numbering_parses_back(capsys):
    code, out = run_cli(
        ["gen", "--family", "cycle", "--k", "5", "--numbering", "random", "--seed", "3"], capsys
    )
    assert code == 0
    pg = parse_ported(out)
    assert sorted(pg.graph.edges()) == sorted(cycle(5).edges())
    assert pg.numbering.items() == random_port_numbering(cycle(5), 3).items()


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["portlogic", "gen", "--family", "star"])
    code, out = run_cli(None, capsys)
    assert (code, out) == run_cli(["gen", "--family", "star"], capsys)
    assert code == 0 and out


def test_gen_symmetric_numbering_of_a_long_cycle(tmp_path, capsys):
    out_path = tmp_path / "c2000.pn"
    code, _ = run_cli(
        ["gen", "--family", "cycle", "--k", "2000", "--numbering", "symmetric",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out_path.read_text().startswith("nodes 2000\n")


def test_gen_symmetric_numbering_at_the_node_limit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("portlogic.graphs.MAX_GRAPH_NODES", 64)
    out_path = tmp_path / "c64.pn"
    code, _ = run_cli(
        ["gen", "--family", "cycle", "--k", "64", "--numbering", "symmetric",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    code, _ = run_cli(["verify", "--graph", str(out_path)], capsys)
    assert code == 0


def test_verify_machine_conformance(star3_pn, capsys):
    code, out = run_cli(
        ["verify", "--graph", star3_pn, "--machine", "leaf_election", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["conformance"]["ok"] is True


def test_verify_probes_a_compiled_formula(star3_pn, capsys):
    code, out = run_cli(
        ["verify", "--graph", star3_pn, "--formula", "<*,*>q1", "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["conformance"]["machine"] == "compiled[--]"
    assert doc["conformance"]["ok"] is True


@pytest.mark.parametrize("demo", ["star", "parity", "regular"])
def test_separate_demos(demo, capsys):
    code, out = run_cli(["separate", demo, "--json"], capsys)
    assert code == 0
    doc = parse_json(out)
    assert doc["ok"] is True
    assert doc["positive_runs_valid"] is True
    assert doc["certificate"]["reverified"] is True


@pytest.mark.parametrize("demo", sorted(SEPARATIONS))
def test_separate_names_classes_by_their_codes_and_the_problem_by_its_factory(demo, capsys):
    code, out = run_cli(["separate", demo, "--json"], capsys)
    assert code == 0
    doc = parse_json(out)
    certificate = doc["certificate"]
    assert doc["refuted_class"] in CLASSES and certificate["refuted_class"] in CLASSES
    assert doc["solved_in"].removesuffix(" (assuming consistency)") in CLASSES
    assert certificate["problem"] == SEPARATIONS[demo].problem


def test_separate_reports_an_inconclusive_certificate_as_not_ok(monkeypatch, capsys):
    # the leaves of a consistently numbered star differ under ++, so the
    # impossibility check cannot refute VV there
    star_row = dataclasses.replace(SEPARATIONS["star"], refuted_class="VV")
    monkeypatch.setitem(SEPARATIONS, "star", star_row)
    code, out = run_cli(["separate", "star", "--json"], capsys)
    assert code == 1
    doc = parse_json(out)
    assert doc["ok"] is False and doc["positive_runs_valid"] is True
    assert doc["certificate"] == {"inconclusive": "nodes of X are not mutually bisimilar"}


def test_verify_exits_2_on_a_machine_that_breaks_its_class(star3_pn, monkeypatch, capsys):
    def liar(delta):
        # 1 == True, so equal inboxes would realise as different views
        return SimpleMachine(
            delta,
            ClassTag(SET, VECTOR),
            init=lambda d: ("go", d),
            emit=lambda s, i: True if s[1] == 1 else 1,
            transition=lambda s, inbox: ("done", sum(type(m) is bool for m in inbox)),
            is_output=lambda s: s[0] == "done",
            name="liar",
        )

    monkeypatch.setitem(MACHINES, "liar", liar)
    code, out = run_cli(["verify", "--graph", star3_pn, "--machine", "liar", "--json"], capsys)
    assert code == 2
    doc = parse_json(out)
    assert doc["conformance"]["ok"] is False and doc["conformance"]["violations"] > 0
    assert doc["first_violation"].startswith("ConformanceViolation(kind='encoding'")


def test_missing_variant_is_reported(star3_pn, capsys):
    code = main(["check", "--graph", star3_pn, "--formula", "q1"])
    assert code == 2


@pytest.mark.parametrize("code", ["--", "xx"])
@pytest.mark.parametrize(
    "command", [["separate", "star"], ["gen", "--family", "star", "--k", "2"]], ids=["separate", "gen"]
)
def test_variant_is_refused_by_a_command_that_takes_none(command, code, capsys):
    assert main([*command, "--variant", code]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {command[0]} takes no --variant"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--graph", "{g}", "--formula", "<1,1", "--variant", "++"],
        ["gen", "--family", "star", "--k", "0"],
        ["gen", "--family", "star", "--numbering", "symmetric"],
        ["run", "--graph", "{g}", "--machine", "odd_odd", "--delta", "1"],
        ["compile", "--formula", "q1", "--variant", "--", "--delta", "0"],
        ["decompile", "--machine", "odd_odd", "--horizon", "2", "--variant", "--",
         "--delta", "0", "--node-bound", "2"],
        ["decompile", "--machine", "odd_odd", "--horizon", "2", "--variant", "--",
         "--delta", "-1", "--node-bound", "2"],
        ["decompile", "--machine", "odd_odd", "--horizon", "2", "--variant", "--",
         "--delta", "2", "--node-bound", "8"],
        ["decompile", "--machine", "odd_odd", "--horizon", "2", "--variant", "--",
         "--delta", "2", "--node-bound", "0"],
        ["decompile", "--machine", "odd_odd", "--horizon", "-1", "--variant", "--",
         "--delta", "2"],
        ["gen", "--family", "star", "--out", "/no/such/dir/x.g"],
        ["run", "--graph", "{g}", "--machine", "odd_odd", "--max-rounds", "-1"],
        ["run", "--graph", "{g}", "--machine", "odd_odd", "--delta", "0"],
        ["check", "--graph", "{g}", "--formula", "q1", "--variant", "--", "--delta", "0"],
        ["verify", "--graph", "{pn}", "--delta", "0"],
        ["check", "--graph", "{g}", "--formula", "!" * 5000 + "q1", "--variant", "--"],
        ["compile", "--formula", "<*,*>" * 3000 + "q1", "--variant", "--", "--delta", "2"],
        ["check", "--graph", "{g}", "--formula", "(" * 3000 + "q1" + ")" * 3000,
         "--variant", "--"],
        ["run", "--graph", "{tmp}/nodes.g", "--machine", "odd_odd"],
        ["bisim", "--graph", "{tmp}/edge.g", "--variant", "--"],
        ["verify", "--graph", "{tmp}/port.pn"],
        ["run", "--graph", "{tmp}/latin1.pn", "--machine", "odd_odd"],
        ["bisim", "--graph", "{tmp}/latin1.g", "--variant", "--"],
        ["verify", "--graph", "{tmp}/latin1.pn"],
        ["verify", "--graph", "{tmp}/range.pn"],
        ["run", "--graph", "{tmp}/nodes_twice.g", "--machine", "odd_odd"],
        ["bisim", "--graph", "{tmp}/no_nodes.g", "--variant", "--"],
        ["verify", "--graph", "{tmp}/port_twice.pn"],
        ["run", "--graph", "{tmp}/edge_range.g", "--machine", "odd_odd"],
        ["check", "--graph", "{g}", "--formula", "<a,1>q1", "--variant", "++"],
        ["check", "--graph", "{g}", "--formula", "q0", "--variant", "++"],
    ],
    ids=["formula-syntax", "graph", "matching", "degree", "signature-delta",
         "decompile-delta-0", "decompile-delta-negative", "node-cap", "decompile-node-bound-0",
         "decompile-horizon-negative", "gen-out",
         "run-max-rounds-negative", "run-delta-0", "check-delta-0", "verify-delta-0",
         "deep-negation", "deep-diamonds", "deep-parentheses",
         "run-nodes-not-int", "bisim-edge-not-int", "verify-port-not-int",
         "run-not-utf8", "bisim-not-utf8", "verify-not-utf8", "verify-numbering-range",
         "run-nodes-line-twice", "bisim-no-nodes-line", "verify-port-mapped-twice",
         "run-edge-out-of-range", "index-not-a-number", "proposition-0"],
)
def test_library_errors_exit_2_with_one_line(argv, star3_g, star3_pn, malformed, capsys):
    code = main([
        arg.replace("{g}", star3_g).replace("{pn}", star3_pn).replace("{tmp}", malformed)
        for arg in argv
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--graph", "{tmp}/huge.g", "--machine", "odd_odd"],
        ["verify", "--graph", "{tmp}/huge.pn"],
        ["gen", "--family", "star", "--k", "1000000000"],
        ["gen", "--family", "cycle", "--k", "1000000000", "--numbering", "random"],
    ],
    ids=["run-g", "verify-pn", "gen-star", "gen-cycle"],
)
def test_oversized_graphs_exit_2_within_a_second(argv, tmp_path, capsys):
    (tmp_path / "huge.g").write_text("nodes 10000000000\ne 0 1\n")
    (tmp_path / "huge.pn").write_text("nodes 10000000000\n")
    started = time.perf_counter()
    code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert code == 2 and "exceed the limit" in err


def test_unknown_machine(star3_g, capsys):
    code, _ = run_cli(["run", "--graph", star3_g, "--machine", "nope"], capsys)
    assert code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "portlogic.cli", "separate", "star", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True


# ---------------------------------------------------------------------------
# Fuzzing the documented surface in-process
# ---------------------------------------------------------------------------

COMMANDS = ["run", "check", "compile", "decompile", "bisim", "separate", "gen", "verify"]
INTS = st.integers(min_value=1, max_value=3)
BAD_INTS = st.integers(min_value=-1, max_value=0)
VARIANT_CODES = st.sampled_from(["++", "-+", "+-", "--"])
BAD_VARIANTS = st.sampled_from(["+*", "", "x", "---", "+"])
FORMULAS = st.sampled_from(
    ["q1", "q3", "<*,*>q1", "<1,2>q2 & !q1", "<*,1;2>q1", "(q1 | T) & F", "<*,*;2><*,*>q2"]
)
FORMULA_TEXT = st.text(alphabet="q0123!&|<>,;*()TF ", max_size=12)
MACHINE_NAMES = st.sampled_from(
    sorted(MACHINES) + [f"{w}:{m}" for w in WRAPPERS for m in sorted(MACHINES)]
)
BAD_MACHINES = st.sampled_from(["nope", "odd_odd:", "", "set_from_multiset:nope"])
GRAPH_FILES = st.sampled_from(["star3.g", "star3.pn"])
BAD_GRAPH_FILES = st.sampled_from(
    ["nodes.g", "edge.g", "port.pn", "latin1.g", "latin1.pn", "absent.g"]
)


def _junk(draw) -> bool:
    """True one time in eight."""
    return draw(st.integers(min_value=0, max_value=7)) == 7


def _value(draw, valid, junk) -> str:
    return str(draw(junk if _junk(draw) else valid))


def _flag(draw, argv: list, name: str, valid, junk=None):
    if draw(st.booleans()):
        argv += [name, _value(draw, valid, valid if junk is None else junk)]


@st.composite
def cli_argv(draw, directory: str):
    """A command line over every subcommand and its documented flags."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]

    def graph():
        return f"{directory}/{_value(draw, GRAPH_FILES, BAD_GRAPH_FILES)}"

    def one_machine_or_formula():
        # exactly one is valid; neither or both is the junk case
        choice = _value(draw, st.sampled_from(["machine", "formula"]), st.sampled_from(["", "both"]))
        if choice in ("machine", "both"):
            argv.extend(["--machine", _value(draw, MACHINE_NAMES, BAD_MACHINES)])
        if choice in ("formula", "both"):
            argv.extend(["--formula", _value(draw, FORMULAS, FORMULA_TEXT)])

    if command == "separate":
        argv.append(_value(draw, st.sampled_from(["star", "parity", "regular"]), st.just("nope")))
    elif command == "gen":
        families = st.sampled_from(["star", "cycle", "no_one_factor_cubic", "parity_union"])
        argv += ["--family", _value(draw, families, st.just("nope"))]
        _flag(draw, argv, "--k", st.integers(min_value=1, max_value=5), BAD_INTS)
        _flag(draw, argv, "--numbering", st.sampled_from(["none", "random", "consistent", "symmetric"]))
        _flag(draw, argv, "--out", st.just(f"{directory}/out.pn"), st.just(f"{directory}/no/out.g"))
    elif command == "bisim":
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            argv += ["--graph", graph()]
        if draw(st.booleans()):
            argv.append("--graded")
    elif command == "decompile":
        argv += ["--machine", _value(draw, MACHINE_NAMES, BAD_MACHINES),
                 "--horizon", _value(draw, INTS, BAD_INTS),
                 "--delta", _value(draw, INTS, BAD_INTS)]
        _flag(draw, argv, "--node-bound", INTS, BAD_INTS)
    elif command == "compile":
        argv += ["--formula", _value(draw, FORMULAS, FORMULA_TEXT),
                 "--delta", _value(draw, INTS, BAD_INTS)]
    else:
        argv += ["--graph", graph()]
        _flag(draw, argv, "--delta", INTS, BAD_INTS)
        if command == "check":
            argv += ["--formula", _value(draw, FORMULAS, FORMULA_TEXT)]
        else:
            one_machine_or_formula()
        if command != "verify" and draw(st.booleans()):
            argv.append("--consistent")
        if command == "run":
            _flag(draw, argv, "--max-rounds", st.integers(min_value=1, max_value=12), BAD_INTS)
            if draw(st.booleans()):
                argv.append("--trace")
    if command not in ("separate", "gen") and not _junk(draw):
        argv += ["--variant", _value(draw, VARIANT_CODES, BAD_VARIANTS)]
    if command != "decompile":
        _flag(draw, argv, "--seed", INTS, BAD_INTS)
    if command != "gen" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_keeps_its_exit_contract(data, star3_g, star3_pn, malformed, tmp_path, capsys):
    # the graph fixtures write their files into tmp_path
    argv = data.draw(cli_argv(str(tmp_path)))
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing its input
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv


@pytest.mark.parametrize("argv, code", [
    # an SV machine reads the outgoing port, which "--" hides
    (["decompile", "--machine", "leaf_election", "--horizon", "2", "--variant", "--",
      "--delta", "3"], 2),
    # an MB machine sees no port, so it fits every variant
    (["decompile", "--machine", "odd_odd", "--horizon", "2", "--variant", "+-",
      "--delta", "2"], 0),
], ids=["SV-in-variant--", "MB-in-variant+-"])
def test_decompile_keeps_the_exit_contract_on_the_class_fit(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith("error:")
        assert "SV" in err[0] and " -- " in err[0]
    else:
        assert err == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """The ``$ portlogic`` lines of the README's console blocks, as argv lists."""
    blocks = re.findall(r"```console\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line[2:], comments=True)[1:] for line in lines
            if line.startswith("$ portlogic ")]


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 13
    for argv in commands:
        assert main(argv) == 0, argv


def test_readme_class_table_matches_the_class_table():
    rows = re.findall(r"^\| ([A-Z]{2}) \| (\w+) \| (\w+) \| `([+-]{2})` \| (yes|no) \|$",
                      README.read_text(encoding="utf-8"), re.M)
    assert {code: (inbox, outbox, variant, graded == "yes")
            for code, inbox, outbox, variant, graded in rows} == {
        code: (tag.inbox, tag.outbox, tag.variant, tag.graded) for code, tag in CLASSES.items()
    }
    assert len(rows) == len(CLASSES)


def test_readme_budget_table_matches_the_constants():
    rows = re.findall(r"^\| `(\w+)\.([A-Z_]+)` \| (\d+) \|", README.read_text(encoding="utf-8"),
                      re.M)
    assert len(rows) == 10
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"portlogic.{module}"), name) == int(value)
