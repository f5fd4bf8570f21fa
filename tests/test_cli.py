"""CLI surface: subcommands, exit codes, JSON report round-trips."""

import json
import subprocess
import sys

import pytest

from portlogic.cli import main
from portlogic.graphs import format_graph, format_ported, PortedGraph, consistent_port_numbering, star


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
    code, out = run_cli(
        ["check", "--graph", star3_pn, "--formula", "<*,*;3>q1", "--variant", "--", "--json"],
        capsys,
    )
    assert code == 0
    assert parse_json(out)["satisfying_worlds"] == [0]


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
    assert "<*,*" in doc["formula"]


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


def test_verify_machine_conformance(star3_pn, capsys):
    code, out = run_cli(
        ["verify", "--graph", star3_pn, "--machine", "leaf_election", "--samples", "60",
         "--json"],
        capsys,
    )
    assert code == 0
    doc = parse_json(out)
    assert doc["port_numbering"]["ok"] is True
    assert doc["conformance"]["ok"] is True


def test_verify_probes_a_compiled_formula(star3_pn, capsys):
    code, out = run_cli(
        ["verify", "--graph", star3_pn, "--formula", "<*,*>q1", "--samples", "60", "--json"],
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


def test_missing_variant_is_reported(star3_pn, capsys):
    code = main(["check", "--graph", star3_pn, "--formula", "q1"])
    assert code == 2


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
        ["gen", "--family", "star", "--out", "/no/such/dir/x.g"],
        ["run", "--graph", "{g}", "--machine", "odd_odd", "--max-rounds", "-1"],
        ["run", "--graph", "{g}", "--machine", "odd_odd", "--delta", "0"],
        ["check", "--graph", "{g}", "--formula", "q1", "--variant", "--", "--delta", "0"],
        ["verify", "--graph", "{pn}", "--delta", "0"],
    ],
    ids=["formula-syntax", "graph", "matching", "degree", "signature-delta",
         "decompile-delta-0", "decompile-delta-negative", "node-cap", "decompile-node-bound-0",
         "gen-out",
         "run-max-rounds-negative", "run-delta-0", "check-delta-0", "verify-delta-0"],
)
def test_library_errors_exit_2_with_one_line(argv, star3_g, star3_pn, capsys):
    code = main([arg.replace("{g}", star3_g).replace("{pn}", star3_pn) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


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
