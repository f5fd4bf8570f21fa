"""Mutation runner: each row breaks one snippet of ``src`` and names the tests
that must fail on it; and a line census of Tier 1.

Run it with ``python tests/mutants.py`` (pytest does not collect this file).
The runner first runs every row's tests on an unmutated copy of ``src``,
where they must all pass.  Then, for each row, it copies ``src`` to a
temporary directory, replaces the row's old snippet with its new one and
runs the row's tests against that copy.  A row is *killed* when every one of
its tests fails, *survived* when one of them passes, and *stale* when its old
snippet does not occur exactly once in its file.  The tests run with
``PYTHONHASHSEED=0``, so set iteration order cannot decide a row.  The exit
status is 0 only when every row is killed.

``python tests/mutants.py --lines`` is the line census instead.  It runs the
Tier-1 suite in-process with ``PYTHONHASHSEED=0`` under ``sys.settrace``,
started before ``portlogic`` is imported and tracing only frames in
``src/portlogic``, and prints the lines of each module that never ran.  The
lines it checks are those of every code object nested in the module
(``co_lines``), less each code object's first line and the lines that hold
only a docstring.  Its exit status is 1 when some line never ran; tests that
fail under tracing (timing tests may) are reported but do not decide it.
It takes minutes, so it is not a CI step.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import types
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "portlogic"


class Mutant(NamedTuple):
    id: str
    what: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant(
        "M1",
        "the multiset view left unsorted",
        "src/portlogic/machines.py",
        "        return tuple(sorted(inbox, key=key))\n",
        "        return tuple(inbox)\n",
        (
            "tests/test_machines.py::test_inbox_views",
            "tests/test_machines.py::test_views_are_order_insensitive",
            "tests/test_machines.py::test_realised_inboxes_hide_the_incoming_numbering[MV]",
            "tests/test_machines.py::test_realised_inboxes_hide_the_incoming_numbering[MB]",
        ),
    ),
    Mutant(
        "M2",
        "the set view keeping multiplicities",
        "src/portlogic/machines.py",
        "    if kind == MULTISET:\n",
        "    if kind in (MULTISET, SET):\n",
        (
            "tests/test_machines.py::test_inbox_views",
            "tests/test_machines.py::test_set_view_hides_multiplicities_at_the_parity_hubs",
        ),
    ),
    Mutant(
        "M3",
        "message_on asking a broadcast machine port by port",
        "src/portlogic/machines.py",
        "    return machine.emit(state, 1 if machine.tag.outbox == BROADCAST else port)\n",
        "    return machine.emit(state, port)\n",
        ("tests/test_machines.py::test_broadcast_runs_ignore_the_outgoing_port_order[port_reader]",),
    ),
    Mutant(
        "M4",
        "run passing the padded inbox unrealised",
        "src/portlogic/machines.py",
        "        nxt = next_state(machine, s, realise(machine, inbox, key))\n",
        "        nxt = next_state(machine, s, inbox + (NO_MESSAGE,) * (delta - len(inbox)))\n",
        (
            "tests/test_compiler.py::test_decompile_gives_set_machines_their_set_view",
            "tests/test_machines.py::test_realised_inboxes_hide_the_incoming_numbering[MV]",
            "tests/test_machines.py::test_realised_inboxes_hide_the_incoming_numbering[MB]",
            "tests/test_machines.py::test_realised_inboxes_hide_the_incoming_numbering[SV]",
            "tests/test_machines.py::test_set_view_hides_multiplicities_at_the_parity_hubs",
        ),
    ),
    Mutant(
        "M5",
        "_Simulation._step skipping the realisation",
        "src/portlogic/simulate.py",
        "        realised = realise(self.base, payloads, self._key)\n",
        "        realised = tuple(payloads) + (NO_MESSAGE,) * (self.delta_max - len(payloads))\n",
        (
            "tests/test_simulate.py::test_wrapper_encodes_each_payload_once"
            "[set_from_multiset-odd_odd_machine]",
            "tests/test_simulate.py::test_wrapper_encodes_each_payload_once"
            "[multiset_from_vector-leaf_election_machine]",
            "tests/test_simulate.py::test_wrapper_encodes_each_payload_once"
            "[bcast_multiset_from_broadcast-odd_odd_machine]",
            "tests/test_machines.py::test_wrappers_hand_their_base_the_realised_view"
            "[set_from_multiset-MV]",
            "tests/test_machines.py::test_wrappers_hand_their_base_the_realised_view"
            "[set_from_multiset-MB]",
        ),
    ),
    Mutant(
        "M6",
        "the decompiler's _enumerate skipping the realisation",
        "src/portlogic/compiler.py",
        "                realised = realise(machine, placed, self.code)\n",
        "                realised = placed + (NO_MESSAGE,) * (machine.delta_max - len(placed))\n",
        (
            "tests/test_compiler.py::test_decompile_gives_set_machines_their_set_view",
            "tests/test_compiler.py::test_decompile_hands_every_transition_a_realised_inbox[set]",
        ),
    ),
    Mutant(
        "M7",
        "the memo probe keyed on the encoding",
        "src/portlogic/machines.py",
        "                    met[kind].setdefault(value, {}).setdefault(canon(value), value)\n",
        "                    met[kind].setdefault(canon(value), {}).setdefault(canon(value), value)\n",
        (
            "tests/test_machines.py::test_conformance_catches_equal_values_with_different_encodings",
            "tests/test_cli.py::test_verify_exits_2_on_a_machine_that_breaks_its_class",
        ),
    ),
    Mutant(
        "M8",
        "the compiled transition reading only the first message behind a hidden incoming port",
        "src/portlogic/compiler.py",
        "                for m in ((inbox[i - 1],) if in_visible else inbox)\n",
        "                for m in ((inbox[i - 1],) if in_visible else inbox[:1])\n",
        (
            "tests/test_compiler.py::test_compile_matches_eval_random_suite[-+]",
            "tests/test_compiler.py::test_compile_matches_eval_random_suite[--]",
            "tests/test_acceptance.py::test_criterion_1_compiler_checker_equivalence",
        ),
    ),
    Mutant(
        "M9",
        "the suite's diamond_mask ignoring the grade",
        "src/portlogic/compiler.py",
        "            if (succ & sub_mask).bit_count() >= grade:\n",
        "            if (succ & sub_mask).bit_count() >= 1:\n",
        (
            "tests/test_compiler.py::test_diamond_mask_matches_a_per_world_recount[++-2]",
            "tests/test_compiler.py::test_diamond_mask_matches_a_per_world_recount[---3]",
            "tests/test_compiler.py::test_decompile_output_is_stable",
            "tests/test_golden.py::test_decompiled_formulas_are_byte_identical",
            "tests/test_logic.py::test_eval_lists_every_signature_problem_and_matches_the_suite_table[--]",
        ),
    ),
    Mutant(
        "M11",
        "_level looking a state up at the depth of its previous formula, without the round's pins",
        "src/portlogic/compiler.py",
        "            md = max(f.md for conjuncts in parts for f in conjuncts)\n",
        "            md = parts[0][0].md\n",
        (
            "tests/test_compiler.py::test_decompile_depth_matches_horizon",
            "tests/test_compiler.py::test_decompile_output_is_stable",
            "tests/test_golden.py::test_decompiled_formulas_are_byte_identical",
        ),
    ),
    Mutant(
        "M12",
        "conjunctions built without hash-consing",
        "src/portlogic/logic.py",
        "cache(And)",
        "And",
        (
            "tests/test_logic.py::test_hash_consing_gives_one_node_whatever_the_call_shape",
            "tests/test_logic.py::test_print_parse_roundtrip",
            "tests/test_logic.py::test_parse_reads_back_printed_formulas_only_up_to_max_nesting",
        ),
    ),
    Mutant(
        "M13",
        "the decompiler charging a stopped entry an enumeration visit again",
        "src/portlogic/compiler.py",
        "            terms.append((entry.state, [entry.formula], entry.table))\n            return\n",
        "            terms.append((entry.state, [entry.formula], entry.table))\n"
        "            return self._charge()\n",
        tuple(
            f"tests/test_compiler.py::test_decompile_keeps_a_stopped_state_without_enumerating_it[{seed}]"
            for seed in range(6)
        ),
    ),
    Mutant(
        "M14",
        "run's send table keyed without the degree",
        "src/portlogic/machines.py",
        "        sent = sends.get((s, d), _MISSING)\n"
        "        if sent is _MISSING:\n"
        "            sent = sends[s, d] = (\n",
        "        sent = sends.get(s, _MISSING)\n"
        "        if sent is _MISSING:\n"
        "            sent = sends[s] = (\n",
        (
            *(
                "tests/test_machines.py::test_compiled_reruns_on_mixed_degrees_match_the_reference"
                f"[{variant}]"
                for variant in ("++", "-+", "+-", "--")
            ),
            "tests/test_machines.py::test_run_matches_the_unmemoised_executor[compiled]",
            "tests/test_compiler.py::test_tabulated_machine_runs_like_a_fresh_one[--]",
        ),
    ),
    Mutant(
        "M15",
        "run keeping a memo for a machine whose run_memo is None",
        "src/portlogic/machines.py",
        "        memo = {}\n",
        "        memo = machine.run_memo = {}\n",
        (
            "tests/test_machines.py::test_run_keeps_no_state_across_runs",
            "tests/test_machines.py::test_compiled_machines_share_no_run_memo",
        ),
    ),
    Mutant(
        "M16",
        "the view table keyed without the state",
        "src/portlogic/machines.py",
        "    key = (state, view)\n",
        "    key = view\n",
        (
            "tests/test_machines.py::test_run_matches_the_unmemoised_executor[compiled]",
            "tests/test_machines.py::test_compiled_reruns_on_mixed_degrees_match_the_reference[++]",
            "tests/test_compiler.py::test_decompile_after_runs_on_the_suite_asks_no_transition[--]",
            "tests/test_golden.py::test_traces_are_byte_identical[compiled ++]",
        ),
    ),
    Mutant(
        "M17",
        "the parser's unary leaving its level open",
        "src/portlogic/logic.py",
        "            node = dia(alpha, self.unary(), grade)\n        self.depth -= 1\n",
        "            node = dia(alpha, self.unary(), grade)\n",
        (
            "tests/test_logic.py::test_parse_bounds_nesting[!-]",
            "tests/test_logic.py::test_parse_bounds_nesting[<*,*>-]",
        ),
    ),
    Mutant(
        "M18",
        "has_one_factor refusing a graph of exactly MATCHING_NODE_CAP nodes",
        "src/portlogic/graphs.py",
        "    if g.n > MATCHING_NODE_CAP:\n",
        "    if g.n >= MATCHING_NODE_CAP:\n",
        ("tests/test_graphs.py::test_has_one_factor_cap",),
    ),
    Mutant(
        "M19",
        "format_formula refusing a tree of exactly MAX_FORMAT_SIZE nodes",
        "src/portlogic/logic.py",
        "    if formula.size > MAX_FORMAT_SIZE:\n",
        "    if formula.size >= MAX_FORMAT_SIZE:\n",
        ("tests/test_logic.py::test_format_formula_refuses_trees_above_max_format_size",),
    ),
    Mutant(
        "M20",
        "eval_formula raising for an index no pair carries",
        "src/portlogic/logic.py",
        "            succ = model.successors.get(node.alpha, {}).items()\n",
        "            succ = model.successors[node.alpha].items()\n",
        (
            "tests/test_logic.py::test_kripke_model_answers_an_uncarried_index_with_no_successors",
            "tests/test_compiler.py::test_compile_matches_eval_random_suite[++]",
        ),
    ),
    Mutant(
        "M21",
        "the index check reading only the incoming side",
        "src/portlogic/logic.py",
        "            for x, side in zip(node.alpha, sig.sides)\n",
        "            for x, side in zip(node.alpha[:1], sig.sides)\n",
        ("tests/test_logic.py::test_signature_derives_its_variant_and_legal_indices",),
    ),
    Mutant(
        "M22",
        "run asking the machine on the inbox as heard, unpadded",
        "src/portlogic/machines.py",
        "        nxt = next_state(machine, s, realise(machine, inbox, key))\n",
        "        nxt = next_state(machine, s, canonical_inbox(machine.tag.inbox, inbox, key))\n",
        ("tests/test_machines.py::test_inbox_padded_to_delta",),
    ),
    Mutant(
        "M23",
        "a refinement key part without its index rank",
        "src/portlogic/bisim.py",
        "                parts.append((rank, part))\n",
        "                parts.append(part)\n",
        (
            "tests/test_bisim.py::test_refinement_partitions_verify_and_are_maximal",
            "tests/test_acceptance.py::test_criterion_8_bisimulation_soundness_maximality_transfer",
        ),
    ),
    Mutant(
        "M24",
        "a nodes line of any length past one field read as the nodes line",
        "src/portlogic/graphs.py",
        "        if fields[0] == \"nodes\" and len(fields) == 2:\n",
        "        if fields[0] == \"nodes\" and len(fields) >= 2:\n",
        ("tests/test_graphs.py::test_graph_format_roundtrip",),
    ),
    Mutant(
        "M25",
        "the graded witness naming the differing world first",
        "src/portlogic/bisim.py",
        "(reference[0], v, alpha)",
        "(v, reference[0], alpha)",
        ("tests/test_bisim.py::test_verify_graded_requires_equivalence",),
    ),
    Mutant(
        "M26",
        "a model keeping a pair listed twice as two successors",
        "src/portlogic/logic.py",
        "                for v, w in sorted(set(pairs)):\n",
        "                for v, w in sorted(pairs):\n",
        ("tests/test_logic.py::test_kripke_model_drops_duplicate_pairs",),
    ),
    Mutant(
        "M27",
        "the union of one model built as a second model",
        "src/portlogic/logic.py",
        "    if len(models) == 1:\n        return models[0], [0]\n",
        "",
        ("tests/test_logic.py::test_disjoint_union_of_one_model_is_that_model",),
    ),
    Mutant(
        "M28",
        "realise padding the inbox without realising it",
        "src/portlogic/machines.py",
        "    return canonical_inbox(machine.tag.inbox, padded, key)\n",
        "    return padded\n",
        (
            "tests/test_machines.py::test_realised_inboxes_hide_the_incoming_numbering[SV]",
            "tests/test_machines.py::test_wrappers_hand_their_base_the_realised_view"
            "[set_from_multiset-MV]",
            "tests/test_simulate.py::test_wrapper_encodes_each_payload_once"
            "[set_from_multiset-odd_odd_machine]",
            "tests/test_compiler.py::test_decompile_hands_every_transition_a_realised_inbox[set]",
        ),
    ),
    Mutant(
        "M29",
        "a compiled machine's message domains keyed by the incoming index",
        "src/portlogic/compiler.py",
        "                targets[f.alpha[1]].add(index[id(f.sub)])\n",
        "                targets[f.alpha[0]].add(index[id(f.sub)])\n",
        (
            "tests/test_compiler.py::test_closure_port_indexed",
            "tests/test_compiler.py::test_compile_matches_eval_random_suite[++]",
        ),
    ),
    Mutant(
        "M30",
        "the suite's degree-0 table without its worlds",
        "src/portlogic/compiler.py",
        "        return self.full_mask & ~others\n",
        "        return 0\n",
        (
            "tests/test_compiler.py::test_diamond_mask_matches_a_per_world_recount[++-1]",
            "tests/test_compiler.py::test_diamond_mask_matches_a_per_world_recount[---3]",
            "tests/test_golden.py::test_decompiled_formulas_are_byte_identical",
        ),
    ),
    Mutant(
        "M31",
        "impossibility_check accepting the graded classes",
        "src/portlogic/bisim.py",
        "    if tag is None or tag.graded:\n",
        "    if tag is None:\n",
        (
            "tests/test_bisim.py::test_impossibility_refuses_the_graded_classes[MV]",
            "tests/test_bisim.py::test_impossibility_refuses_the_graded_classes[MB]",
        ),
    ),
    Mutant(
        "M32",
        "a signature writing the visible incoming side as hidden",
        "src/portlogic/logic.py",
        "(ports if in_visible else (STAR,), ",
        "((STAR,), ",
        ("tests/test_logic.py::test_signature_derives_its_variant_and_legal_indices",),
    ),
)


def _junit_id(case: ET.Element) -> str:
    """The pytest node id of a junit test case (test modules sit in ``tests``)."""
    module = case.get("classname").replace(".", "/")
    return f"{module}.py::{case.get('name')}"


def run_tests(src: Path, tests, scratch: Path) -> dict[str, str]:
    """Run ``tests`` against the package in ``src``: node id -> "passed",
    "failed" or "skipped".  A test that did not run is missing."""
    report = scratch / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
         f"--junitxml={report}", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
    )
    if not report.exists():
        return {}
    cases = ET.parse(report).getroot().iter("testcase")
    outcome = {}
    for case in cases:
        tags = {child.tag for child in case}
        outcome[_junit_id(case)] = (
            "failed" if tags & {"failure", "error"} else "skipped" if "skipped" in tags else "passed"
        )
    report.unlink()
    return outcome


def imported_from(src: Path) -> Path:
    """Where ``portlogic`` is imported from with ``src`` on the path."""
    out = subprocess.run(
        [sys.executable, "-c", "import portlogic; print(portlogic.__file__)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    return Path(out.stdout.strip()).parent


def mutate(mutant: Mutant, scratch: Path) -> Path | None:
    """A fresh copy of ``src`` with the mutant applied, or None when stale."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = scratch / mutant.file
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return None
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def code_lines(source: str) -> set[int]:
    """The lines the census checks in ``source``: those of every code object
    nested in the module (function and class bodies; the module's own lines
    run on import), less each code object's first line (its ``def`` or
    ``class`` line, or a decorator's) and the lines that hold only a docstring."""
    lines: set[int] = set()
    codes = [compile(source, "<census>", "exec")]
    while codes:
        nested = [const for const in codes.pop().co_consts if isinstance(const, types.CodeType)]
        for code in nested:
            lines.update(
                line for _, _, line in code.co_lines() if line not in (None, code.co_firstlineno)
            )
        codes.extend(nested)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_census() -> int:
    """Run Tier 1 traced and print the never-run lines of ``src/portlogic``."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, __file__, "--lines"], env=env, check=False).returncode
    import pytest

    prefix = f"{PACKAGE}{os.sep}"
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    # as in the Tier-1 command, for the tests that start python -m portlogic.cli
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    os.chdir(ROOT)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    import portlogic

    if Path(portlogic.__file__).parent != PACKAGE:
        print(f"error: portlogic was imported from {portlogic.__file__}, not {PACKAGE}")
        return 1
    if status != 0:
        print(f"pytest exited {int(status)} under tracing; its failures do not decide the census")
    total = 0
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        missed = sorted(line for line in code_lines(source) if (str(module), line) not in ran)
        total += len(missed)
        if missed:
            text = source.splitlines()
            print(f"{module.relative_to(ROOT)}: {len(missed)} never-run lines")
            for line in missed:
                print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"{total} never-run lines in {PACKAGE.relative_to(ROOT)}")
    return 1 if total else 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="portlogic-mutants-") as tmp:
        scratch = Path(tmp)
        plain = scratch / "plain"
        shutil.copytree(ROOT / "src", plain, ignore=shutil.ignore_patterns("__pycache__"))
        if imported_from(plain) != plain / "portlogic":
            print("error: the copy of src is not the package the tests import")
            return 1
        every = sorted({test for mutant in MUTANTS for test in mutant.tests})
        baseline = run_tests(plain, every, scratch)
        broken = [test for test in every if baseline.get(test) != "passed"]
        if broken:
            for test in broken:
                print(f"baseline: {test} does not pass on the unmutated source")
            return 1
        counts = {"killed": 0, "survived": 0, "stale": 0}
        for mutant in MUTANTS:
            src = mutate(mutant, scratch)
            if src is None:
                verdict, detail = "stale", f"the old snippet does not occur once in {mutant.file}"
            else:
                outcome = run_tests(src, mutant.tests, scratch)
                unfailed = [test for test in mutant.tests if outcome.get(test) != "failed"]
                verdict = "survived" if unfailed else "killed"
                detail = (
                    "not failed: " + ", ".join(unfailed)
                    if unfailed
                    else f"{len(mutant.tests)} of {len(mutant.tests)} tests failed"
                )
            counts[verdict] += 1
            print(f"{mutant.id} {verdict}: {mutant.what} ({detail})")
        print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
        return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(line_census() if sys.argv[1:] == ["--lines"] else main())
