"""Command-line front end: reproducible experiments with JSON reports.

Subcommands: run, check, compile, decompile, bisim, separate, gen, verify.
Every command is deterministic given its flags (all randomness sits behind
--seed), reports are JSON-serialisable with stable key order, and --json
prints the raw report document.  Exit codes: 2 for validation problems,
3 for a timed-out run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import bisim as bisim_mod
from . import compiler as compiler_mod
from . import problems as problems_mod
from . import simulate as simulate_mod
from .graphs import (
    Graph,
    GraphError,
    PortedGraph,
    PortNumbering,
    PortlogicError,
    consistent_port_numbering,
    cycle,
    format_graph,
    format_ported,
    load_graph,
    load_ported,
    no_one_factor_cubic,
    random_port_numbering,
    star,
    symmetric_port_numbering,
)
from .logic import (
    VARIANTS,
    Signature,
    disjoint_union,
    eval_formula,
    format_formula,
    kripke_model,
    parse,
    subformulas,
)
from .machines import run as run_machine
from .machines import check_class_conformance, trace_to_json

EXIT_VALIDATION = 2
EXIT_TIMEOUT = 3

NUMBERINGS: dict[str, Callable[[Graph, int], PortNumbering]] = {
    "random": random_port_numbering,
    "consistent": consistent_port_numbering,
    "symmetric": lambda g, seed: symmetric_port_numbering(g),
}

FAMILIES: dict[str, Callable[[int], Graph]] = {
    "star": star,
    "cycle": cycle,
    "no_one_factor_cubic": lambda k: no_one_factor_cubic(),
    "parity_union": lambda k: problems_mod.parity_union()[0],
}

WRAPPERS = {
    "set_from_multiset": simulate_mod.set_from_multiset,
    "multiset_from_vector": simulate_mod.multiset_from_vector,
    "bcast_multiset_from_broadcast": simulate_mod.bcast_multiset_from_broadcast,
}


class CliError(PortlogicError):
    """Invalid command-line input."""


def _load_ported(name: str, args) -> PortedGraph:
    try:
        if name.endswith(".pn"):
            return load_ported(name)
        g = load_graph(name)
    except (OSError, GraphError) as exc:
        raise CliError(f"cannot load graph: {exc}") from exc
    numbering = NUMBERINGS["consistent" if getattr(args, "consistent", False) else "random"]
    return PortedGraph(g, numbering(g, args.seed))


def _delta(args, pg: PortedGraph) -> int:
    """``--delta`` when given, else the graph's maximum degree (at least 1)."""
    if args.delta is None:
        return max(1, pg.graph.max_degree())
    if args.delta < 1:
        raise CliError("--delta must be at least 1")
    return args.delta


def _machine_for(args, delta: int):
    name, formula = getattr(args, "machine", None), getattr(args, "formula", None)
    if bool(name) == bool(formula):
        raise CliError("give exactly one of --machine or --formula")
    if formula:
        return compiler_mod.compile_formula(parse(formula), Signature(delta, args.variant))
    base = name
    wrapper = None
    for wname in WRAPPERS:
        prefix = wname + ":"
        if name.startswith(prefix):
            wrapper = WRAPPERS[wname]
            base = name[len(prefix):]
            break
    if base not in problems_mod.MACHINES:
        raise CliError(
            f"unknown machine {base!r}; available: {', '.join(sorted(problems_mod.MACHINES))}"
        )
    machine = problems_mod.MACHINES[base](delta)
    if wrapper is not None:
        machine = wrapper(machine)
    return machine


def _report(args, doc: dict) -> int:
    """Print ``doc`` with the command name and the time since ``main``
    dispatched the command."""
    doc = {"command": args.command, **doc, "timing": round(time.perf_counter() - args.started, 6)}
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in doc.items():
            if key == "command":
                continue
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    return 0


def cmd_run(args) -> int:
    pg = _load_ported(args.graph, args)
    machine = _machine_for(args, _delta(args, pg))
    result = run_machine(machine, pg, args.max_rounds, record_messages=args.trace)
    doc = {
        "inputs": {"graph": args.graph, "nodes": pg.graph.n, "seed": args.seed},
        "machine": machine.name,
        "class": machine.tag.code,
        "rounds": result.rounds,
        "timed_out": not result.stopped,
        "outputs": None
        if result.outputs is None
        else {str(v): result.outputs[v] for v in sorted(result.outputs)},
    }
    if args.trace:
        doc["trace"] = trace_to_json(result)
    code = _report(args, doc)
    if not result.stopped:
        return EXIT_TIMEOUT
    return code


def cmd_check(args) -> int:
    pg = _load_ported(args.graph, args)
    formula = parse(args.formula)
    worlds = eval_formula(kripke_model(pg, args.variant, _delta(args, pg)), formula)
    return _report(
        args,
        {
            "inputs": {"graph": args.graph, "formula": args.formula, "variant": args.variant},
            "satisfying_worlds": sorted(worlds),
        },
    )


def cmd_compile(args) -> int:
    formula = parse(args.formula)
    machine = compiler_mod.compile_formula(formula, Signature(args.delta, args.variant))
    report = check_class_conformance(machine, seed=args.seed)
    return _report(
        args,
        {
            "inputs": {"formula": args.formula, "variant": args.variant, "delta": args.delta},
            "class": machine.tag.code,
            "modal_depth": formula.md,
            "stopping_round": formula.md + 1,
            "closure_size": len(machine.closure),
            "conformance": bool(report.ok),
        },
    )


def cmd_decompile(args) -> int:
    delta = args.delta
    machine = _machine_for(args, delta)
    result = compiler_mod.decompile_details(
        machine,
        delta,
        args.horizon,
        args.variant,
        node_bound=args.node_bound,
    )
    return _report(
        args,
        {
            "inputs": {
                "machine": args.machine,
                "variant": args.variant,
                "delta": delta,
                "horizon": args.horizon,
            },
            "modal_depth": result.formula.md,
            "dag_nodes": len(subformulas(result.formula)),
            "tree_size": result.formula.size,
            "formula": format_formula(result.formula),
        },
    )


def cmd_bisim(args) -> int:
    graphs = [_load_ported(name, args) for name in args.graph]
    delta = max(1, max(pg.graph.max_degree() for pg in graphs))
    model, _ = disjoint_union(kripke_model(pg, args.variant, delta) for pg in graphs)
    refine = (
        bisim_mod.coarsest_graded_bisimulation
        if args.graded
        else bisim_mod.coarsest_bisimulation
    )
    partition = refine(model)
    return _report(
        args,
        {
            "inputs": {"graphs": list(args.graph), "variant": args.variant, "graded": args.graded},
            "worlds": model.size,
            "blocks": partition.to_json(),
        },
    )


@dataclass(frozen=True)
class Separation:
    """A problem solved on one graph by a machine and refuted in a weaker class.

    ``machine`` keys ``problems.MACHINES`` and ``problem`` names a factory in
    ``portlogic.problems``, and the problem it builds by the same name; both
    are looked up when the demo runs.  ``refuted_class`` is a
    ``machines.CLASSES`` code.
    """

    instance: Callable[[], tuple]  # (graph, *X)
    machine: str
    problem: str
    numbering: Callable[[Graph, int], PortNumbering]  # positive run k uses seed + k
    runs: int
    refuted_class: str
    refuting_numbering: Callable[[Graph, int], PortNumbering]


def _cubic_instance():
    g = no_one_factor_cubic()
    return (g, *range(g.n))


SEPARATIONS = {
    "star": Separation(
        lambda: (star(3), 1, 2, 3), "leaf_election", "leaf_election",
        random_port_numbering, 5, "VB", consistent_port_numbering,
    ),
    "parity": Separation(
        problems_mod.parity_union, "odd_odd", "odd_odd",
        random_port_numbering, 5, "SB", consistent_port_numbering,
    ),
    "regular": Separation(
        _cubic_instance, "symmetry_break", "nonconstant_on_unmatchable",
        consistent_port_numbering, 3, "VV", NUMBERINGS["symmetric"],
    ),
}


def separation(demo: str, seed: int) -> dict:
    """Run one demo of ``SEPARATIONS``; the certificate stays a library object."""
    spec = SEPARATIONS[demo]
    g, *x_nodes = spec.instance()
    machine = problems_mod.MACHINES[spec.machine](g.max_degree())
    problem = getattr(problems_mod, spec.problem)()
    audit = []
    for k in range(spec.runs):
        result = run_machine(machine, PortedGraph(g, spec.numbering(g, seed + k)), 8)
        audit.append(result.stopped and problem.check(g, result.outputs))
    certificate = bisim_mod.impossibility_check(
        g, x_nodes, problem, spec.refuted_class, spec.refuting_numbering(g, seed)
    )
    consistent = spec.numbering is consistent_port_numbering
    return {
        "demo": demo,
        "solved_in": machine.tag.code + (" (assuming consistency)" if consistent else ""),
        "refuted_class": spec.refuted_class,
        "positive_runs_valid": all(audit),
        "certificate": certificate,
    }


def cmd_separate(args) -> int:
    doc = separation(args.demo, args.seed)
    certificate = doc["certificate"]
    doc["certificate"] = certificate.to_json()
    ok = doc["positive_runs_valid"]
    if isinstance(certificate, bisim_mod.Refutation):
        recheck = bisim_mod.verify_bisimulation(
            certificate.model, None, certificate.partition.as_pairs()
        )
        doc["certificate"]["reverified"] = bool(recheck)
        ok = ok and bool(recheck)
    else:
        ok = False
    doc["ok"] = ok
    code = _report(args, doc)
    if not ok:
        return 1
    return code


def cmd_gen(args) -> int:
    g = FAMILIES[args.family](args.k)
    if args.numbering == "none":
        text = format_graph(g)
    else:
        text = format_ported(PortedGraph(g, NUMBERINGS[args.numbering](g, args.seed)))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write graph: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    doc: dict = {"inputs": {"graph": args.graph}}
    try:
        pg = load_ported(args.graph)
    except (OSError, GraphError) as exc:
        raise CliError(f"invalid ported graph: {exc}") from exc
    delta = _delta(args, pg)
    report = None
    if args.machine or args.formula:
        machine = _machine_for(args, delta)
        report = check_class_conformance(machine, seed=args.seed)
        doc["conformance"] = {
            "machine": machine.name,
            "class": machine.tag.code,
            "ok": report.ok,
            "probes": report.probes,
            "violations": len(report.violations),
        }
        if not report.ok:
            doc["first_violation"] = repr(report.violations[0])
    code = _report(args, doc)
    if report is not None and not report.ok:
        return EXIT_VALIDATION
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portlogic",
        description="Weak port-numbering models: execution, model checking, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print the full JSON report")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="execute a machine or compiled formula on a graph")
    p.add_argument("--graph", required=True, help=".g or .pn file")
    p.add_argument("--machine", help="builtin machine name, optionally wrapper:name")
    p.add_argument("--formula", help="formula text to compile and run")
    p.add_argument("--variant", metavar="{++,-+,+-,--}", default="--")
    p.add_argument("--delta", type=int)
    p.add_argument("--max-rounds", type=int, default=64, dest="max_rounds")
    p.add_argument("--consistent", action="store_true", help="use a consistent numbering for .g files")
    p.add_argument("--trace", action="store_true", help="include the full trace in the report")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="model-check a formula on a ported graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--variant", metavar="{++,-+,+-,--}", default=None)
    p.add_argument("--delta", type=int)
    p.add_argument("--consistent", action="store_true")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile a formula to a local algorithm")
    p.add_argument("--formula", required=True)
    p.add_argument("--variant", metavar="{++,-+,+-,--}", default=None)
    p.add_argument("--delta", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("decompile", help="turn a finite-horizon machine into a formula")
    p.add_argument("--machine", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--variant", metavar="{++,-+,+-,--}", default=None)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--node-bound", type=int, default=5, dest="node_bound")
    p.add_argument("--json", action="store_true", help="print the full JSON report")
    p.set_defaults(func=cmd_decompile)

    p = sub.add_parser("bisim", help="coarsest (graded) bisimulation partition")
    p.add_argument("--graph", action="append", required=True, help="repeat for a disjoint union")
    p.add_argument("--variant", metavar="{++,-+,+-,--}", default=None)
    p.add_argument("--graded", action="store_true")
    common(p)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("separate", help="run a separation demo and emit its certificate")
    p.add_argument("demo", choices=list(SEPARATIONS))
    common(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("gen", help="emit a generator graph as .g/.pn text")
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--k", type=int, default=3, help="size parameter for star/cycle")
    p.add_argument("--numbering", choices=["none", *NUMBERINGS], default="none")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="validate a .pn file and optionally probe a machine's memo contract")
    p.add_argument("--graph", required=True)
    p.add_argument("--machine")
    p.add_argument("--formula")
    p.add_argument("--variant", metavar="{++,-+,+-,--}", default="--")
    p.add_argument("--delta", type=int)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _extract_variant(argv: list[str]) -> tuple[list[str], str | None]:
    """Pull ``--variant X`` / ``--variant=X`` out before argparse sees it.

    The variant codes start with - (or are exactly --), which argparse
    refuses to accept as option values.
    """
    out: list[str] = []
    value = None
    k = 0
    while k < len(argv):
        token = argv[k]
        if token == "--variant" and k + 1 < len(argv):
            value = argv[k + 1]
            k += 2
        elif token.startswith("--variant="):
            value = token.split("=", 1)[1]
            k += 1
        else:
            out.append(token)
            k += 1
    return out, value


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    rest, variant = _extract_variant(list(argv))
    args = parser.parse_args(rest)
    args.started = time.perf_counter()
    if variant is not None:
        if "variant" not in vars(args):
            print(f"error: {args.command} takes no --variant", file=sys.stderr)
            return EXIT_VALIDATION
        if variant not in VARIANTS:
            print(
                f"error: --variant must be one of {', '.join(VARIANTS)}",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
        args.variant = variant
    # the commands whose parser defaults --variant to None require it
    if "variant" in vars(args) and args.variant is None:
        print("error: --variant is required", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except PortlogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
