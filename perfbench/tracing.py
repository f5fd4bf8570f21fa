"""Out-of-program tracing of portlogic's layers.

``Tracer.install`` replaces the public functions of each module (layer) with
wrappers, in every ``portlogic`` module that holds a reference to them, and
``uninstall`` puts the originals back; nothing under ``src/`` changes.  Most
wrappers record one span per call (name, start, end, parent) in memory.
The hot leaves, ``encoding.canon``/``digest`` and the problem verifiers, run
up to about a million times per sweep, so their wrappers only count
top-level calls and add up their time.  Self time is kept as calls return:
a span's duration minus the time of the spans and leaf calls directly
inside it.

Inputs built while a tracer is installed hold wrapped verifiers, so a traced
run builds its own inputs and uses them only while tracing.  Span times are
the thread's CPU time, the clock the untraced run uses.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter, defaultdict
from time import thread_time

from portlogic import bisim, cli, compiler, encoding, logic, machines, problems, simulate, smallgraphs

ROOT_SPAN = "bench"
PROBLEM_FACTORIES = ("leaf_election", "odd_odd", "nonconstant_on_unmatchable")
WRAPPER_FACTORIES = ("set_from_multiset", "multiset_from_vector")


class Tracer:
    """Spans and per-layer counters for one phase at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._next_id = 1
        self._undo: list[tuple] = []
        self._in_leaf = False
        self._wrapped_ids: set[int] = set()
        self._base_ids: set[int] = set()
        self.start_phase("setup")

    # -- phases ------------------------------------------------------------

    def start_phase(self, phase: str):
        self.phase = phase
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.extra: defaultdict = defaultdict(float)
        self._stack = [[0, 0.0, ROOT_SPAN]]

    def snapshot(self, scale: float = 1.0) -> dict:
        """Counters of the current phase, times multiplied by ``scale``.

        ``attributed_s`` is the time spent inside any layer.
        """

        def scaled(times: dict) -> dict:
            return {k: v * scale if k.endswith("_s") else v for k, v in times.items()}

        return {
            "calls": dict(self.calls),
            "self_s": {k: v * scale for k, v in self.self_s.items()},
            "total_s": {k: v * scale for k, v in self.total_s.items()},
            "extra": scaled(self.extra),
            "attributed_s": self._stack[0][1] * scale,
        }

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            frame = [tracer._next_id, 0.0, name]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = thread_time()
                tracer._stack.pop()
                duration = end - start
                parent[1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.total_s[name] += duration
                tracer.spans.append((frame[0], name, start, end, parent[0], tracer.phase))
            if hook is not None:
                hook(duration, args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = thread_time() - start
                tracer._in_leaf = False
                tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration
                tracer.total_s[name] += duration
            if hook is not None:
                hook(duration, args, result)
            return result

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _on_run(self, duration, args, result):
        machine, pg = args[0], args[1]
        self.extra["machines.node_rounds"] += pg.graph.n * result.rounds
        if id(machine) in self._wrapped_ids:
            self.extra["simulate.wrapped_run_s"] += duration
        elif id(machine) in self._base_ids:
            self.extra["simulate.base_run_s"] += duration

    def _on_verifier(self, duration, args, result):
        if self._stack[-1][2] == "bisim.impossibility_check":
            self.extra["bisim.audit.candidates"] += 1
            self.extra["bisim.audit.valid"] += bool(result)

    def _on_decompile(self, duration, args, result):
        self.extra["compiler.decompile.formula_nodes"] += len(logic.subformulas(result.formula))

    def _on_cli(self, duration, args, result):
        argv = args[0] if args else []
        if len(argv) > 1 and argv[0] == "separate":
            self.extra[f"cli.separate.{argv[1]}_s"] += duration

    def _problem_factory(self, factory):
        def wrapper(*args, **kwargs):
            problem = factory(*args, **kwargs)
            verifier = self._leaf("problems.verifier", problem.verifier, self._on_verifier)
            return dataclasses.replace(problem, verifier=verifier)

        return wrapper

    def _wrapper_factory(self, factory):
        def wrapper(base, *args, **kwargs):
            machine = factory(base, *args, **kwargs)
            self._base_ids.add(id(base))
            self._wrapped_ids.add(id(machine))
            return machine

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, module, attr: str, wrapped, home: bool = True):
        """Rebind ``module.attr`` in every portlogic module that holds it.

        With ``home`` false the defining module keeps the original, so calls
        a leaf makes to itself (``canon`` recursing, ``digest`` encoding)
        stay inside that leaf's count.
        """
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if not (name == "portlogic" or name.startswith("portlogic.")):
                continue
            if mod is module and not home:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _replace_method(self, cls, attr: str, wrapped):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        leaf, span = self._leaf, self._span
        self._replace(encoding, "canon", leaf("encoding.canon", encoding.canon), home=False)
        self._replace(encoding, "digest", leaf("encoding.digest", encoding.digest), home=False)
        for name in PROBLEM_FACTORIES:
            self._replace(problems, name, self._problem_factory(getattr(problems, name)))
        for name in WRAPPER_FACTORIES:
            self._replace(simulate, name, self._wrapper_factory(getattr(simulate, name)))
        layers = [
            (machines, "run", "machines.run", self._on_run),
            (compiler, "compile_formula", "compiler.compile_formula", None),
            (compiler, "decompile_details", "compiler.decompile", self._on_decompile),
            (logic, "kripke_model", "logic.kripke_model", None),
            (logic, "eval_formula", "logic.eval_formula", None),
            (bisim, "coarsest_bisimulation", "bisim.refine", None),
            (bisim, "coarsest_graded_bisimulation", "bisim.refine", None),
            (bisim, "verify_bisimulation", "bisim.verify", None),
            (bisim, "impossibility_check", "bisim.impossibility_check", None),
            (smallgraphs, "all_graphs", "smallgraphs.all_graphs", None),
            (smallgraphs, "numberings", "smallgraphs.numberings", None),
            (cli, "main", "cli.main", self._on_cli),
        ]
        for module, attr, name, hook in layers:
            self._replace(module, attr, span(name, getattr(module, attr), hook))
        suite = compiler.ModelSuite
        self._replace_method(suite, "__init__", span("compiler.model_suite", suite.__init__))
        self._replace_method(suite, "table", span("compiler.table", suite.table))
        for attr in ("merge", "as_pairs", "refines"):
            method = getattr(bisim.Partition, attr)
            self._replace_method(bisim.Partition, attr, span("bisim.partition", method))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """One JSON array per line: id, name, start, end, parent id, phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(setup: dict, sweep: dict) -> dict:
    """Per-layer metrics from the traced set-up and the traced sweep.

    ``setup`` and ``sweep`` are ``Tracer.snapshot`` results.  Set-up layers
    (graph enumeration, numberings, suite construction) come from the
    set-up phase, Kripke construction from both phases, everything else
    from the sweep.
    """
    calls, self_s, total_s, extra = sweep["calls"], sweep["self_s"], sweep["total_s"], sweep["extra"]
    ratio = lambda a, b: a / b if b else 0.0
    out = {}
    for name in (
        "encoding.canon", "encoding.digest", "machines.run", "compiler.table",
        "compiler.decompile", "logic.eval_formula", "bisim.refine", "bisim.verify",
        "problems.verifier",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("compiler.compile_formula", "bisim.partition", "bisim.impossibility_check", "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    node_rounds = extra.get("machines.node_rounds", 0)
    out["machines.node_rounds"] = int(node_rounds)
    out["machines.node_rounds_per_s"] = ratio(node_rounds, total_s.get("machines.run", 0.0))
    base = extra.get("simulate.base_run_s", 0.0)
    wrapped = extra.get("simulate.wrapped_run_s", 0.0)
    out["simulate.base_run_s"] = base
    out["simulate.wrapped_run_s"] = wrapped
    out["simulate.wrapped_over_base"] = ratio(wrapped, base)
    out["compiler.decompile.formula_size"] = ratio(
        extra.get("compiler.decompile.formula_nodes", 0), calls.get("compiler.decompile", 0)
    )
    out["compiler.model_suite.s"] = setup["total_s"].get("compiler.model_suite", 0.0)
    out["logic.kripke_model.calls"] = setup["calls"].get("logic.kripke_model", 0) + calls.get(
        "logic.kripke_model", 0
    )
    out["logic.kripke_model.self_s"] = setup["self_s"].get("logic.kripke_model", 0.0) + self_s.get(
        "logic.kripke_model", 0.0
    )
    candidates = extra.get("bisim.audit.candidates", 0)
    valid = extra.get("bisim.audit.valid", 0)
    out["bisim.audit.candidates"] = int(candidates)
    out["bisim.audit.valid"] = int(valid)
    out["bisim.audit.valid_ratio"] = ratio(valid, candidates)
    out["bisim.audit.candidates_per_s"] = ratio(
        candidates, total_s.get("bisim.impossibility_check", 0.0)
    )
    for demo in ("star", "parity", "regular"):
        out[f"cli.separate.{demo}_s"] = extra.get(f"cli.separate.{demo}_s", 0.0)
    out["smallgraphs.all_graphs.s"] = setup["total_s"].get("smallgraphs.all_graphs", 0.0)
    out["smallgraphs.numberings.s"] = setup["total_s"].get("smallgraphs.numberings", 0.0)
    return out
