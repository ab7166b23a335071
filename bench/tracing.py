"""Layer trace taken from outside the library.

While a ``patched(tracer)`` block is active, the public functions of each
layer are replaced, at the name their caller looks up, by wrappers that
record a span (name, start, end, parent, thread) in memory.  ``layer_metrics``
turns the spans of one pass into the per-layer numbers.  Nothing in the
library is edited; leaving the block restores every original.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager

import groundhold.cli as cli
import groundhold.evaluate as evaluate
import groundhold.solver as solver
from groundhold.milp import MilpModel

MIB = 2 ** 20


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, id, name, start, parent, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, **self.attrs}


class Tracer:
    """Spans of one pass, kept in memory.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a sweep's pool worker) takes the open
    ``evaluate.sweep`` span as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sweep: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._sweep
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        None if parent is None else parent.id, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def _traced(tracer: Tracer, name: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if note is not None:
            note(span.attrs, result)
        return result
    return wrapper


def _traced_sweep(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cpu0 = time.process_time()
        span = tracer.open("evaluate.sweep")
        tracer._sweep = span
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._sweep = None
            tracer.close(span)
            span.attrs["cpu_s"] = time.process_time() - cpu0
    return wrapper


def _note_model(attrs, model):
    attrs["rows"] = model.num_constraints
    attrs["cols"] = model.num_variables
    attrs["nnz"] = sum(len(con.terms) for con in model.constraints)


def _note_arrays(attrs, arrays):
    attrs["m"], attrs["n"] = arrays.A.shape


def _note_milp(attrs, sol):
    attrs["nodes"] = sol.nodes
    attrs["pivots"] = sol.pivots


def _note_lp(attrs, lp):
    attrs["pivots"] = lp.pivots
    attrs["status"] = lp.status


def _note_policy(attrs, policy):
    attrs["policy"] = policy.summary()


def _note_eval(attrs, ev):
    attrs["samples"] = ev.sample_size


_BUILDERS = ("build_d_saghp", "build_s_saghp", "build_dr_saghp", "build_dr_maghp")


@contextmanager
def patched(tracer: Tracer):
    """Swap every traced name for its wrapper; restore the originals on exit."""
    targets = [
        (cli, "load_instance", "ingest.load", None),
        (cli, "extract_policy", "models.extract", _note_policy),
        (cli, "solve_milp", "solver.milp", _note_milp),
        (evaluate, "extract_policy", "models.extract", _note_policy),
        (evaluate, "solve_milp", "solver.milp", _note_milp),
        (evaluate, "evaluate_policy", "evaluate.eval", _note_eval),
        (evaluate, "sample_capacities", "evaluate.sample", None),
        (solver, "solve_lp_arrays", "simplex.lp", _note_lp),
        (MilpModel, "to_arrays", "milp.to_arrays", _note_arrays),
    ]
    for module in (cli, evaluate):
        targets += [(module, b, "models.build", _note_model) for b in _BUILDERS if hasattr(module, b)]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    saved.append((cli, "epsilon_sweep", cli.epsilon_sweep))
    try:
        for owner, attr, name, note in targets:
            setattr(owner, attr, _traced(tracer, name, getattr(owner, attr), note))
        cli.epsilon_sweep = _traced_sweep(tracer, cli.epsilon_sweep)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the union of the child intervals clipped to the span."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - _union_length([iv for iv in clipped if iv[1] > iv[0]])


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one pass; 0 where the pass never entered a layer."""
    children: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return sum(s.duration if key is None else s.attrs[key] for s in named(name))

    solves = named("solver.milp")
    nodes = total("solver.milp", "nodes")
    milp_pivots = total("solver.milp", "pivots")
    root_lps = []
    infeasible = 0
    for s in solves:
        lps = sorted((c for c in children.get(s.id, []) if c.name == "simplex.lp"),
                     key=lambda c: c.start)
        if lps:
            root_lps.append(lps[0])
        infeasible += sum(c.attrs["status"] == "infeasible" for c in lps)
    lp_s = total("simplex.lp")
    lp_pivots = total("simplex.lp", "pivots")
    eval_s = total("evaluate.eval")
    samples = total("evaluate.eval", "samples")
    sweeps = named("evaluate.sweep")
    distinct = sum(
        len({c.attrs["policy"] for c in children.get(s.id, []) if c.name == "models.extract"})
        for s in sweeps)

    return {
        "cli.self_s": sum(_self_time(s, children.get(s.id, [])) for s in named("cli.main")),
        "ingest.load_s": total("ingest.load"),
        "models.build_s": total("models.build"),
        "models.extract_s": total("models.extract"),
        "models.rows": total("models.build", "rows"),
        "models.cols": total("models.build", "cols"),
        "models.nnz": total("models.build", "nnz"),
        "milp.to_arrays_s": total("milp.to_arrays"),
        "milp.to_arrays_calls": len(named("milp.to_arrays")),
        "milp.dense_mb": sum(8 * s.attrs["m"] * s.attrs["n"] for s in named("milp.to_arrays")) / MIB,
        "solver.milp_s": total("solver.milp"),
        "solver.self_s": sum(_self_time(s, children.get(s.id, [])) for s in solves),
        "solver.nodes": nodes,
        "solver.pivots_per_node": _ratio(milp_pivots, nodes),
        "solver.infeasible_node_ratio": _ratio(infeasible, nodes),
        "solver.root_lp_s": sum(s.duration for s in root_lps),
        "solver.root_pivots": sum(s.attrs["pivots"] for s in root_lps),
        "simplex.lp_calls": len(named("simplex.lp")),
        "simplex.lp_s": lp_s,
        "simplex.pivots": lp_pivots,
        "simplex.pivots_per_lp": _ratio(lp_pivots, len(named("simplex.lp"))),
        "simplex.us_per_pivot": _ratio(lp_s, lp_pivots, 1e6),
        "evaluate.sweep_s": total("evaluate.sweep"),
        "evaluate.eval_s": eval_s,
        "evaluate.samples_scored": samples,
        "evaluate.ns_per_sample": _ratio(eval_s, samples, 1e9),
        "evaluate.sample_s": total("evaluate.sample"),
        "evaluate.cpu_util": _ratio(total("evaluate.sweep", "cpu_s"), total("evaluate.sweep")),
        "evaluate.distinct_policies": distinct,
    }


# Counts that must repeat exactly from pass to pass and run to run.
COUNTS = ("models.rows", "models.cols", "models.nnz", "milp.to_arrays_calls", "solver.nodes",
          "solver.root_pivots", "simplex.lp_calls", "simplex.pivots", "evaluate.samples_scored",
          "evaluate.distinct_policies")


def per_command_counts(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Nodes, pivots and solves under each ``cli.main`` span, by its label."""
    by_id = {s.id: s for s in spans}
    out: dict[str, dict[str, int]] = {}
    for s in spans:
        if s.name == "cli.main":
            out[s.attrs["label"]] = {"solves": 0, "nodes": 0, "pivots": 0}
    for s in spans:
        if s.name != "solver.milp":
            continue
        top = s
        while top.parent is not None:
            top = by_id[top.parent]
        row = out[top.attrs["label"]]
        row["solves"] += 1
        row["nodes"] += s.attrs["nodes"]
        row["pivots"] += s.attrs["pivots"]
    return out


def merge_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each timing over traced passes; counts, equal across them, as is."""
    return {k: per_pass[0][k] if k in COUNTS else statistics.median(p[k] for p in per_pass)
            for k in per_pass[0]}
