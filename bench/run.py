"""groundhold benchmark: seeded solve and sweep workloads through the CLI.

    python3 bench/run.py --workload bnb-small --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each command of the workload's deck
goes through ``groundhold.cli.main(argv)`` only after the previous one has
returned.  Whole passes over the deck repeat until ``--seconds`` have gone
by, so a run measures at least that long.  With ``--trace 1`` every
pass is followed by a traced pass, whose spans give the per-layer numbers.

After the timed region every answer is checked (``oracle.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics traced).  A fuller report, with the environment and per-command
node and pivot counts, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pivot counts depend on the BLAS thread count, so it is pinned before numpy
# is first imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUPS = 5  # set-ups per run; setup_s reports their median

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# Printed in the report but not gated: fail_ratio is 0 on a healthy tree and
# cmd_p50_s only exists where a run issues >= 20 commands.
REPORT_ONLY = {"cmd_p50_s": "s", "cmd_count": "count", "fail_ratio": "ratio"}
PER_LAYER = {
    "cli.self_s": "s", "ingest.load_s": "s", "models.extract_s": "s", "models.build_s": "s",
    "models.rows": "count", "models.cols": "count", "models.nnz": "count",
    "milp.to_arrays_s": "s", "milp.to_arrays_calls": "count", "milp.dense_mb": "MiB",
    "solver.milp_s": "s", "solver.self_s": "s", "solver.nodes": "count",
    "solver.pivots_per_node": "pivots/node", "solver.infeasible_node_ratio": "ratio",
    "solver.root_lp_s": "s", "solver.root_pivots": "count",
    "simplex.lp_calls": "count", "simplex.lp_s": "s", "simplex.pivots": "count",
    "simplex.pivots_per_lp": "pivots/lp", "simplex.us_per_pivot": "us/pivot",
    "evaluate.sweep_s": "s", "evaluate.eval_s": "s", "evaluate.samples_scored": "count",
    "evaluate.ns_per_sample": "ns/sample", "evaluate.sample_s": "s", "evaluate.cpu_util": "ratio",
    "evaluate.distinct_policies": "count", "trace.overhead_ratio": "ratio",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny bundles, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_command(cli, argv) -> tuple[float, str | None]:
    """Seconds taken and an error message (None when the command succeeded)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback escaping the CLI is a failed command
        return time.perf_counter() - t0, traceback.format_exc(limit=3).strip()
    seconds = time.perf_counter() - t0
    return seconds, None if code == 0 else f"exit {code}: {err.getvalue().strip()}"


def import_seconds() -> float:
    """Time to import the CLI (numpy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import groundhold.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"cannot import groundhold: {proc.stderr.strip()}")
    return float(proc.stdout)


def set_up(cli, args, base: Path):
    """Import, generate the bundles and warm up, ``SETUPS`` times.

    The last bundle set is the one measured.  Returns the deck and the
    seconds of each set-up.
    """
    times = []
    for i in range(SETUPS):
        d = base / f"setup{i}"
        import_s = import_seconds()
        t0 = time.perf_counter()
        argvs = workloads.gen_commands(args.workload, d / "bundles", args.smoke)
        argvs += workloads.warmup_commands(args.workload, d / "warm")
        for argv in argvs:
            _, error = run_command(cli, argv)
            if error:
                raise SetupError(f"set-up command {argv[:2]} failed: {error}")
        times.append(import_s + time.perf_counter() - t0)
    return workloads.deck(args.workload, args.seed, d / "bundles", args.smoke), times


def run_pass(cli, deck, pass_dir: Path, tracer=None) -> dict:
    pass_dir.mkdir(parents=True)
    times, errors = {}, {}
    t0 = time.perf_counter()
    for cmd in deck:
        argv = cmd.argv(cmd.output(pass_dir))
        if tracer is None:
            times[cmd.label], error = run_command(cli, argv)
        else:
            with tracer.span("cli.main") as span:
                span.attrs["label"] = cmd.label
                times[cmd.label], error = run_command(cli, argv)
        if error:
            errors[cmd.label] = error
    return {"dir": pass_dir, "seconds": time.perf_counter() - t0, "times": times,
            "errors": errors, "tracer": tracer}


def measure(cli, tracing, args, deck, base: Path):
    """Closed loop of whole passes (untraced, then traced if asked) for ``--seconds``."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        plain.append(run_pass(cli, deck, base / f"pass{len(plain)}"))
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced.append(run_pass(cli, deck, base / f"traced{len(traced)}", tracer))
    return plain, traced


def check_answers(cli, deck, passes, base: Path) -> dict[tuple[int, str], str]:
    """Failure message per (pass index, label) of every issued command."""
    import oracle

    first = passes[0]["dir"]
    verdict = {}
    for cmd in deck:
        try:
            if cmd.kind == "sweep":
                oracle.check_sweep(cmd.bundle, cmd.output(first))
                serial = cmd.output(base / "serial")
                _, error = run_command(cli, cmd.argv(serial, jobs=1))
                if error:
                    raise oracle.Mismatch(f"--jobs 1 rerun failed: {error}")
                oracle.same_tree(cmd.output(first), serial)
            else:
                oracle.check_solve(cmd.kind, cmd.bundle, cmd.output(first))
        except Exception as exc:  # any failed check marks the answer wrong
            verdict[cmd.label] = f"{type(exc).__name__}: {exc}"

    failures = {}
    for i, p in enumerate(passes):
        for cmd in deck:
            error = p["errors"].get(cmd.label) or verdict.get(cmd.label)
            if error is None and i > 0:
                try:
                    same = oracle.same_tree if cmd.kind == "sweep" else oracle.same_result
                    same(cmd.output(first), cmd.output(p["dir"]))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error:
                failures[i, cmd.label] = error
    return failures


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "groundhold").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def command_table(deck, plain, traced, tracing) -> list[dict]:
    """Per command: median seconds, and nodes/pivots so a heavy tail shows."""
    counts = tracing.per_command_counts(traced[0]["tracer"].spans) if traced else {}
    rows = []
    for cmd in deck:
        row = {"label": cmd.label, "seconds": statistics.median(p["times"][cmd.label] for p in plain)}
        if cmd.label in counts:
            row.update(counts[cmd.label])
        elif cmd.kind != "sweep":
            try:
                stats = json.loads(cmd.output(plain[0]["dir"]).read_text())["stats"]
                row.update(solves=1, nodes=stats["nodes"], pivots=stats["pivots"])
            except (OSError, ValueError, KeyError):
                pass
        rows.append(row)
    return rows


def bench(cli, tracing, args, base: Path) -> dict:
    deck, setup_times = set_up(cli, args, base)
    plain, traced = measure(cli, tracing, args, deck, base)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before scipy loads
    passes = plain + traced
    failures = check_answers(cli, deck, passes, base)
    attempted = len(deck) * len(passes)
    cmd_times = [t for p in plain for t in p["times"].values()]

    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["seconds"] for p in plain),
        "peak_rss_mb": peak_rss_mb,
        "cmd_count": len(cmd_times),
        "fail_ratio": len(failures) / attempted,
    }
    if len(cmd_times) >= 20:
        metrics["cmd_p50_s"] = statistics.median(cmd_times)
    problems = []
    if traced:
        per_pass = [tracing.layer_metrics(p["tracer"].spans) for p in traced]
        for key in tracing.COUNTS:
            if len({m[key] for m in per_pass}) > 1:
                problems.append(f"{key} differs between traced passes: {[m[key] for m in per_pass]}")
        metrics.update(tracing.merge_passes(per_pass))
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["seconds"] for p in traced) / metrics["wall_s"] - 1.0)
    return {
        "environment": environment(args),
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "setup_times_s": setup_times,
        "pass_seconds": [p["seconds"] for p in plain],
        "traced_pass_seconds": [p["seconds"] for p in traced],
        "commands": command_table(deck, plain, traced, tracing),
        "failures": [f"pass {i} {label}: {msg}" for (i, label), msg in sorted(failures.items())],
        "problems": problems,
        "spans": [[dict(s.record(), trace_pass=i) for s in p["tracer"].spans]
                  for i, p in enumerate(traced)],
    }


def write_report(args, report: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans")
    if spans:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in (s for pass_spans in spans for s in pass_spans):
                fh.write(json.dumps(span) + "\n")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groundhold" / "__init__.py").is_file():
        print(f"error: no groundhold sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import groundhold.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "groundhold":
        print(f"error: imported groundhold from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing

    base = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        report = bench(cli, tracing, args, base)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
    path = write_report(args, report)

    wanted = PER_LAYER if args.trace else END_TO_END
    shown = {k: v for k, v in report["metrics"].items() if k in wanted or not args.trace}
    units = {**END_TO_END, **REPORT_ONLY, **PER_LAYER}
    for msg in report["failures"] + report["problems"]:
        print("FAIL " + msg, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {report['attempted']} commands, "
          f"{report['failed']} failed; report in {path.relative_to(ROOT)}")
    for k, v in shown.items():
        print(f"#   {k:32s} {v:14.6g} {units[k]}")
    for row in sorted(report["commands"], key=lambda r: -r["seconds"])[:3]:
        print(f"#   slow command {row['label']}: {row['seconds']:.3f} s, "
              f"{row.get('nodes', '?')} nodes, {row.get('pivots', '?')} pivots")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": report["metrics"][k], "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
