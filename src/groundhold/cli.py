"""Command-line front end: generate, solve, sweep, evaluate, export.

Exit codes are stable: 0 success, 1 model infeasible, 2 usage or I/O error,
3 solver node limit hit, 4 numerical failure in the engine.  All randomness
flows from ``--seed``; sweep output is byte-identical for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .domain import AmbiguitySpec, FlightSchedule, NetworkInstance, SupportGrid, default_support_grid
from .evaluate import (
    DEFAULT_OMEGA,
    deterministic_capacity,
    epsilon_sweep,
    evaluate_policy,
    sample_capacities,
)
from .ingest import (
    Instance,
    SynthParams,
    empirical_distribution,
    json_number,
    load_instance,
    parse_capacity_history,
    synth_instance,
    write_instance,
)
from .milp import export_mps
from .models import (PolicyExtractionError, build_d_saghp, build_dr_maghp, build_dr_saghp, build_s_saghp,
                     extract_policy, policy_from_assignments)
from .solver import NumericalInstabilityError, solve_milp

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_NUMERICAL = 4

RESULT_SCHEMA = "ghp-solve/1"
EVAL_SCHEMA = "ghp-eval/1"


def _parse_list(text: str, what: str, kind: type) -> list:
    try:
        out = [kind(c) for c in text.split(",") if c.strip()]
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}") from None
    if not out:
        raise ValueError(f"empty {what} list")
    return out


def _parse_support(text: str) -> SupportGrid:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return SupportGrid(tuple(range(int(lo), int(hi) + 1)))
        return SupportGrid(tuple(sorted(int(c) for c in text.split(",") if c.strip())))
    except ValueError as exc:
        raise ValueError(f"bad support spec {text!r}: {exc}") from None


def _single_airport(inst: Instance, requested: str | None):
    """Schedule and empirical distribution for one airport of the bundle."""
    airports = inst.schedule.airports
    if requested is None:
        if len(airports) != 1:
            raise ValueError(f"bundle has airports {list(airports)}; pick one with --airport")
        requested = airports[0]
    if requested not in airports:
        raise ValueError(f"airport {requested!r} not in bundle (has {list(airports)})")
    schedule = inst.schedule
    if len(airports) > 1:
        keep = {f.id for f in schedule.flights if f.airport == requested}
        for c in schedule.connections:
            inside = (c.predecessor in keep) + (c.successor in keep)
            if inside == 1:
                raise ValueError(
                    f"connection {c.predecessor}->{c.successor} crosses airports; use dr-maghp")
        schedule = FlightSchedule(
            schedule.horizon,
            tuple(f for f in schedule.flights if f.airport == requested),
            tuple(c for c in schedule.connections if c.predecessor in keep),
            schedule.airborne_cost,
        )
    if requested not in inst.capacities:
        raise ValueError(f"bundle has no capacity records for airport {requested!r}")
    return requested, schedule, inst.capacities[requested]


def _network(inst: Instance, epsilon: float, grid_spec: str | None) -> NetworkInstance:
    airports = inst.schedule.airports
    ambiguities = {}
    for z in airports:
        if z not in inst.capacities:
            raise ValueError(f"bundle has no capacity records for airport {z!r}")
        empirical = inst.capacities[z]
        grid = _parse_support(grid_spec) if grid_spec else default_support_grid(empirical)
        ambiguities[z] = AmbiguitySpec(empirical, epsilon, grid)
    return NetworkInstance(airports, inst.schedule, ambiguities)


# The model flags each model reads; passing any other is a usage error.
_MODEL_FLAGS = {
    "det": ("airport", "capacity"),
    "sp": ("airport",),
    "dr": ("epsilon", "support", "airport"),
    "dr-maghp": ("epsilon", "support"),
}


def _build_model(inst: Instance, args):
    """Model, the schedule it covers, and the fields it adds to the result document."""
    kind = args.model
    for flag in ("epsilon", "support", "airport", "capacity"):
        if getattr(args, flag) is not None and flag not in _MODEL_FLAGS[kind]:
            raise ValueError(f"--{flag} does nothing for model {kind!r}")
    if kind in ("dr", "dr-maghp") and args.epsilon is None:
        raise ValueError(f"--epsilon is required for model {kind!r}")
    if kind == "dr-maghp":
        net = _network(inst, args.epsilon, args.support)
        return build_dr_maghp(net), inst.schedule, {}
    airport, schedule, empirical = _single_airport(inst, args.airport)
    if kind == "det":
        capacity = args.capacity if args.capacity is not None else deterministic_capacity(empirical)
        return build_d_saghp(schedule, capacity), schedule, {"airport": airport, "capacity": capacity}
    if kind == "sp":
        return build_s_saghp(schedule, empirical), schedule, {"airport": airport}
    if kind == "dr":
        grid = _parse_support(args.support) if args.support else default_support_grid(empirical)
        amb = AmbiguitySpec(empirical, args.epsilon, grid)
        return build_dr_saghp(schedule, amb), schedule, {"airport": airport}
    raise ValueError(f"unknown model kind {kind!r}")


def _check_out(path: str | None, *, directory: bool = False) -> None:
    """Fail before any work when ``--out`` cannot be written: a file must not
    be a directory and needs an existing directory to hold it; a directory
    is made with its parents, so the nearest part of its path that exists
    must be a directory."""
    if path is not None:
        out = Path(path)
        if not directory and out.is_dir():
            raise ValueError(f"cannot write --out {path}: it is a directory")
        holder = next(p for p in (out, *out.parents) if p.exists()) if directory else out.parent
        if not holder.is_dir():
            raise ValueError(f"cannot write --out {path}: {holder} is not a directory")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_gen(args) -> int:
    params = SynthParams(
        num_flights=args.flights,
        horizon=args.horizon,
        ground_cost_range=(args.cost_min, args.cost_max),
        capacity_range=(args.cap_min, args.cap_max),
        support_size=args.support_size,
        connection_density=args.density,
        num_airports=args.airports,
    )
    inst = synth_instance(params, args.seed)
    write_instance(args.out, inst.schedule, inst.history)
    print(f"wrote instance bundle to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    _check_out(args.out)
    inst = load_instance(args.instance)
    model, schedule, context = _build_model(inst, args)
    sol = solve_milp(model, node_limit=args.node_limit)

    doc: dict = {
        "schema": RESULT_SCHEMA,
        "model": args.model,
        "epsilon": args.epsilon,
        "status": sol.status,
        "objective": None if sol.values is None else sol.objective,
        "policy": None,
        "stats": {"nodes": sol.nodes, "pivots": sol.pivots, "wall_time_s": sol.wall_time},
    }
    doc.update(context)
    if sol.values is not None and sol.status in ("optimal", "node-limit"):
        policy = extract_policy(model, sol, schedule) if sol.status == "optimal" else None
        if policy is not None:
            doc["policy"] = {
                "assignments": policy.assignments,
                "ground_delays": policy.ground_delays,
                "ground_cost": policy.ground_cost,
            }
        if args.model in ("dr", "dr-maghp"):
            # keyed by airport; the single-airport model's only key is None
            alpha = {z: float(sol.values[j]) for z, j in model.index.alpha.items()}
            beta: dict = {z: {} for z in alpha}
            for (z, xi_hat), j in model.index.beta.items():
                beta[z][str(xi_hat)] = float(sol.values[j])
            doc["alpha"] = alpha[None] if args.model == "dr" else alpha
            doc["beta"] = beta[None] if args.model == "dr" else beta
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if sol.status == "infeasible":
        return EXIT_INFEASIBLE
    if sol.status == "node-limit":
        return EXIT_LIMIT
    return EXIT_OK


def _eval_distribution(args, fallback):
    if args.eval is None:
        return fallback
    try:
        records = parse_capacity_history(Path(args.eval).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {args.eval}: {exc}") from None
    airports = sorted({r.airport for r in records})
    if len(airports) != 1:
        raise ValueError(f"evaluation capacity file must cover one airport, has {airports}")
    return empirical_distribution(records, airports[0])


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    _check_out(args.out, directory=True)
    inst = load_instance(args.instance)
    _, schedule, empirical = _single_airport(inst, args.airport)
    eval_dist = _eval_distribution(args, empirical)
    omegas = _parse_list(args.omega, "omega", float) if args.omega else list(DEFAULT_OMEGA)
    sizes = _parse_list(args.sizes, "sample size", int)
    grid = _parse_support(args.support) if args.support else None

    result = epsilon_sweep(
        schedule, empirical, omegas, eval_dist, sizes, args.seed,
        grid=grid, node_limit=args.node_limit,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.csv").write_text(result.to_table())
    # rows with one policy and sample size share their costs, so a body;
    # the key is cheap to hash, unlike the costs themselves.  A body is its
    # cost table's lines read through the draw's index.
    bodies: dict[tuple[str, int], str] = {}
    for row in result.rows:
        if row.status != "optimal":
            continue
        key = row.policy_summary, row.sample_size
        body = bodies.get(key)
        if body is None:
            costs = row.per_sample_costs
            line = np.array([f"{float(c)!r}\n" for c in costs.table], dtype=object)
            body = bodies[key] = "cost\n" + "".join(line[costs.index])
        (out / f"samples_{row.label()}_{row.sample_size}.csv").write_text(body)
    print(f"wrote sweep results to {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_out(args.out)
    inst = load_instance(args.instance)
    _, schedule, empirical = _single_airport(inst, args.airport)
    try:
        doc = json.loads(Path(args.result).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read result document {args.result}: {exc}") from None
    saved = doc.get("policy") if isinstance(doc, dict) else None
    if not saved:
        raise ValueError("result document carries no policy to evaluate")
    try:
        assignments = saved["assignments"].items()
    except (AttributeError, KeyError, TypeError):
        raise ValueError(f"result document {args.result}: policy.assignments must map "
                         "flight ids to integer slots") from None
    slots = {fid: json_number(t, int, f"result document {args.result}: slot of flight {fid!r}")
             for fid, t in assignments}
    policy = policy_from_assignments(slots, schedule)

    eval_dist = _eval_distribution(args, empirical)
    sizes = _parse_list(args.sizes, "sample size", int)
    rows = ["# schema: " + EVAL_SCHEMA, "sample_size,mean_cost,std_dev"]
    for n in sizes:
        ev = evaluate_policy(policy, schedule, sample_capacities(eval_dist, n, args.seed))
        rows.append(f"{n},{ev.mean!r},{ev.std_dev!r}")
    _write_text(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_export_mps(args) -> int:
    _check_out(args.out)
    inst = load_instance(args.instance)
    model, _, _ = _build_model(inst, args)
    _write_text(args.out, export_mps(model))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="groundhold",
        description="Ground holding models: generate, solve, sweep, evaluate, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the model flags of solve and export-mps; _MODEL_FLAGS says which each model reads
    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", choices=tuple(_MODEL_FLAGS), required=True)
    model_flags.add_argument("--epsilon", type=float, default=None)
    model_flags.add_argument("--support", type=str, default=None, help="grid as lo:hi or v1,v2,...")
    model_flags.add_argument("--airport", type=str, default=None)
    model_flags.add_argument("--capacity", type=int, default=None, help="override det capacity")

    p = sub.add_parser("gen", help="write a synthetic instance bundle")
    p.add_argument("--flights", type=int, default=6)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--cost-min", type=float, default=1.0)
    p.add_argument("--cost-max", type=float, default=5.0)
    p.add_argument("--cap-min", type=int, default=1)
    p.add_argument("--cap-max", type=int, default=4)
    p.add_argument("--support-size", type=int, default=3)
    p.add_argument("--density", type=float, default=0.15)
    p.add_argument("--airports", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    p.add_argument("--out", type=str, required=True, help="bundle directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[model_flags], help="solve one model and write a result document")
    p.add_argument("instance")
    p.add_argument("--node-limit", type=int, default=100_000)
    p.add_argument("--out", type=str, default=None, help="output file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="radius sweep with out-of-sample evaluation")
    p.add_argument("instance")
    p.add_argument("--omega", type=str, default=None, help="comma-separated radii")
    p.add_argument("--eval", type=str, default=None, help="capacity history file to sample from")
    p.add_argument("--sizes", type=str, default="50,100")
    p.add_argument("--support", type=str, default=None)
    p.add_argument("--airport", type=str, default=None)
    p.add_argument("--node-limit", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    # ignored: the sweep solves on the calling thread.  Kept, with its N >= 1
    # check, because the benchmark's sweep deck (bench/workloads.py) passes it
    p.add_argument("--jobs", type=int, default=1, help="ignored; accepted from older command lines")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="re-evaluate a saved policy out of sample")
    p.add_argument("instance")
    p.add_argument("--result", type=str, required=True, help="solve result document")
    p.add_argument("--eval", type=str, default=None)
    p.add_argument("--sizes", type=str, default="50,100")
    p.add_argument("--airport", type=str, default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    p.add_argument("--out", type=str, default=None, help="output file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-mps", parents=[model_flags], help="write a model as fixed-format MPS")
    p.add_argument("instance")
    p.add_argument("--out", type=str, default=None, help="output file")
    p.set_defaults(func=cmd_export_mps)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalInstabilityError, PolicyExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
