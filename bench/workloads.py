"""Workload decks: which bundles are generated and which commands run on them.

A deck is the ordered list of CLI commands one pass of a workload issues.
Bundles come from ``groundhold gen`` with fixed generator seeds; the
benchmark's ``--seed`` orders the commands and, for sweeps, seeds the
out-of-sample draws.  README.md explains why the bundle set is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

EPSILON = "0.5"

# (label prefix, gen flags, generator seeds, solve models or "sweep")
_DECKS = {
    "bnb-small": [
        ("b16x12", ["--flights", "16", "--horizon", "12"], range(1, 13), ("sp", "dr")),
    ],
    "root-large": [
        ("a100x48", ["--flights", "100", "--horizon", "48", "--density", "0"], range(1, 4), ("sp", "dr")),
        ("n120x40", ["--flights", "120", "--horizon", "40", "--density", "0", "--airports", "2"],
         range(1, 3), ("dr-maghp",)),
    ],
    "sweep-eval": [
        ("s14x12", ["--flights", "14", "--horizon", "12"], range(1, 5), ("sweep",)),
    ],
}

# Tiny stand-ins with the same command kinds, for the benchmark's own tests.
_SMOKE_DECKS = {
    "bnb-small": [
        ("b6x6", ["--flights", "6", "--horizon", "6"], range(1, 3), ("sp", "dr")),
    ],
    "root-large": [
        ("a12x8", ["--flights", "12", "--horizon", "8", "--density", "0"], range(1, 2), ("sp", "dr")),
        ("n12x8", ["--flights", "12", "--horizon", "8", "--density", "0", "--airports", "2"],
         range(1, 2), ("dr-maghp",)),
    ],
    "sweep-eval": [
        ("s6x6", ["--flights", "6", "--horizon", "6"], range(1, 2), ("sweep",)),
    ],
}

SWEEP_SIZES = "1000,20000"
SMOKE_SWEEP_SIZES = "50,100"
SWEEP_JOBS = 2

WORKLOADS = tuple(_DECKS)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a deck; ``out`` is filled in per pass."""

    label: str
    kind: str          # sp | dr | dr-maghp | sweep
    bundle: Path
    sweep_seed: int
    sizes: str

    def argv(self, out: Path, jobs: int = SWEEP_JOBS) -> list[str]:
        if self.kind == "sweep":
            return ["sweep", str(self.bundle), "--sizes", self.sizes, "--jobs", str(jobs),
                    "--seed", str(self.sweep_seed), "--out", str(out)]
        argv = ["solve", str(self.bundle), "--model", self.kind, "--out", str(out)]
        if self.kind in ("dr", "dr-maghp"):
            argv += ["--epsilon", EPSILON]
        return argv

    def output(self, pass_dir: Path) -> Path:
        """Result document (solve) or output directory (sweep) in a pass."""
        return pass_dir / (self.label if self.kind == "sweep" else self.label + ".json")


def gen_commands(workload: str, bundle_dir: Path, smoke: bool) -> list[list[str]]:
    """``gen`` argv for every bundle of the workload."""
    decks = _SMOKE_DECKS if smoke else _DECKS
    return [["gen", *flags, "--seed", str(g), "--out", str(bundle_dir / f"{prefix}-g{g}")]
            for prefix, flags, gen_seeds, _ in decks[workload] for g in gen_seeds]


def deck(workload: str, seed: int, bundle_dir: Path, smoke: bool) -> list[Command]:
    """Commands of one pass, in the order drawn from ``seed``."""
    decks = _SMOKE_DECKS if smoke else _DECKS
    sizes = SMOKE_SWEEP_SIZES if smoke else SWEEP_SIZES
    commands = []
    for prefix, _, gen_seeds, kinds in decks[workload]:
        for g in gen_seeds:
            name = f"{prefix}-g{g}"
            for kind in kinds:
                commands.append(Command(f"{name}-{kind}", kind, bundle_dir / name, seed, sizes))
    random.Random(seed).shuffle(commands)
    return commands


def warmup_commands(workload: str, warm_dir: Path) -> list[list[str]]:
    """A tiny bundle run through every command kind the workload uses."""
    kinds = sorted({k for *_, ks in _DECKS[workload] for k in ks})
    one = warm_dir / "one"
    two = warm_dir / "two"
    argvs = [
        ["gen", "--flights", "6", "--horizon", "6", "--seed", "0", "--out", str(one)],
        ["gen", "--flights", "8", "--horizon", "6", "--airports", "2", "--seed", "0", "--out", str(two)],
    ]
    for kind in kinds:
        bundle = two if kind == "dr-maghp" else one
        cmd = Command(f"warm-{kind}", kind, bundle, 0, SMOKE_SWEEP_SIZES)
        argvs.append(cmd.argv(cmd.output(warm_dir)))
    return argvs
