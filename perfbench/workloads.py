"""Seeded inputs for the two benchmark workloads.

A run repeats one task list in *rounds*.  The list holds each catalogue
entry of the workload once.  The seed picks which grid shape each scene
starts with and which sign each synthesized config starts with, and the
command order of every round.  After each round every scene moves on to the
next grid shape and every synthesized config to the other sign, so that
over a run each entry spends the same share of rounds on each variant and
the mix of work does not depend on the seed.  Runs measure whole rounds
only, and each input's time is a median over the rounds that ran it.

Nothing here imports the package: configs are written by ``worker.py`` from
the package's preset dictionaries plus the fields chosen below.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

WORKLOADS = ("build_explicit", "synth_analysis")

# Quarter-scale scenes: 2,500 grid vertices and 250 verification samples
# keep the 10:1 ratio of the presets' 200x50 grid to the CLI's default 1,000
# samples, at a quarter of the cost, so a run holds four times the commands.
# The shapes have the same vertex count, so a shape changes only the split
# between per-column (Frenet) and per-vertex (marching scale) work.
SHAPES = ((50, 50), (100, 25), (25, 100))
DEFAULT_SHAPE = SHAPES[0]
VERIFY_SAMPLES = 250
MIN_ROUNDS = 6  # every variant of every catalogue entry runs at least twice

EXPLICIT_PRESETS = (
    "example1", "example1b", "example2", "example2b", "example3",
    "example3b", "example4", "example4b", "example4b_alt",
)

# Target constants, by name so that reference keys stay readable.
C_VALUES = {
    "sqrt3/2": math.sqrt(3.0) / 2.0,
    "1/2": 0.5,
    "1/4": 0.25,
    "3/4": 0.75,
    "9/10": 0.9,
}

# Curve family -> (preset that carries the curve, catalogue of target c).
# The catalogue covers closed-form synthesis (circle, helix), a fully
# feasible table (the eight curve, with holes at its inflections),
# restricted feasibility (Salkowski at sqrt(3)/2) and infeasible targets
# (helix at c >= 1/sqrt(2), exit 3).  Salkowski at 1/4, also fully
# feasible, is left out: its three commands take ~3 s, which would halve
# the rounds per run.
SYNTH_CURVES = {
    "circle": ("example1", ("sqrt3/2", "1/2")),
    "helix": ("example2", ("1/2", "1/4", "3/4", "9/10")),
    "eight": ("example3", ("sqrt3/2",)),
    "salkowski": ("example4", ("sqrt3/2",)),
}


@dataclass(frozen=True)
class Task:
    """One CLI invocation: command plus the scene it runs on.

    ``scene`` is a preset name for explicit builds and a curve family from
    SYNTH_CURVES for synthesized-mode configs (``c_name`` set).
    """

    command: str
    scene: str
    c_name: str | None = None
    sign: int = 1
    shape: tuple[int, int] = DEFAULT_SHAPE

    @property
    def synthesized(self) -> bool:
        return self.c_name is not None

    @property
    def preset(self) -> str:
        return SYNTH_CURVES[self.scene][0] if self.synthesized else self.scene

    @property
    def c(self) -> float | None:
        return C_VALUES[self.c_name] if self.synthesized else None

    @property
    def key(self) -> str:
        """Reference key: everything that determines the command's output."""
        parts = [self.command, self.scene]
        if self.synthesized and self.command != "classify":
            parts += [f"c={self.c_name}", f"sign={self.sign}"]
        if self.command == "build":
            parts.append(f"{self.shape[0]}x{self.shape[1]}")
        return "/".join(parts)


def _balanced_shapes(rng: random.Random, count: int) -> list[tuple[int, int]]:
    shapes = [SHAPES[i % len(SHAPES)] for i in range(count)]
    rng.shuffle(shapes)
    return shapes


def synth_entries() -> list[tuple[str, str]]:
    return [(curve, c_name) for curve, (_, catalogue) in SYNTH_CURVES.items()
            for c_name in catalogue]


def make_tasks(workload: str, rng: random.Random) -> list[Task]:
    """The task list of one run of ``workload``: every entry once."""
    if workload == "build_explicit":
        shapes = _balanced_shapes(rng, len(EXPLICIT_PRESETS))
        return [Task("build", p, shape=s) for p, s in zip(EXPLICIT_PRESETS, shapes)]
    if workload == "synth_analysis":
        tasks = []
        for curve, c_name in synth_entries():
            sign = rng.choice((1, -1))
            tasks += [Task(cmd, curve, c_name, sign)
                      for cmd in ("classify", "synthesize", "verify")]
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


def next_variant(task: Task) -> Task:
    """The task of the next round: a build on the next grid shape, a
    synthesized config with the other sign."""
    if task.synthesized:
        return dataclasses.replace(task, sign=-task.sign)
    return dataclasses.replace(task, shape=SHAPES[(SHAPES.index(task.shape) + 1) % len(SHAPES)])


def rounds(workload: str, seed: int):
    """Endless rounds of one run: the seeded task list in a new order each
    time, every task moved on to its next variant."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = make_tasks(workload, rng)
    while True:
        rng.shuffle(tasks)
        yield list(tasks)
        tasks = [next_variant(t) for t in tasks]


def probe_task(workload: str) -> Task:
    """Fixed first command of a fresh process, for ``cmd_first_s``.

    Fixed rather than seeded so that the first-use cost is compared on the
    same input across seeds; the synth_analysis probe builds a cubic table.
    """
    if workload == "build_explicit":
        return Task("build", "example1")
    return Task("synthesize", "eight", "sqrt3/2", 1)


def all_tasks() -> list[Task]:
    """Every input any workload can produce, for reference recording."""
    tasks = [Task("build", p, shape=s) for p in EXPLICIT_PRESETS for s in SHAPES]
    tasks += [Task(cmd, curve, c_name, sign) for curve, c_name in synth_entries()
              for sign in (1, -1) for cmd in ("synthesize", "verify")]
    tasks += [Task("classify", curve, SYNTH_CURVES[curve][1][0]) for curve in SYNTH_CURVES]
    return tasks
