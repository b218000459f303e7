"""Child process of the benchmark: runs commands in-process and checks them.

    python3 perfbench/worker.py probe <workload> <work_dir>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace> <work_dir> <probes>

``probe`` imports ``dpencil.cli`` first, so a fresh process pays the
import, then runs the workload's fixed first command.  ``run`` is the
closed loop: one client, one thread, each command started after the
previous one returned, whole rounds only; it spawns its probes between
rounds.  Both print one JSON object on stdout.  The package must be
importable (``PYTHONPATH`` set by run.py).

Every command is bracketed by two runs of a fixed calibration loop, and its
time is also given in *reference seconds*: wall time scaled by the loop's
reference time over its mean measured time around the command.  The shared
machine's speed moves by up to 1.6x within seconds; the loop slows with it,
so reference seconds stay put while wall seconds do not.
"""

import sys
import time

if __name__ == "__main__" and sys.argv[1:2] == ["probe"]:
    _T_START = time.monotonic()
    import dpencil.cli  # noqa: F401  (timed: the import every `pencil` pays)
    _T_IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CALIB_LOOPS = 40_000
CALIB_REF_S = 0.005  # the loop's time at the reference machine's fastest speed


def calibrate() -> float:
    """Wall time of a fixed pure-Python float loop (~5 ms): how fast the
    machine runs interpreter code right now.  It uses no package code, so
    a change to the package cannot move it."""
    start = time.perf_counter()
    total = 0.0
    for i in range(CALIB_LOOPS):
        total += (i * 0.5) ** 0.5 * 1.0001
    return time.perf_counter() - start


class Client:
    """Writes configs for tasks, runs them through ``dpencil.cli.main`` and
    checks every output."""

    def __init__(self, work_dir: Path, reference: dict | None):
        from dpencil import cli, presets

        self.cli = cli
        self.presets = presets
        self.cfg_dir = work_dir / "cfg"
        self.out_dir = work_dir / "out"
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.reference = reference
        self.configs: dict[str, tuple[Path, dict]] = {}
        self.failures: list[dict] = []

    def config(self, task: workloads.Task) -> tuple[Path, dict]:
        """Generated config for ``task``: a preset with the chosen grid
        shape, and for synthesized tasks the chosen target and sign."""
        key = task.key
        if key not in self.configs:
            cfg = self.presets.load_preset(task.preset)
            cfg["grid"]["ns"], cfg["grid"]["nt"] = task.shape
            if task.synthesized:
                cfg["marching"] = {"mode": "synthesized", "c": task.c, "sign": task.sign}
            stem = f"t{len(self.configs)}"
            cfg["outputs"] = {"obj_path": f"{stem}.obj", "csv_path": f"{stem}.csv"}
            path = self.cfg_dir / f"{stem}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.configs[key] = (path, cfg)
        return self.configs[key]

    def execute(self, task: workloads.Task, tracer: Tracer | None = None):
        """Run one command: (wall seconds, exit code or None, stdout, stderr)."""
        argv = [task.command, "--config", str(self.config(task)[0]), "-o", str(self.out_dir)]
        if task.command in ("build", "verify"):
            argv += ["--samples", str(workloads.VERIFY_SAMPLES)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.command(task.command, self.cli.main, argv)
            except Exception:  # an uncaught exception is a failed operation
                rc = None
                traceback.print_exc(limit=3)
            elapsed = time.perf_counter() - start
        return elapsed, rc, stdout.getvalue(), stderr.getvalue()

    def remove_outputs(self, task: workloads.Task) -> None:
        outputs = self.config(task)[1]["outputs"]
        for name in outputs.values():
            (self.out_dir / name).unlink(missing_ok=True)

    def run(self, task: workloads.Task,
            tracer: Tracer | None = None) -> tuple[float, float, bool]:
        """Run and check one command: (wall seconds, reference seconds,
        passed its checks)."""
        before = calibrate()
        elapsed, rc, stdout, stderr = self.execute(task, tracer)
        ref_elapsed = elapsed * CALIB_REF_S / (0.5 * (before + calibrate()))
        if rc is None:
            problems = ["uncaught exception"]
        else:
            try:
                problems = oracles.check(task, rc, stdout, self.out_dir, self.config(task)[1],
                                         self.reference)
            except Exception:  # unreadable output is a failed check
                problems = [traceback.format_exc(limit=3)]
        self.remove_outputs(task)
        if problems:
            self.failures.append({"task": task.key, "exit": rc, "problems": problems[:5],
                                  "stderr": stderr[-800:]})
        return elapsed, ref_elapsed, not problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["outputs"]


def probe(workload: str, work_dir: Path) -> dict:
    client = Client(work_dir, load_reference())
    first_s, first_ref_s, _ = client.run(workloads.probe_task(workload))
    return {"import_s": _T_IMPORTED - _T_START, "t_imported": _T_IMPORTED,
            "first_s": first_s, "first_ref_s": first_ref_s, "failures": client.failures}


class Prober:
    """Fresh-interpreter probes, spawned between rounds so that they are
    spread over the run instead of bunched where the machine may be slow."""

    def __init__(self, workload: str, work_dir: Path, count: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "probe", workload,
                     str(work_dir / "probe")]
        self.count = count
        self.interval = seconds / count
        self.results: list[dict] = []

    def due(self, wall: float) -> bool:
        """One probe every ``seconds / count`` of measured time, the first at 0."""
        return len(self.results) < self.count and wall >= len(self.results) * self.interval

    def one(self) -> None:
        spawned = time.monotonic()
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["t_imported"] - spawned  # CLOCK_MONOTONIC is system-wide
        self.results.append(out)


def _run_round(client, tasks, record: dict, tracer=None) -> None:
    for task in tasks:
        elapsed, ref_elapsed, ok = client.run(task, tracer)
        record["times"].append(elapsed)
        record["ref_times"].append(ref_elapsed)
        record["keys"].append(task.key)
        record["failed"] += not ok
    record["rounds"] += 1


def _phase(client, rounds, budget: float, prober=None, tracer=None) -> tuple[dict, dict]:
    """Whole rounds until the next one would overrun ``budget`` by more
    than half a round, and at least MIN_ROUNDS rounds ran.

    With a tracer every untraced round is followed by a traced round of the
    same tasks, so that both see the same inputs and machine conditions;
    returns (untraced, traced)."""
    plain, traced = ({"times": [], "ref_times": [], "keys": [], "failed": 0, "rounds": 0}
                     for _ in range(2))
    start = time.perf_counter()
    while True:
        tasks = next(rounds)
        _run_round(client, tasks, plain)
        if tracer is not None:
            tracer.install()
            try:
                _run_round(client, tasks, traced, tracer)
            finally:
                tracer.uninstall()
        count = plain["rounds"]
        wall = time.perf_counter() - start
        while prober is not None and prober.due(wall):
            prober.one()
            start += time.perf_counter() - start - wall  # probes are not measured time
        if wall + 0.5 * wall / count >= budget and count >= workloads.MIN_ROUNDS:
            break
    plain["wall_s"] = wall
    return plain, traced


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        probes: int) -> dict:
    import numpy
    import scipy

    client = Client(work_dir, load_reference())
    rounds = workloads.rounds(workload, seed)
    # Warm-up: the fixed probe command, so lazy first-use set-up is not timed.
    client.run(workloads.probe_task(workload))
    result = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if trace:
        tracer = Tracer()
        result["phase"], result["traced"] = _phase(client, rounds, seconds, tracer=tracer)
        result["layers"] = layer_metrics(tracer, result["traced"]["rounds"])
        (work_dir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    else:
        prober = Prober(workload, work_dir, probes, seconds)
        prober.one()
        result["phase"], _ = _phase(client, rounds, seconds, prober=prober)
        while len(prober.results) < prober.count:
            prober.one()
        result["probes"] = prober.results
    result["attempted"] = 1 + sum(len(result[p]["times"]) for p in ("phase", "traced")
                                  if p in result)
    result["failures"] = client.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, rounds: int) -> dict:
    """Per-layer metrics, per round of the workload unless a ratio."""
    per = 1.0 / rounds
    c, b, n = t.calls, t.busy, t.counts
    out = {
        "mesh.grid.busy_s": b["mesh.grid"] * per,
        "mesh.grid.us_per_vertex": 1e6 * _ratio(b["mesh.grid"], n["mesh.grid.vertices"]),
        "mesh.grid.defect_ratio": _ratio(n["mesh.grid.defects"], n["mesh.grid.vertices"]),
        "pencil.marching_values.calls": c["pencil.marching_values"] * per,
        "pencil.marching_values.busy_s": b["pencil.marching_values"] * per,
        "expr.jet_eval.calls": c["expr.jet_eval"] * per,
        "expr.jet_eval.busy_s": b["expr.jet_eval"] * per,
        "expr.domain_errors": n["expr.domain_errors"] * per,
        "frenet.frenet_at.calls": c["frenet.frenet_at"] * per,
        "frenet.frenet_at.busy_s": b["frenet.frenet_at"] * per,
        "frenet.frenet_at.undefined": n["frenet.frenet_at.undefined"] * per,
        "frenet.classify.busy_s": b["frenet.classify"] * per,
        "dcurve.feasible.busy_s": b["dcurve.feasible"] * per,
        "dcurve.feasible.frenet_calls": n["dcurve.feasible.frenet_calls"] * per,
        "dcurve.synthesize.busy_s": b["dcurve.synthesize"] * per,
        "dcurve.synthesize.table_nodes": n["dcurve.synthesize.table_nodes"] * per,
        "dcurve.synthesize.node_yield": _ratio(n["dcurve.synthesize.table_nodes"],
                                               n["dcurve.synthesize.table_frenet_calls"]),
        "pencil.spline_eval.calls": c["pencil.spline_eval"] * per,
        "pencil.spline_eval.busy_s": b["pencil.spline_eval"] * per,
        "pencil.frame.calls": c["pencil.frame"] * per,
        "pencil.frame.hit_ratio": _ratio(n["pencil.frame.hits"], c["pencil.frame"]),
        "pencil.init.busy_s": b["pencil.init"] * per,
        "dcurve.verify.busy_s": b["dcurve.verify"] * per,
        "dcurve.verify.skip_ratio": _ratio(n["dcurve.verify.skipped"],
                                           n["dcurve.verify.samples"]),
        "mesh.write_obj.busy_s": b["mesh.write_obj"] * per,
        "mesh.write_obj.bytes": n["mesh.write_obj.bytes"] * per,
        "mesh.write_csv.busy_s": b["mesh.write_csv"] * per,
        "scene.load.busy_s": b["scene.load"] * per,
        "expr.parse.calls": c["expr.parse"] * per,
        "cli.self_s": t.self_time() * per,
    }
    for command in ("build", "verify", "classify", "synthesize"):
        out[f"cli.{command}.busy_s"] = b[f"cli.{command}"] * per
    return out


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "probe":
        result = probe(workload, Path(argv[2]))
    else:
        seed, seconds, trace, work_dir = int(argv[2]), float(argv[3]), argv[4] == "1", argv[5]
        result = run(workload, seed, seconds, trace, Path(work_dir), int(argv[6]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
