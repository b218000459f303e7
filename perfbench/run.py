"""Benchmark of the dpencil CLI on two seeded closed-loop workloads.

    python3 perfbench/run.py --workload build_explicit --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics (see README.md).
Stdlib only.  Everything the run writes goes under ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0
PROBES = 20  # fresh interpreters timed for setup_s and cmd_first_s
IMPORTTIME_PROBES = 3

# ref_s: wall seconds scaled to the reference speed of the machine (worker.py).
END_TO_END = {
    "setup_s": "s", "cmds_per_s": "1/ref_s", "cmd_p50_s": "ref_s", "cmd_tail_s": "ref_s",
    "cmd_first_s": "ref_s", "success_ratio": "ratio", "peak_rss_mb": "MB",
}
_PER_ROUND = "s/round"
PER_LAYER = {
    "mesh.grid.busy_s": _PER_ROUND, "mesh.grid.us_per_vertex": "us",
    "mesh.grid.defect_ratio": "ratio",
    "pencil.marching_values.calls": "calls/round", "pencil.marching_values.busy_s": _PER_ROUND,
    "expr.jet_eval.calls": "calls/round", "expr.jet_eval.busy_s": _PER_ROUND,
    "expr.domain_errors": "count/round",
    "frenet.frenet_at.calls": "calls/round", "frenet.frenet_at.busy_s": _PER_ROUND,
    "frenet.frenet_at.undefined": "count/round", "frenet.classify.busy_s": _PER_ROUND,
    "dcurve.feasible.busy_s": _PER_ROUND, "dcurve.feasible.frenet_calls": "calls/round",
    "dcurve.synthesize.busy_s": _PER_ROUND, "dcurve.synthesize.table_nodes": "count/round",
    "dcurve.synthesize.node_yield": "ratio",
    "pencil.spline_eval.calls": "calls/round", "pencil.spline_eval.busy_s": _PER_ROUND,
    "pencil.frame.calls": "calls/round", "pencil.frame.hit_ratio": "ratio",
    "pencil.init.busy_s": _PER_ROUND,
    "dcurve.verify.busy_s": _PER_ROUND, "dcurve.verify.skip_ratio": "ratio",
    "mesh.write_obj.busy_s": _PER_ROUND, "mesh.write_obj.bytes": "B/round",
    "mesh.write_csv.busy_s": _PER_ROUND,
    "scene.load.busy_s": _PER_ROUND, "expr.parse.calls": "calls/round",
    "cli.build.busy_s": _PER_ROUND, "cli.verify.busy_s": _PER_ROUND,
    "cli.classify.busy_s": _PER_ROUND, "cli.synthesize.busy_s": _PER_ROUND,
    "cli.self_s": _PER_ROUND,
    "setup.import_total_s": "s", "setup.import_scipy_s": "s", "setup.import_numpy_s": "s",
    "trace.cmds_per_s_untraced": "1/ref_s", "trace.cmds_per_s_traced": "1/ref_s",
    "trace.overhead_ratio": "ratio",
}

# Layer self-check: each metric must be non-zero on the workload it is said
# to dominate, so that a renamed function fails loudly instead of reading 0.
MUST_BE_NONZERO = {
    "build_explicit": (
        "mesh.grid.busy_s", "mesh.grid.us_per_vertex", "mesh.grid.defect_ratio",
        "pencil.marching_values.calls", "pencil.marching_values.busy_s",
        "expr.jet_eval.calls", "expr.jet_eval.busy_s", "expr.domain_errors",
        "pencil.frame.calls", "pencil.init.busy_s", "mesh.write_obj.busy_s",
        "mesh.write_obj.bytes", "mesh.write_csv.busy_s", "dcurve.verify.skip_ratio",
        "cli.build.busy_s",
    ),
    "synth_analysis": (
        "frenet.frenet_at.calls", "frenet.frenet_at.busy_s", "frenet.frenet_at.undefined",
        "frenet.classify.busy_s", "dcurve.feasible.busy_s", "dcurve.feasible.frenet_calls",
        "dcurve.synthesize.busy_s", "dcurve.synthesize.table_nodes",
        "dcurve.synthesize.node_yield", "cli.classify.busy_s", "cli.synthesize.busy_s",
        "cli.verify.busy_s", "pencil.spline_eval.calls", "pencil.spline_eval.busy_s",
    ),
}
MUST_BE_NONZERO_EVERYWHERE = (
    "dcurve.verify.busy_s", "scene.load.busy_s", "expr.parse.calls", "cli.self_s",
    "setup.import_total_s", "setup.import_scipy_s", "setup.import_numpy_s",
)


class BenchError(Exception):
    pass


def _child(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout kill its whole process group
    (the worker's probes too) and wait for it."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    with subprocess.Popen(argv, env=env, cwd=HERE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {argv[1:3]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"child {argv[1:3]} exited {proc.returncode}: {err[-2000:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict:
    """Totals from ``python -X importtime``: the package import, and the
    outermost numpy and scipy imports inside it (cumulative, seconds)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"total": 0, "numpy": 0, "scipy": 0}
    parents: list[str] = []
    for depth, name, cumulative in reversed(entries):  # parents come first
        del parents[depth:]
        parent = parents[-1] if parents else ""
        parents.append(name)
        top = name.split(".")[0]
        if depth == 0 and top == "dpencil":
            totals["total"] += cumulative
        if top in ("numpy", "scipy") and parent.split(".")[0] != top:
            totals[top] += cumulative
    return {f"setup.import_{k}_s": v / 1e6 for k, v in totals.items()}


def importtime(env: dict, deadline: float) -> dict:
    runs = [parse_importtime(_child([sys.executable, "-X", "importtime", "-c",
                                     "import dpencil.cli"], env, deadline).stderr)
            for _ in range(IMPORTTIME_PROBES)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _input_times(phase: dict, times: str = "ref_times") -> list[float]:
    """The median time of every input over the rounds, one value per input."""
    runs: dict[str, list[float]] = {}
    for key, t in zip(phase["keys"], phase[times]):
        runs.setdefault(key, []).append(t)
    return sorted(statistics.median(ts) for ts in runs.values())


def _cmds_per_s(phase: dict, times: str = "ref_times") -> float:
    """Commands per second of command time, every input at its median."""
    per_input = _input_times(phase, times)
    return len(per_input) / sum(per_input)


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten commands beyond it."""
    n = len(times)
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def end_to_end(result: dict, probes: list[dict]) -> tuple[dict, dict]:
    phase = result["phase"]
    per_input = _input_times(phase)
    tail, tail_pct = _tail(phase["ref_times"])
    wall = _input_times(phase, "times")
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "cmds_per_s": _cmds_per_s(phase),
        "cmd_p50_s": statistics.median(per_input),
        "cmd_tail_s": tail,
        "cmd_first_s": statistics.median(p["first_ref_s"] for p in probes),
        "success_ratio": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "inputs": len(per_input), "rounds": phase["rounds"], "commands": len(phase["times"]),
        "wall_s": phase["wall_s"], "cmd_tail_percentile": tail_pct,
        "cmd_tail_samples": len(phase["ref_times"]),
        "fail_ratio": result["failed"] / result["attempted"], "probes": len(probes),
        "wall_cmds_per_s": _cmds_per_s(phase, "times"), "wall_cmd_p50_s": statistics.median(wall),
        "wall_cmd_tail_s": _tail(phase["times"])[0],
        "wall_cmd_first_s": statistics.median(p["first_s"] for p in probes),
    }
    return metrics, notes


def per_layer(result: dict, imports: dict) -> dict:
    untraced, traced = _cmds_per_s(result["phase"]), _cmds_per_s(result["traced"])
    metrics = dict(result["layers"], **imports)
    metrics["trace.cmds_per_s_untraced"] = untraced
    metrics["trace.cmds_per_s_traced"] = traced
    metrics["trace.overhead_ratio"] = untraced / traced - 1.0
    return metrics


def self_check(workload: str, metrics: dict) -> list[str]:
    names = MUST_BE_NONZERO[workload] + MUST_BE_NONZERO_EVERYWHERE
    return [f"layer self-check: {name} is {metrics.get(name)!r} on {workload}"
            for name in names if not metrics.get(name)]


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    context = {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
               "python": sys.version.split()[0]}
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    # Warm the bytecode cache, and make sure the package is this checkout's.
    where = _child([sys.executable, "-c", "import dpencil.cli; print(dpencil.cli.__file__)"],
                   env, deadline).stdout.strip()
    if Path(where).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"dpencil imported from {where}, not from {SRC}")

    imports = importtime(env, deadline) if args.trace else {}
    argv = [sys.executable, str(WORKER), "run", args.workload, str(args.seed),
            str(args.seconds), str(int(args.trace)), str(work), str(PROBES)]
    result = _last_json(_child(argv, env, deadline).stdout)
    probes = result.pop("probes", [])
    failures = [f for p in probes for f in p["failures"]] + result["failures"]
    result["failed"] = len(failures)
    result["attempted"] += len(probes)
    context.update(result.pop("versions"))

    problems = [f"{f['task']}: exit {f['exit']}: {f['problems']}" for f in failures]
    if args.trace:
        metrics, units, notes = per_layer(result, imports), PER_LAYER, {}
        problems += self_check(args.workload, metrics)
    else:
        (metrics, notes), units = end_to_end(result, probes), END_TO_END
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "notes": notes,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              "attempted": result["attempted"], "failed": result["failed"],
              "problems": problems, "probes": probes,
              "commands": {p: list(zip(result[p]["keys"], result[p]["times"],
                                       result[p]["ref_times"]))
                           for p in ("phase", "traced") if p in result}}
    (work / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dpencil" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/dpencil; run inside a checkout",
              file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    ctx = report["context"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          + " ".join(f"{k}={v}" for k, v in ctx.items()))
    for k, v in report["notes"].items():
        print(f"#   {k} = {v:.6g}" if isinstance(v, float) else f"#   {k} = {v}")
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
