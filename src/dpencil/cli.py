"""Command-line front end: build, verify, classify, synthesize.

The CLI parses arguments, dispatches to a command, writes the OBJ and CSV
outputs all or none, each through a temporary file beside it, and maps
errors to exit codes; ``scene.SceneConfig`` reads scene files and writes
the completed config ``synthesize`` prints.

Exit codes: 0 success (verify: the curve is D-type), 1 verify found a
non-constant inner product, 2 invalid config or expression, 3 infeasible
target constant, 4 numerical failure (no usable samples, degenerate
geometry).  Each command prints a single JSON object on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dcurve import verify_dtype
from .errors import (
    DomainError,
    ExpressionError,
    GeometryError,
    InfeasibleConstantError,
    InvalidCurveError,
    InvalidMarchingScaleError,
    NotEnoughSamplesError,
    SceneValidationError,
)
from .frenet import classify_curve
from .mesh import sample_grid, write_obj, write_report_csv
from .presets import load_preset, preset_names
from .scene import SceneConfig

EXIT_OK = 0
EXIT_NOT_DTYPE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

MAX_SAMPLES = 1_000_000  # bounds --samples

# The exit code of an error, by its first matching entry.  A DomainError is
# a runtime numeric-domain violation, not a config problem.
_EXIT_CODES = (
    (InfeasibleConstantError, EXIT_INFEASIBLE),
    (DomainError, EXIT_NUMERICAL),
    ((SceneValidationError, ExpressionError, InvalidCurveError, InvalidMarchingScaleError,
      ValueError), EXIT_INVALID),
    (GeometryError, EXIT_NUMERICAL),
)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencil",
        description="Construct, verify, classify, and synthesize surface "
        "pencils sharing a prescribed D-type curve.",
    )
    parser.add_argument("command", choices=_COMMANDS, help=(
        "build: the surface mesh (OBJ) and verification report (CSV); "
        "verify: the constant normal/Darboux inner product (CSV report); "
        "classify: the scene's curve; "
        "synthesize: a completed scene config realizing the target constant"))
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=preset_names(), help="built-in scene")
    src.add_argument("--config", metavar="PATH", help="JSON scene config file")
    parser.add_argument("--tol", type=float, default=None, help=(
        "verdict tolerance of build, verify and classify (default 1e-8 at measured "
        "unit speed, 1e-6 otherwise and for classify); synthesize ignores it"))
    parser.add_argument("--samples", type=int, default=None,
                        help="sample count (default 1000; classify 256, synthesize 257)")
    parser.add_argument("-o", "--out-dir", default=".", metavar="DIR",
                        help="directory for the build and verify outputs; the others write none")
    return parser


def _load_config(args) -> SceneConfig:
    if args.preset:
        return SceneConfig.from_dict(load_preset(args.preset))
    return SceneConfig.load(args.config)


def _print_restriction(feasible_domain, restricted_to) -> None:
    """The restriction line on stderr.  Commands print it once they have
    succeeded, so that a failing one prints only its error line."""
    print(f"target constant feasible only on {feasible_domain}; restricting to {restricted_to}",
          file=sys.stderr)


def _samples(args, default: int) -> int:
    return default if args.samples is None else args.samples


def _publish(args, outputs) -> list[Path]:
    """``write(data, sink)`` into ``name`` under the output directory for
    each ``(name, write, data)`` of ``outputs``, all or none; returns the
    paths.  A name the file system refuses fails its probe before anything
    is replaced.  Each output is written in full into a temporary file of a
    short, fixed-length name beside it; once all are, each is renamed over
    its output, in order.  A failure removes the temporary files not yet
    renamed and the outputs already renamed.  An output that cannot be
    created or written is a config error named by its output path alone."""
    out_dir, staged, published = Path(args.out_dir), [], []
    try:
        for name, write, data in outputs:
            path = out_dir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):  # a free name; other errors refuse it
                os.lstat(path)
            tmp = path.parent / f".pencil-{os.urandom(6).hex()}"
            with open(tmp, "xb") as sink:  # mode 0666 & ~umask, as the output's
                staged.append((tmp, path))
                write(data, sink)
        for tmp, path in staged:
            os.replace(tmp, path)
            published.append(path)
    except (OSError, ValueError) as e:  # ValueError: a NUL or a lone surrogate in the name
        reason = f"[Errno {e.errno}] {e.strerror}" if getattr(e, "filename", None) else e
        raise SceneValidationError(f"cannot write {str(path)!r}: {reason}") from None
    finally:
        if len(published) < len(outputs):
            for tmp, _ in staged[len(published):]:
                tmp.unlink()
            for done in published:
                done.unlink()
    return published


def _emit(summary: dict) -> None:
    if "feasibility" in summary:
        _print_restriction(**summary["feasibility"])
    print(json.dumps(summary, sort_keys=True))


def _verified(cfg: SceneConfig, args, command: str):
    """The step ``build`` and ``verify`` share: assemble the scene's pencil
    and verify it.  Returns ``(summary, report, mesh)``, where the summary
    holds the fields both commands print.  ``build`` samples the grid
    before verifying, so that a grid without a usable vertex fails first;
    for ``verify`` the mesh is None."""
    pencil, intervals = cfg.assemble()
    summary = {"command": command}
    mesh = None
    if command == "build":
        mesh = sample_grid(pencil, *cfg.grid_shape)
        vertices = mesh.ns * mesh.nt
        if len(mesh.defects) == vertices:
            raise NotEnoughSamplesError(
                f"no usable grid vertex: all {vertices} vertices are defects")
        summary.update(defect_count=len(mesh.defects), vertices=vertices,
                       faces=int(mesh.faces.shape[0]))
    report = verify_dtype(pencil, _samples(args, 1000), args.tol)
    summary.update(c_estimate=report.c_estimate, max_deviation=report.max_deviation,
                   verdict=report.verdict, skipped_samples=len(report.skipped))
    if intervals:
        summary["feasibility"] = {"feasible_domain": [[a, b] for a, b in intervals],
                                  "restricted_to": list(pencil.curve.domain)}
    return summary, report, mesh


def cmd_build(cfg: SceneConfig, args) -> int:
    summary, report, mesh = _verified(cfg, args, "build")
    obj_name, csv_name = cfg.outputs
    obj_path, csv_path = _publish(args, [(obj_name, write_obj, mesh),
                                         (csv_name, write_report_csv, report)])
    summary.update(obj_path=str(obj_path), csv_path=str(csv_path))
    _emit(summary)
    return EXIT_OK


def cmd_verify(cfg: SceneConfig, args) -> int:
    summary, report, _ = _verified(cfg, args, "verify")
    _, csv_name = cfg.outputs
    csv_path, = _publish(args, [(csv_name, write_report_csv, report)])
    summary.update(tolerance=report.tolerance, geodesic=report.geodesic,
                   asymptotic_planar=report.asymptotic_planar, csv_path=str(csv_path))
    _emit(summary)
    return EXIT_OK if report.verdict else EXIT_NOT_DTYPE


def cmd_classify(cfg: SceneConfig, args) -> int:
    cls = classify_curve(cfg.curve(), _samples(args, 256), 1e-6 if args.tol is None else args.tol)
    _emit({
        "command": "classify",
        "kind": cls.kind,
        "constant": cls.constant,
        "deviation": cls.deviation,
        "skipped_samples": cls.skipped,
    })
    return EXIT_OK


def cmd_synthesize(cfg: SceneConfig, args) -> int:
    out = cfg.completed(args.samples)
    if "feasible_domain" in out:
        _print_restriction(out["feasible_domain"], out["curve"]["range"])
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "classify": cmd_classify,
    "synthesize": cmd_synthesize,
}


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
        if args.samples is not None and args.samples > MAX_SAMPLES:
            raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
        cfg = _load_config(args)
        # Overflowing vertices are reported as mesh defects; numpy's
        # per-operation warnings would only repeat that on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](cfg, args)
    except (ExpressionError, GeometryError, SceneValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for errors, code in _EXIT_CODES if isinstance(e, errors))


if __name__ == "__main__":
    raise SystemExit(main())
