"""Command-line front end: build, verify, classify, synthesize.

Exit codes: 0 success (verify: the curve is D-type), 1 verify found a
non-constant inner product, 2 invalid config or expression, 3 infeasible
target constant, 4 numerical failure (no usable samples, degenerate
geometry).  Each command prints a single JSON object on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
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
    SceneValidationError,
)
from .expr import format_expression
from .frenet import classify_curve
from .mesh import sample_grid, write_obj, write_report_csv
from .pencil import ProductForm, SurfacePencil, TabulatedProductForm
from .presets import load_preset, preset_names
from .scene import PRODUCT_KEYS, SceneConfig

EXIT_OK = 0
EXIT_NOT_DTYPE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

MAX_SAMPLES = 1_000_000  # bounds --samples

_VALIDATION_ERRORS = (
    SceneValidationError,
    ExpressionError,
    InvalidCurveError,
    InvalidMarchingScaleError,
    ValueError,
)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencil",
        description="Construct, verify, classify, and synthesize surface "
        "pencils sharing a prescribed D-type curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "build": "build the surface mesh (OBJ) and verification report (CSV)",
        "verify": "verify the constant normal/Darboux inner product (CSV report)",
        "classify": "classify the scene's curve",
        "synthesize": "emit a completed scene config realizing the target constant",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=preset_names(), help="built-in scene")
        src.add_argument("--config", metavar="PATH", help="JSON scene config file")
        sp.add_argument("--tol", type=float, default=None,
                        help="verdict tolerance (default 1e-8 unit-speed, 1e-6 otherwise)")
        sp.add_argument("--samples", type=int, default=None,
                        help="sample count (default 1000; classify 256)")
        sp.add_argument("-o", "--out-dir", default=".", metavar="DIR",
                        help="directory for OBJ/CSV outputs")
    return parser


def _load_config(args) -> SceneConfig:
    if args.preset:
        return SceneConfig.from_dict(load_preset(args.preset))
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as e:
        raise SceneValidationError(f"cannot read config {args.config!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise SceneValidationError(f"config {args.config!r} is not valid JSON: {e}") from None
    except RecursionError:
        raise SceneValidationError(f"config {args.config!r} nests too deeply") from None
    return SceneConfig.from_dict(raw)


def _default_tol(cfg: SceneConfig, args) -> float:
    if args.tol is not None:
        return args.tol
    return 1e-8 if cfg.unit_speed else 1e-6


def _note(curve, intervals) -> dict | None:
    """The feasibility note of a curve that synthesis restricted, else None."""
    if not intervals:
        return None
    return {"feasible_domain": [[a, b] for a, b in intervals],
            "restricted_to": list(curve.domain)}


def _print_restriction(note: dict) -> None:
    """The restriction line on stderr.  Commands print it once they have
    succeeded, so that a failing one prints only its error line."""
    print(
        f"target constant feasible only on {note['feasible_domain']}; "
        f"restricting to {note['restricted_to']}",
        file=sys.stderr,
    )


def _samples(args, default: int) -> int:
    return default if args.samples is None else args.samples


def _write(args, name: str, write, data) -> Path:
    """``write(data, sink)`` into ``name`` under the output directory; an
    output that cannot be created or written is a config error.

    The data goes to a temporary file beside the output, which replaces the
    output only once it is complete: a write that fails leaves no partial
    file and no temporary file behind.
    """
    path = Path(args.out_dir) / name
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    pending = False  # tmp exists and has not replaced the output
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as sink:
            pending = True
            write(data, sink)
        os.replace(tmp, path)
        pending = False
    except OSError as e:
        raise SceneValidationError(f"cannot write {str(path)!r}: {e}") from None
    finally:
        if pending:
            tmp.unlink()
    return path


def _emit(summary: dict, note: dict | None = None) -> None:
    if note:
        summary["feasibility"] = note
        _print_restriction(note)
    print(json.dumps(summary, sort_keys=True))


def cmd_build(cfg: SceneConfig, args) -> int:
    curve, marching, intervals = cfg.assemble()
    pencil = SurfacePencil(curve, marching, cfg.t_range)
    mesh = sample_grid(pencil, cfg.ns, cfg.nt)
    tol = _default_tol(cfg, args)
    report = verify_dtype(pencil, _samples(args, 1000), tol)
    obj_path = _write(args, cfg.obj_path, write_obj, mesh)
    try:
        csv_path = _write(args, cfg.csv_path, write_report_csv, report)
    except SceneValidationError:
        obj_path.unlink(missing_ok=True)  # no partial outputs from a failed build
        raise
    summary = {
        "command": "build",
        "c_estimate": report.c_estimate,
        "max_deviation": report.max_deviation,
        "verdict": report.verdict,
        "defect_count": len(mesh.defects),
        "vertices": mesh.ns * mesh.nt,
        "faces": int(mesh.faces.shape[0]),
        "skipped_samples": len(report.skipped),
        "obj_path": str(obj_path),
        "csv_path": str(csv_path),
    }
    _emit(summary, _note(curve, intervals))
    return EXIT_OK


def cmd_verify(cfg: SceneConfig, args) -> int:
    curve, marching, intervals = cfg.assemble()
    pencil = SurfacePencil(curve, marching, cfg.t_range)
    tol = _default_tol(cfg, args)
    report = verify_dtype(pencil, _samples(args, 1000), tol)
    csv_path = _write(args, cfg.csv_path, write_report_csv, report)
    summary = {
        "command": "verify",
        "c_estimate": report.c_estimate,
        "max_deviation": report.max_deviation,
        "tolerance": tol,
        "verdict": report.verdict,
        "geodesic": report.geodesic,
        "asymptotic_planar": report.asymptotic_planar,
        "skipped_samples": len(report.skipped),
        "csv_path": str(csv_path),
    }
    _emit(summary, _note(curve, intervals))
    return EXIT_OK if report.verdict else EXIT_NOT_DTYPE


def cmd_classify(cfg: SceneConfig, args) -> int:
    curve = cfg.curve()
    cls = classify_curve(curve, _samples(args, 256), 1e-6 if args.tol is None else args.tol)
    _emit({
        "command": "classify",
        "kind": cls.kind,
        "constant": cls.constant,
        "deviation": cls.deviation,
        "skipped_samples": cls.skipped,
    })
    return EXIT_OK


def cmd_synthesize(cfg: SceneConfig, args) -> int:
    curve, marching, intervals = cfg.synthesized(max(_samples(args, 256), 64))
    note = _note(curve, intervals)
    out = cfg.to_dict()
    if note:
        out["curve"]["range"] = note["restricted_to"]
        out["feasible_domain"] = note["feasible_domain"]
        _print_restriction(note)
    block = out["marching"]
    if isinstance(marching.form, ProductForm):
        form = marching.form
        block["mode"] = "explicit"
        block["explicit"] = {k: format_expression(getattr(form, k)) for k in PRODUCT_KEYS}
    else:
        assert isinstance(marching.form, TabulatedProductForm)
        form = marching.form
        block["mode"] = "synthesized"
        block.pop("explicit", None)
        block["table"] = {
            "kind": "cubic-interpolated coefficients, regenerated on build",
            "nodes": int(form.nodes.size),
            "max_interp_error": form.max_interp_error,
            "excluded": [[a, b] for a, b in form.excluded],
            "u_profile": format_expression(form.u_profile),
        }
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
    except InfeasibleConstantError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DomainError as e:
        # Runtime numeric-domain violation, not a config problem.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except GeometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
