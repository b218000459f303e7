"""Grid sampling of pencil surfaces and OBJ / CSV serialization.

Output formatting is bit-exact: identical inputs produce identical bytes.
Vertex data uses 9 significant digits, report rows 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateNormalError,
    DomainError,
    InflectionPointError,
    IrregularCurveError,
)
from .dcurve import DTypeReport
from .frenet import frenet_at
from .pencil import SurfacePencil, marching_values, pencil_normal, pencil_point


@dataclass(frozen=True)
class MeshDefect:
    index: int
    s: float
    t: float
    reason: str


@dataclass
class SurfaceMesh:
    """Quad grid sampled from a pencil member, row-major in s.

    Vertex (i, j) sits at flat index i * nt + j.  Faces are wound
    counterclockwise with respect to the stored normals; defective vertices
    keep their position but carry a zero normal.
    """

    ns: int
    nt: int
    positions: np.ndarray
    normals: np.ndarray
    faces: np.ndarray
    defects: list[MeshDefect] = field(default_factory=list)


def sample_grid(p: SurfacePencil, ns: int, nt: int,
                s_range: tuple[float, float] | None = None,
                t_range: tuple[float, float] | None = None) -> SurfaceMesh:
    """Sample positions and normals on a uniform (ns x nt) parameter grid.

    Nothing here is fatal: vertices whose frame or marching scale cannot be
    evaluated fall back to the curve point (inflection columns borrow a
    frame from a nudged parameter) and are listed in the defect report with
    a zero normal.
    """
    if ns < 2 or nt < 2:
        raise ValueError("grid sizes must be at least 2x2")
    s_lo, s_hi = s_range if s_range is not None else p.curve.domain
    t_lo, t_hi = t_range if t_range is not None else p.t_range
    ss = np.linspace(s_lo, s_hi, ns)
    ts = np.linspace(t_lo, t_hi, nt)
    nudge = 1e-6 * (s_hi - s_lo)

    positions = np.zeros((ns * nt, 3))
    normals = np.zeros((ns * nt, 3))
    defects: list[MeshDefect] = []

    for i, s in enumerate(ss):
        s = float(s)
        frame = None
        column_reason = None
        try:
            frame = p.frame(s)
        except InflectionPointError:
            column_reason = "inflection"
            for cand in (s + nudge, s - nudge):
                try:
                    frame = frenet_at(p.curve, cand)
                    break
                except (InflectionPointError, IrregularCurveError, DomainError):
                    continue
        except IrregularCurveError:
            column_reason = "irregular"
        except DomainError:
            column_reason = "domain"

        try:
            curve_point = p.curve.point(s)
        except DomainError:
            curve_point = np.zeros(3)
            if frame is not None:
                frame, column_reason = None, "domain"

        for j, t in enumerate(ts):
            t = float(t)
            idx = i * nt + j
            if frame is None:
                positions[idx] = curve_point
                defects.append(MeshDefect(idx, s, t, column_reason))
                continue
            try:
                mv = marching_values(p.marching, s, t)
            except DomainError:
                positions[idx] = curve_point
                defects.append(MeshDefect(idx, s, t, "domain"))
                continue
            positions[idx] = pencil_point(curve_point, frame, mv)
            if column_reason is not None:
                # Position from the nudged frame is kept; the normal is not
                # trustworthy there, so leave it zero.
                defects.append(MeshDefect(idx, s, t, column_reason))
                continue
            try:
                normals[idx] = pencil_normal(frame, mv, s, t)
            except DegenerateNormalError:
                defects.append(MeshDefect(idx, s, t, "degenerate_normal"))

    faces = np.empty(((ns - 1) * (nt - 1), 4), dtype=np.int64)
    k = 0
    for i in range(ns - 1):
        base = i * nt
        for j in range(nt - 1):
            v00 = base + j
            v10 = v00 + nt
            faces[k] = (v00, v10, v10 + 1, v00 + 1)
            k += 1
    return SurfaceMesh(ns=ns, nt=nt, positions=positions, normals=normals,
                       faces=faces, defects=defects)


def _fmt_sig(x: float, digits: int) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if math.isnan(x):
        return "nan"
    return f"{x:#.{digits}g}"


def write_obj(mesh: SurfaceMesh, sink) -> None:
    """Wavefront OBJ with per-vertex normals, deterministic bytes.

    One ``v`` line per position, one ``vn`` per normal, quads as
    ``f i//i j//j k//k l//l`` with 1-based indices.
    """
    lines = []
    for pos in mesh.positions:
        lines.append(
            f"v {_fmt_sig(pos[0], 9)} {_fmt_sig(pos[1], 9)} {_fmt_sig(pos[2], 9)}"
        )
    for nrm in mesh.normals:
        lines.append(
            f"vn {_fmt_sig(nrm[0], 9)} {_fmt_sig(nrm[1], 9)} {_fmt_sig(nrm[2], 9)}"
        )
    for f in mesh.faces:
        a, b, c, d = (int(v) + 1 for v in f)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c} {d}//{d}")
    sink.write(("\n".join(lines) + "\n").encode("ascii"))


def write_report_csv(report: DTypeReport, sink) -> None:
    """CSV verification report: per-sample rows plus summary rows."""
    lines = ["s,inner,phi2,phi3,theta"]
    for smp in report.samples:
        lines.append(
            ",".join(
                _fmt_sig(v, 12)
                for v in (smp.s, smp.inner, smp.phi2, smp.phi3, smp.theta)
            )
        )
    lines.append(f"c_estimate,{_fmt_sig(report.c_estimate, 12)}")
    lines.append(f"max_deviation,{_fmt_sig(report.max_deviation, 12)}")
    sink.write(("\n".join(lines) + "\n").encode("ascii"))
