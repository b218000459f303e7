"""Grid sampling of pencil surfaces and OBJ / CSV serialization.

Output formatting is bit-exact: identical inputs produce identical bytes.
Vertex data uses 9 significant digits, report rows 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InflectionPointError,
    IrregularCurveError,
    NonFiniteCurveError,
)
from .dcurve import DTypeReport
from .frenet import frenet_at
from .pencil import (
    SurfacePencil,
    marching_grid,
    pencil_normal,
    pencil_point,
    stack_frames,
)


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
    a zero normal.  Frames and curve points are taken once per column, the
    marching scale once per grid (``marching_grid``), and positions and
    normals in one array pass.
    """
    if ns < 2 or nt < 2:
        raise ValueError("grid sizes must be at least 2x2")
    s_lo, s_hi = s_range if s_range is not None else p.curve.domain
    t_lo, t_hi = t_range if t_range is not None else p.t_range
    ss = np.linspace(s_lo, s_hi, ns)
    ts = np.linspace(t_lo, t_hi, nt)
    nudge = 1e-6 * (s_hi - s_lo)

    frames, points, column_reasons = [], [], []
    for s in ss.tolist():
        frame = None
        column_reason = ""
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
        except NonFiniteCurveError:
            column_reason = "non_finite"
        except DomainError:
            column_reason = "domain"

        try:
            curve_point = p.curve.point(s)
        except DomainError:
            curve_point = np.zeros(3)
            if frame is not None:
                frame, column_reason = None, "domain"
        frames.append(frame)
        points.append(curve_point)
        column_reasons.append(column_reason)

    framed = np.array([f is not None for f in frames])[:, None]
    frame = stack_frames(frames)
    r = np.array(points)[:, None, :]
    column_reason = np.array(column_reasons)[:, None]
    mv, ok = marching_grid(p.marching, ss, ts)
    unit, degenerate, non_finite = pencil_normal(frame, mv)
    # First matching reason wins.  A column with a nudged frame keeps its
    # positions, but its normals are not trustworthy, so they stay zero.
    reason = np.select(
        [~framed, ~ok, column_reason != "", non_finite, degenerate],
        [column_reason, "domain", column_reason, "non_finite", "degenerate_normal"],
        "",
    )
    on_curve = np.expand_dims(~(framed & ok), -1)
    positions = np.where(on_curve, r, pencil_point(r, frame, mv)).reshape(-1, 3)
    normals = np.where(np.expand_dims(reason == "", -1), unit, 0.0).reshape(-1, 3)
    defects = [
        MeshDefect(idx, float(ss[idx // nt]), float(ts[idx % nt]), str(reason.flat[idx]))
        for idx in np.flatnonzero(reason != "").tolist()
    ]

    corner = (np.arange(ns - 1, dtype=np.int64)[:, None] * nt
              + np.arange(nt - 1, dtype=np.int64)).ravel()
    faces = np.stack([corner, corner + nt, corner + nt + 1, corner + 1], axis=1)
    return SurfaceMesh(ns=ns, nt=nt, positions=positions, normals=normals,
                       faces=faces, defects=defects)

_VERTEX = "v %#.9g %#.9g %#.9g"
_NORMAL = "vn %#.9g %#.9g %#.9g"
_FACE = "f {0}//{0} {1}//{1} {2}//{2} {3}//{3}"
_REPORT_ROW = ",".join(["%#.12g"] * 5)


def _lines(fmt: str, rows) -> list[str]:
    """``fmt`` over each row of ``rows``; adding 0.0 prints -0.0 as 0.0."""
    return [fmt % tuple(row) for row in (np.asarray(rows, dtype=float) + 0.0).tolist()]


def write_obj(mesh: SurfaceMesh, sink) -> None:
    """Wavefront OBJ with per-vertex normals, deterministic bytes.

    One ``v`` line per position, one ``vn`` per normal, quads as
    ``f i//i j//j k//k l//l`` with 1-based indices.
    """
    lines = _lines(_VERTEX, mesh.positions) + _lines(_NORMAL, mesh.normals)
    lines += [_FACE.format(*f) for f in (mesh.faces + 1).tolist()]
    sink.write(("\n".join(lines) + "\n").encode("ascii"))


def write_report_csv(report: DTypeReport, sink) -> None:
    """CSV verification report: per-sample rows plus summary rows."""
    rows = [(smp.s, smp.inner, smp.phi2, smp.phi3, smp.theta) for smp in report.samples]
    lines = ["s,inner,phi2,phi3,theta"] + _lines(_REPORT_ROW, rows)
    lines.append("c_estimate,%#.12g" % (report.c_estimate + 0.0))
    lines.append("max_deviation,%#.12g" % (report.max_deviation + 0.0))
    sink.write(("\n".join(lines) + "\n").encode("ascii"))
