"""Grid sampling of pencil surfaces and OBJ / CSV serialization.

``sample_grid`` takes the Frenet frames of all grid columns in one array
``frenet_at`` call, the curve points in one array call per coordinate and
the marching scale in one ``marching_grid`` call; only the nudged frames
of inflection columns are taken per column (``verify_dtype`` still takes
its frames per sample).

Output formatting is bit-exact: identical inputs produce identical bytes.
Vertex data uses 9 significant digits, report rows 12, and each block of
lines is formatted in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dcurve import DTypeReport
from .expr import evaluate_jet3
from .frenet import NO_FRAME, FrenetApparatus, frenet_at, raise_first
from .jets import Jet3
from .pencil import SurfacePencil, marching_grid, pencil_point, surface_normals


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


def sample_grid(p: SurfacePencil, ns: int, nt: int) -> SurfaceMesh:
    """Sample positions and normals on a uniform (ns x nt) grid over the
    curve domain and the pencil's t range.

    Undefined geometry is not fatal: vertices whose frame or marching scale
    cannot be evaluated fall back to the curve point (inflection columns
    borrow a frame from a nudged parameter) and are listed in the defect
    report with a zero normal.  Positions are always finite: one that
    overflows falls back to the curve point, or to the origin, as a
    ``non_finite`` defect.  A curve falsely declared unit-speed raises
    :class:`InvalidCurveError` at its first such column.
    """
    if ns < 2 or nt < 2:
        raise ValueError("grid sizes must be at least 2x2")
    s_lo, s_hi = p.curve.domain
    ss = np.linspace(s_lo, s_hi, ns)
    ts = np.linspace(*p.t_range, nt)
    nudge = 1e-6 * (s_hi - s_lo)

    app, column_reason = frenet_at(p.curve, ss)
    framed = column_reason == ""
    unit_speed = column_reason == "unit_speed"
    # Inflection columns borrow the frame of a nudged parameter.  A column
    # walk raises at the first falsely unit-speed column: nudges stop there.
    for i in np.flatnonzero((column_reason == "inflection")
                            & np.logical_and.accumulate(~unit_speed)).tolist():
        for cand in (float(ss[i]) + nudge, float(ss[i]) - nudge):
            try:
                nudged = frenet_at(p.curve, cand)
            except NO_FRAME:
                continue
            for name, v in vars(app).items():
                v[i] = getattr(nudged, name)
            framed[i] = True
            break
    raise_first(p.curve, ss, unit_speed)
    # Curve points as constant jets: per column, the bits of CurveSpec.point.
    zero = np.zeros(ns)
    coords = [evaluate_jet3(e, None, ss, {p.curve.param: Jet3(ss, zero, zero, zero)})
              for e in (p.curve.x, p.curve.y, p.curve.z)]
    defined = np.logical_and.reduce([ok for _, ok in coords])
    column_reason[framed & ~defined] = "domain"
    framed &= defined
    r = np.where(defined[:, None], np.stack([j.v0 for j, _ in coords], axis=1), 0.0)[:, None]
    # Entries without a frame are unspecified: zero them like a missing frame.
    frame = FrenetApparatus(**{
        name: np.where(framed.reshape((-1,) + (1,) * (v.ndim - 1)), v, 0.0)[:, None]
        for name, v in vars(app).items()
    })
    framed, column_reason = framed[:, None], column_reason[:, None]
    mv, ok = marching_grid(p.marching, ss, ts)
    on_curve = np.expand_dims(~(framed & ok), -1)
    # A column with a nudged frame keeps its positions, but its normals are
    # not trustworthy: its reason keeps them zero.
    with np.errstate(over="ignore", invalid="ignore"):
        normals, reason = surface_normals(frame, framed, column_reason, mv, ok)
        positions = np.where(on_curve, r, pencil_point(r, frame, mv))
    # A position that overflowed falls back to its curve point, or to the
    # origin where that is not finite either: a non_finite defect.
    overflow = ~np.isfinite(positions).all(axis=-1, keepdims=True)
    fallback = np.where(np.isfinite(r).all(axis=-1, keepdims=True), r, 0.0)
    positions = np.where(overflow, fallback, positions).reshape(-1, 3)
    normals = np.where(overflow, 0.0, normals).reshape(-1, 3)
    reason[overflow[..., 0]] = "non_finite"
    defects = [
        MeshDefect(idx, float(ss[idx // nt]), float(ts[idx % nt]), str(reason.flat[idx]))
        for idx in np.flatnonzero(reason != "").tolist()
    ]

    corner = (np.arange(ns - 1, dtype=np.int64)[:, None] * nt
              + np.arange(nt - 1, dtype=np.int64)).ravel()
    faces = np.stack([corner, corner + nt, corner + nt + 1, corner + 1], axis=1)
    return SurfaceMesh(ns=ns, nt=nt, positions=positions, normals=normals,
                       faces=faces, defects=defects)

_VERTEX = "v %#.9g %#.9g %#.9g\n"
_NORMAL = "vn %#.9g %#.9g %#.9g\n"
_FACE = "f %d//%d %d//%d %d//%d %d//%d\n"
_REPORT_ROW = ",".join(["%#.12g"] * 5) + "\n"


def _block(line: str, rows) -> str:
    """``line`` over each row of ``rows``; adding 0.0 prints -0.0 as 0.0."""
    rows = np.asarray(rows, dtype=float) + 0.0
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def write_obj(mesh: SurfaceMesh, sink) -> None:
    """Wavefront OBJ with per-vertex normals, deterministic bytes.

    One ``v`` line per position, one ``vn`` per normal, quads as
    ``f i//i j//j k//k l//l`` with 1-based indices.
    """
    faces = np.repeat(mesh.faces + 1, 2, axis=1)
    text = (_block(_VERTEX, mesh.positions) + _block(_NORMAL, mesh.normals)
            + (_FACE * len(faces)) % tuple(faces.ravel().tolist()))
    sink.write(text.encode("ascii"))


def write_report_csv(report: DTypeReport, sink) -> None:
    """CSV verification report: per-sample rows plus summary rows."""
    rows = [(smp.s, smp.inner, smp.phi2, smp.phi3, smp.theta) for smp in report.samples]
    text = ("s,inner,phi2,phi3,theta\n" + _block(_REPORT_ROW, rows)
            + "c_estimate,%#.12g\nmax_deviation,%#.12g\n"
            % (report.c_estimate + 0.0, report.max_deviation + 0.0))
    sink.write(text.encode("ascii"))
