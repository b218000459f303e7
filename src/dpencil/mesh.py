"""Grid sampling of pencil surfaces and OBJ / CSV serialization.

``sample_grid`` takes the Frenet frames of all grid columns in one array
``frenet_at`` call and the nudged frames of all inflection columns in a
second one, so no frame is taken per column; it takes the curve points in
one array call per coordinate and the marching scale in one array
``marching_values`` call, the column ``ss[:, None]`` against the row ``ts``
(``verify_dtype`` still takes its frames per sample, but only where the
marching scale is defined along t0).

Defects are ``MeshDefect`` named tuples, built in one pass over the
defective vertices.  Output formatting is bit-exact: identical inputs
produce identical bytes.  Vertex data uses 9 significant digits, report
rows 12, and each block of lines is formatted in one call; face lines
take their ``i//i`` corners from a per-vertex string table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .dcurve import DTypeReport
from .expr import evaluate_jet3
from .frenet import FrenetApparatus, frenet_at
from .jets import Jet3
from .pencil import SurfacePencil, marching_values, pencil_point, surface_normals


class MeshDefect(NamedTuple):
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
    ``non_finite`` defect.
    """
    if ns < 2 or nt < 2:
        raise ValueError("grid sizes must be at least 2x2")
    s_lo, s_hi = p.curve.domain
    ss = np.linspace(s_lo, s_hi, ns)
    ts = np.linspace(*p.t_range, nt)
    nudge = 1e-6 * (s_hi - s_lo)

    app, column_reason = frenet_at(p.curve, ss)
    framed = column_reason == ""
    # Inflection columns borrow the frame of s + nudge, else of s - nudge.
    infl = np.flatnonzero(column_reason == "inflection")
    if infl.size:
        nudged, nudged_reason = frenet_at(p.curve, np.concatenate([ss[infl] + nudge,
                                                                   ss[infl] - nudge]))
        up, down = np.split(nudged_reason == "", 2)
        pick = np.where(up, 0, infl.size) + np.arange(infl.size)
        infl, pick = infl[up | down], pick[up | down]
        for name, v in vars(app).items():
            v[infl] = getattr(nudged, name)[pick]
        framed[infl] = True
    # Curve points as constant jets: per column, the bits of CurveSpec.point.
    zero = np.zeros(ns)
    coords = [evaluate_jet3(e, None, ss, {p.curve.param: Jet3(ss, zero, zero, zero)})
              for e in (p.curve.x, p.curve.y, p.curve.z)]
    defined = np.logical_and.reduce([ok for _, ok in coords])
    column_reason[framed & ~defined] = "domain"
    framed &= defined
    r = np.where(defined[:, None], np.stack([j.v0 for j, _ in coords], axis=1), 0.0)[:, None]
    # Rows without a frame are unspecified: on_curve and the reasons set them aside.
    frame = FrenetApparatus(**{name: v[:, None] for name, v in vars(app).items()})
    framed, column_reason = framed[:, None], column_reason[:, None]
    mv, ok = marching_values(p.marching, ss[:, None], ts)
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
    idx = np.flatnonzero(reason != "")
    defects = list(map(MeshDefect, idx.tolist(), ss[idx // nt].tolist(), ts[idx % nt].tolist(),
                       reason.flat[idx].tolist()))

    corner = (np.arange(ns - 1, dtype=np.int64)[:, None] * nt
              + np.arange(nt - 1, dtype=np.int64)).ravel()
    faces = np.stack([corner, corner + nt, corner + nt + 1, corner + 1], axis=1)
    return SurfaceMesh(ns=ns, nt=nt, positions=positions, normals=normals,
                       faces=faces, defects=defects)

_VERTEX = "v %#.9g %#.9g %#.9g\n"
_NORMAL = "vn %#.9g %#.9g %#.9g\n"
_FACE = "f %s %s %s %s\n"
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
    corners = np.array([f"{i}//{i}" for i in range(1, len(mesh.positions) + 1)],
                       dtype=object)[mesh.faces]
    text = (_block(_VERTEX, mesh.positions) + _block(_NORMAL, mesh.normals)
            + (_FACE * len(corners)) % tuple(corners.ravel().tolist()))
    sink.write(text.encode("ascii"))


def write_report_csv(report: DTypeReport, sink) -> None:
    """CSV verification report: per-sample rows plus summary rows."""
    # fromiter over the flattened samples: np.asarray walks named tuples slowly.
    rows = np.fromiter(chain.from_iterable(report.samples), float, 5 * len(report.samples))
    text = ("s,inner,phi2,phi3,theta\n" + _block(_REPORT_ROW, rows.reshape(-1, 5))
            + "c_estimate,%#.12g\nmax_deviation,%#.12g\n"
            % (report.c_estimate + 0.0, report.max_deviation + 0.0))
    sink.write(text.encode("ascii"))
