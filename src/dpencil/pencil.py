"""Marching-scale functions and surface-pencil evaluation.

A surface pencil is the family

    P(s, t) = r(s) + u(s,t) T(s) + v(s,t) N(s) + w(s,t) B(s)

built over a curve r with Frenet frame (T, N, B).  The marching-scale
functions u, v, w vanish identically at t = t0, so the curve itself is the
t = t0 parameter line of every member.

``marching_values`` evaluates the scale at one (s, t); ``marching_grid``
evaluates it on a whole (s, t) grid with an ``ok`` mask instead of a
``DomainError`` per vertex.  Both run one per-form kernel, ``_scale``, and
differ only in the jet walk they hand it: the scalar ``evaluate_jet3``,
which raises, or one array call per expression that folds its ``ok`` into
the grid mask.  Product forms separate, so their s-parts run over the grid
column and their t-parts over the row; a general form runs over the whole
grid.  ``pencil_point``, ``pencil_partials`` and
``pencil_normal`` broadcast: the frame fields (scalars of shape F, vectors
of shape F + (3,), as ``frenet_at`` over an array or ``stack_frames``
gives them) broadcast against the marching fields, and a single frame with
scalar marching values gives a single 3-vector.  ``surface_normals`` names
why a normal is missing, in one order of precedence for every caller.

A synthesized scale (``TabulatedProductForm``) interpolates its node table
with ``_NotAKnotSpline``, a not-a-knot cubic (de Boor, *A Practical Guide
to Splines*, ch. 4).  It is ``scipy.interpolate.CubicSpline`` rebuilt on
LAPACK's ``dgtsv`` alone, the tridiagonal solver that ``solve_banded``
calls: the same system for the slopes, the same Hermite coefficients, and
evaluation in the rounding order of ``PPoly``.  So every value and
derivative, and every output built on them, is bit-identical to the
``CubicSpline`` it replaces, while importing the package no longer imports
``scipy.interpolate``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence, Union

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (
    DegenerateNormalError,
    DomainError,
    InvalidMarchingScaleError,
    NonFiniteNormalError,
)
from .expr import Expression, evaluate_jet3
from .frenet import EPS_REGULAR, CurveSpec, FrenetApparatus, frenet_at
from .jets import Jet3

T_VAR = "t"


class MarchingValues(NamedTuple):
    u: float
    v: float
    w: float
    u_s: float
    v_s: float
    w_s: float
    u_t: float
    v_t: float
    w_t: float


@dataclass(frozen=True)
class ProductForm:
    """u = x l(s) U(t), v = y m(s) V(t), w = z n(s) W(t)."""

    l: Expression
    m: Expression
    n: Expression
    U: Expression
    V: Expression
    W: Expression
    controls: tuple[float, float, float] = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class GeneralForm:
    """u, v, w as arbitrary bivariate expressions in (s, t)."""

    u: Expression
    v: Expression
    w: Expression
    controls: tuple[float, float, float] = (1.0, 1.0, 1.0)


class TabulatedProductForm:
    """Synthesized marching scale with sampled coefficient functions.

    u = t - t0; v = a_v(s) (t - t0); w = a_w(s) (t - t0), with t0 that of
    the ``MarchingScale`` holding the form and a_v a cubic interpolant over
    a dense node table; u does not change the normal along the curve.  The
    w coefficient is stored through its square (which stays smooth where
    the feasibility radicand vanishes): a_w = sign * sqrt(g(s)) with g
    interpolated.  Used when the coefficients have no closed form
    (non-constant curvature/torsion).  ``max_interp_error`` is set by the
    synthesis that checks the table.
    """

    def __init__(self, nodes, v_values, g_values, sign=1, excluded=()):
        self.sign = int(sign)
        self.nodes = np.asarray(nodes, dtype=float)
        self.v_values = np.asarray(v_values, dtype=float)
        self.g_values = np.asarray(g_values, dtype=float)
        self.excluded = tuple(excluded)
        self.max_interp_error = 0.0
        self._v = _NotAKnotSpline(self.nodes, self.v_values)
        self._g = _NotAKnotSpline(self.nodes, self.g_values)

    def v_coefficient(self, s, derivative: int = 0):
        """a_v (or its derivative) at a float s, or at each s of an array."""
        return _like(s, self._v(s, derivative))

    def w_coefficient(self, s, derivative: int = 0):
        """a_w (or its derivative) at a float s, or at each s of an array;
        zero where the interpolated square is not positive."""
        g = self._g(s)
        vanishing = g <= 0.0
        root = np.sqrt(np.where(vanishing, 1.0, g))
        if derivative == 0:
            value = self.sign * root
        else:
            value = self.sign * self._g(s, derivative) / (2.0 * root)
        return _like(s, np.where(vanishing, 0.0, value))


class _NotAKnotSpline:
    """Not-a-knot cubic interpolant through the values ``y`` at the nodes
    ``x``: the slopes (by ``dgtsv``) and coefficients of ``CubicSpline``,
    evaluated in the rounding order of its ``PPoly`` and extrapolated by
    the end pieces."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = x.size
        dx = np.diff(x)
        increasing = np.all(np.isfinite(dx) & (dx > 0.0))
        if x.ndim != 1 or y.shape != x.shape or n < 4 or not increasing:
            raise ValueError("a spline needs at least 4 finite, strictly increasing "
                             "nodes and one value per node")
        slope = np.diff(y) / dx
        # Slopes m: a tridiagonal system, solved as solve_banded solves it.
        lower, diag, upper, b = np.empty(n - 1), np.empty(n), np.empty(n - 1), np.empty(n)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        diag[0] = dx[1]
        upper[0] = d = x[2] - x[0]
        b[0] = ((dx[0] + 2*d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
        diag[-1] = dx[-2]
        lower[-1] = d = x[-1] - x[-3]
        b[-1] = (dx[-1]**2*slope[-2] + (2*d + dx[-1])*dx[-2]*slope[-1]) / d
        *_, m, info = dgtsv(lower, diag, upper, b, 1, 1, 1, 1)  # overwrites all four
        if info:  # > 0: a zero pivot, as solve_banded reports it
            raise np.linalg.LinAlgError(f"singular spline slope system (dgtsv info {info})")
        # Cubic Hermite coefficients, highest power first, one column per piece.
        t = (m[:-1] + m[1:] - 2 * slope) / dx
        self.c = np.stack((t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]))
        self._inner = x[1:-1]
        self._x = x

    def __call__(self, q, derivative: int = 0):
        """Value (derivative 0) or first derivative (1) at each q, an
        array of q's shape."""
        if derivative not in (0, 1):
            raise ValueError(f"derivative must be 0 or 1, got {derivative!r}")
        q = np.asarray(q, dtype=float)
        # Counting interior nodes <= q is clip(searchsorted(x, q, "right") - 1,
        # 0, n - 2): PPoly's piece, with the end pieces extended outward.
        i = np.searchsorted(self._inner, q, "right")
        s = q - self._x[i]
        c3, c2, c1, c0 = self.c.take(i, axis=1)
        if derivative == 0:
            return (((0.0 + c0) + c1 * s) + c2 * (s * s)) + c3 * ((s * s) * s)
        return ((0.0 + c1) + (c2 * s) * 2.0) + (c3 * (s * s)) * 3.0


def _like(s, values):
    """``values`` as a float when ``s`` is a scalar."""
    return values if np.ndim(s) else float(values)


MarchingForm = Union[ProductForm, GeneralForm, TabulatedProductForm]


@dataclass(frozen=True)
class MarchingScale:
    form: MarchingForm
    param: str
    t0: float = 0.0


def marching_values(ms: MarchingScale, s: float, t: float) -> MarchingValues:
    """Values and first partials of (u, v, w) at (s, t) via jet evaluation."""
    return _scale(ms, s, t, _point_walk)


def _point_walk(expr: Expression, var: str, point: float, fixed=None):
    jet = evaluate_jet3(expr, var, point, fixed)
    return jet.v0, jet.v1


def marching_grid(ms: MarchingScale, ss: Sequence[float],
                  ts: Sequence[float]) -> tuple[MarchingValues, np.ndarray]:
    """``marching_values`` on every (s, t) of the grid ``ss`` x ``ts``.

    Returns ``(values, ok)``: each field of ``values`` and the mask ``ok``
    have shape ``(len(ss), len(ts))``.  Where the scale is undefined ``ok``
    is False and the fields are zero.  Entries equal ``marching_values``
    at the same (s, t) bit for bit: both run ``_scale``, here with s as a
    column and t as a row.
    """
    ss = np.asarray(ss, dtype=float).reshape(-1, 1)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    ok = np.ones((ss.size, ts.size), dtype=bool)

    def walk(expr, var, point, fixed=None):
        # One array call over the points; a bivariate walk runs over the
        # whole grid, the other variable fixed as a constant jet.
        nonlocal ok
        if fixed is not None:
            (name, value), = fixed.items()
            point, value = np.broadcast_arrays(point, value)
            zero = np.zeros(point.size)
            fixed = {name: Jet3(value.ravel(), zero, zero, zero)}
        jet, part_ok = evaluate_jet3(expr, var, point.ravel(), fixed)
        ok &= part_ok.reshape(point.shape)
        return jet.v0.reshape(point.shape), jet.v1.reshape(point.shape)

    values = _scale(ms, ss, ts, walk)
    return MarchingValues(*(np.where(ok, f, 0.0) for f in values)), ok


def _scale(ms: MarchingScale, s, t, walk) -> MarchingValues:
    """The marching values of ``ms`` at s and t, floats or arrays that
    broadcast.  ``walk(expr, var, point, fixed=None)`` gives the value and
    first derivative of ``expr`` in ``var`` at ``point``, the other
    variable fixed at its value in ``fixed``."""
    form = ms.form
    if isinstance(form, ProductForm):
        parts = []
        for ctrl, fs, ft in zip(form.controls, (form.l, form.m, form.n),
                                (form.U, form.V, form.W)):
            c0, c1 = walk(fs, ms.param, s)
            r0, r1 = walk(ft, T_VAR, t)
            a0 = ctrl * c0
            parts.append((a0 * r0, (ctrl * c1) * r0, a0 * r1))
    elif isinstance(form, GeneralForm):
        parts = []
        for ctrl, e in zip(form.controls, (form.u, form.v, form.w)):
            f0, f_s = walk(e, ms.param, s, {T_VAR: t})
            f_t = walk(e, T_VAR, t, {ms.param: s})[1]
            parts.append((ctrl * f0, ctrl * f_s, ctrl * f_t))
    else:
        assert isinstance(form, TabulatedProductForm)
        dt = t - ms.t0
        av, av1 = form.v_coefficient(s), form.v_coefficient(s, 1)
        aw, aw1 = form.w_coefficient(s), form.w_coefficient(s, 1)
        return MarchingValues(dt, av * dt, aw * dt, 0.0, av1 * dt, aw1 * dt, 1.0, av, aw)
    (u, u_s, u_t), (v, v_s, v_t), (w, w_s, w_t) = parts
    return MarchingValues(u, v, w, u_s, v_s, w_s, u_t, v_t, w_t)


class SurfacePencil:
    """A pencil of surfaces sharing ``curve`` as their t = t0 parameter line.

    Nothing is cached: every method recomputes from the curve and the
    marching scale, so concurrent callers see deterministic values.  Callers
    that visit many t at one s compute ``frame(s)`` once and pass it in.
    """

    def __init__(self, curve: CurveSpec, marching: MarchingScale,
                 t_range: tuple[float, float]):
        if marching.param != curve.param:
            raise InvalidMarchingScaleError(
                f"marching scale parameter {marching.param!r} does not match "
                f"curve parameter {curve.param!r}"
            )
        lo, hi = t_range
        if not lo <= marching.t0 <= hi:
            raise InvalidMarchingScaleError(
                f"t0 = {marching.t0!r} outside t range {t_range!r}"
            )
        self.curve = curve
        self.marching = marching
        self.t_range = (float(lo), float(hi))
        self._check_isoparametric()

    @property
    def t0(self) -> float:
        return self.marching.t0

    def _check_isoparametric(self) -> None:
        lo, hi = self.curve.domain
        worst = 0.0
        usable = 0
        for s in np.linspace(lo, hi, 16):
            try:
                mv = marching_values(self.marching, float(s), self.t0)
            except DomainError:
                # Marching functions may be undefined on part of the domain
                # (excluded subdomains); those parameters are skipped here
                # and reported by verification and sampling instead.
                continue
            usable += 1
            worst = max(worst, abs(mv.u), abs(mv.v), abs(mv.w))
        if usable == 0:
            raise InvalidMarchingScaleError(
                "marching-scale functions are undefined at every checked parameter"
            )
        if worst > 1e-12:
            raise InvalidMarchingScaleError(
                f"marching-scale functions do not vanish at t0: max |u,v,w| = {worst:.3e}"
            )

    def frame(self, s: float) -> FrenetApparatus:
        return frenet_at(self.curve, s)

    def point(self, s: float, t: float, frame: FrenetApparatus | None = None) -> np.ndarray:
        if frame is None:
            frame = self.frame(s)
        mv = marching_values(self.marching, s, t)
        return pencil_point(self.curve.point(s), frame, mv)

    def partials(self, s: float, t: float,
                 frame: FrenetApparatus | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(dP/ds, dP/dt); dP/ds uses the Frenet equations scaled by the speed."""
        if frame is None:
            frame = self.frame(s)
        return pencil_partials(frame, marching_values(self.marching, s, t))

    def normal(self, s: float, t: float,
               frame: FrenetApparatus | None = None) -> np.ndarray:
        """Unit normal at (s, t); raises :class:`NonFiniteNormalError` or
        :class:`DegenerateNormalError` where ``pencil_normal`` masks it."""
        if frame is None:
            frame = self.frame(s)
        unit, degenerate, non_finite = pencil_normal(
            frame, marching_values(self.marching, s, t))
        if non_finite:
            raise NonFiniteNormalError(s, t)
        if degenerate:
            raise DegenerateNormalError(s, t)
        return unit


# Stacked in place of a missing frame: every quantity built on it is zero
# or degenerate, and callers mask those entries out.
_NO_FRAME = FrenetApparatus(T=np.zeros(3), N=np.zeros(3), B=np.zeros(3),
                            kappa=0.0, tau=0.0, rho=0.0, W0=np.zeros(3), omega=0.0)


def stack_frames(frames: Sequence[FrenetApparatus | None]) -> FrenetApparatus:
    """One apparatus for ``n`` frames (None where a frame is missing), in
    the layout of ``frenet_at`` over an array: scalar fields of shape (n,)
    and vectors of shape (n, 3)."""
    frames = [_NO_FRAME if fr is None else fr for fr in frames]
    return FrenetApparatus(**{
        f.name: np.array([getattr(fr, f.name) for fr in frames])
        for f in fields(FrenetApparatus)
    })


def _along(c, v: np.ndarray) -> np.ndarray:
    """Coefficient array ``c`` times the 3-vectors ``v`` (broadcast)."""
    return np.expand_dims(c, -1) * v


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of 3-vectors, rounded like ``np.linalg.norm`` of
    each one.  Where the squares overflow but the norm does not (components
    past ~1e154), ``hypot`` gives the finite norm."""
    n = np.sqrt(np.vecdot(x, x))
    overflowed = np.isinf(n)
    if not overflowed.any():
        return n
    return np.where(overflowed, np.hypot(np.hypot(x[..., 0], x[..., 1]), x[..., 2]), n)


def pencil_point(r: np.ndarray, frame: FrenetApparatus, mv: MarchingValues) -> np.ndarray:
    """P = r + u T + v N + w B from the curve point, frame and marching values."""
    return r + _along(mv.u, frame.T) + _along(mv.v, frame.N) + _along(mv.w, frame.B)


def pencil_partials(frame: FrenetApparatus,
                    mv: MarchingValues) -> tuple[np.ndarray, np.ndarray]:
    """(dP/ds, dP/dt) from the frame and the marching values."""
    rho, k, tau = frame.rho, frame.kappa, frame.tau
    d_s = (
        _along(rho - rho * k * mv.v + mv.u_s, frame.T)
        + _along(rho * k * mv.u - rho * tau * mv.w + mv.v_s, frame.N)
        + _along(rho * tau * mv.v + mv.w_s, frame.B)
    )
    d_t = _along(mv.u_t, frame.T) + _along(mv.v_t, frame.N) + _along(mv.w_t, frame.B)
    return d_s, d_t


def pencil_normal(frame: FrenetApparatus, mv: MarchingValues
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit normals dP/ds x dP/dt with their defect masks.

    Returns ``(unit, degenerate, non_finite)``.  ``non_finite`` marks
    partials or norms that overflowed or are NaN; ``degenerate`` marks
    (nearly) parallel finite partials.  ``unit`` is zero wherever either
    mask is set.
    """
    d_s, d_t = pencil_partials(frame, mv)
    cr = np.cross(d_s, d_t)
    ncr = _norm(cr)
    scale = _norm(d_s) * _norm(d_t)
    non_finite = ~(np.isfinite(ncr) & np.isfinite(scale))
    degenerate = ~non_finite & (ncr <= EPS_REGULAR * (scale + EPS_REGULAR))
    good = np.expand_dims(~(non_finite | degenerate), -1)
    unit = np.divide(cr, np.expand_dims(ncr, -1), out=np.zeros_like(cr), where=good)
    return unit, degenerate, non_finite


def surface_normals(frame: FrenetApparatus, framed: np.ndarray, frame_reason: np.ndarray,
                    mv: MarchingValues, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals over marching fields, and the reason each one is missing.

    ``framed`` marks the parameters with a usable frame and ``frame_reason``
    is "" where the frame is the parameter's own; both, like ``frame``,
    broadcast against ``mv`` and its mask ``ok``.  The first matching
    reason wins: the frame's reason where there is no frame, "domain" where
    the marching scale is undefined, the frame's reason where the frame is
    borrowed, then "non_finite" and "degenerate_normal" as ``pencil_normal``
    masks them.  Returns ``(normals, reason)``, with a zero normal wherever
    ``reason`` is set.
    """
    unit, degenerate, non_finite = pencil_normal(frame, mv)
    reason = np.select(
        [~framed, ~ok, frame_reason != "", non_finite, degenerate],
        [frame_reason, "domain", frame_reason, "non_finite", "degenerate_normal"],
        "",
    )
    return np.where(np.expand_dims(reason == "", -1), unit, 0.0), reason
