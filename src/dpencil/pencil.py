"""Marching-scale functions and surface-pencil evaluation.

A surface pencil is the family

    P(s, t) = r(s) + u(s,t) T(s) + v(s,t) N(s) + w(s,t) B(s)

built over a curve r with Frenet frame (T, N, B).  The marching-scale
functions u, v, w vanish identically at t = t0, so the curve itself is the
t = t0 parameter line of every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DegenerateNormalError, DomainError, InvalidMarchingScaleError
from .expr import Expression, evaluate_jet3
from .frenet import EPS_REGULAR, CurveSpec, FrenetApparatus, frenet_at

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

    u = U(t); v = a_v(s) (t - t0); w = a_w(s) (t - t0), where a_v is a cubic
    interpolant over a dense node table.  The w coefficient is stored
    through its square (which stays smooth where the feasibility radicand
    vanishes): a_w = sign * sqrt(g(s)) with g interpolated.  Used when the
    coefficients have no closed form (non-constant curvature/torsion).
    """

    def __init__(self, u_profile, t0, nodes, v_values, g_values, sign=1,
                 excluded=(), max_interp_error=0.0):
        self.u_profile = u_profile
        self.t0 = float(t0)
        self.sign = int(sign)
        self.nodes = np.asarray(nodes, dtype=float)
        self.v_values = np.asarray(v_values, dtype=float)
        self.g_values = np.asarray(g_values, dtype=float)
        self.excluded = tuple(excluded)
        self.max_interp_error = float(max_interp_error)
        self._v = CubicSpline(self.nodes, self.v_values)
        self._g = CubicSpline(self.nodes, self.g_values)

    def v_coefficient(self, s: float, derivative: int = 0) -> float:
        return float(self._v(s, derivative))

    def w_coefficient(self, s: float, derivative: int = 0) -> float:
        g = float(self._g(s))
        if g <= 0.0:
            return 0.0
        root = math.sqrt(g)
        if derivative == 0:
            return self.sign * root
        return self.sign * float(self._g(s, 1)) / (2.0 * root)


MarchingForm = Union[ProductForm, GeneralForm, TabulatedProductForm]


@dataclass(frozen=True)
class MarchingScale:
    form: MarchingForm
    param: str
    t0: float = 0.0


def marching_values(ms: MarchingScale, s: float, t: float) -> MarchingValues:
    """Values and first partials of (u, v, w) at (s, t) via jet evaluation."""
    form = ms.form
    if isinstance(form, ProductForm):
        cx, cy, cz = form.controls
        out = []
        for ctrl, fs, ft in ((cx, form.l, form.U), (cy, form.m, form.V), (cz, form.n, form.W)):
            js = evaluate_jet3(fs, ms.param, s)
            jt = evaluate_jet3(ft, T_VAR, t)
            out.append((ctrl * js.v0 * jt.v0, ctrl * js.v1 * jt.v0, ctrl * js.v0 * jt.v1))
        (u, u_s, u_t), (v, v_s, v_t), (w, w_s, w_t) = out
        return MarchingValues(u, v, w, u_s, v_s, w_s, u_t, v_t, w_t)
    if isinstance(form, GeneralForm):
        out = []
        for ctrl, e in zip(form.controls, (form.u, form.v, form.w)):
            js = evaluate_jet3(e, ms.param, s, fixed={T_VAR: t})
            jt = evaluate_jet3(e, T_VAR, t, fixed={ms.param: s})
            out.append((ctrl * js.v0, ctrl * js.v1, ctrl * jt.v1))
        (u, u_s, u_t), (v, v_s, v_t), (w, w_s, w_t) = out
        return MarchingValues(u, v, w, u_s, v_s, w_s, u_t, v_t, w_t)
    assert isinstance(form, TabulatedProductForm)
    jt = evaluate_jet3(form.u_profile, T_VAR, t)
    dt = t - ms.t0
    av, av1 = form.v_coefficient(s), form.v_coefficient(s, 1)
    aw, aw1 = form.w_coefficient(s), form.w_coefficient(s, 1)
    return MarchingValues(
        u=jt.v0, v=av * dt, w=aw * dt,
        u_s=0.0, v_s=av1 * dt, w_s=aw1 * dt,
        u_t=jt.v1, v_t=av, w_t=aw,
    )


class SurfacePencil:
    """A pencil of surfaces sharing ``curve`` as their t = t0 parameter line.

    Nothing is cached: every method recomputes from the curve and the
    marching scale, so concurrent callers see deterministic values.  Callers
    that visit many t at one s compute ``frame(s)`` once and pass it in.
    """

    def __init__(self, curve: CurveSpec, marching: MarchingScale,
                 t_range: tuple[float, float], validate: bool = True,
                 check_samples: int = 16):
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
        if validate:
            self._check_isoparametric(check_samples)

    @property
    def t0(self) -> float:
        return self.marching.t0

    def _check_isoparametric(self, samples: int) -> None:
        lo, hi = self.curve.domain
        worst = 0.0
        usable = 0
        for s in np.linspace(lo, hi, samples):
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
        if frame is None:
            frame = self.frame(s)
        return pencil_normal(frame, marching_values(self.marching, s, t), s, t)


def pencil_point(r: np.ndarray, frame: FrenetApparatus, mv: MarchingValues) -> np.ndarray:
    """P = r + u T + v N + w B from the curve point, frame and marching values."""
    return r + mv.u * frame.T + mv.v * frame.N + mv.w * frame.B


def pencil_partials(frame: FrenetApparatus,
                    mv: MarchingValues) -> tuple[np.ndarray, np.ndarray]:
    """(dP/ds, dP/dt) from the frame and the marching values at one (s, t)."""
    rho, k, tau = frame.rho, frame.kappa, frame.tau
    d_s = (
        (rho - rho * k * mv.v + mv.u_s) * frame.T
        + (rho * k * mv.u - rho * tau * mv.w + mv.v_s) * frame.N
        + (rho * tau * mv.v + mv.w_s) * frame.B
    )
    d_t = mv.u_t * frame.T + mv.v_t * frame.N + mv.w_t * frame.B
    return d_s, d_t


def pencil_normal(frame: FrenetApparatus, mv: MarchingValues,
                  s: float, t: float) -> np.ndarray:
    """Unit normal dP/ds x dP/dt; raises DegenerateNormalError at (s, t)
    when the partials are (nearly) parallel."""
    d_s, d_t = pencil_partials(frame, mv)
    cr = np.cross(d_s, d_t)
    ncr = float(np.linalg.norm(cr))
    scale = float(np.linalg.norm(d_s)) * float(np.linalg.norm(d_t))
    if ncr <= EPS_REGULAR * (scale + EPS_REGULAR):
        raise DegenerateNormalError(s, t)
    return cr / ncr
