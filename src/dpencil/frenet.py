"""Frenet apparatus, unit Darboux vector, and curve classification.

Curvature and torsion come from the general-parameter formulas

    kappa = |r' x r''| / rho^3,    tau = det(r', r'', r''') / |r' x r''|^2

with rho = |r'|; for unit-speed curves these reduce to |r''| and
det(r', r'', r''') / |r''|^2.  All derivatives are exact (jet arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InflectionPointError,
    InvalidCurveError,
    IrregularCurveError,
    NotEnoughSamplesError,
)
from .expr import Expression, evaluate, evaluate_jet3
from .jets import Jet3

EPS_REGULAR = 1e-9
EPS_KAPPA = 1e-9
UNIT_SPEED_TOL = 1e-9

PLANAR = "Planar"
GENERAL_HELIX = "GeneralHelix"
SALKOWSKI = "Salkowski"
ANTI_SALKOWSKI = "AntiSalkowski"
GENERIC = "Generic"


@dataclass(frozen=True)
class CurveSpec:
    """An analytic space curve q -> (x(q), y(q), z(q)) on a closed interval."""

    x: Expression
    y: Expression
    z: Expression
    param: str
    domain: tuple[float, float]
    unit_speed: bool = False

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise InvalidCurveError(f"empty parameter domain {self.domain!r}")
        allowed = {self.param}
        for name, e in (("x", self.x), ("y", self.y), ("z", self.z)):
            extra = set(e.free_vars) - allowed
            if extra:
                raise InvalidCurveError(
                    f"coordinate {name} references variables {sorted(extra)} "
                    f"other than {self.param!r}"
                )

    def point(self, q: float) -> np.ndarray:
        b = {self.param: q}
        return np.array([evaluate(self.x, b), evaluate(self.y, b), evaluate(self.z, b)])

    def jets(self, q: float) -> tuple[Jet3, Jet3, Jet3]:
        """Componentwise jets of (x(q), y(q), z(q)) up to order 3."""
        return (
            evaluate_jet3(self.x, self.param, q),
            evaluate_jet3(self.y, self.param, q),
            evaluate_jet3(self.z, self.param, q),
        )


@dataclass(frozen=True)
class FrenetApparatus:
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    rho: float
    W0: np.ndarray


def frenet_at(curve: CurveSpec, q: float) -> FrenetApparatus:
    """Frenet frame, curvature, torsion, speed, and unit Darboux vector at q.

    Raises :class:`IrregularCurveError` when the speed drops below the
    regularity threshold and :class:`InflectionPointError` when the frame is
    undefined (curvature below threshold).
    """
    jx, jy, jz = curve.jets(q)
    d1 = np.array([jx.v1, jy.v1, jz.v1])
    d2 = np.array([jx.v2, jy.v2, jz.v2])
    d3 = np.array([jx.v3, jy.v3, jz.v3])

    rho = float(np.linalg.norm(d1))
    if rho <= EPS_REGULAR:
        raise IrregularCurveError(q, rho)
    if curve.unit_speed and abs(rho - 1.0) > UNIT_SPEED_TOL:
        raise InvalidCurveError(
            f"curve declared unit speed but |r'({q!r})| = {rho!r}"
        )

    cr = np.cross(d1, d2)
    ncr = float(np.linalg.norm(cr))
    kappa = ncr / rho**3
    if kappa <= EPS_KAPPA:
        raise InflectionPointError(q, kappa)

    T = d1 / rho
    B = cr / ncr
    N = np.cross(B, T)
    tau = float(np.dot(cr, d3)) / (ncr * ncr)
    w = math.hypot(kappa, tau)
    W0 = (tau * T + kappa * B) / w
    return FrenetApparatus(T=T, N=N, B=B, kappa=kappa, tau=tau, rho=rho, W0=W0)


@dataclass(frozen=True)
class CurveClass:
    """Classification verdict plus the constant that witnesses it.

    ``constant`` is 0 for planar curves, tau/kappa for general helices,
    kappa for Salkowski, tau for anti-Salkowski, and None for generic
    curves.  ``deviation`` is the max sample deviation of that quantity.
    """

    kind: str
    constant: float | None
    deviation: float
    skipped: int = 0


def classify_from_samples(kappas, taus, tol: float, skipped: int = 0) -> CurveClass:
    """Decision table over sampled curvature/torsion values.

    Priority: planar, general helix, Salkowski, anti-Salkowski, generic;
    a quantity is "constant" when max - min <= tol * (1 + |mean|).
    """
    kappas = np.asarray(kappas, dtype=float)
    taus = np.asarray(taus, dtype=float)

    def spread(v):
        return float(np.max(v) - np.min(v))

    def is_const(v):
        return spread(v) <= tol * (1.0 + abs(float(np.mean(v))))

    tau_abs_max = float(np.max(np.abs(taus)))
    if tau_abs_max <= tol:
        return CurveClass(PLANAR, 0.0, tau_abs_max, skipped)
    ratios = taus / kappas
    if is_const(ratios):
        return CurveClass(GENERAL_HELIX, float(np.mean(ratios)), spread(ratios), skipped)
    if is_const(kappas) and not is_const(taus):
        return CurveClass(SALKOWSKI, float(np.mean(kappas)), spread(kappas), skipped)
    if is_const(taus) and not is_const(kappas):
        return CurveClass(ANTI_SALKOWSKI, float(np.mean(taus)), spread(taus), skipped)
    return CurveClass(GENERIC, None, 0.0, skipped)


def classify_curve(curve: CurveSpec, sample_count: int = 256, tol: float = 1e-6) -> CurveClass:
    """Classify by sampling kappa and tau uniformly over the curve domain.

    Parameters where the frame is undefined are skipped (isolated
    inflections do not change a curve's global character) and counted in
    ``CurveClass.skipped``.
    """
    if sample_count < 8:
        raise ValueError("sample_count must be at least 8")
    qs = np.linspace(curve.domain[0], curve.domain[1], sample_count)
    kappas, taus = [], []
    skipped = 0
    for q in qs:
        try:
            app = frenet_at(curve, float(q))
        except (InflectionPointError, IrregularCurveError):
            skipped += 1
            continue
        kappas.append(app.kappa)
        taus.append(app.tau)
    if len(kappas) < 2:
        raise NotEnoughSamplesError(
            f"only {len(kappas)} of {sample_count} samples have a defined frame"
        )
    return classify_from_samples(kappas, taus, tol, skipped)
