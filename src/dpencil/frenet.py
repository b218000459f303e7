"""Frenet apparatus, unit Darboux vector, and curve classification.

Curvature and torsion come from the general-parameter formulas

    kappa = |r' x r''| / rho^3,    tau = det(r', r'', r''') / |r' x r''|^2

with rho = |r'|; for unit-speed curves these reduce to |r''| and
det(r', r'', r''') / |r''|^2.  All derivatives are exact (jet arithmetic).

``frenet_at`` takes one parameter or a 1-D array of them.  At one
parameter it returns the apparatus or raises.  Over an array it returns
the stacked apparatus (scalars of shape (n,), vectors of shape (n, 3))
and one reason per parameter in place of the error:

- ``""``: the apparatus is defined;
- ``"domain"``: a coordinate expression is undefined (DomainError);
- ``"non_finite"``: the curve derivatives, or the speed, curvature or
  torsion built from them, overflowed or are NaN (NonFiniteCurveError,
  a DomainError);
- ``"irregular"``: speed at most EPS_REGULAR (IrregularCurveError);
- ``"inflection"``: curvature at most EPS_KAPPA (InflectionPointError).

Entries with a reason are unspecified; every other entry equals the
scalar call at that parameter bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    DomainError,
    InflectionPointError,
    InvalidCurveError,
    IrregularCurveError,
    NonFiniteCurveError,
    NotEnoughSamplesError,
)
from .expr import Expression, evaluate, evaluate_jet3

EPS_REGULAR = 1e-9
EPS_KAPPA = 1e-9

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

    def jets(self, q) -> tuple:
        """Componentwise jets of (x(q), y(q), z(q)) up to order 3; each is a
        ``(jet, ok)`` pair when ``q`` is an array (see ``evaluate_jet3``)."""
        return (
            evaluate_jet3(self.x, self.param, q),
            evaluate_jet3(self.y, self.param, q),
            evaluate_jet3(self.z, self.param, q),
        )


@dataclass
class FrenetApparatus:
    """Frame, curvature, torsion, speed and unit Darboux vector at a
    parameter, or stacked over parameters; ``omega`` is the Darboux norm
    hypot(kappa, tau) that ``W0`` is divided by."""

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    rho: float
    W0: np.ndarray
    omega: float


def frenet_at(curve: CurveSpec, q):
    """Frenet frame, curvature, torsion, speed, and unit Darboux vector at q.

    Raises :class:`IrregularCurveError` when the speed drops below the
    regularity threshold, :class:`InflectionPointError` when the frame is
    undefined (curvature below threshold) and :class:`NonFiniteCurveError`
    when the curve derivatives, or the speed, curvature or torsion built
    from them, are not finite.  With a 1-D array ``q`` it returns
    ``(apparatus, reasons)`` instead (see the module docstring).
    """
    if isinstance(q, np.ndarray):
        return _frenet_stack(curve, q)
    jx, jy, jz = curve.jets(q)
    derivatives = (jx.v1, jy.v1, jz.v1, jx.v2, jy.v2, jz.v2, jx.v3, jy.v3, jz.v3)
    # Below 1e75 no dot product overflows (r' x r'' < 2e150); past it numpy warns.
    if sum(map(abs, derivatives)) < 1e75:
        return _frenet_point(q, derivatives)
    if not all(map(math.isfinite, derivatives)):
        raise NonFiniteCurveError(q)
    with np.errstate(over="ignore", invalid="ignore"):
        return _frenet_point(q, derivatives)


def _frenet_point(q: float, derivatives: tuple) -> FrenetApparatus:
    """Scalar ``frenet_at`` from the finite curve derivatives."""
    x1, y1, z1, x2, y2, z2 = derivatives[:6]
    d1 = np.array(derivatives[:3])

    rho = math.sqrt(d1.dot(d1))
    if rho <= EPS_REGULAR:
        raise IrregularCurveError(q, rho)
    # r' x r'' and B x T written out: np.cross of two 3-vectors costs more
    # than the rest of the apparatus, and rounds the same.
    cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
    cr = np.array([cx, cy, cz])
    ncr = math.sqrt(cr.dot(cr))
    rho3 = _cube(rho)
    kappa = ncr / rho3
    if not (math.isfinite(rho3) and math.isfinite(kappa)):
        raise NonFiniteCurveError(q)
    if kappa <= EPS_KAPPA:
        raise InflectionPointError(q, kappa)

    tau = float(cr.dot(derivatives[6:])) / (ncr * ncr)
    w = math.hypot(kappa, tau)
    if not math.isfinite(w):
        raise NonFiniteCurveError(q)
    tx, ty, tz = x1 / rho, y1 / rho, z1 / rho
    bx, by, bz = cx / ncr, cy / ncr, cz / ncr
    T, N, B, W0 = np.array([
        tx, ty, tz, by * tz - bz * ty, bz * tx - bx * tz, bx * ty - by * tx, bx, by, bz,
        (tau * tx + kappa * bx) / w, (tau * ty + kappa * by) / w, (tau * tz + kappa * bz) / w,
    ]).reshape(4, 3)
    return FrenetApparatus(T, N, B, kappa, tau, rho, W0, w)


def _cube(rho: float) -> float:
    """rho ** 3 rounded as Python rounds it, inf where it overflows."""
    try:
        return rho ** 3
    except OverflowError:
        return math.inf


def _frenet_stack(curve: CurveSpec, qs: np.ndarray):
    """``frenet_at`` over the parameters ``qs``: (apparatus, reasons)."""
    (jx, okx), (jy, oky), (jz, okz) = curve.jets(qs)
    columns = [getattr(j, f) for f in ("v1", "v2", "v3") for j in (jx, jy, jz)]
    x1, y1, z1, x2, y2, z2 = columns[:6]
    derivatives = np.stack(columns, axis=-1)
    d1, d3 = derivatives[:, :3], derivatives[:, 6:]
    n = qs.size
    with np.errstate(all="ignore"):
        rho = np.sqrt(np.vecdot(d1, d1))
        # rho^3 and omega through libm, as in _frenet_point: np.power and
        # np.hypot round differently (on an AVX-512 x86-64 machine, numpy 2.4:
        # ~5% of 1,000,000 random cubes, 55-1,041 of 200,000 random pairs).
        # math.pow raises on overflow, where _cube gives inf.
        rho_list = rho.tolist()
        try:
            rho3 = np.fromiter(map(math.pow, rho_list, repeat(3.0)), float, n)
        except OverflowError:
            rho3 = np.fromiter(map(_cube, rho_list), float, n)
        # r' x r'' and B x T written out on the columns, as in _frenet_point:
        # the same bits as np.cross without its axis shuffling.
        cr = np.stack([y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2], axis=-1)
        ncr = np.sqrt(np.vecdot(cr, cr))
        kappa = ncr / rho3
        T = d1 / rho[:, None]
        B = cr / ncr[:, None]
        tau = np.vecdot(cr, d3) / (ncr * ncr)
        w = np.fromiter(map(math.hypot, kappa.tolist(), tau.tolist()), float, n)
        W0 = (tau[:, None] * T + kappa[:, None] * B) / w[:, None]
        (tx, ty, tz), (bx, by, bz) = T.T, B.T
        N = np.stack([by * tz - bz * ty, bz * tx - bx * tz, bx * ty - by * tx], axis=-1)
    finite = np.isfinite(derivatives).all(axis=-1)
    # In the order the scalar form checks them.
    conditions = [
        ~(okx & oky & okz), ~finite, rho <= EPS_REGULAR,
        ~(np.isfinite(rho3) & np.isfinite(kappa)), kappa <= EPS_KAPPA, ~np.isfinite(w),
    ]
    if np.logical_or.reduce(conditions).any():
        reasons = np.select(conditions, ["domain", "non_finite", "irregular", "non_finite",
                                         "inflection", "non_finite"], "")
    else:  # as wide as np.select makes it: callers write reasons into it
        reasons = np.full(qs.shape, "", dtype="<U10")
    return FrenetApparatus(T, N, B, kappa, tau, rho, W0, w), reasons


# Scalar errors after which verification's per-sample frames go on without a
# frame, reporting the error's ``reason``; the others propagate.
NO_FRAME = (InflectionPointError, IrregularCurveError, DomainError)


@dataclass(frozen=True)
class CurveClass:
    """Classification verdict plus the constant that witnesses it.

    ``constant`` is 0 for planar curves, tau/kappa for general helices,
    kappa for Salkowski, tau for anti-Salkowski, and None for generic
    curves.  ``deviation`` is the max sample deviation of that quantity;
    for a generic curve it is the evidence against every class, the largest
    relative spread, (max - min) / (1 + |mean|), of kappa, tau and tau/kappa.
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

    def scale(v):
        return 1.0 + abs(float(np.mean(v)))

    def is_const(v):
        return spread(v) <= tol * scale(v)

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
    return CurveClass(GENERIC, None,
                      max(spread(v) / scale(v) for v in (kappas, taus, ratios)), skipped)


def classify_curve(curve: CurveSpec, sample_count: int = 256, tol: float = 1e-6) -> CurveClass:
    """Classify by sampling kappa and tau uniformly over the curve domain.

    Parameters without a frame or with an undefined or non-finite curve are
    skipped (isolated inflections do not change a curve's global character)
    and counted in ``CurveClass.skipped``; fewer than 8 usable samples
    raise."""
    if sample_count < 8:
        raise ValueError("sample_count must be at least 8")
    qs = np.linspace(curve.domain[0], curve.domain[1], sample_count)
    app, reasons = frenet_at(curve, qs)
    good = reasons == ""
    usable = int(np.count_nonzero(good))
    if usable < 8:
        raise NotEnoughSamplesError(
            f"only {usable} of {sample_count} samples have a defined frame"
        )
    return classify_from_samples(app.kappa[good], app.tau[good], tol, sample_count - usable)
