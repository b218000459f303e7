"""Verification and synthesis of the constant normal/Darboux condition.

A curve on a surface is a D-type curve when <n, W0> is constant along it,
where n is the surface unit normal along the curve and W0 the curve's unit
Darboux vector.  Geodesics (constant 0) and asymptotic planar curves
(constant 1 with zero torsion) are the degenerate cases.

Along the t = t0 line the normal is n = phi2 N + phi3 B, and the condition
with constant c pins the components to

    phi3 = c sqrt(kappa^2 + tau^2) / kappa,
    phi2 = +/- sqrt(1 - c^2 (kappa^2 + tau^2) / kappa^2),

which is feasible exactly where the phi2 radicand is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainError,
    InfeasibleConstantError,
    InflectionPointError,
    IrregularCurveError,
    NotEnoughSamplesError,
)
from .expr import BinOp, Expression, Var, number_node, parse_expression
from .frenet import (
    ANTI_SALKOWSKI,
    GENERAL_HELIX,
    PLANAR,
    SALKOWSKI,
    CurveClass,
    CurveSpec,
    FrenetApparatus,
    classify_curve,
    frenet_at,
)
from .pencil import (
    MarchingScale,
    MarchingValues,
    ProductForm,
    SurfacePencil,
    TabulatedProductForm,
    marching_grid,
    pencil_normal,
    stack_frames,
)

# Radicand values inside this band count as boundary-touching: phi2 would be
# non-smooth there, so synthesis treats them as infeasible.
BOUNDARY_TOL = 1e-12
_CONST_COEFF_TOL = 1e-10
_INTERP_TARGET = 1e-9
_MAX_TABLE_NODES = 8193


def _t0_normals(p: SurfacePencil, sample_count: int):
    """Unit normals along the t = t0 line at ``sample_count`` parameters.

    Frames are taken per sample, the marching scale and the normals in one
    array pass.  Returns ``(ss, frame, mv, normals, reasons)``, each with
    one leading axis over the samples; ``reasons`` is "" where the normal
    is usable and the skip reason elsewhere.
    """
    lo, hi = p.curve.domain
    ss = np.linspace(lo, hi, sample_count)
    frames, frame_reasons = [], []
    for s in ss.tolist():
        frame, reason = None, ""
        try:
            frame = p.frame(s)
        except InflectionPointError:
            reason = "inflection"
        except IrregularCurveError:
            reason = "irregular"
        except DomainError:
            reason = "domain"
        frames.append(frame)
        frame_reasons.append(reason)
    frame = stack_frames(frames)
    frame_reason = np.array(frame_reasons)[:, None]
    mv, ok = marching_grid(p.marching, ss, [p.t0])
    normals, degenerate, non_finite = pencil_normal(frame, mv)
    reasons = np.select(
        [frame_reason != "", ~ok, non_finite, degenerate],
        [frame_reason, "domain", "non_finite", "degenerate_normal"],
        "",
    )
    frame = FrenetApparatus(**{name: v[:, 0] for name, v in vars(frame).items()})
    mv = MarchingValues(*(f[:, 0] for f in mv))
    return ss, frame, mv, normals[:, 0], reasons[:, 0]


@dataclass(frozen=True)
class DTypeSample:
    s: float
    inner: float
    phi2: float
    phi3: float
    theta: float


@dataclass(frozen=True)
class DTypeReport:
    samples: tuple[DTypeSample, ...]
    c_estimate: float
    max_deviation: float
    skipped: tuple[tuple[float, str], ...]
    verdict: bool
    tolerance: float
    geodesic: bool
    asymptotic_planar: bool


def phi_components(p: SurfacePencil, s: float) -> tuple[float, float, float]:
    """Frenet components (phi1, phi2, phi3) of the surface normal at (s, t0)."""
    app = p.frame(s)
    n = p.normal(s, p.t0, frame=app)
    return (
        float(np.dot(n, app.T)),
        float(np.dot(n, app.N)),
        float(np.dot(n, app.B)),
    )


def verify_dtype(p: SurfacePencil, sample_count: int = 1000,
                 tolerance: float = 1e-8) -> DTypeReport:
    """Sample <n, W0> along the curve and judge whether it is constant.

    Parameters with an undefined frame or normal (inflections, irregular
    points, expression domain violations) are skipped and reported.
    """
    if sample_count < 16:
        raise ValueError("sample_count must be at least 16")
    ss, frame, _, normals, reasons = _t0_normals(p, sample_count)
    skipped = [(s, why) for s, why in zip(ss.tolist(), reasons.tolist()) if why]
    good = reasons == ""
    n = normals[good]
    inner, phi2, phi3 = (np.vecdot(n, v[good]) for v in (frame.W0, frame.N, frame.B))
    samples = [
        DTypeSample(s, i, a, b, math.atan2(b, a))
        for s, i, a, b in zip(ss[good].tolist(), inner.tolist(), phi2.tolist(), phi3.tolist())
    ]
    max_abs_tau = float(np.max(np.abs(frame.tau[good]), initial=0.0))
    if len(samples) < 2:
        raise NotEnoughSamplesError(
            f"only {len(samples)} of {sample_count} samples usable"
        )
    c_estimate = float(np.mean(inner))
    max_deviation = float(np.max(np.abs(inner - c_estimate)))
    flag_tol = max(tolerance, 1e-9)
    min_abs_phi3 = float(np.min(np.abs(phi3)))
    return DTypeReport(
        samples=tuple(samples),
        c_estimate=c_estimate,
        max_deviation=max_deviation,
        skipped=tuple(skipped),
        verdict=max_deviation <= tolerance,
        tolerance=tolerance,
        geodesic=abs(c_estimate) <= flag_tol,
        asymptotic_planar=(min_abs_phi3 >= 1.0 - flag_tol and max_abs_tau <= flag_tol),
    )


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    max_error: float


@dataclass(frozen=True)
class TheoremReport:
    passed: bool
    conditions: tuple[ConditionCheck, ...]
    curve_class: CurveClass
    branch: str | None
    branch_constants: dict
    skipped: int


def check_theorem_conditions(p: SurfacePencil, c: float, sign: int = 1,
                             sample_count: int = 256, tol: float = 1e-8) -> TheoremReport:
    """Check the characterizing conditions for <n, W0> = c with phi2 branch ``sign``.

    Per sample: the marching scale vanishes at t0, phi1 = 0, phi3 equals
    c sqrt(kappa^2+tau^2)/kappa, and phi2 equals sign times the feasibility
    radical.  When the curve is planar / a helix / (anti-)Salkowski, the
    matching specialized constants are reported.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sample_count < 16:
        raise ValueError("sample_count must be at least 16")
    ss, frame, mv, normals, reasons = _t0_normals(p, sample_count)
    good = reasons == ""
    skipped = int(np.count_nonzero(~good))
    usable = sample_count - skipped
    n = normals[good]
    phi1, phi2, phi3 = (np.vecdot(n, v[good]) for v in (frame.T, frame.N, frame.B))
    iso_err = float(np.max(np.abs([mv.u[good], mv.v[good], mv.w[good]]), initial=0.0))
    phi1_err = float(np.max(np.abs(phi1), initial=0.0))
    phi2_err = phi3_err = 0.0
    for s, kappa, tau, a, b in zip(ss[good].tolist(), frame.kappa[good].tolist(),
                                   frame.tau[good].tolist(), phi2.tolist(), phi3.tolist()):
        ratio = math.hypot(kappa, tau) / kappa
        radicand = 1.0 - c * c * ratio * ratio
        if radicand < -tol:
            raise InfeasibleConstantError(c, s, radicand)
        phi3_err = max(phi3_err, abs(b - c * ratio))
        phi2_err = max(phi2_err, abs(a - sign * math.sqrt(max(radicand, 0.0))))
    if usable < 2:
        raise NotEnoughSamplesError(f"only {usable} of {sample_count} samples usable")

    conditions = (
        ConditionCheck("isoparametric", iso_err <= 1e-12, iso_err),
        ConditionCheck("phi1_zero", phi1_err <= 1e-10, phi1_err),
        ConditionCheck("phi2_branch", phi2_err <= tol, phi2_err),
        ConditionCheck("phi3_target", phi3_err <= tol, phi3_err),
    )
    cls = classify_curve(p.curve, max(sample_count, 8), tol=1e-6)
    branch, constants = _specialize(cls, c, tol)
    return TheoremReport(
        passed=all(cond.passed for cond in conditions),
        conditions=conditions,
        curve_class=cls,
        branch=branch,
        branch_constants=constants,
        skipped=skipped,
    )


def _specialize(cls: CurveClass, c: float, tol: float):
    """Specialized constants when the curve falls in a named class."""
    if abs(c) <= tol:
        return "geodesic", {"phi3": 0.0}
    if cls.kind == PLANAR:
        if abs(abs(c) - 1.0) <= tol:
            return "asymptotic_planar", {"phi3": math.copysign(1.0, c)}
        return "planar", {"c": c, "phi3": c}
    if cls.kind == GENERAL_HELIX:
        d = cls.constant
        return "general_helix", {"d": d, "phi3": c * math.sqrt(1.0 + d * d)}
    if cls.kind == SALKOWSKI:
        return "salkowski", {"a": cls.constant}
    if cls.kind == ANTI_SALKOWSKI:
        return "anti_salkowski", {"b": cls.constant}
    return None, {}


@dataclass(frozen=True)
class SynthesisRequest:
    """Request to build marching-scale functions realizing <n, W0> = c.

    ``sign`` orients the w component; the resulting phi2 branch is -sign
    (the worked examples use sign = +1, which gives the negative branch).
    ``u_profile`` is the tangential profile U(t), vanishing at t0.
    """

    curve: CurveSpec
    c: float
    sign: int = 1
    u_profile: Expression | None = None
    t0: float = 0.0


def _t_shift_node(t0: float):
    if t0 == 0.0:
        return Var("t")
    return BinOp("-", Var("t"), number_node(t0))


def _default_u_profile(t0: float) -> Expression:
    node = _t_shift_node(t0)
    names = frozenset(["t"])
    return Expression(root=node, free_vars=names)


def _coefficients_at(curve: CurveSpec, c: float, sign: int,
                     q: float) -> tuple[float, float, float]:
    """(a_v, a_w, a_w^2) so that v = a_v (t - t0), w = a_w (t - t0) meet the target.

    The 1/rho factor mirrors the closed forms of the worked non-unit-speed
    examples; it rescales both components equally, so the resulting normal
    direction (and the verified constant) is unaffected by it.  The square
    of a_w is returned as well because it stays smooth where the radicand
    vanishes, which is what the tabulated form interpolates.
    """
    app = frenet_at(curve, q)
    ratio = math.hypot(app.kappa, app.tau) / app.kappa
    radicand = 1.0 - c * c * ratio * ratio
    if radicand < BOUNDARY_TOL:
        raise InfeasibleConstantError(c, q, radicand)
    av = c * ratio / app.rho
    aw = sign * math.sqrt(radicand) / app.rho
    return av, aw, radicand / (app.rho * app.rho)


def synthesize_marching_scale(req: SynthesisRequest,
                              presample_count: int = 257) -> MarchingScale:
    """Build marching-scale functions whose pencil realizes <n, W0> = c.

    With constant coefficients (e.g. unit-speed curves with constant
    curvature and torsion) the result is a closed-form product; otherwise
    the coefficients are tabulated densely enough that cubic interpolation
    stays below the round-trip tolerance, with undefined-frame windows
    reported as excluded subdomains.
    """
    if req.sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    presample_count = max(presample_count, 64)
    curve = req.curve
    lo, hi = curve.domain
    qs = np.linspace(lo, hi, presample_count)
    avs, aws = [], []
    excluded_any = False
    for q in qs:
        try:
            av, aw, _ = _coefficients_at(curve, req.c, req.sign, float(q))
        except (InflectionPointError, IrregularCurveError):
            excluded_any = True
            continue
        avs.append(av)
        aws.append(aw)
    if len(avs) < 2:
        raise NotEnoughSamplesError("frame undefined at nearly all presample points")

    u_profile = req.u_profile or _default_u_profile(req.t0)

    def _spread_small(vals):
        arr = np.asarray(vals)
        return float(np.max(arr) - np.min(arr)) <= _CONST_COEFF_TOL * (
            1.0 + abs(float(np.mean(arr)))
        )

    if not excluded_any and _spread_small(avs) and _spread_small(aws):
        one = parse_expression("1")
        t_shift = _t_shift_node(req.t0)
        names = frozenset(["t"])
        av = float(np.mean(avs))
        aw = float(np.mean(aws))
        form = ProductForm(
            l=one, m=one, n=one,
            U=u_profile,
            V=Expression(BinOp("*", number_node(av), t_shift), names),
            W=Expression(BinOp("*", number_node(aw), t_shift), names),
        )
        return MarchingScale(form=form, param=curve.param, t0=req.t0)

    return MarchingScale(
        form=_build_table(req, u_profile),
        param=curve.param,
        t0=req.t0,
    )


def _build_table(req: SynthesisRequest, u_profile: Expression) -> TabulatedProductForm:
    """Refine the coefficient table until cubic interpolation error is tiny."""
    curve = req.curve
    lo, hi = curve.domain
    count = 257
    while True:
        qs = np.linspace(lo, hi, count)
        nodes, v_vals, g_vals = [], [], []
        holes = []
        for q in qs:
            try:
                av, _, g = _coefficients_at(curve, req.c, req.sign, float(q))
            except (InflectionPointError, IrregularCurveError):
                holes.append(float(q))
                continue
            nodes.append(float(q))
            v_vals.append(av)
            g_vals.append(g)
        if len(nodes) < 8:
            raise NotEnoughSamplesError("frame undefined at nearly all table nodes")
        step = (hi - lo) / (count - 1)
        excluded = _merge_holes(holes, step)
        form = TabulatedProductForm(u_profile, req.t0, nodes, v_vals, g_vals,
                                    req.sign, excluded)
        err = _interp_error(form, curve, req.c, req.sign)
        if err <= _INTERP_TARGET or count >= _MAX_TABLE_NODES:
            form.max_interp_error = err
            return form
        count = 2 * count - 1


def _merge_holes(holes: list[float], step: float) -> list[tuple[float, float]]:
    if not holes:
        return []
    windows = []
    start = prev = holes[0]
    for q in holes[1:]:
        if q - prev <= 1.5 * step:
            prev = q
            continue
        windows.append((start - step, prev + step))
        start = prev = q
    windows.append((start - step, prev + step))
    return windows


def _interp_error(form: TabulatedProductForm, curve: CurveSpec,
                  c: float, sign: int) -> float:
    """Largest gap between the interpolated and the exact coefficients at
    the midpoints between table nodes."""
    mids, avs, aws = [], [], []
    nodes = form.nodes
    for a, b in zip(nodes[:-1], nodes[1:]):
        mid = 0.5 * (a + b)
        try:
            av, aw, _ = _coefficients_at(curve, c, sign, mid)
        except (InflectionPointError, IrregularCurveError):
            continue
        mids.append(mid)
        avs.append(av)
        aws.append(aw)
    mids = np.array(mids)
    return float(max(np.max(np.abs(form.v_coefficient(mids) - avs), initial=0.0),
                     np.max(np.abs(form.w_coefficient(mids) - aws), initial=0.0)))


def feasible_domain(curve: CurveSpec, c: float,
                    sample_count: int = 256) -> list[tuple[float, float]]:
    """Subintervals where the phi2 radicand is nonnegative and the frame exists.

    Boundaries are located by bisection to 1e-9 parameter resolution.
    """
    if sample_count < 64:
        raise ValueError("sample_count must be at least 64")

    def feasible(q: float) -> bool:
        try:
            app = frenet_at(curve, q)
        except (InflectionPointError, IrregularCurveError):
            return False
        ratio = math.hypot(app.kappa, app.tau) / app.kappa
        return 1.0 - c * c * ratio * ratio >= 0.0

    lo, hi = curve.domain
    qs = np.linspace(lo, hi, sample_count)
    flags = [feasible(float(q)) for q in qs]

    def refine(q_true: float, q_false: float) -> float:
        while abs(q_false - q_true) > 1e-9:
            mid = 0.5 * (q_true + q_false)
            if feasible(mid):
                q_true = mid
            else:
                q_false = mid
        return 0.5 * (q_true + q_false)

    intervals: list[tuple[float, float]] = []
    start: float | None = float(qs[0]) if flags[0] else None
    for i in range(1, sample_count):
        a, b = float(qs[i - 1]), float(qs[i])
        if flags[i - 1] and not flags[i]:
            intervals.append((start, refine(a, b)))
            start = None
        elif not flags[i - 1] and flags[i]:
            start = refine(b, a)
    if start is not None:
        intervals.append((start, float(qs[-1])))
    return intervals


def feasible_curve(curve: CurveSpec, c: float, sample_count: int = 256
                   ) -> tuple[CurveSpec, list[tuple[float, float]] | None]:
    """``curve`` restricted to its largest feasible interval for ``c``.

    Returns ``(curve, intervals)``.  When the whole domain is feasible the
    curve comes back unchanged with ``intervals`` None; otherwise
    ``intervals`` lists every feasible subinterval.  Raises
    :class:`InfeasibleConstantError` when no parameter is feasible.
    """
    intervals = feasible_domain(curve, c, sample_count)
    if not intervals:
        raise InfeasibleConstantError(c)
    lo, hi = curve.domain
    if len(intervals) == 1 and math.isclose(intervals[0][0], lo, abs_tol=1e-7) \
            and math.isclose(intervals[0][1], hi, abs_tol=1e-7):
        return curve, None
    largest = max(intervals, key=lambda iv: iv[1] - iv[0])
    return restrict_curve(curve, largest), intervals


def restrict_curve(curve: CurveSpec, interval: tuple[float, float],
                   margin_fraction: float = 1e-6) -> CurveSpec:
    """Curve restricted to ``interval`` shrunk by a relative margin.

    The margin keeps synthesis away from boundary-touching parameters,
    where the phi2 radical is not smooth.
    """
    lo, hi = interval
    margin = margin_fraction * (hi - lo)
    return replace(curve, domain=(lo + margin, hi - margin))
