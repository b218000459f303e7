"""Verification and synthesis of the constant normal/Darboux condition.

A curve on a surface is a D-type curve when <n, W0> is constant along it,
where n is the surface unit normal along the curve and W0 the curve's unit
Darboux vector.  Geodesics (constant 0) and asymptotic planar curves
(constant 1 with zero torsion) are the degenerate cases.

Along the t = t0 line the normal is n = phi2 N + phi3 B, and the condition
with constant c pins the components to

    phi3 = c sqrt(kappa^2 + tau^2) / kappa,
    phi2 = +/- sqrt(1 - c^2 (kappa^2 + tau^2) / kappa^2),

which is feasible where the frame is defined and the phi2 radicand is at
least ``BOUNDARY_TOL``: one rule (``_radicands``) for the feasibility scan,
its bisection and the synthesis table.  A constant whose radicand vanishes
identically, as at the asymptotic limits (the circle at c = 1, a helix at
its bound), is therefore infeasible everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleConstantError, NotEnoughSamplesError
from .expr import BinOp, Expression, Var, number_node, parse_expression
from .frenet import (
    ANTI_SALKOWSKI,
    GENERAL_HELIX,
    NO_FRAME,
    PLANAR,
    SALKOWSKI,
    SKIPPED,
    CurveClass,
    CurveSpec,
    classify_curve,
    frenet_at,
    raise_first,
    reasons_outside,
)
from .pencil import (
    MarchingScale,
    MarchingValues,
    ProductForm,
    SurfacePencil,
    TabulatedProductForm,
    marching_grid,
    stack_frames,
    surface_normals,
)

# Radicand values inside this band count as boundary-touching: phi2 would be
# non-smooth there, so feasibility and synthesis treat them as infeasible.
BOUNDARY_TOL = 1e-12
_CONST_COEFF_TOL = 1e-10
_INTERP_TARGET = 1e-9
_FIRST_TABLE_NODES = 257
_MAX_TABLE_NODES = 8193
# Bisection steps of feasible_domain evaluated ahead in one frenet_at call.
_SPECULATE = 5


def _t0_normals(p: SurfacePencil, sample_count: int):
    """Unit normals along the t = t0 line at ``sample_count`` parameters.

    The marching scale comes first, in one array pass.  Frames are taken
    per sample only where the scale is defined; the other samples get no
    frame, only the reason the frame is missing (which wins over "domain",
    as in ``surface_normals``), from one array ``frenet_at`` over just
    those parameters.  A curve falsely declared unit-speed raises at its
    first offending sample either way.  Returns ``(ss, frame, mv, normals,
    reasons)``, each with one leading axis over the samples; ``reasons`` is
    "" where the normal is usable and the skip reason elsewhere.
    """
    lo, hi = p.curve.domain
    ss = np.linspace(lo, hi, sample_count)
    mv, ok = marching_grid(p.marching, ss, [p.t0])
    mv, ok = MarchingValues(*(f[:, 0] for f in mv)), ok[:, 0]
    unscaled = iter(frenet_at(p.curve, ss[~ok])[1].tolist() if not ok.all() else ())
    frames, frame_reasons = [], []
    for s, scaled in zip(ss.tolist(), ok.tolist()):
        frame, reason = None, ""
        if scaled:
            try:
                frame = p.frame(s)
            except NO_FRAME as e:
                reason = e.reason
        else:
            reason = next(unscaled)
            if reason == "unit_speed":
                p.frame(s)  # raises the scalar InvalidCurveError
        frames.append(frame)
        frame_reasons.append(reason)
    frame = stack_frames(frames)
    frame_reason = np.array(frame_reasons)
    normals, reasons = surface_normals(frame, frame_reason == "", frame_reason, mv, ok)
    return ss, frame, mv, normals, reasons


class DTypeSample(NamedTuple):
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
    phi2s, phi3s = phi2.tolist(), phi3.tolist()
    samples = tuple(map(DTypeSample, ss[good].tolist(), inner.tolist(), phi2s, phi3s,
                        map(math.atan2, phi3s, phi2s)))
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
        samples=samples,
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
    ratio, radicand = _phi2_radicand(frame.kappa[good], frame.omega[good], c)
    infeasible = radicand < -tol
    if infeasible.any():
        i = int(np.argmax(infeasible))
        raise InfeasibleConstantError(c, float(ss[good][i]), float(radicand[i]))
    phi3_err = float(np.max(np.abs(phi3 - c * ratio), initial=0.0))
    phi2_err = float(np.max(np.abs(phi2 - sign * np.sqrt(np.maximum(radicand, 0.0))),
                            initial=0.0))
    if usable < 2:
        raise NotEnoughSamplesError(f"only {usable} of {sample_count} samples usable")

    conditions = (
        ConditionCheck("isoparametric", iso_err <= 1e-12, iso_err),
        ConditionCheck("phi1_zero", phi1_err <= 1e-10, phi1_err),
        ConditionCheck("phi2_branch", phi2_err <= tol, phi2_err),
        ConditionCheck("phi3_target", phi3_err <= tol, phi3_err),
    )
    cls = classify_curve(p.curve, sample_count, tol=1e-6)
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


def _t_shift_node(t0: float):
    if t0 == 0.0:
        return Var("t")
    return BinOp("-", Var("t"), number_node(t0))


def _default_u_profile(t0: float) -> Expression:
    node = _t_shift_node(t0)
    names = frozenset(["t"])
    return Expression(root=node, free_vars=names)


def _phi2_radicand(kappa: np.ndarray, omega: np.ndarray, c: float):
    """``(ratio, radicand)`` over arrays of curvature and Darboux norm: the
    ratio omega / kappa = sqrt(kappa^2 + tau^2) / kappa and the phi2
    radicand 1 - c^2 ratio^2."""
    with np.errstate(all="ignore"):
        ratio = omega / kappa
        return ratio, 1.0 - c * c * ratio * ratio


def _radicands(curve: CurveSpec, c: float, qs: np.ndarray):
    """``frenet_at`` over ``qs`` with ``_phi2_radicand``: ``(app, ratio,
    radicand, feasible, reasons)``, where ``reasons`` come from
    ``frenet_at``.  ``feasible`` is the feasibility rule: the frame is
    defined and the radicand is at least ``BOUNDARY_TOL``."""
    app, reasons = frenet_at(curve, qs)
    ratio, radicand = _phi2_radicand(app.kappa, app.omega, c)
    return app, ratio, radicand, (reasons == "") & (radicand >= BOUNDARY_TOL), reasons


def _failed(reasons: np.ndarray) -> np.ndarray:
    """Parameters where the scalar ``frenet_at`` raises an error other than
    an undefined frame."""
    return reasons_outside(reasons, ("",) + SKIPPED)


def _coefficients_at(curve: CurveSpec, c: float, sign: int, qs: np.ndarray):
    """(a_v, a_w, a_w^2, usable) over ``qs``, so that v = a_v (t - t0) and
    w = a_w (t - t0) meet the target wherever the frame is defined
    (``usable``).

    The 1/rho factor mirrors the closed forms of the worked non-unit-speed
    examples; it rescales both components equally, so the resulting normal
    direction (and the verified constant) is unaffected by it.  The square
    of a_w is returned as well because it stays smooth where the radicand
    vanishes, which is what the tabulated form interpolates.  At the first
    parameter with a frame where ``_radicands`` finds ``c`` infeasible, or
    with a ``frenet_at`` error other than an undefined frame, that error is
    raised.
    """
    app, ratio, radicand, feasible, reasons = _radicands(curve, c, qs)
    usable = reasons == ""
    failed = _failed(reasons) | (usable & ~feasible)
    if failed.any():
        i = int(np.argmax(failed))
        if usable[i]:
            raise InfeasibleConstantError(c, float(qs[i]), float(radicand[i]))
        raise_first(curve, qs, failed)
    with np.errstate(all="ignore"):
        av = c * ratio / app.rho
        aw = sign * np.sqrt(radicand) / app.rho
        g = radicand / (app.rho * app.rho)
    return av, aw, g, usable


def synthesize_marching_scale(curve: CurveSpec, c: float, sign: int = 1,
                              u_profile: Expression | None = None,
                              t0: float = 0.0) -> MarchingScale:
    """Build marching-scale functions whose pencil realizes <n, W0> = c.

    ``sign`` orients the w component; the resulting phi2 branch is -sign
    (the worked examples use sign = +1, which gives the negative branch).
    ``u_profile`` is the tangential profile U(t), vanishing at t0.

    With constant coefficients (e.g. unit-speed curves with constant
    curvature and torsion) the result is a closed-form product; otherwise
    the coefficients are tabulated densely enough that cubic interpolation
    stays below the round-trip tolerance, with undefined-frame windows
    reported as excluded subdomains.  The first table round decides which.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    qs = np.linspace(*curve.domain, _FIRST_TABLE_NODES)
    av, aw, g, usable = _coefficients_at(curve, c, sign, qs)
    u_profile = u_profile or _default_u_profile(t0)

    def _spread_small(vals):
        return float(np.max(vals) - np.min(vals)) <= _CONST_COEFF_TOL * (
            1.0 + abs(float(np.mean(vals)))
        )

    if usable.all() and _spread_small(av) and _spread_small(aw):
        one = parse_expression("1")
        t_shift = _t_shift_node(t0)
        names = frozenset(["t"])
        form = ProductForm(
            l=one, m=one, n=one,
            U=u_profile,
            V=Expression(BinOp("*", number_node(float(np.mean(av))), t_shift), names),
            W=Expression(BinOp("*", number_node(float(np.mean(aw))), t_shift), names),
        )
        return MarchingScale(form=form, param=curve.param, t0=t0)

    return MarchingScale(
        form=_build_table(curve, c, sign, u_profile, qs, av, g, usable),
        param=curve.param,
        t0=t0,
    )


def _build_table(curve: CurveSpec, c: float, sign: int, u_profile: Expression,
                 qs: np.ndarray, av: np.ndarray, g: np.ndarray,
                 usable: np.ndarray) -> TabulatedProductForm:
    """Refine the coefficient table until cubic interpolation error is tiny.

    ``qs``, ``av``, ``g`` and ``usable`` are the first round, as returned
    by ``_coefficients_at``; each later round doubles the node count.  A
    round's interpolant is checked at the next round's odd nodes
    (``linspace`` halves its step exactly, so the next round's even nodes
    are this round's, bit for bit).  When the check fails, the coefficients
    evaluated there become the next round's new nodes, so every table
    point gets exactly one ``frenet_at`` evaluation.  The check raises
    what the next round would: this round's nodes raised nothing.  A table
    that still misses the target at ``_MAX_TABLE_NODES`` raises
    :class:`NotEnoughSamplesError` rather than stand for a scale it does
    not realize.
    """
    lo, hi = curve.domain
    while True:
        if np.count_nonzero(usable) < 8:
            raise NotEnoughSamplesError("frame undefined at nearly all table nodes")
        step = (hi - lo) / (qs.size - 1)
        excluded = _merge_holes(qs[~usable].tolist(), step)
        form = TabulatedProductForm(u_profile, qs[usable], av[usable], g[usable],
                                    sign, excluded)
        finer = np.linspace(lo, hi, 2 * qs.size - 1)
        odd = finer[1::2]
        odd_av, odd_aw, odd_g, odd_usable = _coefficients_at(curve, c, sign, odd)
        err = _interp_error(form, odd[odd_usable], odd_av[odd_usable], odd_aw[odd_usable])
        if err <= _INTERP_TARGET:
            form.max_interp_error = err
            return form
        if qs.size >= _MAX_TABLE_NODES:
            raise NotEnoughSamplesError(
                f"cubic interpolation error {err:.3e} above {_INTERP_TARGET:g} "
                f"with {qs.size} table nodes")
        qs = finer
        av, g, usable = (_interleave(*pair) for pair in
                         ((av, odd_av), (g, odd_g), (usable, odd_usable)))


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    out = np.empty(even.size + odd.size, dtype=even.dtype)
    out[::2], out[1::2] = even, odd
    return out


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


def _interp_error(form: TabulatedProductForm, qs: np.ndarray,
                  av: np.ndarray, aw: np.ndarray) -> float:
    """Largest gap between the interpolated coefficients of ``form`` at
    ``qs`` and the exact ones, ``av`` and ``aw``, given there."""
    return float(max(np.max(np.abs(form.v_coefficient(qs) - av), initial=0.0),
                     np.max(np.abs(form.w_coefficient(qs) - aw), initial=0.0)))


def _speculate(q_true: np.ndarray, q_false: np.ndarray) -> np.ndarray:
    """Every midpoint the next ``_SPECULATE`` bisection steps of the
    brackets ``(q_true, q_false)`` could visit, whichever way each step
    goes: 2^_SPECULATE - 1 per bracket, rounded as the bisection rounds."""
    levels = []
    for _ in range(_SPECULATE):
        mid = 0.5 * (q_true + q_false)
        levels.append(mid)
        q_true, q_false = np.concatenate([mid, q_true]), np.concatenate([q_false, mid])
    return np.concatenate(levels)


def feasible_domain(curve: CurveSpec, c: float, sample_count: int = 256,
                    infeasible=()) -> list[tuple[float, float]]:
    """Subintervals where ``c`` is feasible by the rule of ``_radicands``.

    Boundaries are located by bisection to 1e-9 parameter resolution, or
    until a bracket's midpoint rounds to one of its ends (past |q| = 2^23,
    where neighbouring doubles are more than 1e-9 apart); all of them are
    bisected together.  One ``frenet_at`` call evaluates every midpoint of
    the next ``_SPECULATE`` steps of each live bracket, so a search takes
    one call per ``_SPECULATE`` steps; the midpoints off the path are never
    read.

    A sample whose frame is undefined (inflection or irregular point) is a
    hole in the frame rather than a boundary when the parameters
    ``h = min(1e-7, step / 4)`` to either side of it inside the domain are
    feasible: it counts as feasible, and synthesis leaves it out of its
    table as any node without a frame.  On a planar curve the radicand is
    1 - c^2 wherever the frame exists, so every inflection is such a hole.
    A hole between infeasible samples is a feasible window narrower than
    one sample step, and both its boundaries are bisected toward; such a
    window with no sample inside it is not found.  All undefined samples
    are probed in one ``frenet_at`` call, whose errors count as
    infeasible; the others are bisected toward as boundaries.

    Boundaries are sought only between the ``sample_count`` uniform samples
    and the parameters ``infeasible``, known to be infeasible (where
    synthesis raised :class:`InfeasibleConstantError`): each of these counts
    as an infeasible sample, so it splits the bracket it falls in, and is
    never a hole.  An infeasible window narrower than one sample step,
    lying between two feasible samples, is otherwise not found, and its
    interval is kept.
    """
    if sample_count < 64:
        raise ValueError("sample_count must be at least 64")

    def feasible(qs: np.ndarray):
        _, _, _, ok, reasons = _radicands(curve, c, qs)
        return ok, reasons

    # (ok, failed) by midpoint, filled ahead of the bisection.
    known: dict[float, tuple[bool, bool]] = {}

    def step(mid: np.ndarray, q_true: np.ndarray, q_false: np.ndarray):
        points = mid.tolist()
        if not all(map(known.__contains__, points)):
            ahead = _speculate(q_true, q_false)
            ok, reasons = feasible(ahead)
            known.update(zip(ahead.tolist(), zip(ok.tolist(), _failed(reasons).tolist())))
        return np.array([known[q] for q in points], dtype=bool).T

    lo, hi = curve.domain
    qs = np.linspace(lo, hi, sample_count)
    flags, reasons = feasible(qs)
    raise_first(curve, qs, _failed(reasons))
    # Undefined frames, probed for holes.
    h = min(1e-7, (hi - lo) / (sample_count - 1) / 4)
    gaps = np.flatnonzero(reasons != "")
    if gaps.size:
        probes = np.concatenate([qs[gaps] - h, qs[gaps] + h])
        inside = (probes >= lo) & (probes <= hi)
        ok = np.ones(probes.size, dtype=bool)
        ok[inside] = feasible(probes[inside])[0]
        flags[gaps[ok[:gaps.size] & ok[gaps.size:]]] = True
    if len(infeasible):
        qs = np.concatenate([qs, infeasible])
        flags = np.concatenate([flags, np.zeros(len(infeasible), dtype=bool)])
        order = np.lexsort((flags, qs))  # by parameter, a known one first
        qs, flags = qs[order], flags[order]
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    falling = flags[edges]
    q_true = np.where(falling, qs[edges], qs[edges + 1])
    q_false = np.where(falling, qs[edges + 1], qs[edges])
    # Bisected one bracket after another, an error at a midpoint of bracket k
    # would end the search: bracket k and the later ones stop there, and the
    # error of the first such bracket is raised once the earlier ones are done.
    stop, error = edges.size, None
    while True:
        # Past |q| = 2^23 neighbouring doubles are more than 1e-9 apart: a
        # bracket whose midpoint rounds to one of its ends is done too.
        a, b = q_true[:stop], q_false[:stop]
        mid = 0.5 * (a + b)
        live = np.flatnonzero((np.abs(b - a) > 1e-9) & (mid != a) & (mid != b))
        if live.size == 0:
            break
        mid = mid[live]
        ok, failed = step(mid, q_true[live], q_false[live])
        if failed.any():
            stop, error = live[np.argmax(failed)], (mid, failed)
        q_true[live] = np.where(ok, mid, q_true[live])
        q_false[live] = np.where(ok, q_false[live], mid)
    if error is not None:
        raise_first(curve, *error)

    # Boundaries alternate between rising and falling: with the domain ends
    # that are feasible, they pair up into the intervals.
    ends = (0.5 * (q_true + q_false)).tolist()
    ends = [float(qs[0])] * bool(flags[0]) + ends + [float(qs[-1])] * bool(flags[-1])
    return list(zip(ends[::2], ends[1::2]))


def feasible_curve(curve: CurveSpec, c: float, sample_count: int = 256, infeasible=()
                   ) -> tuple[CurveSpec, list[tuple[float, float]] | None]:
    """``curve`` restricted to its largest feasible interval for ``c``.

    Returns ``(curve, intervals)``.  When the whole domain is feasible the
    curve comes back unchanged with ``intervals`` None; otherwise
    ``intervals`` lists every feasible subinterval.  Raises
    :class:`InfeasibleConstantError` when no parameter is feasible.  The
    whole domain counts as feasible when one interval reaches both ends to
    within 1e-7, an absolute tolerance at any |q|.  An interval may hold
    holes, undefined frames with feasible parameters beside them, or be
    only a narrow window around one (see ``feasible_domain``).  An
    infeasible window narrower than one sample step can remain inside the
    returned curve; synthesis then raises there, and the parameter it
    names can be passed back in ``infeasible``.
    """
    intervals = feasible_domain(curve, c, sample_count, infeasible)
    if not intervals:
        raise InfeasibleConstantError(c)
    lo, hi = curve.domain
    if len(intervals) == 1 and math.isclose(intervals[0][0], lo, rel_tol=0.0, abs_tol=1e-7) \
            and math.isclose(intervals[0][1], hi, rel_tol=0.0, abs_tol=1e-7):
        return curve, None
    largest = max(intervals, key=lambda iv: iv[1] - iv[0])
    return restrict_curve(curve, largest), intervals


def restrict_curve(curve: CurveSpec, interval: tuple[float, float]) -> CurveSpec:
    """Curve restricted to ``interval`` shrunk by 1e-6 of its length at
    each end.

    The margin keeps synthesis away from boundary-touching parameters,
    where the phi2 radical is not smooth.
    """
    lo, hi = interval
    margin = 1e-6 * (hi - lo)
    return replace(curve, domain=(lo + margin, hi - margin))
