"""Verification and synthesis of the constant normal/Darboux condition.

A curve on a surface is a D-type curve when <n, W0> is constant along it,
where n is the surface unit normal along the curve and W0 the curve's unit
Darboux vector.  Geodesics (constant 0) and asymptotic planar curves
(constant 1 with zero torsion) are the degenerate cases.

Along the t = t0 line every member has u = v = w = 0, so the scale's
s-partials vanish there, dP/ds = rho T, and the normal is
n = phi2 N + phi3 B with phi2 = -w_t/h, phi3 = v_t/h, h = hypot(v_t, w_t),
and <n, W0> = kappa v_t / (omega h) (Wang, Tang & Tai, CAD 2004).  The
theorem check reads phi so; ``verify_dtype`` keeps the full normal of
``surface_normals``.  The condition with constant c pins the components to

    phi3 = c sqrt(kappa^2 + tau^2) / kappa,
    phi2 = +/- sqrt(1 - c^2 (kappa^2 + tau^2) / kappa^2),

which is feasible where the frame is defined and the phi2 radicand is at
least ``BOUNDARY_TOL``: one rule (``_radicands``) for the feasibility scan,
its bisection, the synthesis table and the theorem check.  A constant whose
radicand vanishes identically, as at the asymptotic limits (the circle at
c = 1, a helix at its bound), is therefore infeasible everywhere.

``synthesize_feasible``, the one way from a curve and a constant to a
scale, chains the steps: scan, restrict (``feasible_domain``), synthesize
(``synthesize_marching_scale``), and retry where synthesis meets an
infeasible window the scan missed.
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
    CurveClass,
    CurveSpec,
    classify_from_samples,
    frenet_at,
)
from .pencil import (
    MarchingScale,
    ProductForm,
    SurfacePencil,
    TabulatedProductForm,
    marching_values,
    stack_frames,
    surface_normals,
)

# Radicand values inside this band count as boundary-touching: phi2 would be
# non-smooth there, so feasibility and synthesis treat them as infeasible.
BOUNDARY_TOL = 1e-12
# Speeds within this of 1 count as unit speed for verify_dtype's default tolerance.
UNIT_SPEED_TOL = 1e-9
_CONST_COEFF_TOL = 1e-10
_INTERP_TARGET = 1e-9
_FIRST_TABLE_NODES = 257
_MAX_TABLE_NODES = 8193
_RESTRICT_RETRIES = 4  # synthesis failures that redo the feasibility restriction
# Bisection steps of feasible_domain evaluated ahead in one frenet_at call.
_SPECULATE = 5


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


def _t0_scale(p: SurfacePencil, sample_count: int):
    """``(ss, mv, ok)``: ``sample_count`` parameters spread over the
    curve's domain, the marching values on t = t0 there and their mask,
    from one array ``marching_values`` call with ``ss`` against ``t0``."""
    if sample_count < 16:
        raise ValueError("sample_count must be at least 16")
    ss = np.linspace(*p.curve.domain, sample_count)
    return ss, *marching_values(p.marching, ss, p.t0)


def verify_dtype(p: SurfacePencil, sample_count: int = 1000,
                 tolerance: float | None = None) -> DTypeReport:
    """Sample <n, W0> along the curve and judge whether it is constant.

    Parameters with an undefined frame or normal (inflections, irregular
    points, expression domain violations) are skipped and reported; a
    verdict needs 16 usable samples.  ``tolerance`` None is measured: 1e-8
    when the speed of every usable sample is within ``UNIT_SPEED_TOL`` of
    1, 1e-6 otherwise; the report records the value used.  The normals
    are full ones, on frames taken per sample only where the marching
    scale (one array pass along t0) is defined; the other samples get only
    their frame's reason, which wins over "domain" as in ``surface_normals``,
    from one array ``frenet_at`` call over just those parameters."""
    ss, mv, ok = _t0_scale(p, sample_count)
    unscaled = iter(frenet_at(p.curve, ss[~ok])[1].tolist() if not ok.all() else ())
    frames, frame_reasons = [], []
    for s, scaled in zip(ss.tolist(), ok.tolist()):
        frame, reason = None, "" if scaled else next(unscaled)
        if scaled:
            try:
                frame = p.frame(s)
            except NO_FRAME as e:
                reason = e.reason
        frames.append(frame)
        frame_reasons.append(reason)
    frame = stack_frames(frames)
    frame_reason = np.array(frame_reasons)
    with np.errstate(over="ignore", invalid="ignore"):  # masked as non_finite
        normals, reasons = surface_normals(frame, frame_reason == "", frame_reason, mv, ok)
    skipped = [(s, why) for s, why in zip(ss.tolist(), reasons.tolist()) if why]
    good = reasons == ""
    n = normals[good]
    inner, phi2, phi3 = (np.vecdot(n, v[good]) for v in (frame.W0, frame.N, frame.B))
    phi2s, phi3s = phi2.tolist(), phi3.tolist()
    samples = tuple(map(DTypeSample, ss[good].tolist(), inner.tolist(), phi2s, phi3s,
                        map(math.atan2, phi3s, phi2s)))
    max_abs_tau = float(np.max(np.abs(frame.tau[good]), initial=0.0))
    if len(samples) < 16:
        raise NotEnoughSamplesError(
            f"only {len(samples)} of {sample_count} samples usable"
        )
    if tolerance is None:
        unit_speed = np.all(np.abs(frame.rho[good] - 1.0) <= UNIT_SPEED_TOL)
        tolerance = 1e-8 if unit_speed else 1e-6
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

    Per sample: the marching scale and its s-partials (so phi1) vanish at
    t0, and phi3 = v_t/h and phi2 = -w_t/h (the module docstring) equal
    c sqrt(kappa^2+tau^2)/kappa and sign times the feasibility radical.
    The scale takes one array pass along t0, and the frames, ratio and
    radicand one ``_radicands`` record, shared with the classification;
    samples are skipped where ``surface_normals`` over them gives a reason,
    as in ``verify_dtype``.  Like it, the check needs 16 usable samples
    before it reads a condition.
    A planar / helix / (anti-)Salkowski curve reports its specialized constants."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    ss, mv, ok = _t0_scale(p, sample_count)
    _, frame, ratio, radicand, _, frame_reason = _radicands(p.curve, c, ss)
    framed = frame_reason == ""
    with np.errstate(all="ignore"):  # unspecified frames, masked out by the reasons
        good = surface_normals(frame, framed, frame_reason, mv, ok)[1] == ""
        h = np.hypot(mv.v_t, mv.w_t)[good]
        phi2, phi3 = -mv.w_t[good] / h, mv.v_t[good] / h
    skipped = int(np.count_nonzero(~good))
    usable = sample_count - skipped
    if usable < 16:
        raise NotEnoughSamplesError(f"only {usable} of {sample_count} samples usable")
    iso_err = float(np.max(np.abs([mv.u[good], mv.v[good], mv.w[good]])))
    phi1_err = float(np.max(np.abs([mv.u_s[good], mv.v_s[good], mv.w_s[good]])))
    ratio, radicand = ratio[good], radicand[good]
    infeasible = radicand < -tol
    if infeasible.any():
        i = int(np.argmax(infeasible))
        raise InfeasibleConstantError(c, float(ss[good][i]), float(radicand[i]))
    phi3_err = float(np.max(np.abs(phi3 - c * ratio)))
    phi2_err = float(np.max(np.abs(phi2 - sign * np.sqrt(np.maximum(radicand, 0.0)))))

    conditions = (
        ConditionCheck("isoparametric", iso_err <= 1e-12, iso_err),
        ConditionCheck("phi1_zero", phi1_err <= 1e-10, phi1_err),
        ConditionCheck("phi2_branch", phi2_err <= tol, phi2_err),
        ConditionCheck("phi3_target", phi3_err <= tol, phi3_err),
    )
    cls = classify_from_samples(frame.kappa[framed], frame.tau[framed], 1e-6, int((~framed).sum()))
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


def _linear_in_t(t0: float, a: float | None = None) -> Expression:
    """``a (t - t0)`` as an expression in t, or ``t - t0`` when ``a`` is
    None; at t0 = 0 the shift is plain ``t``."""
    node = Var("t") if t0 == 0.0 else BinOp("-", Var("t"), number_node(t0))
    if a is not None:
        node = BinOp("*", number_node(a), node)
    return Expression(node, frozenset(["t"]))


def _radicands(curve: CurveSpec, c: float, qs: np.ndarray):
    """The record ``(qs, app, ratio, radicand, feasible, reasons)`` of the
    feasibility rule over ``qs``, from one ``frenet_at`` call: its
    apparatus and reasons, the ratio omega / kappa = sqrt(kappa^2 + tau^2)
    / kappa and the phi2 radicand 1 - c^2 ratio^2.  ``feasible`` is the
    rule: the frame is defined and the radicand is at least ``BOUNDARY_TOL``."""
    app, reasons = frenet_at(curve, qs)
    with np.errstate(all="ignore"):
        ratio = app.omega / app.kappa
        radicand = 1.0 - c * c * ratio * ratio
    return qs, app, ratio, radicand, (reasons == "") & (radicand >= BOUNDARY_TOL), reasons


def feasibility_scan(curve: CurveSpec, c: float, sample_count: int):
    """The ``_radicands`` record over ``sample_count`` uniform parameters of
    the curve's domain.  ``feasible_domain`` starts from it, and
    ``synthesize_marching_scale`` takes it as its first table round when
    its ``qs`` are that round's nodes (``sample_count`` is
    ``_FIRST_TABLE_NODES``)."""
    if sample_count < 64:
        raise ValueError("sample_count must be at least 64")
    return _radicands(curve, c, np.linspace(*curve.domain, sample_count))


def _coefficients(c: float, sign: int, radicands):
    """(a_v, a_w, a_w^2, usable) over the ``qs`` of a ``_radicands`` record,
    so that v = a_v (t - t0) and w = a_w (t - t0) meet the target wherever
    the frame is defined (``usable``).

    The 1/rho factor mirrors the closed forms of the worked non-unit-speed
    examples; it rescales both components equally, so the resulting normal
    direction (and the verified constant) is unaffected by it.  The square
    of a_w is returned as well because it stays smooth where the radicand
    vanishes, which is what the tabulated form interpolates.  A parameter
    without a frame, whatever the ``frenet_at`` reason, is not usable; at
    the first one with a frame where the record finds ``c`` infeasible,
    :class:`InfeasibleConstantError` is raised.
    """
    qs, app, ratio, radicand, feasible, reasons = radicands
    usable = reasons == ""
    infeasible = usable & ~feasible
    if infeasible.any():
        i = int(np.argmax(infeasible))
        raise InfeasibleConstantError(c, float(qs[i]), float(radicand[i]))
    with np.errstate(all="ignore"):
        av = c * ratio / app.rho
        aw = sign * np.sqrt(radicand) / app.rho
        g = radicand / (app.rho * app.rho)
    return av, aw, g, usable


def synthesize_marching_scale(curve: CurveSpec, c: float, sign: int = 1,
                              t0: float = 0.0, scan=None) -> MarchingScale:
    """Build marching-scale functions whose pencil realizes <n, W0> = c.

    ``sign`` orients the w component; the resulting phi2 branch is -sign
    (the worked examples use sign = +1, which gives the negative branch).
    The tangential part is u = t - t0: it does not change the normal along
    the curve.

    With constant coefficients (e.g. unit-speed curves with constant
    curvature and torsion) the result is a closed-form product; otherwise
    the coefficients are tabulated densely enough that cubic interpolation
    stays below the round-trip tolerance, with the windows around nodes
    without a frame, for any ``frenet_at`` reason, reported as excluded
    subdomains.  The first table round, on ``_FIRST_TABLE_NODES`` uniform
    nodes, decides which.  ``scan``, a ``feasibility_scan`` record at ``c``
    of this curve or of one it was restricted from, is that round when its
    ``qs`` equal the round's nodes bit for bit, and saves its ``frenet_at``
    call; otherwise the round is ``_radicands`` over its nodes.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    qs = np.linspace(*curve.domain, _FIRST_TABLE_NODES)
    if scan is None or scan[0].tobytes() != qs.tobytes():
        scan = _radicands(curve, c, qs)
    av, aw, g, usable = _coefficients(c, sign, scan)

    def _spread_small(vals):
        return np.ptp(vals) <= _CONST_COEFF_TOL * (1.0 + abs(np.mean(vals)))

    if usable.all() and _spread_small(av) and _spread_small(aw):
        one = parse_expression("1")
        form = ProductForm(l=one, m=one, n=one, U=_linear_in_t(t0),
                           V=_linear_in_t(t0, float(np.mean(av))),
                           W=_linear_in_t(t0, float(np.mean(aw))))
    else:
        form = _build_table(curve, c, sign, qs, av, g, usable)
    return MarchingScale(form=form, param=curve.param, t0=t0)


def _build_table(curve: CurveSpec, c: float, sign: int, qs: np.ndarray,
                 av: np.ndarray, g: np.ndarray, usable: np.ndarray) -> TabulatedProductForm:
    """Refine the coefficient table until cubic interpolation error is tiny.

    ``qs``, ``av``, ``g`` and ``usable`` are the first round, as returned
    by ``_coefficients``; each later round doubles the node count.  A
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
        form = TabulatedProductForm(qs[usable], av[usable], g[usable], sign, excluded)
        finer = np.linspace(lo, hi, 2 * qs.size - 1)
        odd = finer[1::2]
        odd_av, odd_aw, odd_g, odd_usable = _coefficients(c, sign, _radicands(curve, c, odd))
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
                    infeasible=(), scan=None) -> list[tuple[float, float]]:
    """Subintervals where ``c`` is feasible by the rule of ``_radicands``.

    Boundaries are located by bisection to 1e-9 parameter resolution, or
    until a bracket's midpoint rounds to one of its ends (past |q| = 2^23,
    where neighbouring doubles are more than 1e-9 apart); all of them are
    bisected together.  One ``frenet_at`` call evaluates every midpoint of
    the next ``_SPECULATE`` steps of each live bracket, so a search takes
    one call per ``_SPECULATE`` steps; the midpoints off the path are never
    read.

    A parameter without a frame, for any ``frenet_at`` reason, is
    infeasible, so a curve that is undefined or overflows on part of its
    domain is restricted as on any infeasible part; one without a frame at
    any sample raises :class:`NotEnoughSamplesError`, as ``classify_curve``
    does.  A sample without a frame is a hole in the frame rather than a
    boundary when the parameters ``h = min(1e-7, step / 4)`` to either side
    of it inside the domain are feasible: it counts as feasible, and
    synthesis leaves it out of its table as any node without a frame.  On
    a planar curve the radicand is 1 - c^2 wherever the frame exists, so
    every inflection is such a hole.  A hole between infeasible samples is
    a feasible window narrower than one sample step, and both its
    boundaries are bisected toward; such a window with no sample inside it
    is not found.  All samples without a frame are probed in one
    ``frenet_at`` call; the others are bisected toward as boundaries.

    Boundaries are sought only between the scan's uniform samples
    and the parameters ``infeasible``, known to be infeasible (where
    synthesis raised :class:`InfeasibleConstantError`): each of these counts
    as an infeasible sample, so it splits the bracket it falls in, and is
    never a hole.  An infeasible window narrower than one sample step,
    lying between two feasible samples, is otherwise not found, and its
    interval is kept.

    The samples are ``scan``, a ``feasibility_scan`` of ``curve`` at ``c``,
    taken here at ``sample_count`` when None; a caller that passes one can
    reuse it, as the flags edited here are a copy.
    """
    qs, _, _, _, flags, reasons = (feasibility_scan(curve, c, sample_count)
                                   if scan is None else scan)

    # Feasibility by midpoint, filled ahead of the bisection.
    known: dict[float, bool] = {}

    def step(mid: np.ndarray, q_true: np.ndarray, q_false: np.ndarray):
        points = mid.tolist()
        if not all(map(known.__contains__, points)):
            ahead = _speculate(q_true, q_false)
            known.update(zip(ahead.tolist(), _radicands(curve, c, ahead)[4].tolist()))
        return np.array([known[q] for q in points], dtype=bool)

    lo, hi = curve.domain
    # Samples without a frame, probed for holes.
    h = min(1e-7, (hi - lo) / (qs.size - 1) / 4)
    gaps = np.flatnonzero(reasons != "")
    if gaps.size == qs.size:
        raise NotEnoughSamplesError(f"only 0 of {qs.size} samples have a defined frame")
    if gaps.size:
        probes = np.concatenate([qs[gaps] - h, qs[gaps] + h])
        inside = (probes >= lo) & (probes <= hi)
        ok = np.ones(probes.size, dtype=bool)
        ok[inside] = _radicands(curve, c, probes[inside])[4]
        flags = flags.copy()
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
    while True:
        # Past |q| = 2^23 neighbouring doubles are more than 1e-9 apart: a
        # bracket whose midpoint rounds to one of its ends is done too.
        mid = 0.5 * (q_true + q_false)
        live = np.flatnonzero((np.abs(q_false - q_true) > 1e-9)
                              & (mid != q_true) & (mid != q_false))
        if live.size == 0:
            break
        mid = mid[live]
        ok = step(mid, q_true[live], q_false[live])
        q_true[live] = np.where(ok, mid, q_true[live])
        q_false[live] = np.where(ok, q_false[live], mid)

    # Boundaries alternate between rising and falling: with the domain ends
    # that are feasible, they pair up into the intervals.
    ends = (0.5 * (q_true + q_false)).tolist()
    ends = [float(qs[0])] * bool(flags[0]) + ends + [float(qs[-1])] * bool(flags[-1])
    return list(zip(ends[::2], ends[1::2]))


def synthesize_feasible(curve: CurveSpec, c: float, sign: int = 1, t0: float = 0.0,
                        sample_count: int | None = None):
    """``(curve, marching, intervals)``: the scale synthesized for ``c`` on
    ``curve`` restricted to its largest feasible interval.

    ``intervals`` lists every feasible subinterval, or is None, with the
    curve unchanged, when one reaches both ends of the domain to within
    1e-7 (absolute at any |q|).  One ``feasibility_scan`` at
    ``sample_count`` samples (None: ``_FIRST_TABLE_NODES``, the first table
    round's nodes) serves every restriction.  It can miss an infeasible
    window narrower than its step; synthesis then raises inside it, and the
    restriction is redone with that parameter known to be infeasible, at
    most ``_RESTRICT_RETRIES`` times.  Raises :class:`InfeasibleConstantError`
    when no parameter is feasible, and :class:`NotEnoughSamplesError` when
    no sample has a frame."""
    sample_count = _FIRST_TABLE_NODES if sample_count is None else sample_count
    scan = feasibility_scan(curve, c, sample_count)
    lo, hi = curve.domain
    infeasible = []
    while True:
        intervals = feasible_domain(curve, c, sample_count, infeasible, scan)
        if not intervals:
            raise InfeasibleConstantError(c)
        largest = max(intervals, key=lambda iv: iv[1] - iv[0])
        whole = len(intervals) == 1 and max(abs(largest[0] - lo), abs(hi - largest[1])) <= 1e-7
        kept = curve if whole else restrict_curve(curve, largest)
        try:  # synthesis ignores the scan unless its nodes are the first round's
            marching = synthesize_marching_scale(kept, c, sign, t0, scan)
        except InfeasibleConstantError as e:
            if len(infeasible) == _RESTRICT_RETRIES:
                raise
            infeasible.append(e.param)
        else:
            return kept, marching, None if whole else intervals


def restrict_curve(curve: CurveSpec, interval: tuple[float, float]) -> CurveSpec:
    """Curve restricted to ``interval`` shrunk by 1e-6 of its length at
    each end.

    The margin keeps synthesis away from boundary-touching parameters,
    where the phi2 radical is not smooth.
    """
    lo, hi = interval
    margin = 1e-6 * (hi - lo)
    return replace(curve, domain=(lo + margin, hi - margin))
