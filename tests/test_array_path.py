"""The array forms of ``evaluate_jet3`` and ``frenet_at`` against the scalar
forms point by point, and the callers built on them.

Every entry the array form calls defined must carry the bits of the scalar
call at that parameter; every entry it masks must be one where the scalar
call raises, with the reason matching the exception class.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpencil import dcurve
from dpencil.dcurve import (
    BOUNDARY_TOL,
    feasible_curve,
    feasible_domain,
    synthesize_marching_scale,
    verify_dtype,
)
from dpencil.errors import (
    DomainError,
    InflectionPointError,
    IrregularCurveError,
    NonFiniteCurveError,
)
from dpencil.expr import Folded, evaluate_jet3, parse_expression
from dpencil.frenet import (
    NO_FRAME,
    CurveSpec,
    FrenetApparatus,
    classify_curve,
    frenet_at,
)
from dpencil.mesh import sample_grid
from dpencil.pencil import TabulatedProductForm
from dpencil.presets import load_preset, preset_names
from dpencil.scene import SceneConfig

from conftest import preset_config

FIELDS = [name for name in FrenetApparatus.__dataclass_fields__]
# Checked in this order: a subclass before its base class.
REASONS = (
    (NonFiniteCurveError, "non_finite"),
    (DomainError, "domain"),
    (IrregularCurveError, "irregular"),
    (InflectionPointError, "inflection"),
)


def make_curve(x, y, z, domain):
    return CurveSpec(x=parse_expression(x, ["q"]), y=parse_expression(y, ["q"]),
                     z=parse_expression(z, ["q"]), param="q", domain=domain)


SPECIAL = {
    "hole": make_curve("q", "sqrt(1-q)", "q*q", (0.0, 2.0)),
    "cusp": make_curve("q^3", "q^2", "0", (-1.0, 1.0)),
    "eight": make_curve("sin(q)", "sin(q)*cos(q)", "0", (0.0, 2.0 * math.pi)),
    "overflow": make_curve("q", "1e308*q*q", "0", (1.0, 5.0)),
    "overflow_part": make_curve("cos(q)", "sin(q)", "1e-300*exp(q)^2", (300.0, 360.0)),
    # Derivatives past 1e75 with a defined apparatus at q = 0 (curvature
    # 2e80) and none elsewhere.
    "large": make_curve("q", "1e80*q^2", "q^3", (-1.0, 1.0)),
}
CURVES = {**{name: preset_config(name).curve() for name in preset_names()}, **SPECIAL}


def bits(x) -> bytes:
    """Bytes of ``x`` as float64, with every NaN written the same way."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def scalar_reason(curve, q):
    """(apparatus, reason, error) of the scalar call at ``q``."""
    try:
        return frenet_at(curve, q), "", None
    except tuple(cls for cls, _ in REASONS) as e:
        return None, next(reason for cls, reason in REASONS if isinstance(e, cls)), e


def assert_frenet_matches(curve, qs):
    app, reasons = frenet_at(curve, qs)
    assert reasons.shape == qs.shape
    for i, q in enumerate(qs.tolist()):
        expected, reason, error = scalar_reason(curve, q)
        assert reasons[i] == reason, q
        if isinstance(error, NO_FRAME):
            assert reasons[i] == type(error).reason, q
        if expected is not None:
            for name in FIELDS:
                assert bits(getattr(app, name)[i]) == bits(getattr(expected, name)), (q, name)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_frenet_array_matches_scalar(name):
    curve = CURVES[name]
    qs = np.linspace(*curve.domain, 257)
    assert_frenet_matches(curve, qs)


def test_special_curves_cover_every_reason():
    seen = set()
    for curve in SPECIAL.values():
        seen.update(frenet_at(curve, np.linspace(*curve.domain, 257))[1].tolist())
    assert seen == {"", "domain", "non_finite", "irregular", "inflection"}


@pytest.mark.parametrize("source, q, reason", [
    ("1e300*q^10", 2.0, "non_finite"),  # |r'|^2 and |r' x r''|^2 overflow
    ("1e160*q^2", 1.0, "non_finite"),
    ("1e80*q^2", 0.0, ""),  # large derivatives, defined apparatus
])
def test_scalar_frenet_does_not_warn(source, q, reason):
    curve = make_curve("q", source, "q^3", (-3.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scalar_reason(curve, q)[1] == reason


def test_frenet_array_matches_scalar_where_the_cube_overflows():
    # rho ~ exp(q) past q = 3: its cube overflows at the last three points,
    # so one call takes the math.pow map, which raises, and redoes the
    # cubes per point; the frames on [-3, 3] must keep their bits.
    curve = make_curve("cos(q)", "sin(q)", "exp(q)", (-3.0, 350.0))
    qs = np.concatenate([np.linspace(-3.0, 3.0, 250), [240.0, 300.0, 350.0]])
    app, reasons = frenet_at(curve, qs)
    assert (app.rho[-3:] > 5.7e102).all() and np.isfinite(app.rho).all()  # 5.7e102^3 > 1.8e308
    assert reasons[:-3].tolist() == [""] * 250
    assert_frenet_matches(curve, qs)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(CURVES)),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_frenet_array_matches_scalar_anywhere(name, fractions):
    curve = CURVES[name]
    lo, hi = curve.domain
    assert_frenet_matches(curve, lo + (hi - lo) * np.array(fractions))


# -- jets over generated expressions --------------------------------------

FUNCTION_NAMES = ("sin", "cos", "tan", "sqrt", "exp", "ln", "asin", "atan", "abs", "tanh")
leaves = st.sampled_from(["q", "q", "2", "0.5", "3", "0", "pi", "1e308"])
expressions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(lambda f, a: f"{f}({a})", st.sampled_from(FUNCTION_NAMES), inner),
        st.builds(lambda a, op, b: f"({a}){op}({b})", inner, st.sampled_from("+-*/^"), inner),
        st.builds(lambda a: f"-({a})", inner),
    ),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(source=expressions,
       points=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
def test_jets_array_matches_scalar(source, points):
    assert_jets_match(source, np.array(points + [0.0, 1.0, -1.0]))


@pytest.mark.parametrize("source", [
    "q^(-1)",
    "(q-1)^(-3)",
    "(1+q*q)^(-512)",
    "(1e-162*q)^(-2)",  # the power underflows to zero for |q| < ~1.5
    "(0*q+1e-200)^(-2)",  # a constant base: the real power overflows
    "(0*q)^(-1)",  # a constant zero base
    "sin(q)^(-2)*q",
])
def test_negative_integer_powers_match_scalar(source):
    assert_jets_match(source, np.array([-3.0, -1.0, -0.5, 0.0, 1e-3, 0.5, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("func", ["sin", "cos", "tan", "sqrt"])
@pytest.mark.parametrize("argument", [
    "q^4+1",  # constant at q = 0 (every derivative zero), varying elsewhere
    "q+2",  # varying everywhere; sqrt's derivative is undefined at q = -2
])
def test_function_kernels_match_scalar(func, argument):
    qs = np.array([-3.0, -2.0, -1.0, -1e-3, 0.0, 1e-3, 0.5, 1.0, 2.0])
    assert_jets_match(f"{func}({argument})", qs)
    assert_jets_match(f"-{func}(-({argument}))", qs)


def folded_jets(node):
    """The stored jets of the folded leaves below ``node``."""
    if isinstance(node, Folded):
        return [node.jet]
    children = [getattr(node, name) for name in ("left", "right", "arg", "operand")
                if hasattr(node, name)]
    return [j for child in children for j in folded_jets(child)]


@pytest.mark.parametrize("source", [
    "-(2*3)",  # folded as a whole, with -0.0 derivatives
    "sin(q)*(2/3) - (pi*pi)^(-1)*q^2 + sqrt(2)",
    "(1+1)^q + ln(2)/q",
])
def test_folded_jets_are_shared_and_never_written(source):
    expr = parse_expression(source, ["q"])
    stored = folded_jets(expr.folded)
    assert stored
    before = [bits([j.v0, j.v1, j.v2, j.v3]) for j in stored]
    qs = np.array([-1.0, 0.0, 0.5, 2.0])
    for q in qs.tolist():
        try:
            jet = evaluate_jet3(expr, "q", q)
        except DomainError:
            continue
        jet.v0 = jet.v1 = jet.v2 = jet.v3 = 7.0  # the caller's own jet
    jet, _ = evaluate_jet3(expr, "q", qs)
    for v in (jet.v0, jet.v1, jet.v2, jet.v3):
        v[:] = 7.0
    assert [bits([j.v0, j.v1, j.v2, j.v3]) for j in folded_jets(expr.folded)] == before


def assert_jets_match(source, qs):
    expr = parse_expression(source, ["q"])
    jet, ok = evaluate_jet3(expr, "q", qs)
    for i, q in enumerate(qs.tolist()):
        try:
            expected = evaluate_jet3(expr, "q", q)
        except DomainError:
            assert not ok[i], (source, q)
            continue
        assert ok[i], (source, q)
        got = [v[i] for v in (jet.v0, jet.v1, jet.v2, jet.v3)]
        assert bits(got) == bits([expected.v0, expected.v1, expected.v2, expected.v3]), (source, q)


# -- callers ---------------------------------------------------------------

@pytest.mark.parametrize("name, error, end", [
    ("hole", DomainError, 1.0),  # sqrt(1 - q) and its derivatives end at q = 1
    ("overflow_part", NonFiniteCurveError, 350.42),
], ids=["hole", "overflow_part"])
def test_callers_skip_every_parameter_without_a_frame(name, error, end):
    curve = SPECIAL[name]
    with pytest.raises(error):
        frenet_at(curve, curve.domain[1])
    got = feasible_domain(curve, 0.0)
    assert got == bisected_domain(curve, 0.0)
    ((lo, hi),) = got
    assert lo == curve.domain[0] and hi == pytest.approx(end, abs=0.01)
    restricted, intervals = feasible_curve(curve, 0.0)
    assert intervals == got and restricted.domain[1] < hi
    synthesize_marching_scale(restricted, 0.0)
    assert classify_curve(curve).skipped > 0


def test_non_finite_curve_is_skipped_by_classify():
    curve = SPECIAL["overflow_part"]
    with pytest.raises(NonFiniteCurveError):
        frenet_at(curve, 360.0)
    cls = classify_curve(curve)
    reasons = frenet_at(curve, np.linspace(*curve.domain, 256))[1]
    assert cls.skipped == np.count_nonzero(reasons != "") > 0


def test_grid_and_verify_name_overflow_alike():
    # Columns and samples past q ~ 354.9, where exp(q)^2 overflows, are
    # non_finite in both; the frame does not exist there.
    cfg = load_preset("example1")
    cfg["curve"] = {"x": "cos(s)", "y": "sin(s)", "z": "1e-300*exp(s)^2", "param": "s",
                    "range": [300.0, 360.0]}
    pencil = SceneConfig.from_dict(cfg).pencil()
    with np.errstate(all="ignore"):
        mesh = sample_grid(pencil, 40, 5)
        report = verify_dtype(pencil, 200, 1e-6)
    grid = {d.reason for d in mesh.defects if d.s > 355.0}
    skipped = {reason for s, reason in report.skipped if s > 355.0}
    assert grid == skipped == {"non_finite"}


def bisected_domain(curve, c, sample_count=256):
    """Feasible intervals with one scalar ``frenet_at`` per parameter and
    one bisection per boundary, in order.  A parameter is feasible when its
    frame exists (``frenet_at`` raises none of its errors) and its radicand
    is at least ``BOUNDARY_TOL``.  A sample without a frame between
    feasible samples counts as feasible when the parameters 1e-7 (at most a
    quarter step) to either side inside the domain are."""
    def feasible(q):
        try:
            app = frenet_at(curve, q)
        except NO_FRAME:
            return False
        ratio = math.hypot(app.kappa, app.tau) / app.kappa
        return 1.0 - c * c * ratio * ratio >= BOUNDARY_TOL

    def no_frame(q):
        try:
            frenet_at(curve, q)
        except NO_FRAME:
            return True
        return False

    def refine(q_true, q_false):
        while abs(q_false - q_true) > 1e-9:
            mid = 0.5 * (q_true + q_false)
            if feasible(mid):
                q_true = mid
            else:
                q_false = mid
        return 0.5 * (q_true + q_false)

    lo, hi = curve.domain
    qs = np.linspace(lo, hi, sample_count).tolist()
    flags = [feasible(q) for q in qs]
    h = min(1e-7, (hi - lo) / (sample_count - 1) / 4)
    holes = [i for i, q in enumerate(qs)
             if no_frame(q)
             and all(flags[j] for j in (i - 1, i + 1) if 0 <= j < len(qs))
             and all(feasible(p) for p in (q - h, q + h) if lo <= p <= hi)]
    for i in holes:
        flags[i] = True
    intervals, start = [], qs[0] if flags[0] else None
    for a, b, fa, fb in zip(qs, qs[1:], flags, flags[1:]):
        if fa and not fb:
            intervals.append((start, refine(a, b)))
            start = None
        elif fb and not fa:
            start = refine(b, a)
    if start is not None:
        intervals.append((start, qs[-1]))
    return intervals


WAVY = make_curve("cos(q)", "sin(q)", "sin(3*q)/3", (0.0, 2.0 * math.pi))


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(["example3", "example4", "wavy"]), c=st.floats(0.05, 0.99))
def test_batched_bisection_matches_per_boundary(name, c):
    curve = WAVY if name == "wavy" else CURVES[name]
    assert feasible_domain(curve, c) == bisected_domain(curve, c)


def test_eight_feasibility_takes_two_calls(monkeypatch):
    # One call scans the samples and one probes beside the two inflection
    # samples, 0 and 2 pi; no boundary is bisected.
    calls = []
    radicands = dcurve._radicands
    monkeypatch.setattr(dcurve, "_radicands", lambda *a: calls.append(a) or radicands(*a))
    curve = CURVES["example3"]
    assert feasible_domain(curve, math.sqrt(3.0) / 2.0) == [curve.domain]
    assert len(calls) <= 2


def test_batched_bisection_with_several_boundaries():
    got = feasible_domain(WAVY, 0.6)
    assert len(got) >= 3
    assert got == bisected_domain(WAVY, 0.6)


# -- speculative bisection and table rounds ---------------------------------

def stepwise_domain(curve, c, sample_count=256, visits=None):
    """``feasible_domain`` with one array ``frenet_at`` call per bisection
    step, as it was before the speculative search.  ``visits`` collects
    ``(live, mid)`` of every step."""
    def feasible(qs):
        _, _, radicand, _, reasons = dcurve._radicands(curve, c, qs)
        return (reasons == "") & (radicand >= BOUNDARY_TOL)

    lo, hi = curve.domain
    qs = np.linspace(lo, hi, sample_count)
    flags = feasible(qs)
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    falling = flags[edges]
    q_true = np.where(falling, qs[edges], qs[edges + 1])
    q_false = np.where(falling, qs[edges + 1], qs[edges])
    while True:
        live = np.flatnonzero(np.abs(q_false - q_true) > 1e-9)
        if live.size == 0:
            break
        mid = 0.5 * (q_true[live] + q_false[live])
        if visits is not None:
            visits.append((live.tolist(), mid.tolist()))
        ok = feasible(mid)
        q_true[live] = np.where(ok, mid, q_true[live])
        q_false[live] = np.where(ok, q_false[live], mid)

    intervals = []
    start = float(qs[0]) if flags[0] else None
    for end, fall in zip((0.5 * (q_true + q_false)).tolist(), falling.tolist()):
        if fall:
            intervals.append((start, end))
            start = None
        else:
            start = end
    if start is not None:
        intervals.append((start, float(qs[-1])))
    return intervals


def wavy_with_holes(hx=None, hy=None):
    """``WAVY`` with a domain hole at exactly ``hx`` in x and at ``hy`` in y:
    an added ``0*ln((q-h)^2)``, zero wherever it is defined."""
    def hole(h):
        return "" if h is None else f"+0*ln((q-{h!r})^2)"
    return make_curve("cos(q)" + hole(hx), "sin(q)" + hole(hy), "sin(3*q)/3", WAVY.domain)


def test_speculative_hole_off_the_path_is_never_read(monkeypatch):
    visits = []
    assert stepwise_domain(WAVY, 0.6, visits=visits) == feasible_domain(WAVY, 0.6)
    visited = {q for _, mid in visits for q in mid}
    # The first bracket's second midpoint is one of two; the path never
    # enters the other half, so a hole there is met only ahead of it.
    lo, hi = WAVY.domain
    qs = np.linspace(lo, hi, 256)
    first = visits[0][1][0]
    a, b = (q for q in qs.tolist() if abs(q - first) < qs[1] - qs[0])
    (hole,) = {0.5 * (a + first), 0.5 * (first + b)} - visited
    curve = wavy_with_holes(hx=hole)
    with pytest.raises(DomainError):
        frenet_at(curve, hole)
    evaluated = []
    array_frenet = dcurve.frenet_at

    def spy(curve, q):
        evaluated.extend(q.tolist())
        return array_frenet(curve, q)

    monkeypatch.setattr(dcurve, "frenet_at", spy)
    got = feasible_domain(curve, 0.6)
    assert hole in evaluated
    assert got == bisected_domain(curve, 0.6) == stepwise_domain(curve, 0.6)


def test_speculative_hole_on_the_path_is_infeasible_as_stepwise():
    visits = []
    stepwise_domain(WAVY, 0.6, visits=visits)
    assert len(visits[0][0]) >= 3
    # Bracket 2 meets its hole at step 3, bracket 0 at step 7; each is an
    # infeasible midpoint. Bracket 0's lies on the feasible side of its
    # boundary, which moves to it; bracket 2's lies on the infeasible side.
    late = dict(zip(*visits[3]))[2]
    early = dict(zip(*visits[7]))[0]
    curve = wavy_with_holes(hx=early, hy=late)
    for q in (early, late):
        with pytest.raises(DomainError):
            frenet_at(curve, q)
    got = feasible_domain(curve, 0.6)
    assert got == stepwise_domain(curve, 0.6) == bisected_domain(curve, 0.6)
    base = feasible_domain(WAVY, 0.6)
    assert got[0][0] != base[0][0] and abs(got[0][0] - early) <= 1e-9
    assert got[0][1] == base[0][1] and got[1:] == base[1:]


def table_by_rounds(curve, c, sign=1):
    """The table of ``synthesize_marching_scale`` with every node of every
    round evaluated afresh, each round checked at the next round's odd
    nodes."""
    lo, hi = curve.domain
    qs = np.linspace(lo, hi, dcurve._FIRST_TABLE_NODES)
    while True:
        av, _, g, usable = dcurve._coefficients_at(curve, c, sign, qs)
        step = (hi - lo) / (qs.size - 1)
        form = TabulatedProductForm(qs[usable], av[usable], g[usable], sign,
                                    dcurve._merge_holes(qs[~usable].tolist(), step))
        finer = np.linspace(lo, hi, 2 * qs.size - 1)
        check = finer[1::2]
        check_av, check_aw, _, check_ok = dcurve._coefficients_at(curve, c, sign, check)
        err = dcurve._interp_error(form, check[check_ok], check_av[check_ok], check_aw[check_ok])
        if err <= dcurve._INTERP_TARGET or qs.size >= dcurve._MAX_TABLE_NODES:
            form.max_interp_error = err
            return form
        qs = finer


@pytest.mark.parametrize("name, c", [("example3", 0.3), ("example4", math.sqrt(3.0) / 2.0)])
def test_table_rounds_match_recomputed_nodes(name, c):
    curve, _ = feasible_curve(CURVES[name], c)
    got = synthesize_marching_scale(curve, c).form
    expected = table_by_rounds(curve, c)
    assert got.nodes.size > dcurve._FIRST_TABLE_NODES
    for field in ("nodes", "v_values", "g_values"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field
    assert got.excluded == expected.excluded
    assert got.max_interp_error == expected.max_interp_error


def test_each_table_point_is_evaluated_once(monkeypatch):
    c = math.sqrt(3.0) / 2.0
    curve, _ = feasible_curve(CURVES["example3"], c)
    sizes, evaluated = [], []
    array_frenet = dcurve.frenet_at

    def spy(curve, q):
        sizes.append(q.size)
        evaluated.extend(q.tolist())
        return array_frenet(curve, q)

    monkeypatch.setattr(dcurve, "frenet_at", spy)
    form = synthesize_marching_scale(curve, c).form
    # The final round has N = 2049 nodes; its check is the odd nodes of the
    # round it did not need, so 2N - 1 points are evaluated, each once.
    final = np.linspace(*curve.domain, 2049)
    assert np.isin(form.nodes, final).all() and form.nodes.size > 1025
    assert sizes == [257, 256, 512, 1024, 2048]
    assert sum(sizes) == 2 * final.size - 1
    assert sorted(evaluated) == np.linspace(*curve.domain, 2 * final.size - 1).tolist()
