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

from dpencil.dcurve import (
    SynthesisRequest,
    feasible_domain,
    synthesize_marching_scale,
    verify_dtype,
)
from dpencil.errors import (
    DomainError,
    InflectionPointError,
    InvalidCurveError,
    IrregularCurveError,
    NonFiniteCurveError,
)
from dpencil.expr import evaluate_jet3, parse_expression
from dpencil.frenet import NO_FRAME, CurveSpec, FrenetApparatus, classify_curve, frenet_at
from dpencil.mesh import sample_grid
from dpencil.presets import load_preset, preset_names
from dpencil.scene import SceneConfig

from conftest import preset_config

FIELDS = [name for name in FrenetApparatus.__dataclass_fields__]
# Checked in this order: a subclass before its base class.
REASONS = (
    (NonFiniteCurveError, "non_finite"),
    (DomainError, "domain"),
    (IrregularCurveError, "irregular"),
    (InvalidCurveError, "unit_speed"),
    (InflectionPointError, "inflection"),
)


def make_curve(x, y, z, domain, unit_speed=False):
    return CurveSpec(x=parse_expression(x, ["q"]), y=parse_expression(y, ["q"]),
                     z=parse_expression(z, ["q"]), param="q", domain=domain,
                     unit_speed=unit_speed)


SPECIAL = {
    "hole": make_curve("q", "sqrt(1-q)", "q*q", (0.0, 2.0)),
    "cusp": make_curve("q^3", "q^2", "0", (-1.0, 1.0)),
    "eight": make_curve("sin(q)", "sin(q)*cos(q)", "0", (0.0, 2.0 * math.pi)),
    "false_unit_speed": make_curve("q", "q^2", "q^3", (-1.0, 1.0), unit_speed=True),
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
    assert seen == {"", "domain", "non_finite", "irregular", "unit_speed", "inflection"}


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
    expr = parse_expression(source, ["q"])
    qs = np.array(points + [0.0, 1.0, -1.0])
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

def first_scalar_error(curve, qs):
    for q in qs.tolist():
        try:
            frenet_at(curve, q)
        except (InflectionPointError, IrregularCurveError):
            continue
        except Exception as e:
            return e
    return None


@pytest.mark.parametrize("name", ["hole", "false_unit_speed", "overflow_part"])
def test_callers_raise_the_scalar_error(name):
    curve = SPECIAL[name]
    expected = first_scalar_error(curve, np.linspace(*curve.domain, 257))
    assert expected is not None
    with pytest.raises(type(expected)) as got:
        synthesize_marching_scale(SynthesisRequest(curve=curve, c=0.0))
    assert str(got.value) == str(expected)
    if name != "overflow_part":  # classify skips non-finite samples
        expected = first_scalar_error(curve, np.linspace(*curve.domain, 256))
        with pytest.raises(type(expected)) as got:
            classify_curve(curve)
        assert str(got.value) == str(expected)


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
    one bisection per boundary, in order."""
    def feasible(q):
        try:
            app = frenet_at(curve, q)
        except (InflectionPointError, IrregularCurveError):
            return False
        ratio = math.hypot(app.kappa, app.tau) / app.kappa
        return 1.0 - c * c * ratio * ratio >= 0.0

    def refine(q_true, q_false):
        while abs(q_false - q_true) > 1e-9:
            mid = 0.5 * (q_true + q_false)
            if feasible(mid):
                q_true = mid
            else:
                q_false = mid
        return 0.5 * (q_true + q_false)

    qs = np.linspace(*curve.domain, sample_count).tolist()
    flags = [feasible(q) for q in qs]
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


def test_batched_bisection_with_several_boundaries():
    got = feasible_domain(WAVY, 0.6)
    assert len(got) >= 3
    assert got == bisected_domain(WAVY, 0.6)
