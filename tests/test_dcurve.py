import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from dpencil import dcurve
from dpencil.cli import main
from dpencil.dcurve import (
    _merge_holes,
    check_theorem_conditions,
    feasible_domain,
    restrict_curve,
    _specialize,
    synthesize_feasible,
    synthesize_marching_scale,
    verify_dtype,
)
from dpencil.errors import (
    ExpressionError,
    GeometryError,
    InfeasibleConstantError,
    NotEnoughSamplesError,
    SceneValidationError,
)
from dpencil.expr import evaluate, format_expression, parse_expression
from dpencil.frenet import ANTI_SALKOWSKI, NO_FRAME, CurveClass, CurveSpec, frenet_at
from dpencil.pencil import (
    ProductForm,
    SurfacePencil,
    TabulatedProductForm,
    marching_values,
)
from dpencil.presets import load_preset, preset_names

from dpencil.scene import SceneConfig

from conftest import point_geometry, preset_config, preset_pencil
from test_cli_fuzz import configs

SQRT3_2 = math.sqrt(3.0) / 2.0
SQRT2_2 = math.sqrt(2.0) / 2.0


def q_curve(x, y, z):
    """The curve (x, y, z) in q on [-1, 1]."""
    return CurveSpec(*(parse_expression(e, ["q"]) for e in (x, y, z)),
                     param="q", domain=(-1.0, 1.0))


def straight_line() -> SceneConfig:
    """example1 on the straight line (q, 2q, 0) over [0, 1], which has no
    Frenet frame anywhere."""
    cfg = load_preset("example1")
    cfg["curve"].update(x="q", y="2*q", param="q", range=[0.0, 1.0], unit_speed=False)
    return SceneConfig.from_dict(cfg)


def synth_pencil(curve, c, sign=1, t_range=(0.0, 1.0)):
    ms = synthesize_marching_scale(curve, c, sign)
    return SurfacePencil(curve, ms, t_range)


def phi_components(p, s):
    """Frenet components (phi1, phi2, phi3) of the surface normal at (s, t0)."""
    at = point_geometry(p, s, p.t0)
    return tuple(float(np.dot(at.normal, v)) for v in (at.frame.T, at.frame.N, at.frame.B))


class TestPhiComponents:
    def test_example1(self, ex1):
        phi1, phi2, phi3 = phi_components(ex1, 0.4)
        assert abs(phi1) <= 1e-12
        assert phi2 == pytest.approx(-0.5, abs=1e-12)
        assert phi3 == pytest.approx(SQRT3_2, abs=1e-12)

    def test_example2(self, ex2):
        phi1, phi2, phi3 = phi_components(ex2, -1.0)
        assert abs(phi1) <= 1e-12
        assert phi2 == pytest.approx(-SQRT2_2, abs=1e-12)
        assert phi3 == pytest.approx(SQRT2_2, abs=1e-12)

    def test_synthesized_geodesic(self, ex1):
        pencil = synth_pencil(ex1.curve, 0.0)
        phi1, phi2, phi3 = phi_components(pencil, 1.1)
        assert abs(phi1) <= 1e-12
        assert abs(abs(phi2) - 1.0) <= 1e-12
        assert abs(phi3) <= 1e-12


class TestVerifyDtype:
    @pytest.mark.parametrize("name, tolerance", [
        ("example1", 1e-8), ("example2", 1e-8), ("example3", 1e-6), ("example4", 1e-6)])
    def test_default_tolerance_is_measured(self, name, tolerance):
        # The circle and the helix have unit speed, the eight and the
        # Salkowski curve do not; the default was once 1e-8 for every curve.
        assert verify_dtype(preset_pencil(name), 250).tolerance == tolerance

    def test_example1_constant(self, ex1):
        report = verify_dtype(ex1, 1000, 1e-9)
        assert report.c_estimate == pytest.approx(SQRT3_2, abs=1e-9)
        assert report.max_deviation <= 1e-9
        assert report.verdict
        assert not report.geodesic
        assert not report.asymptotic_planar

    def test_example2_constant(self, ex2):
        report = verify_dtype(ex2, 1000, 1e-9)
        assert report.c_estimate == pytest.approx(0.5, abs=1e-9)
        assert report.max_deviation <= 1e-9

    def test_example1_with_controls(self):
        # Scaling v and w by (y, z) moves the constant to
        # (y sqrt3/2) / sqrt(3 y^2/4 + z^2/4); for y=1/3, z=1 that is 1/2.
        pencil = preset_pencil("example1b")
        y, z = 1.0 / 3.0, 1.0
        expected = (y * SQRT3_2) / math.sqrt(3 * y * y / 4 + z * z / 4)
        assert expected == pytest.approx(0.5, abs=1e-15)
        report = verify_dtype(pencil, 400, 1e-9)
        assert report.c_estimate == pytest.approx(expected, abs=1e-12)
        assert report.verdict

    def test_sample_ordering_and_theta(self, ex2):
        report = verify_dtype(ex2, 64, 1e-9)
        ss = [smp.s for smp in report.samples]
        assert ss == sorted(ss)
        for smp in report.samples:
            assert smp.theta == pytest.approx(math.atan2(smp.phi3, smp.phi2))
            assert abs(smp.phi2**2 + smp.phi3**2 - 1.0) <= 1e-10

    def test_not_enough_samples(self):
        from dpencil.pencil import GeneralForm, MarchingScale

        line = CurveSpec(
            x=parse_expression("q", ["q"]),
            y=parse_expression("0", ["q"]),
            z=parse_expression("0", ["q"]),
            param="q", domain=(0.0, 1.0),
        )
        form = GeneralForm(
            u=parse_expression("t", ["q", "t"]),
            v=parse_expression("t", ["q", "t"]),
            w=parse_expression("t", ["q", "t"]),
        )
        pencil = SurfacePencil(line, MarchingScale(form, "q"), (0.0, 1.0))
        with pytest.raises(NotEnoughSamplesError):
            verify_dtype(pencil, 32, 1e-9)

    def test_overflowed_normals_are_skipped(self):
        # m = n = 1e308 s overflows for |s| > ~1.8: those samples are
        # skipped as non_finite instead of entering the report as NaN.
        cfg = preset_config("example1").to_dict()
        cfg["marching"]["explicit"].update(m="1e308*s", n="1e308*s")
        p = SceneConfig.from_dict(cfg).pencil()
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_dtype(p, 100, 1e-8)
        assert {why for _, why in report.skipped} == {"non_finite"}
        assert all(abs(s) > 1.7 for s, _ in report.skipped)
        inner = np.array([smp.inner for smp in report.samples])
        assert np.max(np.abs(np.abs(inner) - SQRT3_2)) <= 1e-12
        assert [s for s, _ in report.skipped] == sorted(s for s, _ in report.skipped)

    def test_sample_count_floor(self, ex1):
        with pytest.raises(ValueError):
            verify_dtype(ex1, 8, 1e-9)

    def test_asymptotic_planar_flag(self, ex1):
        # v_t = 1, w_t = 0 along a planar curve puts the normal on B:
        # the inner product is 1 and the curve is asymptotic.
        from dpencil.pencil import GeneralForm, MarchingScale

        form = GeneralForm(
            u=parse_expression("0", ["s", "t"]),
            v=parse_expression("t", ["s", "t"]),
            w=parse_expression("0", ["s", "t"]),
        )
        pencil = SurfacePencil(ex1.curve, MarchingScale(form, "s"), (0.0, 1.0))
        report = verify_dtype(pencil, 64, 1e-9)
        assert report.c_estimate == pytest.approx(1.0, abs=1e-12)
        assert report.asymptotic_planar
        for smp in report.samples:
            assert abs(smp.phi2) <= 1e-9  # <n, N> = 0: asymptotic direction


def scalar_skips(p, sample_count):
    """The skipped ``(s, reason)`` of ``verify_dtype``, one scalar frame and
    normal per sample, in the precedence of ``surface_normals``: no frame,
    then an undefined marching scale ("domain"), then the normal's defects."""
    skipped = []
    for s in np.linspace(*p.curve.domain, sample_count).tolist():
        try:
            at = point_geometry(p, s, p.t0)
        except NO_FRAME as e:
            skipped.append((s, e.reason))
            continue
        if at.non_finite:
            skipped.append((s, "non_finite"))
        elif at.degenerate:
            skipped.append((s, "degenerate_normal"))
    return skipped


def eight_pencil_undefined_on_upper_half():
    """The eight curve, whose marching scale (v and w times sqrt(sin q)) is
    undefined on (pi, 2 pi) and at 2 pi, an inflection."""
    cfg = load_preset("example3")
    parts = cfg["marching"]["explicit"]
    parts.update(m=f"sqrt(sin(q))*{parts['m']}", n=f"sqrt(sin(q))*{parts['n']}")
    return SceneConfig.from_dict(cfg).pencil()


class TestVerifyFrames:
    """Frames are taken per sample only where the marching scale is defined."""

    def test_no_frame_where_the_scale_is_undefined(self, ex4, monkeypatch):
        frames = []
        frame = SurfacePencil.frame
        monkeypatch.setattr(SurfacePencil, "frame", lambda p, s: frames.append(s) or frame(p, s))
        report = verify_dtype(ex4, 250)
        assert len(report.skipped) == 144
        assert len(frames) == 106

    @pytest.mark.parametrize("name", preset_names())
    def test_skips_match_scalar_reference(self, name):
        p = preset_pencil(name)
        assert list(verify_dtype(p, 250).skipped) == scalar_skips(p, 250)

    def test_frame_reason_wins_where_the_scale_is_undefined(self):
        p = eight_pencil_undefined_on_upper_half()
        skipped = list(verify_dtype(p, 250).skipped)
        assert skipped == scalar_skips(p, 250)
        assert skipped[-1] == (2.0 * math.pi, "inflection")
        assert {why for s, why in skipped if math.pi < s < 2.0 * math.pi} == {"domain"}


def theorem_case(name):
    """``(pencil, c)``: a preset's pencil, or for ``<preset>_synthesized``
    the pencil synthesized on the preset's curve, with the preset's ``c``."""
    raw = load_preset(name.removesuffix("_synthesized"))
    if name.endswith("_synthesized"):
        raw["marching"] = {"mode": "synthesized", "c": raw["marching"]["c"]}
    return SceneConfig.from_dict(raw).pencil(), raw["marching"]["c"]


def identity_gap(p, report) -> float:
    """Largest gap between the ``inner`` of ``report``, ``verify_dtype``
    on ``p``, and kappa v_t / (omega h), h = hypot(v_t, w_t), which
    <n, W0> equals on t = t0, over the report's samples."""
    ss = np.array([sample.s for sample in report.samples])
    app, _ = frenet_at(p.curve, ss)
    mv, _ = marching_values(p.marching, ss, p.t0)
    v_t, w_t = mv.v_t, mv.w_t
    identity = app.kappa * v_t / (app.omega * np.hypot(v_t, w_t))
    inner = np.array([sample.inner for sample in report.samples])
    return float(np.max(np.abs(inner - identity)))


THEOREM_CASES = preset_names() + [f"example{i}_synthesized" for i in range(1, 5)]


class TestTheoremFrames:
    """The theorem check reads phi from the scale's t-partials over one array
    frame call; it skips exactly where verification's full normals do."""

    def test_one_array_frenet_call_and_no_frame(self, ex4, monkeypatch):
        frames, calls = [], []
        frame = SurfacePencil.frame
        monkeypatch.setattr(SurfacePencil, "frame", lambda p, s: frames.append(s) or frame(p, s))
        monkeypatch.setattr(dcurve, "frenet_at",
                            lambda curve, q: calls.append(q) or frenet_at(curve, q))
        assert check_theorem_conditions(ex4, SQRT3_2, sign=-1, sample_count=128).passed
        assert frames == []
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.linspace(*ex4.curve.domain, 128))

    @pytest.mark.parametrize("name", THEOREM_CASES)
    def test_inner_is_the_t_partial_identity(self, name):
        p, _ = theorem_case(name)
        assert identity_gap(p, verify_dtype(p, 1000)) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(configs())
    def test_inner_is_the_t_partial_identity_on_fuzz_configs(self, config):
        with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs
            try:
                p = SceneConfig.from_dict(config).pencil()
                report = verify_dtype(p, 64)
            except (ExpressionError, GeometryError, SceneValidationError, ValueError):
                return  # a config that fails to load or verify
            assert identity_gap(p, report) <= 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "verify crosses rho T with a dP/dt dominated by u_t T: <n, W0> loses "
        "about eps |u_t| / h to cancellation"))
    def test_inner_identity_with_a_large_tangential_partial(self):
        # u_t = s^2 ~ 3.7e4 beside h = 1 on the circle: the gap is ~1.3e-12.
        raw = load_preset("example1")
        raw["marching"]["explicit"]["l"] = "s^2"
        raw["curve"]["range"] = [151.0, 193.5]
        p = SceneConfig.from_dict(raw).pencil()
        assert identity_gap(p, verify_dtype(p, 64)) <= 1e-12

    @pytest.mark.parametrize("name", THEOREM_CASES)
    def test_skips_match_verification(self, name):
        p, c = theorem_case(name)
        report = check_theorem_conditions(p, c, sign=-1, sample_count=1000)
        assert report.skipped == len(verify_dtype(p, 1000).skipped)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(configs())
    def test_skips_match_verification_on_fuzz_configs(self, config):
        with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs
            try:
                p = SceneConfig.from_dict(config).pencil()
                report = verify_dtype(p, 64)
            except (ExpressionError, GeometryError, SceneValidationError, ValueError):
                return  # a config that fails to load or verify
            try:
                theorem = check_theorem_conditions(p, report.c_estimate, sign=-1,
                                                   sample_count=64, tol=1e-6)
            except InfeasibleConstantError:
                return
            assert theorem.skipped == len(report.skipped)

    def test_skips_a_degenerate_normal_as_verification_does(self):
        # v_t = w_t = 0 at s = 0, the middle of 65 samples: frame and scale
        # are defined there, the normal is not.
        raw = load_preset("example1")
        raw["marching"]["explicit"].update(m="s^2", n="s^2")
        p = SceneConfig.from_dict(raw).pencil()
        assert verify_dtype(p, 65).skipped == ((0.0, "degenerate_normal"),)
        report = check_theorem_conditions(p, SQRT3_2, sign=-1, sample_count=65)
        assert (report.skipped, report.passed) == (1, True)


class TestTheoremConditions:
    def test_example1_planar_branch(self, ex1):
        report = check_theorem_conditions(ex1, SQRT3_2, sign=-1, sample_count=128)
        assert report.passed
        assert {c.name: c.passed for c in report.conditions} == {
            "isoparametric": True, "phi1_zero": True,
            "phi2_branch": True, "phi3_target": True,
        }
        assert report.branch == "planar"
        assert report.branch_constants["phi3"] == pytest.approx(SQRT3_2)

    def test_example2_helix_branch(self, ex2):
        report = check_theorem_conditions(ex2, 0.5, sign=-1, sample_count=128)
        assert report.passed
        assert report.branch == "general_helix"
        assert report.branch_constants["d"] == pytest.approx(1.0, abs=1e-9)
        assert report.branch_constants["phi3"] == pytest.approx(SQRT2_2, abs=1e-9)

    def test_infeasible_constant(self, ex2):
        with pytest.raises(InfeasibleConstantError):
            check_theorem_conditions(ex2, 1.0, sign=-1, sample_count=64)

    def test_sample_floor_comes_before_feasibility(self, ex4):
        # 7 of 16 samples are usable at c = 0.99; verification stops there too.
        with pytest.raises(NotEnoughSamplesError, match="^only 7 of 16 samples usable$"):
            check_theorem_conditions(ex4, 0.99, sign=-1, sample_count=16)

    def test_wrong_constant_fails(self, ex1):
        report = check_theorem_conditions(ex1, 0.5, sign=-1, sample_count=64)
        assert not report.passed
        failed = {c.name for c in report.conditions if not c.passed}
        assert "phi3_target" in failed

    def test_wrong_sign_fails(self, ex1):
        report = check_theorem_conditions(ex1, SQRT3_2, sign=1, sample_count=64)
        failed = {c.name for c in report.conditions if not c.passed}
        assert "phi2_branch" in failed

    def test_salkowski_branch(self, ex4):
        report = check_theorem_conditions(ex4, SQRT3_2, sign=-1, sample_count=128)
        assert report.branch == "salkowski"
        assert report.branch_constants["a"] == pytest.approx(1.0, rel=1e-9)
        assert report.passed

    def test_geodesic_branch(self, ex1):
        pencil = synth_pencil(ex1.curve, 0.0)
        report = check_theorem_conditions(pencil, 0.0, sign=-1, sample_count=64)
        assert report.branch == "geodesic"
        assert report.passed

    @pytest.mark.parametrize("sign", [1, -1])
    def test_asymptotic_planar_branch(self, sign):
        # n = B along the circle: phi2 = 0 on either branch, phi3 = 1.
        cfg = load_preset("example1")
        cfg["marching"]["explicit"].update(V="t", W="0")
        pencil = SceneConfig.from_dict(cfg).pencil()
        report = check_theorem_conditions(pencil, 1.0, sign=sign, sample_count=64)
        assert report.passed
        assert report.branch == "asymptotic_planar"
        assert report.branch_constants == {"phi3": 1.0}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_salkowski_branch_of_a_synthesized_pencil(self, ex4, sign):
        curve, marching, intervals = synthesize_feasible(ex4.curve, SQRT3_2, sign,
                                                         sample_count=256)
        assert intervals is not None
        pencil = SurfacePencil(curve, marching, (0.0, 1.0))
        report = check_theorem_conditions(pencil, SQRT3_2, sign=-sign, sample_count=128)
        assert report.passed
        assert report.branch == "salkowski"
        assert report.branch_constants["a"] == pytest.approx(1.0, rel=1e-9)

    def test_generic_curve_has_no_branch(self):
        pencil = synth_pencil(q_curve("q", "q^2", "q^3"), 0.5)
        report = check_theorem_conditions(pencil, 0.5, sign=-1, sample_count=64)
        assert report.passed
        assert report.curve_class.kind == "Generic"
        assert (report.branch, report.branch_constants) == (None, {})

    @pytest.mark.parametrize("call, error", [
        (lambda p: check_theorem_conditions(p, 0.5, sign=0), "sign must be +1 or -1"),
        (lambda p: check_theorem_conditions(p, 0.5, sample_count=15),
         "sample_count must be at least 16"),
        (lambda p: synthesize_marching_scale(p.curve, 0.5, sign=0), "sign must be +1 or -1"),
    ], ids=["theorem_sign", "theorem_samples", "synthesize_sign"])
    def test_argument_checks(self, ex1, call, error):
        with pytest.raises(ValueError) as info:
            call(ex1)
        assert str(info.value) == error

    def test_not_enough_samples(self):
        with pytest.raises(NotEnoughSamplesError) as info:
            check_theorem_conditions(straight_line().pencil(), 0.5, sample_count=16)
        assert str(info.value) == "only 0 of 16 samples usable"

    def test_anti_salkowski_constants(self):
        # No preset curve has constant torsion and varying curvature.
        cls = CurveClass(ANTI_SALKOWSKI, 2.0, 0.0)
        assert _specialize(cls, 0.5, 1e-8) == ("anti_salkowski", {"b": 2.0})


class TestSynthesize:
    def test_circle_closed_form(self, ex1):
        ms = synthesize_marching_scale(ex1.curve, SQRT3_2)
        assert isinstance(ms.form, ProductForm)
        v_at_1 = evaluate(ms.form.V, {"t": 1.0})
        w_at_1 = evaluate(ms.form.W, {"t": 1.0})
        assert v_at_1 == pytest.approx(SQRT3_2, abs=1e-12)
        assert w_at_1 == pytest.approx(0.5, abs=1e-12)
        # Orientation: positive w coefficient puts phi2 on the negative branch.
        pencil = SurfacePencil(ex1.curve, ms, (0.0, 1.0))
        _, phi2, _ = phi_components(pencil, 0.9)
        assert phi2 == pytest.approx(-0.5, abs=1e-12)

    def test_helix_closed_form(self, ex2):
        ms = synthesize_marching_scale(ex2.curve, 0.5)
        assert isinstance(ms.form, ProductForm)
        assert evaluate(ms.form.V, {"t": 1.0}) == pytest.approx(SQRT2_2, abs=1e-12)
        assert evaluate(ms.form.W, {"t": 1.0}) == pytest.approx(SQRT2_2, abs=1e-12)

    def test_eight_curve_table_matches_closed_form(self, ex3):
        ms = synthesize_marching_scale(ex3.curve, SQRT3_2)
        assert isinstance(ms.form, TabulatedProductForm)
        denom = parse_expression("sqrt(4*cos(q)^4 - 3*cos(q)^2 + 1)", ["q"])
        for q in np.linspace(0.1, 2 * math.pi - 0.1, 100):
            q = float(q)
            if min(abs(q - math.pi), abs(q), abs(q - 2 * math.pi)) < 0.1:
                continue
            d = evaluate(denom, {"q": q})
            assert ms.form.v_coefficient(q) == pytest.approx(SQRT3_2 / d, abs=1e-8)
            assert ms.form.w_coefficient(q) == pytest.approx(0.5 / d, abs=1e-8)
        # inflection windows are reported as excluded subdomains
        centers = [0.5 * (a + b) for a, b in ms.form.excluded]
        assert any(abs(c0) < 0.02 for c0 in centers)
        assert any(abs(c0 - math.pi) < 0.02 for c0 in centers)

    def test_round_trip_guarantee(self, ex1, ex3):
        pencil = synth_pencil(ex1.curve, 0.25)
        assert verify_dtype(pencil, 256, 1e-8).c_estimate == pytest.approx(
            0.25, abs=1e-8
        )
        pencil3 = synth_pencil(ex3.curve, 0.25)
        report3 = verify_dtype(pencil3, 256, 1e-6)
        assert report3.c_estimate == pytest.approx(0.25, abs=1e-6)
        assert report3.max_deviation <= 1e-6

    def test_sign_flips_phi2_keeps_inner(self, ex2):
        plus = synth_pencil(ex2.curve, 0.3, sign=1)
        minus = synth_pencil(ex2.curve, 0.3, sign=-1)
        for s in np.linspace(-5.0, 5.0, 7):
            s = float(s)
            _, phi2_p, phi3_p = phi_components(plus, s)
            _, phi2_m, phi3_m = phi_components(minus, s)
            assert phi2_p == pytest.approx(-phi2_m, abs=1e-10)
            assert phi3_p == pytest.approx(phi3_m, abs=1e-10)
            at_p, at_m = point_geometry(plus, s, 0.0), point_geometry(minus, s, 0.0)
            inner_p = float(np.dot(at_p.normal, at_p.frame.W0))
            inner_m = float(np.dot(at_m.normal, at_m.frame.W0))
            assert inner_p == pytest.approx(inner_m, abs=1e-10)

    def test_geodesic_degeneration(self, ex1, ex2):
        for base in (ex1, ex2):
            pencil = synth_pencil(base.curve, 0.0)
            report = verify_dtype(pencil, 200, 1e-9)
            assert report.geodesic
            for smp in report.samples:
                assert abs(smp.phi2) >= 1.0 - 1e-9  # |<n, N>| = 1

    def test_phi3_matches_normal_binormal_inner(self, ex2):
        # phi3 = c sqrt(kappa^2 + tau^2)/kappa must equal <n, B> directly.
        c = 0.5
        for s in np.linspace(-4.0, 4.0, 9):
            s = float(s)
            at = point_geometry(ex2, s, 0.0)
            predicted = c * math.hypot(at.frame.kappa, at.frame.tau) / at.frame.kappa
            assert float(np.dot(at.normal, at.frame.B)) == pytest.approx(predicted, abs=1e-10)

    def test_infeasible_rejected(self, ex1, ex2):
        with pytest.raises(InfeasibleConstantError):
            synthesize_marching_scale(ex1.curve, 1.5)
        with pytest.raises(InfeasibleConstantError):
            synthesize_marching_scale(ex2.curve, 1.0)
        # Boundary-touching (radicand exactly 0) counts as infeasible too.
        with pytest.raises(InfeasibleConstantError):
            synthesize_marching_scale(ex1.curve, 1.0)

    def test_frame_undefined_at_nearly_all_table_nodes(self):
        with pytest.raises(NotEnoughSamplesError) as info:
            synthesize_marching_scale(straight_line().curve(), 0.5)
        assert str(info.value) == "frame undefined at nearly all table nodes"


class TestFeasibleDomain:
    def test_circle_whole_domain(self, ex1):
        got = feasible_domain(ex1.curve, SQRT3_2)
        assert len(got) == 1
        lo, hi = ex1.curve.domain
        assert got[0][0] == pytest.approx(lo)
        assert got[0][1] == pytest.approx(hi)

    def test_helix_infeasible(self, ex2):
        assert feasible_domain(ex2.curve, 1.0) == []

    def test_salkowski_boundary(self, ex4):
        # Oracle: radicand = (1 - 3 tan^2(q/sqrt(26)))/4 crosses zero where
        # tan(q/sqrt(26)) = 1/sqrt(3), i.e. q* = sqrt(26) pi / 6.
        q_star = math.sqrt(26.0) * math.pi / 6.0
        got = feasible_domain(ex4.curve, SQRT3_2)
        assert len(got) == 1
        assert got[0][0] == pytest.approx(0.0, abs=1e-12)
        assert got[0][1] == pytest.approx(q_star, abs=1e-6)
        app = frenet_at(ex4.curve, got[0][1] - 0.01)
        ratio = math.hypot(app.kappa, app.tau) / app.kappa
        assert 1.0 - (SQRT3_2 * ratio) ** 2 > 0.0

    def test_sample_count_floor(self, ex1):
        with pytest.raises(ValueError):
            feasible_domain(ex1.curve, 0.5, 32)

    def test_no_frame_anywhere_is_not_enough_samples(self):
        # No constant is feasible on a curve without a frame; the error says
        # so as classify_curve does, rather than blame the constant.
        for restrict in (feasible_domain,
                         lambda curve, c, n: synthesize_feasible(curve, c, sample_count=n)):
            with pytest.raises(NotEnoughSamplesError) as info:
                restrict(straight_line().curve(), 0.5, 300)
            assert str(info.value) == "only 0 of 300 samples have a defined frame"

    def test_known_infeasible_parameter_splits_its_bracket(self):
        # The infeasible window (1.3625, 3.6959) lies between two of the 256
        # samples, both feasible; synthesis raised at q inside it.
        curve = CurveSpec(*(parse_expression(e, ["s"]) for e in ("cos(s/sqrt(2))", "-(s*s)", "s")),
                          param="s", domain=(-778.1577501817875, 26.48608246329104))
        q = 1.3770088375306158
        plain = feasible_domain(curve, 0.5)
        assert [iv for iv in plain if iv[0] < q < iv[1]] == [pytest.approx((-1.36249, 4.84381))]
        split = feasible_domain(curve, 0.5, infeasible=[q])
        assert len(split) == len(plain) + 1
        assert [iv for iv in split if -2.0 < iv[0] < 4.0] == [
            pytest.approx((-1.36249, 1.36249)), pytest.approx((3.69591, 4.84381))]

    def test_library_synthesis_retries_where_the_command_does(self, monkeypatch, tmp_path,
                                                              capsys):
        # The scan misses the infeasible window (1.3625, 3.6959); synthesis
        # raises inside it, and one retry with that parameter known to be
        # infeasible restricts the curve as `pencil synthesize` does.
        texts, domain = ("cos(s/sqrt(2))", "-(s*s)", "s"), (-778.16, 26.49)
        curve = CurveSpec(*(parse_expression(e, ["s"]) for e in texts),
                          param="s", domain=domain)
        calls = []
        restrict = dcurve.feasible_domain
        monkeypatch.setattr(dcurve, "feasible_domain",
                            lambda *args: calls.append(list(args[3])) or restrict(*args))
        got, _, _ = synthesize_feasible(curve, 0.5)
        assert calls == [[], [1.3770088376500424]]
        assert got.domain == (-1.3624883021640473, 1.3624883015270959)
        cfg = load_preset("example1")
        cfg["curve"].update(dict(zip("xyz", texts)), range=list(domain))
        cfg["marching"] = {"mode": "synthesized", "c": 0.5}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["synthesize", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["curve"]["range"] == list(got.domain)

    @pytest.mark.parametrize("samples", [257, 513])
    def test_eight_inflection_is_a_hole(self, ex3, samples):
        # The eight is planar: its radicand is 1 - c^2 wherever the frame
        # exists, and the inflection sample at pi is no boundary.
        assert feasible_domain(ex3.curve, SQRT3_2, samples) == [ex3.curve.domain]

    def test_eight_synthesizes_unrestricted_at_odd_samples(self, capsys):
        assert main(["synthesize", "--preset", "example3", "--samples", "257"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["curve"]["range"] == [0.0, 2.0 * math.pi]

    def test_hole_on_a_twisted_curve(self):
        curve = q_curve("q", "q^3", "q^5")
        assert feasible_domain(curve, 0.5, 257) == [(-1.0, 1.0)]

    def test_no_hole_between_infeasible_samples(self):
        # tau/kappa ~ 2.5 q vanishes at the inflection q = 0.  At c = 0.99 the
        # samples beside it are feasible and it is a hole; at c = 0.99999 the
        # feasible window around it, (-0.0018, 0.0018), lies inside one sample
        # step.  The inflection sample is still a hole, as its probes are
        # feasible, so both boundaries of the window are bisected toward.
        curve = q_curve("q", "q^3", "q^6")
        assert feasible_domain(curve, 0.99, 257) == [
            (-0.056988871190696955, 0.056988871190696955)]
        assert feasible_domain(curve, 0.99999, 257) == [
            (-0.0017888681031763554, 0.0017888681031763554)]

    def test_window_around_an_inflection_is_kept(self):
        # tau/kappa grows without bound at the inflection q = 0: the
        # infeasible window around it is no hole, and both its boundaries
        # are found as before.
        curve = q_curve("q", "q^3", "0.01*q^4")
        assert feasible_domain(curve, 0.5, 257) == [
            (-1.0, -0.0019245012663304806), (0.0019245012663304806, 1.0)]

    def test_whole_domain_tolerance_is_absolute(self):
        # The Salkowski curve moved to q = 1e8, where a relative tolerance of
        # 1e-9 would be 0.1 wide: its infeasible last 0.05 must still restrict it.
        cfg = load_preset("example4")
        for k in "xyz":
            cfg["curve"][k] = re.sub(r"\bq\b", "(q-1e8)", cfg["curve"][k])
        cfg["curve"]["range"] = [1e8, 1e8 + 2.7198]
        curve, _, intervals = synthesize_feasible(SceneConfig.from_dict(cfg).curve(), SQRT3_2,
                                                  sample_count=256)
        assert intervals is not None
        assert curve.domain[1] == pytest.approx(1e8 + 2.6698377, abs=1e-6)

    def test_adjacent_holes_merge_into_one_window(self):
        # Holes at most 1.5 steps apart share a window; each window reaches one
        # step past its outer holes.
        assert _merge_holes([0.0, 0.25, 0.5, 2.0], 0.25) == [(-0.25, 0.75), (1.75, 2.25)]

    def test_restrict_curve_margin(self, ex4):
        interval = (0.0, 2.0)
        restricted = restrict_curve(ex4.curve, interval)
        lo, hi = restricted.domain
        assert lo > interval[0] and hi < interval[1]
        assert hi - lo > 0.999 * (interval[1] - interval[0])


def assert_same_scale(got, expected):
    """Two synthesized scales agree field for field, bit for bit."""
    assert (got.param, got.t0) == (expected.param, expected.t0)
    a, b = got.form, expected.form
    assert type(a) is type(b)
    if isinstance(a, ProductForm):
        for key in ("l", "m", "n", "U", "V", "W"):
            assert format_expression(getattr(a, key)) == format_expression(getattr(b, key))
        assert a == b
    else:
        for field in ("nodes", "v_values", "g_values"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert (a.sign, a.excluded) == (b.sign, b.excluded)
        assert a.max_interp_error.hex() == b.max_interp_error.hex()


class TestScanIsTheFirstRound:
    # A synthesized scene scans feasibility at the first table round's
    # nodes, and synthesis on the whole curve takes that scan as its first
    # round instead of evaluating the same frames again.

    @pytest.mark.parametrize("name, c, calls", [("example1", 0.5, 1), ("example3", SQRT3_2, 6)])
    def test_frenet_calls_per_synthesize(self, monkeypatch, tmp_path, capsys, name, c, calls):
        # The circle: the scan alone, which is also the closed form's round.
        # The eight: the scan, its inflection probes and the odd nodes of
        # four table rounds.
        args = []
        array_frenet = dcurve.frenet_at

        def spy(curve, q):
            args.append(q)
            return array_frenet(curve, q)

        monkeypatch.setattr(dcurve, "frenet_at", spy)
        cfg = load_preset(name)
        cfg["marching"].update(mode="synthesized", c=c)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["synthesize", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert len(args) == calls
        assert all(isinstance(q, np.ndarray) for q in args)
        assert args[0].size == dcurve._FIRST_TABLE_NODES

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name", preset_names())
    def test_scan_gives_the_same_scale(self, name, sign):
        cfg = SceneConfig.from_dict(load_preset(name))
        c = cfg.to_dict()["marching"]["c"]
        curve, expected, _ = synthesize_feasible(cfg.curve(), c, sign, sample_count=256)
        scan = dcurve.feasibility_scan(curve, c, dcurve._FIRST_TABLE_NODES)
        assert_same_scale(synthesize_marching_scale(curve, c, sign, scan=scan), expected)
        # A scan off the first round's nodes is not that round, and is ignored.
        scan = dcurve.feasibility_scan(curve, c, 256)
        assert_same_scale(synthesize_marching_scale(curve, c, sign, scan=scan), expected)

    def test_feasible_domain_leaves_the_scan_as_it_was(self, ex3):
        # The eight's inflection samples are holes: feasible_domain marks
        # them feasible in its own copy of the scan's flags.
        scan = dcurve.feasibility_scan(ex3.curve, SQRT3_2, 257)
        flags = scan[4].copy()
        assert not flags.all()
        for _ in range(2):
            assert feasible_domain(ex3.curve, SQRT3_2, 257, scan=scan) == [ex3.curve.domain]
            assert scan[4].tobytes() == flags.tobytes()
