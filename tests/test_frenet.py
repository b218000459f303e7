import math
import warnings

import numpy as np
import pytest

from dpencil.errors import (
    InflectionPointError,
    InvalidCurveError,
    IrregularCurveError,
    NonFiniteCurveError,
    NotEnoughSamplesError,
)
from dpencil.expr import evaluate, parse_expression
from dpencil.frenet import (
    ANTI_SALKOWSKI,
    GENERAL_HELIX,
    GENERIC,
    PLANAR,
    SALKOWSKI,
    CurveSpec,
    classify_curve,
    classify_from_samples,
    frenet_at,
)

from conftest import preset_config
from oracles import fd_derivatives


def make_curve(x, y, z, param="q", domain=(0.0, 2.0 * math.pi), unit_speed=False):
    return CurveSpec(
        x=parse_expression(x, [param]),
        y=parse_expression(y, [param]),
        z=parse_expression(z, [param]),
        param=param,
        domain=domain,
        unit_speed=unit_speed,
    )


CIRCLE = make_curve("cos(s)", "sin(s)", "0", param="s",
                    domain=(-2 * math.pi, 2 * math.pi), unit_speed=True)
HELIX = make_curve("cos(s/sqrt(2))", "sin(s/sqrt(2))", "s/sqrt(2)", param="s",
                   domain=(-2 * math.pi, 2 * math.pi), unit_speed=True)
EIGHT = make_curve("sin(q)", "sin(q)*cos(q)", "0")


class TestCurveJets:
    def test_circle_taylor(self):
        jx, jy, jz = CIRCLE.jets(0.0)
        assert (jx.v0, jx.v1, jx.v2, jx.v3) == (1.0, 0.0, -1.0, 0.0)
        assert (jy.v0, jy.v1, jy.v2, jy.v3) == (0.0, 1.0, 0.0, -1.0)
        assert (jz.v0, jz.v1, jz.v2, jz.v3) == (0.0, 0.0, 0.0, 0.0)

    def test_line_identity_jet(self):
        line = make_curve("q", "0", "0", domain=(0.0, 10.0))
        jx, _, _ = line.jets(5.0)
        assert (jx.v0, jx.v1, jx.v2, jx.v3) == (5.0, 1.0, 0.0, 0.0)

    def test_eight_y_jet(self):
        # Oracle: y = sin q cos q = sin(2q)/2, so at q=0 the derivatives are
        # (0, cos 0, -2 sin 0, -4 cos 0) = (0, 1, 0, -4); cross-checked below
        # by finite differences of the plain evaluator.
        _, jy, _ = EIGHT.jets(0.0)
        assert (jy.v0, jy.v1) == (0.0, 1.0)
        assert jy.v2 == pytest.approx(0.0, abs=1e-15)
        assert jy.v3 == pytest.approx(-4.0, rel=1e-12)
        y = parse_expression("sin(q)*cos(q)", ["q"])
        fd1, fd2, fd3 = fd_derivatives(lambda q: evaluate(y, {"q": q}), 0.0)
        assert jy.v1 == pytest.approx(fd1, abs=1e-8)
        assert jy.v2 == pytest.approx(fd2, abs=1e-7)
        assert jy.v3 == pytest.approx(fd3, abs=1e-5)


class TestFrenetAt:
    def test_circle_frame(self):
        app = frenet_at(CIRCLE, 0.0)
        assert np.allclose(app.T, [0.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(app.N, [-1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(app.B, [0.0, 0.0, 1.0], atol=1e-15)
        assert app.kappa == pytest.approx(1.0, abs=1e-14)
        assert app.tau == 0.0
        assert app.rho == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(app.W0, app.B, atol=1e-14)

    def test_helix_constants(self):
        for s in np.linspace(-2 * math.pi, 2 * math.pi, 25):
            app = frenet_at(HELIX, float(s))
            assert app.kappa == pytest.approx(0.5, abs=1e-12)
            assert app.tau == pytest.approx(0.5, abs=1e-12)
            assert app.rho == pytest.approx(1.0, abs=1e-12)

    def test_eight_inflection(self):
        # r' x r'' vanishes at q = 0 (oracle: r' = (1,1,0), r'' = (0,0,0)).
        jx, jy, jz = EIGHT.jets(0.0)
        d1 = np.array([jx.v1, jy.v1, jz.v1])
        d2 = np.array([jx.v2, jy.v2, jz.v2])
        assert np.allclose(np.cross(d1, d2), 0.0, atol=1e-14)
        with pytest.raises(InflectionPointError):
            frenet_at(EIGHT, 0.0)

    def test_irregular_point(self):
        cusp = make_curve("q^2", "0", "0", domain=(-1.0, 1.0))
        with pytest.raises(IrregularCurveError):
            frenet_at(cusp, 0.0)

    def test_unit_speed_declaration_enforced(self):
        bad = make_curve("cos(2*s)", "sin(2*s)", "0", param="s",
                         domain=(0.0, 3.0), unit_speed=True)
        with pytest.raises(InvalidCurveError):
            frenet_at(bad, 1.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidCurveError):
            make_curve("q", "q", "q", domain=(1.0, 1.0))

    def test_foreign_variable_rejected(self):
        with pytest.raises(InvalidCurveError) as info:
            CurveSpec(x=parse_expression("q", ["q"]), y=parse_expression("a*q", ["q", "a"]),
                      z=parse_expression("0", []), param="q", domain=(0.0, 1.0))
        assert str(info.value) == "coordinate y references variables ['a'] other than 'q'"

    @pytest.mark.parametrize("x, y, z, q", [
        ("q", "1e308*q*q", "0", 1.0),  # y' = 2e308 overflows
        ("-5*q^2", "q", "1.5e307*q^3", 0.0),  # finite derivatives, tau = 9e308/100
    ], ids=["derivative", "torsion"])
    def test_non_finite_apparatus(self, x, y, z, q):
        with pytest.raises(NonFiniteCurveError):
            frenet_at(make_curve(x, y, z, domain=(-1.0, 2.0)), q)


class TestDarbouxUnit:
    # W0 = (tau T + kappa B) / sqrt(kappa^2 + tau^2), read off frenet_at.

    def test_planar_collapses_to_binormal(self):
        for s in np.linspace(-2 * math.pi, 2 * math.pi, 9):
            app = frenet_at(CIRCLE, float(s))
            assert np.allclose(app.W0, app.B, atol=1e-14)

    def test_equal_curvature_torsion(self):
        # HELIX has kappa = tau = 1/2.
        for s in np.linspace(-2 * math.pi, 2 * math.pi, 9):
            app = frenet_at(HELIX, float(s))
            assert np.allclose(app.W0, (app.T + app.B) / math.sqrt(2), atol=1e-12)

    def test_three_four_five(self):
        # (3 cos s, 3 sin s, 4 s): speed 5, kappa = 3/25, tau = 4/25.
        helix = make_curve("3*cos(s)", "3*sin(s)", "4*s", param="s", domain=(0.0, 6.0))
        for s in np.linspace(0.0, 6.0, 7):
            app = frenet_at(helix, float(s))
            assert app.kappa == pytest.approx(3 / 25, abs=1e-14)
            assert app.tau == pytest.approx(4 / 25, abs=1e-14)
            assert np.allclose(app.W0, 0.8 * app.T + 0.6 * app.B, atol=1e-14)


class TestClassification:
    def test_circle_planar(self):
        cls = classify_curve(CIRCLE, 64, 1e-9)
        assert cls.kind == PLANAR
        assert cls.constant == 0.0
        assert cls.deviation <= 1e-12

    def test_helix(self):
        cls = classify_curve(HELIX, 64, 1e-9)
        assert cls.kind == GENERAL_HELIX
        assert cls.constant == pytest.approx(1.0, abs=1e-10)

    def test_salkowski_preset(self):
        curve = preset_config("example4").curve()
        cls = classify_curve(curve, 256, 1e-6)
        assert cls.kind == SALKOWSKI
        assert cls.constant == pytest.approx(1.0, rel=1e-9)
        assert cls.deviation <= 1e-6 * (1.0 + cls.constant)

    def test_twisted_cubic_generic(self):
        cubic = make_curve("q", "q^2", "q^3", domain=(0.5, 2.0))
        assert classify_curve(cubic, 64, 1e-6).kind == GENERIC

    def test_eight_planar_with_skips(self):
        # Skips are counted in the result, not warned about.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cls = classify_curve(EIGHT, 65, 1e-9)
        assert cls.kind == PLANAR
        assert cls.skipped >= 1

    def test_line_has_no_frames(self):
        line = make_curve("q", "0", "0", domain=(0.0, 1.0))
        with pytest.raises(NotEnoughSamplesError):
            classify_curve(line, 16, 1e-9)

    def test_decision_table(self):
        ones = np.ones(32)
        varying = np.linspace(1.0, 2.0, 32)
        wild = np.sin(np.linspace(0.0, 3.0, 32)) + 1.5
        assert classify_from_samples(varying, np.zeros(32), 1e-9).kind == PLANAR
        got = classify_from_samples(varying, 2.0 * varying, 1e-9)
        assert got.kind == GENERAL_HELIX and got.constant == pytest.approx(2.0)
        got = classify_from_samples(ones, varying, 1e-9)
        assert got.kind == SALKOWSKI and got.constant == pytest.approx(1.0)
        got = classify_from_samples(wild, 0.5 * np.ones(32), 1e-9)
        assert got.kind == ANTI_SALKOWSKI and got.constant == pytest.approx(0.5)
        assert classify_from_samples(wild, varying, 1e-9).kind == GENERIC
        # priority: a circle is both planar and constant-curvature
        assert classify_from_samples(ones, np.zeros(32), 1e-9).kind == PLANAR

    def test_generic_deviation_is_the_largest_relative_spread(self):
        # kappa spread 1/2.5, tau spread 2/3, tau/kappa spread 0.5/2.25
        got = classify_from_samples([1.0, 2.0], [1.0, 3.0], 1e-9)
        assert got.kind == GENERIC
        assert got.deviation == pytest.approx(2.0 / 3.0, rel=1e-15)
        got = classify_from_samples([1.0, 4.0], [1.0, 1.5], 1e-9)
        assert got.deviation == pytest.approx(3.0 / 3.5, rel=1e-15)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            classify_curve(CIRCLE, 4, 1e-9)


def _preset_curves():
    return [preset_config(name).curve() for name in
            ("example1", "example2", "example3", "example4")]


def _safe_params(curve, count):
    lo, hi = curve.domain
    out = []
    for q in np.linspace(lo + 1e-3, hi - 1e-3, count):
        try:
            frenet_at(curve, float(q))
        except (InflectionPointError, IrregularCurveError):
            continue
        out.append(float(q))
    return out


class TestFrameInvariants:
    def test_orthonormality(self):
        for curve in _preset_curves():
            for q in _safe_params(curve, 250):
                app = frenet_at(curve, q)
                gram = np.array([app.T, app.N, app.B]) @ np.array([app.T, app.N, app.B]).T
                assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
                assert np.allclose(np.cross(app.T, app.N), app.B, atol=1e-10)

    def test_darboux_in_rectifying_plane(self):
        for curve in _preset_curves():
            for q in _safe_params(curve, 100):
                app = frenet_at(curve, q)
                assert abs(float(np.dot(app.W0, app.N))) <= 1e-12
                assert abs(np.linalg.norm(app.W0) - 1.0) <= 1e-10

    def test_frenet_equations_by_finite_differences(self):
        h = 1e-5
        for curve in _preset_curves():
            for q in _safe_params(curve, 40):
                lo, hi = curve.domain
                if q - h < lo or q + h > hi:
                    continue
                try:
                    plus = frenet_at(curve, q + h)
                    minus = frenet_at(curve, q - h)
                except (InflectionPointError, IrregularCurveError):
                    continue
                app = frenet_at(curve, q)
                if np.dot(plus.N, minus.N) < 0:  # frame flip across an inflection
                    continue
                dT = (plus.T - minus.T) / (2 * h) / app.rho
                dB = (plus.B - minus.B) / (2 * h) / app.rho
                assert np.max(np.abs(dT - app.kappa * app.N)) <= 1e-5
                assert np.max(np.abs(dB + app.tau * app.N)) <= 1e-5

    def test_unit_speed_formulas_agree(self):
        # For declared unit-speed curves kappa = |r''| and
        # tau = det(r', r'', r''') / |r''|^2.
        for curve in (CIRCLE, HELIX):
            for q in np.linspace(curve.domain[0], curve.domain[1], 100):
                jx, jy, jz = curve.jets(float(q))
                d1 = np.array([jx.v1, jy.v1, jz.v1])
                d2 = np.array([jx.v2, jy.v2, jz.v2])
                d3 = np.array([jx.v3, jy.v3, jz.v3])
                app = frenet_at(curve, float(q))
                assert app.kappa == pytest.approx(np.linalg.norm(d2), abs=1e-10)
                tau_unit = float(np.dot(np.cross(d1, d2), d3)) / float(
                    np.dot(d2, d2)
                )
                assert app.tau == pytest.approx(tau_unit, abs=1e-10)
