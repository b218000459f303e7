import math

import numpy as np
import pytest

from dpencil.errors import InvalidMarchingScaleError
from dpencil.expr import parse_expression
from dpencil.frenet import NO_FRAME, frenet_at
from dpencil.pencil import (
    GeneralForm,
    MarchingScale,
    MarchingValues,
    SurfacePencil,
    _norm,
    marching_values,
    stack_frames,
    surface_normals,
)

from conftest import point_geometry, preset_config, preset_pencil

SQRT3_2 = math.sqrt(3.0) / 2.0


def general_scale(u, v, w, param="s", controls=(1.0, 1.0, 1.0), t0=0.0):
    names = [param, "t"]
    form = GeneralForm(
        u=parse_expression(u, names),
        v=parse_expression(v, names),
        w=parse_expression(w, names),
        controls=controls,
    )
    return MarchingScale(form=form, param=param, t0=t0)


class TestMarchingValues:
    def test_example1_at_base(self, ex1):
        mv = marching_values(ex1.marching, 1.3, 0.0)
        assert (mv.u, mv.v, mv.w) == (0.0, 0.0, 0.0)
        assert (mv.u_s, mv.v_s, mv.w_s) == (0.0, 0.0, 0.0)
        assert mv.u_t == pytest.approx(1.0, abs=1e-15)
        assert mv.v_t == pytest.approx(SQRT3_2, abs=1e-15)
        assert mv.w_t == pytest.approx(0.5, abs=1e-15)

    def test_example1_linear_in_t(self, ex1):
        mv = marching_values(ex1.marching, -0.4, 2.0)
        assert mv.u == pytest.approx(2.0, abs=1e-15)
        assert mv.v == pytest.approx(math.sqrt(3.0), abs=1e-15)
        assert mv.w == pytest.approx(1.0, abs=1e-15)

    def test_controls_scale_components(self):
        cfg = preset_config("example1b")  # controls (1/5, 1/3, 1)
        mv = marching_values(cfg.assemble()[1], 0.7, 2.0)
        assert mv.u == pytest.approx(2.0 / 5.0, abs=1e-15)
        assert mv.v == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-15)
        assert mv.w == pytest.approx(1.0, abs=1e-15)

    def test_general_form_partials(self):
        ms = general_scale("s*t", "t^2", "t")
        mv = marching_values(ms, 2.0, 3.0)
        assert (mv.u, mv.v, mv.w) == (6.0, 9.0, 3.0)
        assert (mv.u_s, mv.v_s, mv.w_s) == (3.0, 0.0, 0.0)
        assert (mv.u_t, mv.v_t, mv.w_t) == (2.0, 6.0, 1.0)


class TestSurfacePoint:
    def test_reproduces_curve_at_t0(self, ex1, ex2, ex3):
        for pencil in (ex1, ex2, ex3):
            lo, hi = pencil.curve.domain
            for s in np.linspace(lo + 0.01, hi - 0.01, 50):
                gap = np.linalg.norm(
                    point_geometry(pencil, float(s), 0.0).point - pencil.curve.point(float(s))
                )
                assert gap <= 1e-12

    def test_example1_hand_value(self, ex1):
        # P(0, 1) = r(0) + 1*T + (sqrt3/2) N + (1/2) B with frame
        # T=(0,1,0), N=(-1,0,0), B=(0,0,1).
        got = point_geometry(ex1, 0.0, 1.0).point
        assert np.allclose(got, [1.0 - SQRT3_2, 1.0, 0.5], atol=1e-15)

    def test_zero_scale_collapses_to_curve(self, ex1):
        pencil = SurfacePencil(ex1.curve, general_scale("0", "0", "0"), (0.0, 1.0))
        at = point_geometry(pencil, 0.7, 0.9)
        assert np.allclose(at.point, pencil.curve.point(0.7))
        assert at.degenerate and not at.non_finite
        assert not at.normal.any()


class TestSurfacePartials:
    def test_example1_at_base(self, ex1):
        _, _, d_s, d_t, *_ = point_geometry(ex1, 0.0, 0.0)
        app = frenet_at(ex1.curve, 0.0)
        assert np.allclose(d_s, app.T, atol=1e-14)
        expected_dt = app.T + SQRT3_2 * app.N + 0.5 * app.B
        assert np.allclose(d_t, expected_dt, atol=1e-14)

    def test_speed_factor_at_base(self, ex3):
        for q in (0.5, 1.0, 2.5):
            d_s = point_geometry(ex3, q, 0.0).d_s
            app = frenet_at(ex3.curve, q)
            assert np.allclose(d_s, app.rho * app.T, atol=1e-12)

    def test_matches_finite_differences(self, rng, ex1, ex2, ex3):
        h = 1e-5
        for pencil in (ex1, ex2, ex3):
            lo, hi = pencil.curve.domain
            t_lo, t_hi = pencil.t_range
            for _ in range(34):
                s = float(rng.uniform(lo + 0.1, hi - 0.1))
                t = float(rng.uniform(t_lo + 0.01, t_hi - 0.01))
                _, _, d_s, d_t, *_ = point_geometry(pencil, s, t)
                fd_s = (point_geometry(pencil, s + h, t).point
                        - point_geometry(pencil, s - h, t).point) / (2 * h)
                fd_t = (point_geometry(pencil, s, t + h).point
                        - point_geometry(pencil, s, t - h).point) / (2 * h)
                scale_s = max(1.0, float(np.linalg.norm(d_s)))
                scale_t = max(1.0, float(np.linalg.norm(d_t)))
                assert np.max(np.abs(d_s - fd_s)) <= 1e-6 * scale_s
                assert np.max(np.abs(d_t - fd_t)) <= 1e-6 * scale_t


class TestSurfaceNormal:
    def test_example1_at_base(self, ex1):
        got = point_geometry(ex1, 0.0, 0.0).normal
        assert np.allclose(got, [0.5, 0.0, SQRT3_2], atol=1e-14)

    def test_tangency_along_curve(self, ex1, ex2, ex3, ex4):
        checked = 0
        for pencil in (ex1, ex2, ex3, ex4):
            lo, hi = pencil.curve.domain
            for s in np.linspace(lo + 0.05, hi - 0.05, 60):
                try:
                    at = point_geometry(pencil, float(s), 0.0)
                except NO_FRAME:  # with DomainError: example4's scale is undefined in part
                    continue
                if at.degenerate or at.non_finite:
                    continue
                assert abs(float(np.dot(at.normal, at.frame.T))) <= 1e-10
                checked += 1
        assert checked >= 205

    def test_normal_components_unit(self, ex1, ex2, ex3):
        checked = 0
        for pencil in (ex1, ex2, ex3):
            lo, hi = pencil.curve.domain
            for s in np.linspace(lo + 0.05, hi - 0.05, 40):
                try:
                    at = point_geometry(pencil, float(s), 0.0)
                except NO_FRAME:
                    continue
                if at.degenerate or at.non_finite:
                    continue
                phi2 = float(np.dot(at.normal, at.frame.N))
                phi3 = float(np.dot(at.normal, at.frame.B))
                assert abs(phi2 * phi2 + phi3 * phi3 - 1.0) <= 1e-10
                checked += 1
        assert checked >= 120

    def test_surface_normals_reason_precedence(self, ex1):
        # One case per row: no frame beats an undefined marching scale,
        # which beats a borrowed frame, which beats the normal's own defects.
        framed = np.array([False, True, True, True, True, True, True])
        frame_reason = np.array(["inflection", "", "inflection", "inflection", "", "", ""])
        ok = np.array([False, False, False, True, True, True, True])
        app = ex1.frame(0.5)
        frame = stack_frames([None if f else app for f in ~framed])
        fields = np.tile(marching_values(ex1.marching, 0.5, 1.0), (7, 1))
        fields[4, 7] = math.inf  # v_t
        fields[5, 6:] = 0.0  # u_t, v_t, w_t: dP/dt vanishes
        mv = MarchingValues(*fields.T)
        with np.errstate(all="ignore"):  # inf * 0 in the partials of row 4
            normals, reason = surface_normals(frame, framed, frame_reason, mv, ok)
        assert reason.tolist() == ["inflection", "domain", "domain", "inflection",
                                   "non_finite", "degenerate_normal", ""]
        assert not normals[:6].any()
        assert np.array_equal(normals[6], point_geometry(ex1, 0.5, 1.0, app).normal)

    def test_norm_past_overflowing_squares(self):
        # The squares of the first row overflow while its norm does not: it
        # takes the hypot norm.  The other rows keep sqrt(vecdot), bit for bit.
        x = np.array([[3e200, 4e200, 0.0], [1.0, 2.0, 2.0], [0.1, 0.2, 0.3]])
        with np.errstate(over="ignore"):
            n = _norm(x)
        assert n[0] == pytest.approx(5e200, rel=1e-15)
        assert n[1:].tobytes() == np.sqrt(np.vecdot(x[1:], x[1:])).tobytes()
        assert _norm(x[1:]).tobytes() == n[1:].tobytes()


class TestConstruction:
    def test_isoparametric_requirement_enforced(self, ex1):
        with pytest.raises(InvalidMarchingScaleError):
            SurfacePencil(ex1.curve, general_scale("t + 1", "0", "t"), (0.0, 1.0))

    def test_scale_undefined_at_every_check(self, ex1):
        with pytest.raises(InvalidMarchingScaleError) as info:
            SurfacePencil(ex1.curve, general_scale("sqrt(-1-s*s)*t", "0", "t"), (0.0, 1.0))
        assert str(info.value) == ("marching-scale functions are undefined at every "
                                   "checked parameter")

    def test_t0_must_lie_in_range(self, ex1):
        with pytest.raises(InvalidMarchingScaleError):
            SurfacePencil(ex1.curve, general_scale("t", "t", "t", t0=2.0), (0.0, 1.0))

    def test_param_mismatch(self, ex1):
        with pytest.raises(InvalidMarchingScaleError):
            SurfacePencil(ex1.curve, general_scale("t", "t", "t", param="q"), (0.0, 1.0))

    def test_nonzero_t0(self, ex1):
        ms = general_scale("t - 1", "(t - 1)^2", "0", t0=1.0)
        pencil = SurfacePencil(ex1.curve, ms, (0.0, 2.0))
        assert np.allclose(
            point_geometry(pencil, 0.3, 1.0).point, pencil.curve.point(0.3), atol=1e-15
        )
