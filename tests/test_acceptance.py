"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dpencil.cli import main
from dpencil.dcurve import (
    synthesize_marching_scale,
    verify_dtype,
)
from dpencil.errors import (
    InfeasibleConstantError,
    InflectionPointError,
    IrregularCurveError,
)
from dpencil.expr import evaluate_jet3, parse_expression
from dpencil.frenet import NO_FRAME, classify_curve, frenet_at
from dpencil.pencil import SurfacePencil

from conftest import point_geometry, preset_config, preset_pencil
from oracles import expression_fn, fd_derivatives, random_function_samples

SQRT3_2 = math.sqrt(3.0) / 2.0


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


def restricted(curve, lo, hi):
    from dataclasses import replace

    return replace(curve, domain=(lo, hi))


def test_criterion_1_circle_constant():
    with criterion(1, "circle c=sqrt(3)/2 at 1e-9 in under 1s"):
        pencil = preset_pencil("example1")
        start = time.perf_counter()
        report = verify_dtype(pencil, 1000, 1e-9)
        elapsed = time.perf_counter() - start
        assert abs(report.c_estimate - SQRT3_2) <= 1e-9
        assert report.max_deviation <= 1e-9
        assert elapsed < 1.0, f"verification took {elapsed:.3f}s"


def test_criterion_2_helix_constant():
    with criterion(2, "helix c=1/2 at 1e-9 with kappa=tau=1/2"):
        pencil = preset_pencil("example2")
        report = verify_dtype(pencil, 1000, 1e-9)
        assert abs(report.c_estimate - 0.5) <= 1e-9
        assert report.max_deviation <= 1e-9
        lo, hi = pencil.curve.domain
        for s in np.linspace(lo, hi, 100):
            app = frenet_at(pencil.curve, float(s))
            assert abs(app.kappa - 0.5) <= 1e-10
            assert abs(app.tau - 0.5) <= 1e-10


def test_criterion_3_eight_curve_constant():
    with criterion(3, "eight curve c=sqrt(3)/2 at 1e-6 away from inflections"):
        cfg = preset_config("example3")
        base = cfg.pencil()
        margin = 0.05
        pieces = [
            (margin, math.pi - margin),
            (math.pi + margin, 2 * math.pi - margin),
        ]
        inners = []
        for lo, hi in pieces:
            piece = SurfacePencil(
                restricted(base.curve, lo, hi), base.marching, base.t_range
            )
            report = verify_dtype(piece, 500, 1e-6)
            assert not report.skipped
            inners.extend(smp.inner for smp in report.samples)
        inners = np.array(inners)
        assert np.max(np.abs(inners - SQRT3_2)) <= 1e-6


def test_criterion_4_salkowski():
    with criterion(4, "Salkowski classification and c=sqrt(3)/2 at 1e-6"):
        cfg = preset_config("example4")
        curve = cfg.curve()
        cls = classify_curve(curve, 256, 1e-6)
        assert cls.kind == "Salkowski"
        assert cls.deviation <= 1e-6 * (1.0 + abs(cls.constant))
        # Feasible subdomain with radicand >= 1e-6; the torsion/curvature
        # ratio is tan(q/sqrt(26)), so the boundary solves
        # (1 - 3 tan^2)/4 = 1e-6.
        q1 = math.sqrt(26.0) * math.atan(math.sqrt((1.0 - 4e-6) / 3.0))
        pencil = SurfacePencil(
            restricted(curve, 0.0, q1), cfg.assemble()[0].marching, cfg.t_range
        )
        report = verify_dtype(pencil, 500, 1e-6)
        assert not report.skipped
        assert abs(report.c_estimate - SQRT3_2) <= 1e-6
        assert report.max_deviation <= 1e-6


def _feasibility_bound(curve, samples=128):
    lo, hi = curve.domain
    bound = math.inf
    for q in np.linspace(lo, hi, samples):
        try:
            app = frenet_at(curve, float(q))
        except (InflectionPointError, IrregularCurveError):
            continue
        bound = min(bound, app.kappa / math.hypot(app.kappa, app.tau))
    return bound


def test_criterion_5_round_trip():
    with criterion(5, "synthesize->verify round trip with infeasible rejection"):
        for name in ("example1", "example2", "example3", "example4"):
            cfg = preset_config(name)
            curve = cfg.curve()
            bound = _feasibility_bound(curve)
            for c in (0.0, 0.1, 0.25, -0.25, bound / 2.0):
                if abs(c) >= bound:
                    with pytest.raises(InfeasibleConstantError):
                        synthesize_marching_scale(curve, c)
                    continue
                ms = synthesize_marching_scale(curve, c)
                pencil = SurfacePencil(curve, ms, (0.0, 1.0))
                report = verify_dtype(pencil, 256)
                assert abs(report.c_estimate - c) <= report.tolerance, (name, c)
                assert report.max_deviation <= report.tolerance, (name, c)
            with pytest.raises(InfeasibleConstantError):
                synthesize_marching_scale(curve, bound * 1.5)


def test_criterion_6_geodesic_degeneration():
    with criterion(6, "c=0 synthesis gives |<n,N>| = 1"):
        for name in ("example1", "example2"):
            curve = preset_config(name).curve()
            ms = synthesize_marching_scale(curve, 0.0)
            pencil = SurfacePencil(curve, ms, (0.0, 1.0))
            report = verify_dtype(pencil, 300, 1e-9)
            for smp in report.samples:
                assert abs(smp.phi2) >= 1.0 - 1e-9


def test_criterion_7_property_suites(rng):
    with criterion(7, "frame, jet, and normal property suites"):
        pencils = [preset_pencil(n) for n in
                   ("example1", "example2", "example3", "example4")]
        # Frenet orthonormality <= 1e-10
        for pencil in pencils:
            lo, hi = pencil.curve.domain
            for s in np.linspace(lo + 0.02, hi - 0.02, 250):
                try:
                    app = frenet_at(pencil.curve, float(s))
                except (InflectionPointError, IrregularCurveError):
                    continue
                frame = np.array([app.T, app.N, app.B])
                assert np.max(np.abs(frame @ frame.T - np.eye(3))) <= 1e-10
        # jets vs finite differences <= 1e-6 relative on 1000 random pairs
        samples = random_function_samples(rng, 77)
        assert len(samples) >= 1000
        for source, x in samples:
            jet = evaluate_jet3(parse_expression(source, ["x"]), "x", x)
            fds = fd_derivatives(expression_fn(source), x)
            for got, want in zip((jet.v1, jet.v2, jet.v3), fds):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(got), abs(want))
        # P(s, t0) = r(s) <= 1e-12; <n, T> <= 1e-10; phi2^2 + phi3^2 = 1 <= 1e-10,
        # on the 411 samples with a frame, a marching value and a normal
        checked = 0
        for pencil in pencils:
            lo, hi = pencil.curve.domain
            for s in np.linspace(lo + 0.02, hi - 0.02, 120):
                s = float(s)
                try:
                    at = point_geometry(pencil, s, pencil.t0)
                except NO_FRAME:  # with DomainError: example4's scale is undefined in part
                    continue
                if at.degenerate or at.non_finite:
                    continue
                gap = np.linalg.norm(at.point - pencil.curve.point(s))
                assert gap <= 1e-12
                assert abs(float(np.dot(at.normal, at.frame.T))) <= 1e-10
                phi2 = float(np.dot(at.normal, at.frame.N))
                phi3 = float(np.dot(at.normal, at.frame.B))
                assert abs(phi2 * phi2 + phi3 * phi3 - 1.0) <= 1e-10
                checked += 1
        assert checked >= 411


def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "byte-identical build outputs with full grids"):
        outputs = []
        for _ in range(2):
            code = main(["build", "--preset", "example1", "-o", str(tmp_path)])
            captured = capsys.readouterr()
            assert code == 0
            summary = json.loads(captured.out)
            outputs.append(
                (
                    (tmp_path / "example1.obj").read_bytes(),
                    (tmp_path / "example1.csv").read_bytes(),
                    summary,
                )
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][2] == outputs[1][2]
        obj_lines = outputs[0][0].decode("ascii").splitlines()
        vertices = sum(1 for ln in obj_lines if ln.startswith("v "))
        faces = sum(1 for ln in obj_lines if ln.startswith("f "))
        assert vertices == 200 * 50
        assert faces == 199 * 49
