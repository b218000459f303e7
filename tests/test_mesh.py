import collections
import dataclasses
import io
import math

import numpy as np
import pytest

from dpencil.dcurve import (
    DTypeReport,
    DTypeSample,
    synthesize_marching_scale,
    verify_dtype,
)
from dpencil.errors import (
    DegenerateNormalError,
    DomainError,
    InflectionPointError,
    IrregularCurveError,
    NonFiniteNormalError,
)
from dpencil.frenet import FrenetApparatus, frenet_at
from dpencil.mesh import MeshDefect, SurfaceMesh, sample_grid, write_obj, write_report_csv
from dpencil.pencil import (
    MarchingValues,
    SurfacePencil,
    TabulatedProductForm,
    marching_grid,
    marching_values,
)
from dpencil.presets import load_preset
from dpencil.scene import SceneConfig

from conftest import preset_config, preset_pencil
from oracles import read_csv_report, read_obj

SQRT3_2 = math.sqrt(3.0) / 2.0


def obj_bytes(mesh):
    sink = io.BytesIO()
    write_obj(mesh, sink)
    return sink.getvalue()


def csv_bytes(report):
    sink = io.BytesIO()
    write_report_csv(report, sink)
    return sink.getvalue()


class TestSampleGrid:
    def test_minimal_grid(self, ex1):
        mesh = sample_grid(ex1, 2, 2)
        assert mesh.positions.shape == (4, 3)
        assert mesh.faces.shape == (1, 4)
        # the t = t0 edge lies on the circle
        for i, s in enumerate(np.linspace(*ex1.curve.domain, 2)):
            gap = np.linalg.norm(mesh.positions[i * 2] - ex1.curve.point(float(s)))
            assert gap <= 1e-12

    def test_corner_vertex_value(self, ex1):
        # 5 x 3 grid includes s = 0; the (s, t) = (0, 5) vertex equals
        # r(0) + 5 T + 5 (sqrt3/2) N + (5/2) B.
        mesh = sample_grid(ex1, 5, 3)
        app = frenet_at(ex1.curve, 0.0)
        expected = (
            ex1.curve.point(0.0) + 5 * app.T + 5 * SQRT3_2 * app.N + 2.5 * app.B
        )
        got = mesh.positions[2 * 3 + 2]
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(expected, [1 - 5 * SQRT3_2, 5.0, 2.5], atol=1e-12)

    def test_grid_shape_counts(self, ex2):
        mesh = sample_grid(ex2, 7, 4)
        assert mesh.positions.shape == (28, 3)
        assert mesh.normals.shape == (28, 3)
        assert mesh.faces.shape == (18, 4)
        assert not mesh.defects
        lens = np.linalg.norm(mesh.normals, axis=1)
        assert np.max(np.abs(lens - 1.0)) <= 1e-8

    def test_eight_curve_inflection_columns(self, ex3):
        # 9 nodes over [0, 2pi] hit q = 0, pi, 2pi where the frame is undefined.
        mesh = sample_grid(ex3, 9, 4)
        defect_s = {round(d.s, 6) for d in mesh.defects}
        assert round(0.0, 6) in defect_s
        assert round(math.pi, 6) in defect_s
        assert round(2 * math.pi, 6) in defect_s
        for d in mesh.defects:
            assert d.reason == "inflection"
            assert np.allclose(mesh.normals[d.index], 0.0)
            assert np.all(np.isfinite(mesh.positions[d.index]))

    def test_salkowski_domain_defects(self, ex4):
        # Beyond the feasibility boundary the marching sqrt is undefined;
        # those vertices keep the curve point and are reported.
        mesh = sample_grid(ex4, 24, 3)
        reasons = {d.reason for d in mesh.defects}
        assert "domain" in reasons
        boundary = math.sqrt(26.0) * math.pi / 6.0
        for d in mesh.defects:
            if d.reason == "domain":
                assert d.s > boundary - 1e-6
                assert np.allclose(
                    mesh.positions[d.index], ex4.curve.point(d.s), atol=1e-12
                )

    def test_bad_sizes(self, ex1):
        with pytest.raises(ValueError):
            sample_grid(ex1, 1, 5)

    def test_no_scalar_frenet_call(self, monkeypatch):
        # 17 nodes over [0, 2pi] hit the inflections at 0, pi and 2pi, whose
        # nudged frames come from an array call too.
        array_q = []

        def counting(curve, q):
            array_q.append(isinstance(q, np.ndarray))
            return frenet_at(curve, q)

        monkeypatch.setattr("dpencil.mesh.frenet_at", counting)
        sample_grid(preset_pencil("example3"), 17, 6)
        assert array_q and all(array_q), f"{array_q.count(False)} scalar calls"


def explicit_pencil(name, t_range=None, **explicit):
    """Preset ``name`` with its explicit marching block replaced."""
    cfg = load_preset(name)
    if explicit:
        cfg["marching"]["explicit"] = explicit
    if t_range is not None:
        cfg["grid"]["t_range"] = list(t_range)
    return SceneConfig.from_dict(cfg).pencil()


def curve_pencil(curve, **explicit):
    """Preset example1 (marching scale unchanged unless given) over ``curve``."""
    cfg = load_preset("example1")
    cfg["curve"] = curve
    if explicit:
        cfg["marching"]["explicit"] = explicit
    return SceneConfig.from_dict(cfg).pencil()


STRAIGHT_LINE = {"x": "s", "y": "0", "z": "0", "param": "s", "range": [0.0, 1.0]}
# An inflection at s = 0 whose frame is borrowed from s - nudge: z is
# undefined past s = 1e-6, so at s + nudge = 2e-6 and on every s > 0 column.
CUBIC_CUT_AFTER_INFLECTION = {"x": "s", "y": "s^3", "z": "0*sqrt(1e-6-s)", "param": "s",
                              "range": [-1.0, 1.0]}


def synthesized_pencil():
    curve = preset_config("example3").curve()
    ms = synthesize_marching_scale(curve, 0.3)
    assert isinstance(ms.form, TabulatedProductForm)
    return SurfacePencil(curve, ms, (0.0, 1.0))


def per_vertex_grid(p, ns, nt):
    """``sample_grid`` one vertex at a time through ``SurfacePencil.point``
    and ``normal``: (positions, normals, {index: reason})."""
    s_lo, s_hi = p.curve.domain
    nudge = 1e-6 * (s_hi - s_lo)
    ts = np.linspace(*p.t_range, nt).tolist()
    positions = np.zeros((ns * nt, 3))
    normals = np.zeros((ns * nt, 3))
    curve_points = np.zeros((ns, 3))
    reasons = {}
    for i, s in enumerate(np.linspace(s_lo, s_hi, ns).tolist()):
        frame, column = None, None
        try:
            frame = p.frame(s)
        except InflectionPointError:
            column = "inflection"
            for cand in (s + nudge, s - nudge):
                try:
                    frame = frenet_at(p.curve, cand)
                    break
                except (InflectionPointError, IrregularCurveError, DomainError):
                    continue
        except IrregularCurveError:
            column = "irregular"
        except DomainError:
            column = "domain"
        try:
            r = curve_points[i] = p.curve.point(s)
        except DomainError:
            r = np.zeros(3)
            if frame is not None:
                frame, column = None, "domain"
        for j, t in enumerate(ts):
            k = i * nt + j
            positions[k] = r
            if frame is None:
                reasons[k] = column
                continue
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    positions[k] = p.point(s, t, frame)
            except DomainError:
                reasons[k] = "domain"
                continue
            if column is not None:
                reasons[k] = column
                continue
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    normals[k] = p.normal(s, t, frame)
            except DegenerateNormalError:
                reasons[k] = "degenerate_normal"
            except NonFiniteNormalError:
                reasons[k] = "non_finite"
    # Positions stay finite: one that overflowed falls back to its curve
    # point, or to the origin, as a non_finite defect.
    for k in np.flatnonzero(~np.isfinite(positions).all(axis=1)).tolist():
        r = curve_points[k // nt]
        positions[k] = r if np.isfinite(r).all() else 0.0
        normals[k] = 0.0
        reasons[k] = "non_finite"
    return positions, normals, reasons


GRID_CASES = {
    # U is undefined for t > 1: whole rows are domain defects.
    "product_row_domain": (lambda: explicit_pencil(
        "example1", (0.0, 2.0), l="1", m="1", n="1",
        U="t*sqrt(1-t)", V="sqrt(3)/2*t", W="t/2"), 13, 9),
    # sqrt of the marching scale undefined past the feasibility boundary.
    "example4_domain_columns": (lambda: preset_pencil("example4"), 24, 7),
    # 17 nodes over [0, 2pi] hit the inflections at 0, pi and 2pi.
    "example3_inflection_columns": (lambda: preset_pencil("example3"), 17, 6),
    # Bivariate, undefined where s t > 1.
    "general_form": (lambda: explicit_pencil(
        "example1", u="t*cos(s)", v="sqrt(3)/2*t", w="t*sqrt(1-s*t)"), 11, 8),
    # Powers of the fixed variable: a base constant at every point.
    "general_form_power": (lambda: explicit_pencil(
        "example1", u="t^2*cos(s)", v="sqrt(3)/2*t", w="t*sqrt(1-s*t)"), 11, 8),
    # s^400 overflows past |s| = 5.9 to inf, as a product does, where s is
    # fixed or the variable: those positions fall back as non_finite defects.
    "general_form_power_overflow": (lambda: explicit_pencil(
        "example1", u="1e-300*s^400*t", v="t", w="t*sqrt(1-s*t)"), 23, 5),
    # A negative integer power: the array kernel divides by the power.
    "general_form_negative_power": (lambda: explicit_pencil(
        "example1", u="t*cos(s)*(1+t)^(-2)", v="sqrt(3)/2*t", w="t*sqrt(1-s*t)"), 11, 8),
    # The base of a negative power is zero on the row t = 1: a constant
    # base where s is the variable, a varying one where t is.
    "general_form_negative_power_zero_base": (lambda: explicit_pencil(
        "example1", (0.0, 2.0), u="t*cos(s)*(1-t)^(-3)", v="sqrt(3)/2*t", w="t/2"), 11, 9),
    "tabulated": (synthesized_pencil, 9, 14),
    # Curvature zero everywhere: every column is an inflection, and so is
    # each nudged parameter.
    "straight_line": (lambda: curve_pencil(STRAIGHT_LINE), 7, 4),
    "inflection_framed_below_5x3": (lambda: curve_pencil(CUBIC_CUT_AFTER_INFLECTION), 5, 3),
    "inflection_framed_below_9x4": (lambda: curve_pencil(CUBIC_CUT_AFTER_INFLECTION), 9, 4),
}


class TestGridMatchesPerVertex:
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_bit_for_bit(self, case):
        make, ns, nt = GRID_CASES[case]
        p = make()
        mesh = sample_grid(p, ns, nt)
        positions, normals, reasons = per_vertex_grid(p, ns, nt)
        assert reasons, "every case exercises at least one defect"
        assert mesh.positions.tobytes() == positions.tobytes()
        assert mesh.normals.tobytes() == normals.tobytes()
        assert {d.index: d.reason for d in mesh.defects} == reasons
        ss = np.linspace(*p.curve.domain, ns)
        ts = np.linspace(*p.t_range, nt)
        for d in mesh.defects:
            assert (d.s, d.t) == (ss[d.index // nt], ts[d.index % nt])

    def test_straight_line_has_no_frame(self):
        mesh = sample_grid(curve_pencil(STRAIGHT_LINE), 7, 4)
        assert [d.reason for d in mesh.defects] == ["inflection"] * 28
        assert not mesh.normals.any()

    def test_faces_walk_the_grid(self):
        mesh = sample_grid(preset_pencil("example1"), 4, 3)
        expected = [(i * 3 + j, (i + 1) * 3 + j, (i + 1) * 3 + j + 1, i * 3 + j + 1)
                    for i in range(3) for j in range(2)]
        assert mesh.faces.dtype == np.int64
        assert mesh.faces.tolist() == [list(q) for q in expected]


class TestMarchingGridMatchesPoint:
    """``marching_grid`` against ``marching_values`` field by field, on the
    grid ``sample_grid`` takes: every field compares as bytes, so a signed
    zero counts, and undefined entries are +0.0 where the point call raises."""

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_every_field_bit_for_bit(self, case):
        make, ns, nt = GRID_CASES[case]
        p = make()
        ss = np.linspace(*p.curve.domain, ns)
        ts = np.linspace(*p.t_range, nt)
        grid, ok = marching_grid(p.marching, ss, ts)
        expected = np.zeros((len(MarchingValues._fields), ns, nt))
        defined = np.zeros((ns, nt), dtype=bool)
        for i, s in enumerate(ss.tolist()):
            for j, t in enumerate(ts.tolist()):
                try:
                    expected[:, i, j] = marching_values(p.marching, s, t)
                except DomainError:
                    continue
                defined[i, j] = True
        assert ok.tolist() == defined.tolist()
        for name, field, want in zip(MarchingValues._fields, grid, expected):
            assert field.shape == (ns, nt), name
            assert field.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("case, s, t, where, message", [
        ("product_row_domain", 0.5, 1.5, "sqrt(1-t)", "sqrt of negative value -0.5"),
        ("general_form", 2.0, 1.0, "sqrt(1-s*t)", "sqrt of negative value -1.0"),
    ])
    def test_point_raises_the_expression_error(self, case, s, t, where, message):
        p = GRID_CASES[case][0]()
        with pytest.raises(DomainError) as got:
            marching_values(p.marching, s, t)
        assert (got.value.message, got.value.where) == (message, where)
        assert str(got.value) == f"{message} in {where!r}"
        assert not marching_grid(p.marching, [s], [t])[1].any()


class TestNonFiniteNormals:
    def test_overflow_is_reported_not_written(self):
        # exp(t) - 1 makes the partials overflow for t > ~355 and the
        # marching scale undefined for t > ~709.8; below ~355 only the
        # squares inside the norms overflow, and the normals stay unit.
        p = explicit_pencil("example1", (0.0, 800.0), l="1", m="1", n="1",
                            U="exp(t)-1", V="sqrt(3)/2*t", W="t/2")
        with np.errstate(over="ignore", invalid="ignore"):
            mesh = sample_grid(p, 200, 50)
        reasons = collections.Counter(d.reason for d in mesh.defects)
        assert reasons == {"non_finite": 4400, "domain": 1200}
        assert not np.isnan(mesh.normals).any()
        good = np.setdiff1d(np.arange(200 * 50), [d.index for d in mesh.defects])
        lens = np.linalg.norm(mesh.normals[good], axis=1)
        assert np.max(np.abs(lens - 1.0)) <= 1e-12


# Values that format specially: signed zero, NaN, infinities, the extremes.
AWKWARD = [-0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1.0 / 3.0]


def awkward_rows(n, width, shift):
    """``n`` rows of ``width`` values cycling through AWKWARD."""
    return np.array([[AWKWARD[(shift + i * width + j) % len(AWKWARD)] for j in range(width)]
                     for i in range(n)])


def line_at_a_time(fmt, rows):
    """One ``%`` per line; adding 0.0 prints -0.0 as 0.0."""
    return [fmt % tuple(float(x) + 0.0 for x in row) for row in rows]


class TestWritersMatchLineAtATime:
    def test_obj(self):
        positions, normals = awkward_rows(6, 3, 0), awkward_rows(6, 3, 5)
        faces = np.array([[0, 2, 3, 1], [2, 4, 5, 3]], dtype=np.int64)
        mesh = SurfaceMesh(ns=3, nt=2, positions=positions, normals=normals, faces=faces)
        lines = (line_at_a_time("v %#.9g %#.9g %#.9g", positions)
                 + line_at_a_time("vn %#.9g %#.9g %#.9g", normals)
                 + ["f {0}//{0} {1}//{1} {2}//{2} {3}//{3}".format(*(f + 1).tolist())
                    for f in faces])
        assert obj_bytes(mesh) == ("\n".join(lines) + "\n").encode("ascii")
        assert b"-0.0" not in obj_bytes(mesh)

    @pytest.mark.parametrize("summary", [(-0.0, math.nan), (math.inf, 1e308), (-math.inf, -0.0)])
    def test_csv(self, summary):
        samples = tuple(DTypeSample(*row) for row in awkward_rows(7, 5, 3).tolist())
        report = DTypeReport(
            samples=samples, c_estimate=summary[0], max_deviation=summary[1], skipped=(),
            verdict=False, tolerance=1e-9, geodesic=False, asymptotic_planar=False,
        )
        lines = (["s,inner,phi2,phi3,theta"]
                 + line_at_a_time(",".join(["%#.12g"] * 5),
                                  [(x.s, x.inner, x.phi2, x.phi3, x.theta) for x in samples])
                 + line_at_a_time("c_estimate,%#.12g", [[summary[0]]])
                 + line_at_a_time("max_deviation,%#.12g", [[summary[1]]]))
        assert csv_bytes(report) == ("\n".join(lines) + "\n").encode("ascii")


class TestRecords:
    def test_field_names_and_order(self):
        assert DTypeSample._fields == ("s", "inner", "phi2", "phi3", "theta")
        assert MeshDefect._fields == ("index", "s", "t", "reason")
        assert [f.name for f in dataclasses.fields(FrenetApparatus)] == [
            "T", "N", "B", "kappa", "tau", "rho", "W0", "omega"]

    @pytest.mark.parametrize("record", [DTypeSample(0.5, 0.25, -0.5, 0.75, 2.0),
                                        MeshDefect(7, 0.5, -1.0, "inflection")])
    def test_immutable_and_hashable(self, record):
        with pytest.raises(AttributeError):
            record.s = 1.0
        assert hash(record) == hash(type(record)(*record))
        assert {record: 1}[type(record)(*record)] == 1

    def test_darboux_norm(self, ex4):
        app = frenet_at(ex4.curve, 0.3)
        assert app.omega == math.hypot(app.kappa, app.tau)
        apps, _ = frenet_at(ex4.curve, np.array([0.3, 0.7]))
        assert apps.omega.tolist() == [math.hypot(k, t)
                                       for k, t in zip(apps.kappa.tolist(), apps.tau.tolist())]

    def test_grid_defects(self, ex4):
        mesh = sample_grid(ex4, 20, 9)
        ss, ts = np.linspace(*ex4.curve.domain, 20), np.linspace(*ex4.t_range, 9)
        assert mesh.defects
        for d in mesh.defects:
            assert type(d.index) is int and type(d.s) is float and type(d.reason) is str
            assert (d.s, d.t) == (float(ss[d.index // 9]), float(ts[d.index % 9]))


class TestWritersMatchFormerFormulas:
    """The writers give the bytes of the formulas they replaced."""

    @pytest.mark.parametrize("ns, nt", [(2, 2), (3, 7), (50, 50), (200, 50)])
    def test_obj_faces(self, ex1, ns, nt):
        mesh = sample_grid(ex1, ns, nt)
        faces = np.repeat(mesh.faces + 1, 2, axis=1)
        text = ("f %d//%d %d//%d %d//%d %d//%d\n" * len(faces)) % tuple(faces.ravel().tolist())
        data = obj_bytes(mesh)
        assert data.endswith(text.encode("ascii"))
        assert data.count(b"\nf ") == (ns - 1) * (nt - 1)

    @pytest.mark.parametrize("name", ["example1", "example4"])
    def test_csv_rows(self, name):
        report = verify_dtype(preset_pencil(name), 250)
        rows = np.array([(x.s, x.inner, x.phi2, x.phi3, x.theta) for x in report.samples]) + 0.0
        text = (("%#.12g," * 4 + "%#.12g\n") * len(rows)) % tuple(rows.ravel().tolist())
        assert csv_bytes(report) == ("s,inner,phi2,phi3,theta\n" + text
                                     + "c_estimate,%#.12g\nmax_deviation,%#.12g\n"
                                     % (report.c_estimate + 0.0, report.max_deviation + 0.0)
                                     ).encode("ascii")


class TestWriteObj:
    def test_counts_two_by_two(self, ex1):
        data = obj_bytes(sample_grid(ex1, 2, 2)).decode("ascii")
        lines = data.splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert sum(1 for ln in lines if ln.startswith("vn ")) == 4
        assert sum(1 for ln in lines if ln.startswith("f ")) == 1

    def test_deterministic(self, ex1):
        mesh = sample_grid(ex1, 6, 5)
        assert obj_bytes(mesh) == obj_bytes(sample_grid(ex1, 6, 5))

    def test_nine_significant_digits(self):
        mesh = SurfaceMesh(
            ns=3, nt=1,
            positions=np.array([[1 - SQRT3_2, 1.0, 0.5], [0.0, -0.0, 2.0],
                                [math.nan, math.inf, -math.inf]]),
            normals=np.zeros((3, 3)),
            faces=np.empty((0, 4), dtype=np.int64),
        )
        lines = obj_bytes(mesh).decode("ascii").splitlines()
        assert lines[0] == "v 0.133974596 1.00000000 0.500000000"
        assert lines[1] == "v 0.00000000 0.00000000 2.00000000"
        assert lines[2] == "v nan inf -inf"

    def test_face_indices_one_based(self, ex1):
        lines = obj_bytes(sample_grid(ex1, 2, 2)).decode("ascii").splitlines()
        assert lines[-1] == "f 1//1 3//3 4//4 2//2"

    def test_round_trip_positions(self, ex2):
        mesh = sample_grid(ex2, 12, 6)
        positions, normals, faces = read_obj(obj_bytes(mesh))
        scale = np.maximum(1.0, np.abs(mesh.positions))
        assert np.max(np.abs(positions - mesh.positions) / scale) <= 1e-8
        assert len(faces) == mesh.faces.shape[0]
        assert np.max(np.abs(normals - mesh.normals)) <= 1e-8

    def test_winding_consistency(self, ex1, ex2):
        for pencil in (ex1, ex2):
            mesh = sample_grid(pencil, 30, 10)
            positions = mesh.positions
            good = total = 0
            for quad in mesh.faces:
                norms = mesh.normals[quad]
                if np.any(np.linalg.norm(norms, axis=1) < 0.5):
                    continue
                total += 1
                p0, p1, _, p3 = positions[quad]
                face_normal = np.cross(p1 - p0, p3 - p0)
                if float(np.dot(face_normal, norms.mean(axis=0))) > 0:
                    good += 1
            assert total > 0
            assert good / total >= 0.99


class TestWriteReportCsv:
    def test_example1_rows(self, ex1):
        report = verify_dtype(ex1, 100, 1e-9)
        header, rows, summary = read_csv_report(csv_bytes(report))
        assert header == "s,inner,phi2,phi3,theta"
        assert len(rows) == 100
        for row in rows:
            assert row[1] == pytest.approx(0.866025403784, abs=1e-9)
        assert summary["c_estimate"] == pytest.approx(SQRT3_2, abs=1e-9)
        assert summary["max_deviation"] <= 1e-9

    def test_example2_rows(self, ex2):
        report = verify_dtype(ex2, 50, 1e-9)
        _, rows, summary = read_csv_report(csv_bytes(report))
        for row in rows:
            assert row[1] == pytest.approx(0.5, abs=1e-9)
        assert summary["c_estimate"] == pytest.approx(0.5, abs=1e-9)

    def test_twelve_significant_digits(self, ex1):
        report = verify_dtype(ex1, 20, 1e-9)
        text = csv_bytes(report).decode("ascii")
        first_row = text.splitlines()[1].split(",")
        assert first_row[1] == "0.866025403784"

    def test_empty_report(self):
        report = DTypeReport(
            samples=(), c_estimate=float("nan"), max_deviation=float("nan"),
            skipped=(), verdict=False, tolerance=1e-9,
            geodesic=False, asymptotic_planar=False,
        )
        lines = csv_bytes(report).decode("ascii").splitlines()
        assert lines[0] == "s,inner,phi2,phi3,theta"
        assert len(lines) == 3
        assert lines[1].startswith("c_estimate,")
        assert lines[2].startswith("max_deviation,")

    def test_deterministic(self, ex2):
        report = verify_dtype(ex2, 40, 1e-9)
        assert csv_bytes(report) == csv_bytes(report)
