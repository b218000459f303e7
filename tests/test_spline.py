"""The not-a-knot spline of ``TabulatedProductForm`` against its reference.

``scipy.interpolate.CubicSpline`` (default not-a-knot ends, extrapolating)
is the reference: the coefficients must be equal, and values and first
derivatives equal byte for byte, at nodes, between them, at both ends and
outside the table.  Importing the command line must not import
``scipy.interpolate`` at all.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from dpencil.dcurve import feasible_curve, synthesize_marching_scale
from dpencil.pencil import TabulatedProductForm, _NotAKnotSpline

from conftest import SRC

SQRT3_2 = math.sqrt(3.0) / 2.0


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def queries(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Nodes, midpoints, both ends and their neighbours, random points
    inside, and points outside the table on either side."""
    span = x[-1] - x[0]
    return np.concatenate([
        x,
        0.5 * (x[:-1] + x[1:]),
        [x[0], x[-1], np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
         np.nextafter(x[-1], -np.inf), x[0] - span, x[-1] + span, x[0] - 1e-3, x[-1] + 1e-3],
        rng.uniform(x[0], x[-1], 400),
        rng.uniform(x[0] - 0.5 * span, x[0], 20),
        rng.uniform(x[-1], x[-1] + 0.5 * span, 20),
    ])


def assert_matches_reference(x, y, rng):
    ref, got = CubicSpline(x, y), _NotAKnotSpline(x, y)
    assert same_bytes(got.c, ref.c)
    qs = queries(x, rng)
    for derivative in (0, 1):
        assert same_bytes(got(qs, derivative), ref(qs, derivative))
        assert same_bytes(got(qs.reshape(-1, 2), derivative), ref(qs.reshape(-1, 2), derivative))
        for q in qs[::37]:
            value = got(float(q), derivative)
            assert np.ndim(value) == 0
            assert same_bytes(value, ref(float(q), derivative))


def test_random_tables_with_holes(rng):
    for k in range(60):
        n = int(rng.integers(4, 200))
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.uniform(-10.0, 10.0)
        if k % 2:
            # holes: drop runs of nodes, as excluded windows do
            keep = rng.random(n) > 0.3
            keep[[0, 1, -2, -1]] = True
            x = x[keep]
            if x.size < 4:
                continue
        y = rng.uniform(0.1, 5.0) * np.sin(rng.uniform(0.5, 3.0) * x) + rng.normal(0, 1e-3, x.size)
        assert_matches_reference(x, y, rng)


def test_four_nodes_and_linear_data(rng):
    assert_matches_reference(np.array([0.0, 0.5, 2.0, 2.25]), np.array([1.0, -2.0, 0.5, 3.0]), rng)
    x = np.linspace(-1.0, 1.0, 9)
    assert_matches_reference(x, 3.0 * x - 1.0, rng)
    assert_matches_reference(x, np.zeros_like(x), rng)


@pytest.fixture(scope="module")
def eight_table(ex3):
    form = synthesize_marching_scale(ex3.curve, SQRT3_2).form
    assert isinstance(form, TabulatedProductForm)
    assert form.excluded  # the inflection windows leave holes in the table
    return form


@pytest.fixture(scope="module")
def salkowski_table(ex4):
    curve, intervals = feasible_curve(ex4.curve, SQRT3_2)
    assert intervals  # restricted to the feasible subdomain
    form = synthesize_marching_scale(curve, SQRT3_2).form
    assert isinstance(form, TabulatedProductForm)
    return form


@pytest.mark.parametrize("table", ["eight_table", "salkowski_table"])
def test_synthesized_tables(request, rng, table):
    form = request.getfixturevalue(table)
    for values in (form.v_values, form.g_values):
        assert_matches_reference(form.nodes, values, rng)
    # The coefficient methods, float in and float out, as verification calls them.
    ref_v, ref_g = CubicSpline(form.nodes, form.v_values), CubicSpline(form.nodes, form.g_values)
    for q in queries(form.nodes, rng)[::11]:
        q = float(q)
        assert type(form.v_coefficient(q)) is float
        assert same_bytes(form.v_coefficient(q), ref_v(q))
        assert same_bytes(form.v_coefficient(q, 1), ref_v(q, 1))
        g = float(ref_g(q))
        want = 0.0 if g <= 0.0 else form.sign * math.sqrt(g)
        assert same_bytes(form.w_coefficient(q), want)
        want = 0.0 if g <= 0.0 else form.sign * float(ref_g(q, 1)) / (2.0 * math.sqrt(g))
        assert same_bytes(form.w_coefficient(q, 1), want)


@pytest.mark.parametrize("derivative", [2, -3])
def test_coefficients_reject_other_derivatives(derivative):
    x = np.linspace(0.0, 1.0, 9)
    form = TabulatedProductForm(x, x, 1.0 + x * x)
    for coefficient in (form.v_coefficient, form.w_coefficient):
        with pytest.raises(ValueError, match=f"derivative must be 0 or 1, got {derivative}"):
            coefficient(0.5, derivative)


@pytest.mark.parametrize("x", [
    [0.0, 1.0, 2.0],  # too few nodes
    [0.0, 1.0, 1.0, 2.0],  # repeated node
    [0.0, 2.0, 1.0, 3.0],  # not increasing
    [0.0, 1.0, 2.0, math.inf],
    [0.0, 1.0, math.nan, 3.0],
])
def test_rejects_bad_nodes(x):
    with pytest.raises(ValueError):
        _NotAKnotSpline(np.array(x), np.zeros(len(x)))


def test_rejects_other_derivatives():
    spline = _NotAKnotSpline(np.arange(5.0), np.arange(5.0) ** 2)
    with pytest.raises(ValueError):
        spline(1.0, 2)


def test_cli_import_leaves_out_scipy_interpolate():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dpencil.cli; print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
