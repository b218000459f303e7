"""Built-in scene presets.

example1..example4 are four worked surface-pencil scenes (circle,
cylindrical helix, eight curve, Salkowski curve); the *b variants reshape
them with nontrivial control coefficients.

The Salkowski curve is stored with the same coefficient pattern in x and
y, the sign choice that makes its curvature constant (kappa = 1,
tau = tan(q/sqrt(26)), speed (5/sqrt(26)) cos(q/sqrt(26))); flipping the
first two y signs silently loses that property.  The example4b reshape is
recorded with both z = 1 (example4b) and z = -1 (example4b_alt), since
both control sets are in use for the same scene.
"""

from __future__ import annotations

import math

from .errors import SceneValidationError
from .scene import DEFAULT_NS, DEFAULT_NT

_TWO_PI = 2.0 * math.pi
_SQRT3_2 = math.sqrt(3.0) / 2.0

_EIGHT_DENOM = "sqrt(4*cos(q)^4 - 3*cos(q)^2 + 1)"

# x and y share one coefficient pattern: sin in x, cos in y.
_SALKOWSKI_XY = (
    "5/sqrt(26)*((sqrt(26) - 26)/(104 + 8*sqrt(26))*{f}((1 + sqrt(26)/13)*q)"
    " + (sqrt(26) + 26)/(-104 + 8*sqrt(26))*{f}((1 - sqrt(26)/13)*q)"
    " - 1/2*{f}(q))"
)


def _scene(name: str, description: str, curve: dict, explicit: dict, c: float,
           t_range: list[float]) -> dict:
    """An explicit-mode scene with product parts ``explicit``, t0 = 0, unit
    controls, sign 1 and the default grid, written to ``<name>.obj`` and
    ``<name>.csv``."""
    return {
        "description": description,
        "curve": curve,
        "t0": 0.0,
        "marching": {
            "mode": "explicit",
            "explicit": explicit,
            "controls": {"x": 1.0, "y": 1.0, "z": 1.0},
            "c": c,
            "sign": 1,
        },
        "grid": {"ns": DEFAULT_NS, "nt": DEFAULT_NT, "t_range": t_range},
        "outputs": {"obj_path": f"{name}.obj", "csv_path": f"{name}.csv"},
    }


def _example1() -> dict:
    return _scene(
        "example1", "planar circle, D-type constant sqrt(3)/2",
        {"x": "cos(s)", "y": "sin(s)", "z": "0",
         "param": "s", "range": [-_TWO_PI, _TWO_PI]},
        {"l": "1", "m": "1", "n": "1", "U": "t", "V": "sqrt(3)/2*t", "W": "t/2"},
        _SQRT3_2, [0.0, 5.0],
    )


def _example2() -> dict:
    return _scene(
        "example2", "cylindrical helix, D-type constant 1/2",
        {"x": "cos(s/sqrt(2))", "y": "sin(s/sqrt(2))", "z": "s/sqrt(2)",
         "param": "s", "range": [-_TWO_PI, _TWO_PI]},
        {"l": "1", "m": "1", "n": "1", "U": "t", "V": "sqrt(2)/2*t", "W": "sqrt(2)/2*t"},
        0.5, [0.0, 0.25],
    )


def _example3() -> dict:
    return _scene(
        "example3", "eight curve (non-unit speed, planar), D-type constant sqrt(3)/2",
        {"x": "sin(q)", "y": "sin(q)*cos(q)", "z": "0",
         "param": "q", "range": [0.0, _TWO_PI]},
        {"l": "1", "m": f"(sqrt(3)/2)/{_EIGHT_DENOM}", "n": f"(1/2)/{_EIGHT_DENOM}",
         "U": "t", "V": "t", "W": "t"},
        _SQRT3_2, [0.0, 1.0],
    )


def _example4() -> dict:
    return _scene(
        "example4",
        "Salkowski curve (non-unit speed, constant curvature), D-type "
        "constant sqrt(3)/2 on the feasible subdomain",
        {"x": _SALKOWSKI_XY.format(f="sin"), "y": _SALKOWSKI_XY.format(f="cos"),
         "z": "25/(4*sqrt(26))*cos(sqrt(26)/13*q)",
         "param": "q", "range": [0.0, _TWO_PI]},
        {"l": "1",
         "m": "(sqrt(78)/10)/cos(sqrt(26)/26*q)^2",
         "n": "(sqrt(26)/10)*sqrt(1 - 3*tan(sqrt(26)/26*q)^2)/cos(sqrt(26)/26*q)",
         "U": "t", "V": "t", "W": "t"},
        _SQRT3_2, [0.0, 1.0],
    )


def _with_controls(cfg: dict, x: float, y: float, z: float, suffix: str,
                   note: str = "", t_range: list[float] | None = None) -> dict:
    """``cfg`` with control coefficients (x, y, z), ``suffix`` on its output
    names, and ``t_range`` when given."""
    cfg["marching"]["controls"] = {"x": x, "y": y, "z": z}
    cfg["description"] += f"; control coefficients x={x}, y={y}, z={z}"
    if note:
        cfg["description"] += f" ({note})"
    if t_range:
        cfg["grid"]["t_range"] = t_range
    cfg["outputs"] = {key: path.replace(".", f"{suffix}.")
                      for key, path in cfg["outputs"].items()}
    return cfg


PRESETS = {
    "example1": _example1,
    "example1b": lambda: _with_controls(_example1(), 0.2, 1.0 / 3.0, 1.0, "b"),
    "example2": _example2,
    "example2b": lambda: _with_controls(_example2(), 1.0, 15.0, 5.0, "b"),
    "example3": _example3,
    "example3b": lambda: _with_controls(_example3(), 10.0, 0.2, 1.0, "b"),
    "example4": _example4,
    "example4b": lambda: _with_controls(
        _example4(), -0.1, -0.1, 1.0, "b",
        "the same reshape also circulates with z=-1, see example4b_alt", [-4.0, 4.0]),
    "example4b_alt": lambda: _with_controls(
        _example4(), -0.1, -0.1, -1.0, "b_alt", "z=-1 variant of example4b", [-4.0, 4.0]),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def load_preset(name: str) -> dict:
    """Fresh config dict for a named preset."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise SceneValidationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return factory()
