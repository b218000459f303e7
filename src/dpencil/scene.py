"""Scene configuration: JSON layout, validation, and pencil assembly.

A scene bundles one curve, one marching-scale definition (explicit or
synthesized), grid sizes, and output paths::

    {
      "curve": {"x": "cos(s)", "y": "sin(s)", "z": "0",
                "param": "s", "range": [-6.2832, 6.2832], "unit_speed": true},
      "t0": 0.0,
      "marching": {
        "mode": "explicit",
        "explicit": {"l": "1", "m": "1", "n": "1",
                     "U": "t", "V": "sqrt(3)/2*t", "W": "t/2"},
        "controls": {"x": 1.0, "y": 1.0, "z": 1.0},
        "c": 0.8660254037844386,
        "sign": 1
      },
      "grid": {"ns": 200, "nt": 50, "t_range": [0.0, 5.0]},
      "outputs": {"obj_path": "example1.obj", "csv_path": "example1.csv"}
    }

In explicit mode the "explicit" block holds either the six product parts
l, m, n (in the curve parameter) and U, V, W (in t), or the three bivariate
functions u, v, w.  In synthesized mode "c" is required and the marching
scale is generated to meet it, on the part of the curve where that constant
is feasible.

This module is the only one that reads a scene file or writes a scene
config: ``SceneConfig.load(path)`` reads and validates a file,
``SceneConfig.pencil()`` assembles the pencil in either mode, and
``SceneConfig.completed(samples)`` returns the scene with its synthesized
marching scale written in, the config ``pencil synthesize`` prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path, PurePath

from .dcurve import feasible_curve, synthesize_marching_scale
from .errors import InfeasibleConstantError, SceneValidationError
from .expr import CONSTANTS, format_expression, parse_expression
from .frenet import CurveSpec
from .pencil import GeneralForm, MarchingScale, ProductForm, SurfacePencil

DEFAULT_NS = 200
DEFAULT_NT = 50
MAX_GRID_VERTICES = 1_000_000  # bounds grid.ns * grid.nt
_RESTRICT_RETRIES = 4  # synthesis failures that redo the feasibility restriction

PRODUCT_KEYS = ("l", "m", "n", "U", "V", "W")
_GENERAL_KEYS = ("u", "v", "w")


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise SceneValidationError(f"missing {context}.{key}")
    return data[key]


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneValidationError(f"{context} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):  # json also reads NaN, Infinity and 1e400
        raise SceneValidationError(f"{context} must be a finite number, got {value!r}")
    return number


def _pair(value, context: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SceneValidationError(f"{context} must be [min, max]")
    lo = _number(value[0], f"{context}[0]")
    hi = _number(value[1], f"{context}[1]")
    if not lo < hi:
        raise SceneValidationError(f"{context} must satisfy min < max, got {value!r}")
    if not math.isfinite(hi - lo):  # linspace over it yields inf and NaN
        raise SceneValidationError(f"{context} width max - min overflows, got {value!r}")
    return lo, hi


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise SceneValidationError(f"{context} must be an object")
    return value


def _text(value, context: str) -> str:
    if not isinstance(value, str):
        raise SceneValidationError(f"{context} must be a string, got {value!r}")
    return value


def _output_name(value, context: str) -> str:
    """A relative path without ``..``: outputs stay under the output directory.
    ``""`` and ``"."`` name the directory itself, not a file."""
    name = _text(value, context)
    path = PurePath(name)
    if path.is_absolute() or ".." in path.parts:
        raise SceneValidationError(f"{context} must stay under the output directory, got {name!r}")
    if not path.parts:
        raise SceneValidationError(f"{context} must name a file, got {name!r}")
    return name


@dataclass
class SceneConfig:
    curve_x: str
    curve_y: str
    curve_z: str
    param: str
    curve_range: tuple[float, float]
    unit_speed: bool
    t0: float
    mode: str  # "explicit" | "synthesized"
    product: dict | None
    general: dict | None
    controls: tuple[float, float, float]
    c: float | None
    sign: int
    ns: int
    nt: int
    t_range: tuple[float, float]
    obj_path: str
    csv_path: str
    description: str = ""

    @classmethod
    def load(cls, path) -> "SceneConfig":
        """The scene in the JSON file at ``path``; a file that cannot be read
        or parsed is a :class:`SceneValidationError`."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as e:
            raise SceneValidationError(f"cannot read config {str(path)!r}: {e}") from None
        except json.JSONDecodeError as e:
            raise SceneValidationError(f"config {str(path)!r} is not valid JSON: {e}") from None
        except RecursionError:
            raise SceneValidationError(f"config {str(path)!r} nests too deeply") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, data: dict) -> "SceneConfig":
        if not isinstance(data, dict):
            raise SceneValidationError("scene config must be a JSON object")
        curve = _object(_require(data, "curve", "config"), "config.curve")
        x = _text(_require(curve, "x", "curve"), "curve.x")
        y = _text(_require(curve, "y", "curve"), "curve.y")
        z = _text(_require(curve, "z", "curve"), "curve.z")
        param = _text(_require(curve, "param", "curve"), "curve.param")
        if param in CONSTANTS:
            raise SceneValidationError(f"curve.param {param!r} clashes with the constant {param}")
        crange = _pair(_require(curve, "range", "curve"), "curve.range")
        unit_speed = curve.get("unit_speed", False)
        if not isinstance(unit_speed, bool):
            raise SceneValidationError(
                f"curve.unit_speed must be true or false, got {unit_speed!r}"
            )

        t0 = _number(data.get("t0", 0.0), "t0")

        marching = _object(_require(data, "marching", "config"), "config.marching")
        mode = _text(_require(marching, "mode", "marching"), "marching.mode")
        if mode not in ("explicit", "synthesized"):
            raise SceneValidationError(
                f"marching.mode must be 'explicit' or 'synthesized', got {mode!r}"
            )
        product = general = None
        if mode == "explicit":
            block = _object(_require(marching, "explicit", "marching"), "marching.explicit")
            if all(k in block for k in PRODUCT_KEYS):
                product = {k: _text(block[k], f"marching.explicit.{k}") for k in PRODUCT_KEYS}
            elif all(k in block for k in _GENERAL_KEYS):
                general = {k: _text(block[k], f"marching.explicit.{k}") for k in _GENERAL_KEYS}
                if param == "t":
                    raise SceneValidationError("curve.param 't' clashes with the marching "
                                               "parameter t of marching.explicit u,v,w")
            else:
                raise SceneValidationError(
                    "marching.explicit needs either product parts l,m,n,U,V,W "
                    "or bivariate u,v,w"
                )
        c = marching.get("c")
        if c is not None:
            c = _number(c, "marching.c")
        if mode == "synthesized" and c is None:
            raise SceneValidationError("synthesized mode requires marching.c")
        sign = marching.get("sign", 1)
        if isinstance(sign, bool) or sign not in (1, -1):
            raise SceneValidationError(f"marching.sign must be 1 or -1, got {sign!r}")
        controls_block = _object(marching.get("controls", {}), "marching.controls")
        controls = tuple(
            _number(controls_block.get(k, 1.0), f"marching.controls.{k}")
            for k in ("x", "y", "z")
        )

        grid = _object(data.get("grid", {}), "config.grid")
        ns = grid.get("ns", DEFAULT_NS)
        nt = grid.get("nt", DEFAULT_NT)
        if not isinstance(ns, int) or not isinstance(nt, int) or ns < 2 or nt < 2:
            raise SceneValidationError("grid.ns and grid.nt must be integers >= 2")
        if ns * nt > MAX_GRID_VERTICES:
            raise SceneValidationError(
                f"grid.ns * grid.nt must be at most {MAX_GRID_VERTICES}, got {ns * nt}"
            )
        t_range = _pair(_require(grid, "t_range", "grid"), "grid.t_range")
        if not t_range[0] <= t0 <= t_range[1]:
            raise SceneValidationError(
                f"t0 = {t0!r} must lie inside grid.t_range {list(t_range)!r}"
            )

        outputs = _object(data.get("outputs", {}), "config.outputs")
        obj_path = _output_name(outputs.get("obj_path", "surface.obj"), "outputs.obj_path")
        csv_path = _output_name(outputs.get("csv_path", "report.csv"), "outputs.csv_path")
        if PurePath(obj_path) == PurePath(csv_path):
            raise SceneValidationError("outputs.obj_path and outputs.csv_path name the same "
                                       f"file, got {obj_path!r} and {csv_path!r}")

        return cls(
            curve_x=x, curve_y=y, curve_z=z, param=param, curve_range=crange,
            unit_speed=unit_speed, t0=t0, mode=mode, product=product,
            general=general, controls=controls, c=c, sign=sign, ns=ns, nt=nt,
            t_range=t_range, obj_path=obj_path, csv_path=csv_path,
            description=str(data.get("description", "")),
        )

    def to_dict(self) -> dict:
        marching: dict = {"mode": self.mode, "sign": self.sign}
        if self.product is not None:
            marching["explicit"] = dict(self.product)
        elif self.general is not None:
            marching["explicit"] = dict(self.general)
        if self.c is not None:
            marching["c"] = self.c
        marching["controls"] = {
            "x": self.controls[0], "y": self.controls[1], "z": self.controls[2]
        }
        out = {
            "curve": {
                "x": self.curve_x, "y": self.curve_y, "z": self.curve_z,
                "param": self.param, "range": list(self.curve_range),
                "unit_speed": self.unit_speed,
            },
            "t0": self.t0,
            "marching": marching,
            "grid": {"ns": self.ns, "nt": self.nt, "t_range": list(self.t_range)},
            "outputs": {"obj_path": self.obj_path, "csv_path": self.csv_path},
        }
        if self.description:
            out["description"] = self.description
        return out

    def curve(self) -> CurveSpec:
        return CurveSpec(
            x=parse_expression(self.curve_x, [self.param]),
            y=parse_expression(self.curve_y, [self.param]),
            z=parse_expression(self.curve_z, [self.param]),
            param=self.param,
            domain=self.curve_range,
            unit_speed=self.unit_speed,
        )

    def _explicit_marching(self) -> MarchingScale:
        if self.product is not None:
            svars, tvars = [self.param], ["t"]
            form = ProductForm(
                l=parse_expression(self.product["l"], svars),
                m=parse_expression(self.product["m"], svars),
                n=parse_expression(self.product["n"], svars),
                U=parse_expression(self.product["U"], tvars),
                V=parse_expression(self.product["V"], tvars),
                W=parse_expression(self.product["W"], tvars),
                controls=self.controls,
            )
        else:
            both = [self.param, "t"]
            form = GeneralForm(
                u=parse_expression(self.general["u"], both),
                v=parse_expression(self.general["v"], both),
                w=parse_expression(self.general["w"], both),
                controls=self.controls,
            )
        return MarchingScale(form=form, param=self.param, t0=self.t0)

    def synthesized(self, samples: int):
        """``(curve, marching, intervals)``: the scale synthesized for ``c`` on
        ``dcurve.feasible_curve`` of the curve at ``samples`` samples.

        The feasibility scan can miss an infeasible window narrower than its
        sample step; synthesis then raises at a parameter inside it.  The
        restriction is redone with that parameter known to be infeasible, at
        most ``_RESTRICT_RETRIES`` times."""
        if self.c is None:
            raise SceneValidationError("synthesize requires marching.c in the config")
        full = self.curve()
        infeasible = []
        while True:
            curve, intervals = feasible_curve(full, self.c, samples, infeasible)
            try:
                marching = synthesize_marching_scale(curve, self.c, self.sign, t0=self.t0)
                return curve, marching, intervals
            except InfeasibleConstantError as e:
                if len(infeasible) == _RESTRICT_RETRIES:
                    raise
                infeasible.append(e.param)

    def completed(self, samples: int) -> dict:
        """The scene with the marching scale ``synthesized(samples)`` written in,
        as ``pencil synthesize`` prints it: the restricted ``curve.range`` and
        the ``feasible_domain`` list when synthesis restricted the curve, and
        a closed-form ``explicit`` block or a ``table`` summary (regenerated
        on load) in place of the given marching block."""
        curve, marching, intervals = self.synthesized(samples)
        out = self.to_dict()
        if intervals:
            out["curve"]["range"] = list(curve.domain)
            out["feasible_domain"] = [[a, b] for a, b in intervals]
        form, block = marching.form, out["marching"]
        if isinstance(form, ProductForm):
            block["mode"] = "explicit"
            block["explicit"] = {k: format_expression(getattr(form, k)) for k in PRODUCT_KEYS}
        else:
            block["mode"] = "synthesized"
            block.pop("explicit", None)
            block["table"] = {
                "kind": "cubic-interpolated coefficients, regenerated on build",
                "nodes": int(form.nodes.size),
                "max_interp_error": form.max_interp_error,
                "excluded": [[a, b] for a, b in form.excluded],
                "u_profile": format_expression(form.u_profile),
            }
        return out

    def assemble(self):
        """``(curve, marching, intervals)`` in either marching mode, synthesized
        at 256 samples; ``intervals`` is None unless synthesis restricted the curve."""
        if self.mode == "explicit":
            return self.curve(), self._explicit_marching(), None
        return self.synthesized(256)

    def pencil(self) -> SurfacePencil:
        """The scene's pencil, in either mode (see ``assemble``)."""
        curve, marching, _ = self.assemble()
        return SurfacePencil(curve, marching, self.t_range)
