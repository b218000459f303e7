"""Scene configuration: JSON layout, validation, and pencil assembly.

A scene bundles one curve, one marching-scale definition (explicit or
synthesized), grid sizes, and output paths::

    {
      "curve": {"x": "cos(s)", "y": "sin(s)", "z": "0",
                "param": "s", "range": [-6.2832, 6.2832]},
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
is feasible: it depends on the curve, "c", "sign" and "t0" alone, so this
mode has no "controls".

This module is the only one that reads a scene file or writes a scene
config: ``SceneConfig.load(path)`` reads and validates a file,
``SceneConfig.pencil()`` assembles the pencil in either mode, and
``SceneConfig.completed(samples)`` returns the scene with its synthesized
marching scale written in, the config ``pencil synthesize`` prints.

A ``SceneConfig`` keeps the scene in this layout only, as one dict that
``from_dict`` writes while it validates: every default filled in, ``t0``,
``c``, the controls and both ranges as floats, ranges as lists, and only
the keys above (one explicit form's and the controls in explicit mode,
neither in synthesized mode).  ``to_dict()`` returns a copy of it; the CLI
reads it through ``t_range``, ``grid_shape`` and ``outputs``.  A curve's
speed is measured, not declared (see ``verify_dtype``): an older config's
``curve.unit_speed`` is dropped like any other key outside the layout.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path, PurePath

from .dcurve import _FIRST_TABLE_NODES, feasibility_scan, feasible_curve, synthesize_marching_scale
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


def _pair(value, context: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SceneValidationError(f"{context} must be [min, max]")
    lo = _number(value[0], f"{context}[0]")
    hi = _number(value[1], f"{context}[1]")
    if not lo < hi:
        raise SceneValidationError(f"{context} must satisfy min < max, got {value!r}")
    if not math.isfinite(hi - lo):  # linspace over it yields inf and NaN
        raise SceneValidationError(f"{context} width max - min overflows, got {value!r}")
    return [lo, hi]


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
    ``""`` and ``"."`` name the directory itself, not a file.  A name with a
    NUL or any surrogate (``os.fsencode`` would turn a low one into a raw
    byte) names no file; one too long is refused only when it is written,
    as the limit depends on the file system."""
    name = _text(value, context)
    path = PurePath(name)
    if path.is_absolute() or ".." in path.parts:
        raise SceneValidationError(f"{context} must stay under the output directory, got {name!r}")
    if not path.parts:
        raise SceneValidationError(f"{context} must name a file, got {name!r}")
    with contextlib.suppress(UnicodeEncodeError):  # strict UTF-8 refuses every surrogate
        if name.encode() and b"\0" not in os.fsencode(name):
            return name
    raise SceneValidationError(f"{context} must be a file name without NUL that the file "
                               f"system can encode, got {name!r}")


@dataclass
class SceneConfig:
    """A validated scene, kept as one normalized dict (see the module
    docstring)."""

    _scene: dict

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
        given = _object(_require(data, "curve", "config"), "config.curve")
        curve = {k: _text(_require(given, k, "curve"), f"curve.{k}")
                 for k in ("x", "y", "z", "param")}
        param = curve["param"]
        if param in CONSTANTS:
            raise SceneValidationError(f"curve.param {param!r} clashes with the constant {param}")
        curve["range"] = _pair(_require(given, "range", "curve"), "curve.range")

        t0 = _number(data.get("t0", 0.0), "t0")

        given = _object(_require(data, "marching", "config"), "config.marching")
        mode = _text(_require(given, "mode", "marching"), "marching.mode")
        if mode not in ("explicit", "synthesized"):
            raise SceneValidationError(
                f"marching.mode must be 'explicit' or 'synthesized', got {mode!r}"
            )
        marching = {"mode": mode}
        if mode == "explicit":
            block = _object(_require(given, "explicit", "marching"), "marching.explicit")
            keys = next((keys for keys in (PRODUCT_KEYS, _GENERAL_KEYS)
                         if all(k in block for k in keys)), None)
            if keys is None:
                raise SceneValidationError(
                    "marching.explicit needs either product parts l,m,n,U,V,W "
                    "or bivariate u,v,w"
                )
            marching["explicit"] = {k: _text(block[k], f"marching.explicit.{k}") for k in keys}
            if keys is _GENERAL_KEYS and param == "t":
                raise SceneValidationError("curve.param 't' clashes with the marching "
                                           "parameter t of marching.explicit u,v,w")
        if given.get("c") is not None:
            marching["c"] = _number(given["c"], "marching.c")
        elif mode == "synthesized":
            raise SceneValidationError("synthesized mode requires marching.c")
        sign = given.get("sign", 1)
        if isinstance(sign, bool) or sign not in (1, -1):
            raise SceneValidationError(f"marching.sign must be 1 or -1, got {sign!r}")
        marching["sign"] = int(sign)  # 1.0 and 1 are one scene
        if mode == "explicit":
            controls = _object(given.get("controls", {}), "marching.controls")
            marching["controls"] = {k: _number(controls.get(k, 1.0), f"marching.controls.{k}")
                                    for k in ("x", "y", "z")}

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
            raise SceneValidationError(f"t0 = {t0!r} must lie inside grid.t_range {t_range!r}")

        outputs = _object(data.get("outputs", {}), "config.outputs")
        obj_path = _output_name(outputs.get("obj_path", "surface.obj"), "outputs.obj_path")
        csv_path = _output_name(outputs.get("csv_path", "report.csv"), "outputs.csv_path")
        obj, csv = PurePath(obj_path), PurePath(csv_path)
        clash = "name the same file" if obj == csv else (
            "nest" if obj in csv.parents or csv in obj.parents else "")
        if clash:
            raise SceneValidationError(f"outputs.obj_path and outputs.csv_path {clash}, "
                                       f"got {obj_path!r} and {csv_path!r}")

        scene = {"curve": curve, "t0": t0, "marching": marching,
                 "grid": {"ns": ns, "nt": nt, "t_range": t_range},
                 "outputs": {"obj_path": obj_path, "csv_path": csv_path}}
        description = _text(data.get("description", ""), "description")
        if description:
            scene["description"] = description
        return cls(scene)

    def to_dict(self) -> dict:
        """A copy of the normalized scene."""
        return copy.deepcopy(self._scene)

    @property
    def t_range(self) -> tuple[float, float]:
        return tuple(self._scene["grid"]["t_range"])

    @property
    def grid_shape(self) -> tuple[int, int]:
        """``(ns, nt)``, the vertex counts of the build grid."""
        return self._scene["grid"]["ns"], self._scene["grid"]["nt"]

    @property
    def outputs(self) -> tuple[str, str]:
        """``(obj_path, csv_path)``, relative to the output directory."""
        return self._scene["outputs"]["obj_path"], self._scene["outputs"]["csv_path"]

    def curve(self) -> CurveSpec:
        curve = self._scene["curve"]
        x, y, z = (parse_expression(curve[k], [curve["param"]]) for k in ("x", "y", "z"))
        return CurveSpec(x=x, y=y, z=z, param=curve["param"], domain=tuple(curve["range"]))

    def _explicit_marching(self) -> MarchingScale:
        param, marching = self._scene["curve"]["param"], self._scene["marching"]
        explicit = marching["explicit"]
        if tuple(explicit) == PRODUCT_KEYS:  # l, m, n in the curve parameter, U, V, W in t
            form, variables = ProductForm, ([param],) * 3 + (["t"],) * 3
        else:  # u, v, w in both
            form, variables = GeneralForm, ([param, "t"],) * 3
        parts = {k: parse_expression(e, v) for (k, e), v in zip(explicit.items(), variables)}
        return MarchingScale(form=form(**parts, controls=tuple(marching["controls"].values())),
                             param=param, t0=self._scene["t0"])

    def synthesized(self, samples: int):
        """``(curve, marching, intervals)``: the scale synthesized for ``c`` on
        ``dcurve.feasible_curve`` of the curve at ``samples`` samples.

        One ``feasibility_scan`` serves every restriction below, and is the
        first table round of synthesis on the whole curve when ``samples``
        is ``_FIRST_TABLE_NODES``, the default of ``assemble`` and of
        ``pencil synthesize``.  The scan can miss an infeasible window
        narrower than its sample step; synthesis then raises at a parameter
        inside it.  The restriction is redone with that parameter known to
        be infeasible, at most ``_RESTRICT_RETRIES`` times."""
        c, sign = self._scene["marching"].get("c"), self._scene["marching"]["sign"]
        if c is None:
            raise SceneValidationError("synthesize requires marching.c in the config")
        full = self.curve()
        scan = feasibility_scan(full, c, samples)
        infeasible = []
        while True:
            curve, intervals = feasible_curve(full, c, samples, infeasible, scan)
            try:
                marching = synthesize_marching_scale(curve, c, sign, self._scene["t0"],
                                                     scan if curve is full else None)
                return curve, marching, intervals
            except InfeasibleConstantError as e:
                if len(infeasible) == _RESTRICT_RETRIES:
                    raise
                infeasible.append(e.param)

    def completed(self, samples: int) -> dict:
        """The scene with the marching scale ``synthesized(samples)`` written in,
        as ``pencil synthesize`` prints it (at ``_FIRST_TABLE_NODES`` samples
        unless ``--samples`` is given): the restricted ``curve.range`` and
        the ``feasible_domain`` list when synthesis restricted the curve, and
        a marching block built from ``c``, ``sign`` and the synthesized form
        alone: a closed-form ``explicit`` block with the form's unit
        controls, or a ``table`` summary (regenerated on load)."""
        curve, marching, intervals = self.synthesized(samples)
        out = self.to_dict()
        if intervals:
            out["curve"]["range"] = list(curve.domain)
            out["feasible_domain"] = [[a, b] for a, b in intervals]
        form, given = marching.form, out["marching"]
        block = {"c": given["c"], "sign": given["sign"]}
        if isinstance(form, ProductForm):
            block.update(mode="explicit", controls=dict(zip("xyz", form.controls)), explicit={
                k: format_expression(getattr(form, k)) for k in PRODUCT_KEYS})
        else:
            block.update(mode="synthesized", table={
                "kind": "cubic-interpolated coefficients, regenerated on build",
                "nodes": int(form.nodes.size),
                "max_interp_error": form.max_interp_error,
                "excluded": [[a, b] for a, b in form.excluded],
            })
        out["marching"] = block
        return out

    def assemble(self):
        """``(curve, marching, intervals)`` in either marching mode, synthesized
        at ``_FIRST_TABLE_NODES`` (257) samples; ``intervals`` is None unless
        synthesis restricted the curve."""
        if self._scene["marching"]["mode"] == "explicit":
            return self.curve(), self._explicit_marching(), None
        return self.synthesized(_FIRST_TABLE_NODES)

    def pencil(self) -> SurfacePencil:
        """The scene's pencil, in either mode (see ``assemble``)."""
        curve, marching, _ = self.assemble()
        return SurfacePencil(curve, marching, self.t_range)
