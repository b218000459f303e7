"""The normalized scene: what ``SceneConfig.from_dict`` keeps of a config
and ``to_dict`` gives back, pinned as sorted JSON text, so that 0 and 0.0
or 1 and true differ."""

import copy
import hashlib
import json

import pytest

from dpencil.presets import load_preset, preset_names
from dpencil.scene import SceneConfig


def normalized(raw: dict) -> str:
    return json.dumps(SceneConfig.from_dict(raw).to_dict(), sort_keys=True)


PRESET_SHA256 = {
    "example1": "5cde33b6c2cdbbb2a8ddec05fb5eafd2ec7033f9df67b67a6f31ded924d88ce2",
    "example1b": "e4464050ec4ca7b0ec48daecbcff2886676586862f677e38f379c41df556a303",
    "example2": "8673710a10756d896da91f0b9cd06dcad53ac320a7e8ff826298433767eb6d2d",
    "example2b": "3b5c21c71afe69e744ac687e1c98f8f991298e836fb558a8701821e5486b5d32",
    "example3": "d4d502cffbe271bbffee51685d52cdb12cd92cceb2c2d407f7f8a0120cc67041",
    "example3b": "1a55a8d659d245a08750ddd06fac9f404e9874f601d31ebb8187e42c1eb3712d",
    "example4": "c7c4b7c65c209e0c7f24eca701c3d168e23a1f24ec9362d2828b9b50f406782e",
    "example4b": "3ed1516c1b5608bdbdb9570153d2bd4b1f69fd90419cc6fa2d037bf2b5650d9f",
    "example4b_alt": "d794772a4e925cb88bac62a78054a3b40a836dff991e0bcd5ab70cfd632249ef",
}


@pytest.mark.parametrize("name", preset_names())
def test_preset_normalization_pinned(name):
    got = hashlib.sha256(normalized(load_preset(name)).encode("utf-8")).hexdigest()
    assert got == PRESET_SHA256[name]


CIRCLE = {"x": "cos(s)", "y": "sin(s)", "z": "0", "param": "s", "range": [-3, 3]}
PRODUCT = {"l": "1", "m": "1", "n": "1", "U": "t", "V": "sqrt(3)/2*t", "W": "t/2"}
# The normalized curve, grid, controls and outputs where the config leaves
# them to their defaults.
NORM_CURVE = {**CIRCLE, "range": [-3.0, 3.0], "unit_speed": False}
DEFAULT_GRID = {"ns": 200, "nt": 50}
UNIT_CONTROLS = {"x": 1.0, "y": 1.0, "z": 1.0}
DEFAULT_OUTPUTS = {"obj_path": "surface.obj", "csv_path": "report.csv"}

CASES = {
    "optional_keys_left_out": (
        {"curve": CIRCLE, "marching": {"mode": "explicit", "explicit": PRODUCT},
         "grid": {"t_range": [0, 5]}},
        {"curve": NORM_CURVE, "t0": 0.0,
         "marching": {"mode": "explicit", "explicit": PRODUCT, "controls": UNIT_CONTROLS,
                      "sign": 1},
         "grid": {**DEFAULT_GRID, "t_range": [0.0, 5.0]}, "outputs": DEFAULT_OUTPUTS},
    ),
    "integer_literals": (
        {"curve": {**CIRCLE, "unit_speed": True}, "t0": 0,
         "marching": {"mode": "explicit", "explicit": PRODUCT, "c": 1, "sign": -1,
                      "controls": {"x": 2, "y": 1, "z": -1}},
         "grid": {"ns": 7, "nt": 3, "t_range": [-1, 1]}},
        {"curve": {**NORM_CURVE, "unit_speed": True}, "t0": 0.0,
         "marching": {"mode": "explicit", "explicit": PRODUCT, "c": 1.0, "sign": -1,
                      "controls": {"x": 2.0, "y": 1.0, "z": -1.0}},
         "grid": {"ns": 7, "nt": 3, "t_range": [-1.0, 1.0]}, "outputs": DEFAULT_OUTPUTS},
    ),
    "bivariate": (
        {"curve": CIRCLE, "t0": 0.5,
         "marching": {"mode": "explicit", "explicit": {"u": "t*t", "v": "0", "w": "s*t"},
                      "controls": {"y": 0.5}},
         "grid": {"t_range": [0.0, 1.0]}, "outputs": {"obj_path": "m/a.obj"},
         "description": "bivariate"},
        {"curve": NORM_CURVE, "t0": 0.5,
         "marching": {"mode": "explicit", "explicit": {"u": "t*t", "v": "0", "w": "s*t"},
                      "controls": {"x": 1.0, "y": 0.5, "z": 1.0}, "sign": 1},
         "grid": {**DEFAULT_GRID, "t_range": [0.0, 1.0]},
         "outputs": {**DEFAULT_OUTPUTS, "obj_path": "m/a.obj"}, "description": "bivariate"},
    ),
    # Keys outside the layout are dropped, and so are the bivariate parts
    # beside a complete product block; an empty description is left out.
    "extra_keys": (
        {"curve": {**CIRCLE, "note": "dropped"},
         "marching": {"mode": "explicit",
                      "explicit": {**PRODUCT, "u": "t", "v": "t", "w": "t", "comment": "x"},
                      "table": {"nodes": 3}},
         "grid": {"t_range": [0.0, 5.0], "extra": 1},
         "outputs": {"csv_path": "r.csv", "log": "x"}, "feasible_domain": [[0, 1]],
         "description": ""},
        {"curve": NORM_CURVE, "t0": 0.0,
         "marching": {"mode": "explicit", "explicit": PRODUCT, "controls": UNIT_CONTROLS,
                      "sign": 1},
         "grid": {**DEFAULT_GRID, "t_range": [0.0, 5.0]},
         "outputs": {**DEFAULT_OUTPUTS, "csv_path": "r.csv"}},
    ),
    # Synthesized mode keeps no explicit block, even when one is given, and no
    # controls.
    "synthesized": (
        {"curve": CIRCLE, "t0": 1.0,
         "marching": {"mode": "synthesized", "explicit": PRODUCT, "c": 0.5, "sign": -1},
         "grid": {"ns": 10, "nt": 5, "t_range": [0.0, 2.0]}},
        {"curve": NORM_CURVE, "t0": 1.0,
         "marching": {"mode": "synthesized", "c": 0.5, "sign": -1},
         "grid": {"ns": 10, "nt": 5, "t_range": [0.0, 2.0]}, "outputs": DEFAULT_OUTPUTS},
    ),
}


@pytest.mark.parametrize("raw, expected", CASES.values(), ids=CASES.keys())
def test_normalization_pinned(raw, expected):
    assert normalized(raw) == json.dumps(expected, sort_keys=True)


def test_config_is_its_own_copy():
    # Neither the dict to_dict returns nor the one from_dict read reaches
    # back into the config.
    raw = load_preset("example1")
    cfg = SceneConfig.from_dict(raw)
    before = normalized(copy.deepcopy(raw))
    for scene in (cfg.to_dict(), raw):
        scene["curve"]["range"][0] = -1.0
        scene["marching"]["explicit"]["U"] = "0"
        scene["marching"]["controls"]["x"] = 2.0
        scene["grid"]["t_range"].append(9.0)
        scene["outputs"].clear()
        scene["t0"] = 3.0
    assert json.dumps(cfg.to_dict(), sort_keys=True) == before
