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
    "example1": "dc2633c034f0c8091356c8295ea1fc946eda5c8ebe0952772aa54eb3cc3ed390",
    "example1b": "2a11658b05f030d3b401ed56db20df130200fe1878427908a2e2649107d023d2",
    "example2": "70f2035fe79f376ec5e20b45f827ccf0aa3b37255768b33f698b3e2e8ac3d34a",
    "example2b": "f799e9c508d912f3513ba20d1c7cff1e59af1594529eee57f51f17c1f1b42753",
    "example3": "5209f10f1c68ab59051e97a27230f692050062c5fd4355e8d68decccf34ada63",
    "example3b": "fdc3721c22c093bd3ce6422d4f5b3c3402ca82433c5ebb388c5e105cb03b4a15",
    "example4": "341dbf99fd2ed8b0e14be0aee3eb5a97b454fa151953f8252d6247584caf9d4a",
    "example4b": "4255e6115fe255c40ae2fcc7e9d525829afbba4854b4e9ff0e5c52a6e9acc47c",
    "example4b_alt": "58be2c64594f07aef41ac609023d38d6be1581aaed26133348fdbc22053479dd",
}


@pytest.mark.parametrize("name", preset_names())
def test_preset_normalization_pinned(name):
    got = hashlib.sha256(normalized(load_preset(name)).encode("utf-8")).hexdigest()
    assert got == PRESET_SHA256[name]


CIRCLE = {"x": "cos(s)", "y": "sin(s)", "z": "0", "param": "s", "range": [-3, 3]}
PRODUCT = {"l": "1", "m": "1", "n": "1", "U": "t", "V": "sqrt(3)/2*t", "W": "t/2"}
# The normalized curve, grid, controls and outputs where the config leaves
# them to their defaults.
NORM_CURVE = {**CIRCLE, "range": [-3.0, 3.0]}
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
        {"curve": NORM_CURVE, "t0": 0.0,
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


@pytest.mark.parametrize("mode", ["explicit", "synthesized"])
@pytest.mark.parametrize("sign", [1, -1])
def test_float_sign_is_the_integer_sign(mode, sign):
    # 1.0 == 1, so both spellings are accepted: they normalize to one scene.
    raw = {"curve": CIRCLE, "grid": {"t_range": [0, 5]},
           "marching": {"mode": mode, "explicit": PRODUCT, "c": 0.5, "sign": sign}}
    spelled = {**raw, "marching": {**raw["marching"], "sign": float(sign)}}
    assert normalized(spelled) == normalized(raw)


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


def test_assembled_pencil_is_on_the_curve_synthesize_prints():
    # build and verify take their pencil from assemble(): synthesized
    # example4 at sqrt(3)/2 is restricted, and the pencil's curve and the
    # intervals are the range and feasible_domain that synthesize prints.
    raw = load_preset("example4")
    raw["marching"] = {"mode": "synthesized", "c": 3 ** 0.5 / 2}
    cfg = SceneConfig.from_dict(raw)
    pencil, intervals = cfg.assemble()
    completed = cfg.completed()
    assert completed["curve"]["range"] != raw["curve"]["range"]
    assert list(pencil.curve.domain) == completed["curve"]["range"]
    assert [[a, b] for a, b in intervals] == completed["feasible_domain"]
    assert pencil.t_range == cfg.t_range
