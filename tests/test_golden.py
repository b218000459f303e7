"""Golden outputs of ``pencil build`` for every preset.

Each preset is built with 250 verification samples on a 50x50 grid
(``golden/presets.json``) and on the non-square 100x25 and 25x100 grids
(``golden/presets_nonsquare.json``), which catch an ``ns``/``nt`` mix-up
that a square grid hides.  The OBJ and CSV bytes (SHA-256) and the
summary's ``c_estimate`` and ``max_deviation`` must match exactly.

``golden/synthesized.json`` pins the synthesized path: the ``synthesize``
output of example1..example4 at their preset constant with either sign,
and the same build record for the eight curve and the Salkowski curve in
synthesized mode (table synthesis, and a restricted feasible domain).  A
rewrite of the numeric kernel that changes any of them must explain why
and regenerate the fixtures in a commit of its own:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dpencil.cli import main
from dpencil.dcurve import verify_dtype
from dpencil.presets import load_preset, preset_names
from dpencil.scene import SceneConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "presets.json"
GOLDEN_NONSQUARE = GOLDEN_DIR / "presets_nonsquare.json"
GOLDEN_SYNTHESIZED = GOLDEN_DIR / "synthesized.json"
GRID = 50
NONSQUARE = ((100, 25), (25, 100))
SAMPLES = 250
SYNTHESIZE = ("example1", "example2", "example3", "example4")
SIGNS = (1, -1)
SYNTHESIZED_BUILDS = ("example3", "example4")


def synthesized(cfg: dict, sign: int) -> dict:
    """``cfg`` in synthesized mode at its preset constant with ``sign``."""
    cfg["marching"] = {"mode": "synthesized", "c": cfg["marching"]["c"], "sign": sign}
    return cfg


def run(args: list[str], name: str, cfg: dict, out_dir: Path) -> tuple[int, str]:
    config = out_dir / f"{name}.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([*args, "--config", str(config)])
    return code, stdout.getvalue()


def build(name: str, out_dir: Path, ns: int = GRID, nt: int = GRID,
          mode: str = "explicit") -> dict:
    cfg = load_preset(name)
    if mode == "synthesized":
        cfg = synthesized(cfg, cfg["marching"]["sign"])
    cfg["grid"]["ns"], cfg["grid"]["nt"] = ns, nt
    code, out = run(["build", "--samples", str(SAMPLES), "-o", str(out_dir)],
                    name, cfg, out_dir)
    summary = json.loads(out)

    def digest(key):
        return hashlib.sha256((out_dir / cfg["outputs"][key]).read_bytes()).hexdigest()

    return {
        "exit": code,
        "obj_sha256": digest("obj_path"),
        "csv_sha256": digest("csv_path"),
        "c_estimate": summary["c_estimate"],
        "max_deviation": summary["max_deviation"],
    }


def synthesize(name: str, sign: int, out_dir: Path) -> dict:
    code, out = run(["synthesize"], name, synthesized(load_preset(name), sign), out_dir)
    return {"exit": code, "output": json.loads(out)}


def shape_key(ns: int, nt: int) -> str:
    return f"{ns}x{nt}"


def sign_key(name: str, sign: int) -> str:
    return f"{name}{sign:+d}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_nonsquare() -> dict:
    return json.loads(GOLDEN_NONSQUARE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_synthesized() -> dict:
    return json.loads(GOLDEN_SYNTHESIZED.read_text(encoding="utf-8"))


def test_every_preset_pinned(golden, golden_nonsquare):
    assert sorted(golden) == preset_names()
    assert sorted(golden_nonsquare) == sorted(shape_key(*shape) for shape in NONSQUARE)
    for pinned in golden_nonsquare.values():
        assert sorted(pinned) == preset_names()


@pytest.mark.parametrize("name", preset_names())
def test_preset_matches_golden(name, golden, tmp_path):
    assert build(name, tmp_path) == golden[name]


@pytest.mark.parametrize("shape", NONSQUARE, ids=lambda shape: shape_key(*shape))
@pytest.mark.parametrize("name", preset_names())
def test_nonsquare_matches_golden(name, shape, golden_nonsquare, tmp_path):
    assert build(name, tmp_path, *shape) == golden_nonsquare[shape_key(*shape)][name]


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("name", SYNTHESIZE)
def test_synthesize_matches_golden(name, sign, golden_synthesized, tmp_path):
    expected = golden_synthesized["synthesize"][sign_key(name, sign)]
    assert synthesize(name, sign, tmp_path) == expected


@pytest.mark.parametrize("name", SYNTHESIZED_BUILDS)
def test_synthesized_build_matches_golden(name, golden_synthesized, tmp_path):
    expected = golden_synthesized["build"][name]
    assert build(name, tmp_path, mode="synthesized") == expected


@pytest.mark.parametrize("name", SYNTHESIZED_BUILDS)
def test_library_pencil_matches_synthesized_build(name, golden_synthesized):
    # SceneConfig.pencil() assembles the pencil that `pencil build` verifies.
    cfg = load_preset(name)
    pencil = SceneConfig.from_dict(synthesized(cfg, cfg["marching"]["sign"])).pencil()
    report = verify_dtype(pencil, SAMPLES, 1e-6)
    expected = golden_synthesized["build"][name]
    assert report.c_estimate == expected["c_estimate"]
    assert report.max_deviation == expected["max_deviation"]


def _dump(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        square = {name: build(name, out) for name in preset_names()}
        nonsquare = {
            shape_key(*shape): {name: build(name, out, *shape) for name in preset_names()}
            for shape in NONSQUARE
        }
        synth = {
            "synthesize": {sign_key(name, sign): synthesize(name, sign, out)
                           for name in SYNTHESIZE for sign in SIGNS},
            "build": {name: build(name, out, mode="synthesized")
                      for name in SYNTHESIZED_BUILDS},
        }
    _dump(GOLDEN, square)
    _dump(GOLDEN_NONSQUARE, nonsquare)
    _dump(GOLDEN_SYNTHESIZED, synth)
    print(f"wrote {len(square)} presets to {GOLDEN}, {GOLDEN_NONSQUARE} "
          f"and {GOLDEN_SYNTHESIZED}", file=sys.stderr)
