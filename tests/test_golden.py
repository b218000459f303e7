"""Golden outputs of ``pencil build`` for every preset.

Each preset is built with 250 verification samples on a 50x50 grid
(``golden/presets.json``) and on the non-square 100x25 and 25x100 grids
(``golden/presets_nonsquare.json``), which catch an ``ns``/``nt`` mix-up
that a square grid hides.  The OBJ and CSV bytes (SHA-256) and the
summary's ``c_estimate`` and ``max_deviation`` must match exactly.  A
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
from dpencil.presets import load_preset, preset_names

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "presets.json"
GOLDEN_NONSQUARE = GOLDEN_DIR / "presets_nonsquare.json"
GRID = 50
NONSQUARE = ((100, 25), (25, 100))
SAMPLES = 250


def build(name: str, out_dir: Path, ns: int = GRID, nt: int = GRID) -> dict:
    cfg = load_preset(name)
    cfg["grid"]["ns"], cfg["grid"]["nt"] = ns, nt
    config = out_dir / f"{name}.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["build", "--config", str(config), "--samples", str(SAMPLES),
                     "-o", str(out_dir)])
    summary = json.loads(stdout.getvalue())

    def digest(key):
        return hashlib.sha256((out_dir / cfg["outputs"][key]).read_bytes()).hexdigest()

    return {
        "exit": code,
        "obj_sha256": digest("obj_path"),
        "csv_sha256": digest("csv_path"),
        "c_estimate": summary["c_estimate"],
        "max_deviation": summary["max_deviation"],
    }


def shape_key(ns: int, nt: int) -> str:
    return f"{ns}x{nt}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_nonsquare() -> dict:
    return json.loads(GOLDEN_NONSQUARE.read_text(encoding="utf-8"))


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
    _dump(GOLDEN, square)
    _dump(GOLDEN_NONSQUARE, nonsquare)
    print(f"wrote {len(square)} presets to {GOLDEN} and {GOLDEN_NONSQUARE}", file=sys.stderr)
