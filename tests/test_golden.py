"""Golden outputs of ``pencil build`` for every preset.

Each preset is built on a 50x50 grid with 250 verification samples; the
OBJ and CSV bytes (SHA-256) and the summary's ``c_estimate`` and
``max_deviation`` must match ``golden/presets.json`` exactly.  A rewrite of
the numeric kernel that changes any of them must explain why and
regenerate the fixtures in a commit of its own:

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

GOLDEN = Path(__file__).resolve().parent / "golden" / "presets.json"
GRID = 50
SAMPLES = 250


def build(name: str, out_dir: Path) -> dict:
    cfg = load_preset(name)
    cfg["grid"]["ns"] = cfg["grid"]["nt"] = GRID
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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_preset_pinned(golden):
    assert sorted(golden) == preset_names()


@pytest.mark.parametrize("name", preset_names())
def test_preset_matches_golden(name, golden, tmp_path):
    assert build(name, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: build(name, Path(tmp)) for name in preset_names()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} presets to {GOLDEN}", file=sys.stderr)
