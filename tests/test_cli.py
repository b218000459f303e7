import errno
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpencil import cli, dcurve
from dpencil.cli import MAX_SAMPLES, main
from dpencil.dcurve import feasible_domain, synthesize_feasible
from dpencil.errors import SceneValidationError
from dpencil.expr import MAX_DEPTH, evaluate, format_expression, parse_expression
from dpencil.mesh import write_report_csv
from dpencil.presets import load_preset, preset_names
from dpencil.scene import MAX_GRID_VERTICES, SceneConfig

from conftest import SRC, preset_config

SQRT3_2 = math.sqrt(3.0) / 2.0
# exp(s) overflows past s ~ 709.8, and the scalar evaluator raises there.
EXP_CURVE = {"x": "exp(s)*cos(s)", "y": "sin(s)", "z": "0", "param": "s", "range": [0.0, 800.0]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_config(tmp_path, cfg, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestBuild:
    def test_example1(self, tmp_path, capsys):
        code, summary, _ = run_json(
            capsys, "build", "--preset", "example1", "-o", str(tmp_path)
        )
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(SQRT3_2, abs=1e-9)
        assert summary["vertices"] == 200 * 50
        assert summary["faces"] == 199 * 49
        assert summary["defect_count"] == 0
        obj = (tmp_path / "example1.obj").read_bytes().decode("ascii")
        assert sum(1 for ln in obj.splitlines() if ln.startswith("v ")) == 10000
        assert sum(1 for ln in obj.splitlines() if ln.startswith("f ")) == 9751

    def test_byte_determinism(self, tmp_path, capsys):
        run(capsys, "build", "--preset", "example2", "-o", str(tmp_path))
        first_obj = (tmp_path / "example2.obj").read_bytes()
        first_csv = (tmp_path / "example2.csv").read_bytes()
        code, out, _ = run(capsys, "build", "--preset", "example2", "-o", str(tmp_path))
        assert code == 0
        assert (tmp_path / "example2.obj").read_bytes() == first_obj
        assert (tmp_path / "example2.csv").read_bytes() == first_csv

    def test_synthesized_mode(self, tmp_path, capsys):
        cfg = load_preset("example2")
        cfg["marching"] = {"mode": "synthesized", "c": 0.25, "sign": 1}
        path = write_config(tmp_path, cfg)
        code, summary, _ = run_json(capsys, "build", "--config", path, "-o", str(tmp_path))
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(0.25, abs=1e-9)

    def test_infeasible_constant_exit_3(self, tmp_path, capsys):
        cfg = load_preset("example2")
        cfg["marching"] = {"mode": "synthesized", "c": 1.0, "sign": 1}
        path = write_config(tmp_path, cfg)
        code, out, err = run(capsys, "build", "--config", path, "-o", str(tmp_path))
        assert code == 3
        assert "infeasible" in err

    def test_malformed_expression_exit_2(self, tmp_path, capsys):
        cfg = load_preset("example1")
        cfg["curve"]["x"] = "sin("
        path = write_config(tmp_path, cfg)
        code, out, err = run(capsys, "build", "--config", path, "-o", str(tmp_path))
        assert code == 2
        assert "offset 4" in err

    def test_marching_overflow_stays_in_exit_contract(self, tmp_path):
        # exp(t) overflows a float beyond t ~ 709.8: those vertices become
        # mesh defects instead of an uncaught OverflowError.  Run as a real
        # process so that everything written to stderr is seen.
        cfg = load_preset("example1")
        cfg["marching"]["explicit"]["U"] = "exp(t)-1"
        cfg["grid"].update(ns=8, nt=8, t_range=[0.0, 800.0])
        path = write_config(tmp_path, cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "dpencil", "build", "--config", path,
             "--samples", "64", "-o", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) <= 1
        assert json.loads(proc.stdout)["defect_count"] > 0

    def test_positions_stay_finite(self, tmp_path, capsys):
        # exp(s/2)*exp(s/2) overflows without raising past s ~ 709.8: those
        # vertices are non_finite defects at the origin, not "inf" in the OBJ.
        cfg = load_preset("example1")
        cfg["curve"].update(x="s", y="exp(s/2)*exp(s/2)", z="0", range=[0.0, 1000.0],
                            unit_speed=False)
        cfg["grid"].update(ns=11, nt=3)
        code, summary, _ = run_json(capsys, "build", "--config", write_config(tmp_path, cfg),
                                    "--samples", "2000", "-o", str(tmp_path))
        assert code == 0
        assert summary["defect_count"] == 30
        obj = (tmp_path / "example1.obj").read_text(encoding="ascii")
        assert "inf" not in obj and "nan" not in obj

    def test_no_usable_vertex_exit_4(self, tmp_path, capsys):
        # Every vertex is a defect (non_finite, inflection or domain).  The
        # build once exited 0 with a true verdict from 13 of 1,000 samples
        # and wrote an OBJ that held no surface.
        cfg = load_preset("example3")
        cfg["curve"] = EXP_CURVE
        cfg["marching"]["explicit"].update(l="1", m="1", n="1", U="t", V="t", W="t")
        cfg["grid"].update(ns=20, nt=5)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "-o", str(out_dir))
        assert (code, out) == (4, "")
        assert err == "error: no usable grid vertex: all 100 vertices are defects\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("block, key, value, error", [
        ("grid", "t_range", [0.0, math.inf], "grid.t_range[1] must be a finite number, got inf"),
        ("marching", "c", math.nan, "marching.c must be a finite number, got nan"),
        ("marching", "controls", {"x": math.inf},
         "marching.controls.x must be a finite number, got inf"),
        ("curve", "range", [-math.inf, 1.0], "curve.range[0] must be a finite number, got -inf"),
        (None, "t0", math.nan, "t0 must be a finite number, got nan"),
        ("marching", "c", 10**400, f"marching.c must be a finite number, got {10**400!r}"),
        # The parser read pi as the constant: a constant curve, no usable sample.
        ("curve", "param", "pi", "curve.param 'pi' clashes with the constant pi"),
        # linspace over these ranges yielded inf and NaN parameters.
        ("curve", "range", [-1e308, 1e308],
         "curve.range width max - min overflows, got [-1e+308, 1e+308]"),
        ("grid", "t_range", [-1e308, 1e308],
         "grid.t_range width max - min overflows, got [-1e+308, 1e+308]"),
    ], ids=["grid.t_range", "marching.c", "marching.controls", "curve.range", "t0",
            "integer_past_float", "param_pi", "curve.range_width", "grid.t_range_width"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, block, key, value, error):
        # json reads NaN and Infinity as numbers.
        cfg = load_preset("example1")
        (cfg if block is None else cfg[block])[key] = value
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "-o", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {error}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["obj_path", "csv_path"])
    @pytest.mark.parametrize("escape", ["../escape.out", "sub/../../escape.out", "ABSOLUTE"])
    def test_output_outside_the_directory_exit_2(self, tmp_path, capsys, key, escape):
        target = str(tmp_path / "escape.out") if escape == "ABSOLUTE" else escape
        cfg = load_preset("example1")
        cfg["outputs"][key] = target
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "--samples", "64", "-o", str(out_dir))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: outputs.{key} must stay under the output directory, got {target!r}"]
        assert not out_dir.exists()
        assert not (tmp_path / "escape.out").exists()

    @pytest.mark.parametrize("outputs, error", [
        ({"obj_path": ""}, "outputs.obj_path must name a file, got ''"),
        ({"csv_path": "."}, "outputs.csv_path must name a file, got '.'"),
        # Once exited 0: the CSV overwrote the mesh, and obj_path named the CSV.
        ({"obj_path": "same.txt", "csv_path": "same.txt"}, "outputs.obj_path and "
         "outputs.csv_path name the same file, got 'same.txt' and 'same.txt'"),
        ({"obj_path": "a.obj", "csv_path": "./a.obj"}, "outputs.obj_path and "
         "outputs.csv_path name the same file, got 'a.obj' and './a.obj'"),
        # Once failed only at the CSV write, after the grid and verification.
        ({"csv_path": "example1.obj/report.csv"}, "outputs.obj_path and outputs.csv_path "
         "nest, got 'example1.obj' and 'example1.obj/report.csv'"),
        ({"obj_path": "a/b.obj", "csv_path": "a"}, "outputs.obj_path and outputs.csv_path "
         "nest, got 'a/b.obj' and 'a'"),
    ], ids=["empty", "dot", "same_name", "same_file", "csv_under_obj", "obj_under_csv"])
    def test_output_naming_no_file_or_one_file_twice_exit_2(self, tmp_path, capsys, outputs,
                                                              error):
        cfg = load_preset("example1")
        cfg["outputs"].update(outputs)
        cfg["grid"].update(ns=5, nt=3)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "--samples", "16", "-o", str(out_dir))
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert not out_dir.exists()

    def test_missing_field_exit_2(self, tmp_path, capsys):
        cfg = load_preset("example1")
        del cfg["curve"]["x"]
        path = write_config(tmp_path, cfg)
        code, _, err = run(capsys, "build", "--config", path, "-o", str(tmp_path))
        assert code == 2
        assert "curve.x" in err

    @pytest.mark.parametrize("block, key, value", [
        ("marching", "sign", True),  # bool is an int, but not a sign
    ])
    def test_mistyped_field_exit_2(self, tmp_path, capsys, block, key, value):
        cfg = load_preset("example3")
        cfg[block][key] = value
        path = write_config(tmp_path, cfg)
        code, out, err = run(capsys, "build", "--config", path, "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"{block}.{key}" in err

    @pytest.mark.parametrize("command", ["build", "verify", "classify", "synthesize"])
    @pytest.mark.parametrize("text", ["[" * 1000, "[" * 1000 + "]" * 1000,
                                      '{"a": ' * 1000 + "1" + "}" * 1000],
                             ids=["unclosed_arrays", "arrays", "objects"])
    def test_deeply_nested_config_exit_2(self, tmp_path, capsys, command, text):
        # Once escaped json.loads as a RecursionError traceback.
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command, "--config", str(path), "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: config {str(path)!r} nests too deeply\n"

    def test_output_dir_is_a_file_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run(capsys, "verify", "--preset", "example1", "-o", str(taken))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot write")

    def test_unwritable_output_in_a_real_process(self, tmp_path):
        # A directory as the CSV path once escaped as an IsADirectoryError
        # traceback (exit 1).
        (tmp_path / "taken").mkdir()
        cfg = load_preset("example1")
        cfg["outputs"]["csv_path"] = "taken"
        path = write_config(tmp_path, cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "dpencil", "verify", "--config", path,
             "--samples", "64", "-o", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: cannot write")

    def test_failed_csv_write_leaves_no_obj(self, tmp_path, capsys):
        # The CSV cannot be written (its name is longer than the file system
        # allows), so the OBJ written before it never replaces an output.
        cfg = load_preset("example1")
        cfg["outputs"]["csv_path"] = "r" * 300 + ".csv"
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "--samples", "64", "-o", str(out_dir))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot write")
        assert list(out_dir.iterdir()) == []

    def test_csv_over_a_directory_leaves_no_obj(self, tmp_path, capsys):
        # Every write completes; the CSV then cannot replace the directory
        # standing at its name, and the OBJ that took its place goes too.
        cfg = load_preset("example1")
        cfg["outputs"]["csv_path"] = "taken"
        cfg["grid"].update(ns=5, nt=3)
        out_dir = tmp_path / "out"
        (out_dir / "taken").mkdir(parents=True)
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "--samples", "16", "-o", str(out_dir))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {str(out_dir / 'taken')!r}: ")
        assert [f.name for f in out_dir.iterdir()] == ["taken"]
        assert list((out_dir / "taken").iterdir()) == []

    def test_failed_build_keeps_the_previous_outputs(self, tmp_path, capsys):
        # The build once wrote its OBJ over the previous one and removed it
        # when the CSV failed: the first build's OBJ was gone.
        cfg = load_preset("example1")
        cfg["grid"].update(ns=5, nt=3)
        out_dir = tmp_path / "out"
        argv = ["build", "--config", write_config(tmp_path, cfg), "--samples", "16",
                "-o", str(out_dir)]
        assert run(capsys, *argv)[0] == 0
        previous = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        assert sorted(previous) == ["example1.csv", "example1.obj"]
        long_name = "r" * 300 + ".csv"  # longer than the file system allows
        cfg["outputs"]["csv_path"] = long_name
        argv[2] = write_config(tmp_path, cfg)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {str(out_dir / long_name)!r}: ")
        assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == previous

    def test_write_error_names_only_the_output(self, tmp_path, capsys):
        # The line once ended in the random name of the temporary file beside
        # the output, so the same input printed a different line on each run.
        cfg = load_preset("example1")
        name = "r" * 296 + ".csv"  # 300 bytes, longer than the file system allows
        cfg["outputs"]["csv_path"] = name
        cfg["grid"].update(ns=5, nt=3)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "--samples", "16", "-o", str(out_dir))
        reason = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(out_dir / name)!r}: {reason}\n"
        assert ".tmp" not in err

    @pytest.mark.parametrize("length", [238, 255])
    def test_longest_output_names(self, tmp_path, capsys, length):
        # Each output was once written to a temporary file beside it, whose
        # name is 18 bytes longer: names of 238 to 255 bytes exited 2.
        cfg = load_preset("example1")
        name = "r" * (length - 4) + ".csv"
        cfg["outputs"]["csv_path"] = name
        cfg["grid"].update(ns=5, nt=3)
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                           "--samples", "16", "-o", str(out_dir))
        assert (code, err) == (0, "")
        assert sorted(f.name for f in out_dir.iterdir()) == sorted(["example1.obj", name])

    @pytest.mark.parametrize("csv_path", ["r\u0000.csv", "r\ud800.csv", "r\udc80.csv"],
                             ids=["nul", "surrogate", "low_surrogate"])
    def test_unencodable_csv_name_leaves_no_obj(self, tmp_path, capsys, monkeypatch, csv_path):
        # No file system takes these names: they are refused when the config
        # loads, before the grid is sampled.  open() once raised ValueError
        # for them after the whole build, and the OBJ was once left behind;
        # os.fsencode once wrote the low surrogate as the raw byte 0x80.
        monkeypatch.setattr(cli, "sample_grid", lambda *a: pytest.fail("grid sampled"))
        cfg = load_preset("example1")
        cfg["outputs"]["csv_path"] = csv_path
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "--samples", "16", "-o", str(out_dir))
        assert (code, out) == (2, "")
        assert err == ("error: outputs.csv_path must be a file name without NUL that the "
                       f"file system can encode, got {csv_path!r}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("error", [OSError("no space left"), RuntimeError("interrupted")])
    def test_failed_obj_write_leaves_nothing(self, tmp_path, capsys, monkeypatch, error):
        # A writer that fails mid-write once left a partial OBJ behind.
        def write_half_then_fail(mesh, sink):
            sink.write(b"v 0 0 0\n" * 1000)
            sink.flush()
            raise error

        monkeypatch.setattr(cli, "write_obj", write_half_then_fail)
        out_dir = tmp_path / "out"
        argv = ["build", "--preset", "example1", "--samples", "64", "-o", str(out_dir)]
        if isinstance(error, OSError):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: cannot write {str(out_dir / 'example1.obj')!r}: {error}\n"
        else:
            with pytest.raises(RuntimeError, match="interrupted"):
                main(argv)
        assert list(out_dir.iterdir()) == []

    def test_failed_rewrite_keeps_the_previous_output(self, tmp_path, capsys, monkeypatch):
        previous = tmp_path / "example1.csv"
        previous.write_bytes(b"previous report\n")

        def fail(report, sink):
            sink.write(b"s,")
            raise OSError("no space left")

        monkeypatch.setattr(cli, "write_report_csv", fail)
        code, _, _ = run(capsys, "verify", "--preset", "example1", "--samples", "64",
                         "-o", str(tmp_path))
        assert code == 2
        assert list(tmp_path.iterdir()) == [previous]
        assert previous.read_bytes() == b"previous report\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_outputs_take_the_umask_mode(self, tmp_path, capsys, umask):
        # Each output is created with open(), as a new file would be: a
        # temporary file from tempfile.mkstemp is mode 0600 whatever the umask.
        cfg = load_preset("example1")
        cfg["grid"].update(ns=5, nt=3)
        out_dir = tmp_path / "out"
        previous = os.umask(umask)
        try:
            code, _, _ = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "--samples", "16", "-o", str(out_dir))
        finally:
            os.umask(previous)
        assert code == 0
        modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in out_dir.iterdir()}
        assert modes == {"example1.obj": 0o666 & ~umask, "example1.csv": 0o666 & ~umask}

    def test_nested_output_name(self, tmp_path, capsys, monkeypatch):
        # The CSV is written beside its output, in sub/, so that the rename
        # over it stays within one directory.
        sinks = []

        def write_and_record(report, sink):
            sinks.append(Path(sink.name))
            write_report_csv(report, sink)

        monkeypatch.setattr(cli, "write_report_csv", write_and_record)
        cfg = load_preset("example1")
        cfg["outputs"]["csv_path"] = "sub/r.csv"
        cfg["grid"].update(ns=5, nt=3)
        out_dir = tmp_path / "out"
        code, summary, _ = run_json(capsys, "build", "--config", write_config(tmp_path, cfg),
                                    "--samples", "16", "-o", str(out_dir))
        assert code == 0
        assert summary["csv_path"] == str(out_dir / "sub" / "r.csv")
        (sink,) = sinks
        assert sink.parent == out_dir / "sub"
        assert sink.name.startswith(".pencil-")
        assert sorted(str(f.relative_to(out_dir)) for f in out_dir.rglob("*")) == [
            "example1.obj", "sub", "sub/r.csv"]

    @pytest.mark.parametrize("case", ["success", "failed_write", "long_name"])
    def test_no_temporary_file_is_left(self, tmp_path, capsys, monkeypatch, case):
        def fail(report, sink):
            sink.write(b"s,")
            raise OSError("no space left")

        cfg = load_preset("example1")
        cfg["outputs"]["obj_path"] = "sub/example1.obj"
        cfg["grid"].update(ns=5, nt=3)
        if case == "failed_write":
            monkeypatch.setattr(cli, "write_report_csv", fail)
        if case == "long_name":
            cfg["outputs"]["csv_path"] = "r" * 300 + ".csv"
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                         "--samples", "16", "-o", str(out_dir))
        assert code == (0 if case == "success" else 2)
        assert list(out_dir.rglob(".pencil-*")) == []
        left = sorted(str(f.relative_to(out_dir)) for f in out_dir.rglob("*") if f.is_file())
        assert left == (["example1.csv", "sub/example1.obj"] if case == "success" else [])

    @pytest.mark.parametrize("command", ["build", "verify", "classify", "synthesize"])
    def test_samples_past_the_cap_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # Rejected before the scene is even loaded, so nothing is allocated.
        monkeypatch.setattr(cli, "_load_config", lambda args: pytest.fail("config loaded"))
        code, out, err = run(capsys, command, "--preset", "example1",
                             "--samples", str(MAX_SAMPLES + 1), "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: --samples must be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}\n"
        assert not list(tmp_path.iterdir())

    def test_grid_past_the_cap_exit_2(self, tmp_path, capsys):
        # 101 x 9901 is one vertex past the cap; validation allocates nothing.
        cfg = load_preset("example1")
        cfg["grid"].update(ns=101, nt=9901)
        assert 101 * 9901 == MAX_GRID_VERTICES + 1
        code, out, err = run(capsys, "build", "--config", write_config(tmp_path, cfg),
                             "-o", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert err == (f"error: grid.ns * grid.nt must be at most {MAX_GRID_VERTICES}, "
                       f"got {MAX_GRID_VERTICES + 1}\n")
        assert not (tmp_path / "out").exists()
        cfg["grid"].update(ns=1000, nt=1000)  # exactly at the cap: accepted
        SceneConfig.from_dict(cfg)

    @pytest.mark.parametrize("command, tol", [
        ("classify", "-1"),  # once reported the helix as Generic, exit 0
        ("verify", "nan"),  # once printed "tolerance": NaN, which is not JSON
        ("verify", "inf"),  # once printed "tolerance": Infinity
        ("verify", "-1"),  # once exited 1 on a D-type curve
        ("build", "-inf"),
        ("synthesize", "-0.5"),
    ])
    def test_invalid_tol_exit_2(self, tmp_path, capsys, command, tol):
        code, out, err = run(capsys, command, "--preset", "example2", f"--tol={tol}",
                             "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: --tol must be a finite number >= 0, got {float(tol)!r}\n"
        assert not list(tmp_path.iterdir())

    def test_zero_tol_is_valid(self, tmp_path, capsys):
        code, got, _ = run_json(capsys, "verify", "--preset", "example2", "--tol", "0",
                                "-o", str(tmp_path))
        assert got["tolerance"] == 0.0
        assert code == (0 if got["max_deviation"] == 0.0 else 1)

    @pytest.mark.parametrize("command, least", [("verify", 16), ("classify", 8),
                                                ("synthesize", 64)])
    def test_zero_samples_exit_2(self, tmp_path, capsys, command, least):
        code, out, err = run(capsys, command, "--preset", "example1", "--samples", "0",
                             "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: sample_count must be at least {least}\n"
        assert not list(tmp_path.iterdir())


MISSING = object()  # a field deleted from the config


def edited_preset(fields: dict) -> dict:
    """example1 with ``fields`` ("block.key": value) set, or deleted where
    the value is MISSING."""
    cfg = load_preset("example1")
    for path, value in fields.items():
        *blocks, key = path.split(".")
        block = cfg
        for name in blocks:
            block = block[name]
        if value is MISSING:
            del block[key]
        else:
            block[key] = value
    return cfg


class TestLoad:
    # One row per raise site that no other test reaches.
    @pytest.mark.parametrize("fields, error", [
        (None, "scene config must be a JSON object"),
        ({"curve.x": 1}, "curve.x must be a string, got 1"),
        ({"curve.range": [0.0]}, "curve.range must be [min, max]"),
        ({"curve.range": ["0", 1.0]}, "curve.range[0] must be a number, got '0'"),
        ({"curve.range": [1.0, 1.0]}, "curve.range must satisfy min < max, got [1.0, 1.0]"),
        ({"marching": []}, "config.marching must be an object"),
        ({"marching.mode": "implicit"},
         "marching.mode must be 'explicit' or 'synthesized', got 'implicit'"),
        ({"marching.explicit": "t"}, "marching.explicit must be an object"),
        ({"marching.explicit.W": MISSING},
         "marching.explicit needs either product parts l,m,n,U,V,W or bivariate u,v,w"),
        ({"marching.mode": "synthesized", "marching.c": MISSING},
         "synthesized mode requires marching.c"),
        ({"marching.controls": [1.0]}, "marching.controls must be an object"),
        ({"grid": 5}, "config.grid must be an object"),
        ({"grid.ns": 1}, "grid.ns and grid.nt must be integers >= 2"),
        ({"t0": 6.0}, "t0 = 6.0 must lie inside grid.t_range [0.0, 5.0]"),
        ({"outputs": "x"}, "config.outputs must be an object"),
        # Once loaded as the string 'None'.
        ({"description": None}, "description must be a string, got None"),
    ])
    def test_validation_error(self, fields, error):
        raw = [] if fields is None else edited_preset(fields)
        with pytest.raises(SceneValidationError) as info:
            SceneConfig.from_dict(raw)
        assert str(info.value) == error

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "classify", "--config", path)
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read config {path!r}: "
                       f"[Errno 2] No such file or directory: {path!r}\n")

    def test_param_t_with_the_bivariate_form_exit_2(self, tmp_path, capsys):
        # The t of u, v, w read as the curve parameter as well: the scale did
        # not vanish at t0, and the load failed with that misleading message.
        cfg = load_preset("example1")
        cfg["marching"]["explicit"] = {"u": "t*t", "v": "0", "w": "t"}
        code, _, _ = run(capsys, "verify", "--config", write_config(tmp_path, cfg),
                         "-o", str(tmp_path))
        assert code == 0
        cfg["curve"].update(x="cos(t)", y="sin(t)", param="t")
        code, out, err = run(capsys, "verify", "--config", write_config(tmp_path, cfg),
                             "-o", str(tmp_path))
        assert (code, out, err) == (2, "", "error: curve.param 't' clashes with the marching "
                                           "parameter t of marching.explicit u,v,w\n")

    @pytest.mark.parametrize("mode", ["explicit", "synthesized"])
    def test_param_t_with_separate_parts_verifies(self, tmp_path, capsys, mode):
        # The product form's s- and t-parts are separate expressions, and
        # synthesis writes its t-parts itself.
        cfg = load_preset("example1")
        cfg["curve"].update(x="cos(t)", y="sin(t)", param="t")
        cfg["marching"]["mode"] = mode
        code, summary, _ = run_json(capsys, "verify", "--config", write_config(tmp_path, cfg),
                                    "-o", str(tmp_path))
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(SQRT3_2, abs=1e-9)


class TestParser:
    @pytest.mark.parametrize("argv, code, start", [
        # Options may come before the command.
        (["--preset", "example2", "--samples", "64", "classify"], 0, '{"command": "classify"'),
        ([], 2, None),
        (["--preset", "example1"], 2, None),
        (["frob", "--preset", "example1"], 2, None),
        (["classify", "--preset", "example1", "--config", "scene.json"], 2, None),
        (["classify"], 2, None),
        *[([command, "-h"], 0, "usage: pencil") for command in cli._COMMANDS],
    ], ids=["options_first", "empty", "no_command", "unknown_command",
            "preset_and_config", "no_scene", "build_help", "verify_help", "classify_help",
            "synthesize_help"])
    def test_command_line(self, capsys, argv, code, start):
        try:
            got = main(argv)
        except SystemExit as e:  # argparse exits on -h and on a usage error
            got = e.code
        out = capsys.readouterr().out
        assert got == code
        assert out == "" if start is None else out.startswith(start)


class TestVerify:
    def test_example2(self, tmp_path, capsys):
        code, summary, _ = run_json(
            capsys, "verify", "--preset", "example2", "-o", str(tmp_path)
        )
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(0.5, abs=1e-9)
        assert (tmp_path / "example2.csv").exists()

    def test_controls_change_constant(self, tmp_path, capsys):
        code, summary, _ = run_json(
            capsys, "verify", "--preset", "example1b", "-o", str(tmp_path)
        )
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(0.5, abs=1e-9)

    def test_perturbed_marching_exit_1(self, tmp_path, capsys):
        # A 10% perturbation of the w coefficient function on the Salkowski
        # scene breaks constancy (its v and w profiles are not proportional).
        cfg = load_preset("example4")
        cfg["marching"]["explicit"]["n"] = "1.1*" + cfg["marching"]["explicit"]["n"]
        path = write_config(tmp_path, cfg)
        code, summary, _ = run_json(capsys, "verify", "--config", path, "-o", str(tmp_path))
        assert code == 1
        assert not summary["verdict"]
        assert summary["max_deviation"] > 1e-3

    def test_example4_skips_infeasible_region(self, tmp_path, capsys):
        code, summary, _ = run_json(
            capsys, "verify", "--preset", "example4", "-o", str(tmp_path)
        )
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(SQRT3_2, abs=1e-9)
        assert summary["skipped_samples"] > 0

    def test_example3_full_domain(self, tmp_path, capsys):
        code, summary, _ = run_json(
            capsys, "verify", "--preset", "example3", "-o", str(tmp_path)
        )
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(SQRT3_2, abs=1e-9)

    def test_numerical_failure_exit_4(self, tmp_path, capsys):
        # A straight line has no Frenet frame anywhere.
        cfg = load_preset("example1")
        cfg["curve"] = {"x": "s", "y": "0", "z": "0", "param": "s",
                        "range": [0.0, 1.0], "unit_speed": True}
        path = write_config(tmp_path, cfg)
        code, _, err = run(capsys, "verify", "--config", path, "-o", str(tmp_path))
        assert code == 4
        assert "samples" in err

    def test_too_few_usable_samples_exit_4(self, tmp_path, capsys):
        # Only 13 of 1,000 samples lie before exp(s) overflows; verify once
        # exited 0 with a true verdict from those 13.
        cfg = load_preset("example3")
        cfg["curve"] = EXP_CURVE
        cfg["marching"]["explicit"].update(l="1", m="1", n="1", U="t", V="t", W="t")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "verify", "--config", write_config(tmp_path, cfg),
                             "-o", str(out_dir))
        assert (code, out) == (4, "")
        assert err == "error: only 13 of 1000 samples usable\n"
        assert not out_dir.exists()


# Speed sqrt(1 + 4 q^2 + 9 q^4): 1 at q = 0 only, sqrt(14) at q = -1.
TWISTED_CUBIC = {"x": "q", "y": "q^2", "z": "q^3", "param": "q", "range": [-1.0, 1.0]}


class TestUnitSpeedIsMeasured:
    def test_example1_without_the_key_verifies_at_1e_8(self, tmp_path, capsys):
        # The default tolerance once came from curve.unit_speed: 1e-6 without it.
        cfg = load_preset("example1")
        cfg["curve"].pop("unit_speed", None)
        code, summary, _ = run_json(capsys, "verify", "--config", write_config(tmp_path, cfg),
                                    "-o", str(tmp_path))
        assert code == 0
        assert summary["tolerance"] == 1e-8

    @pytest.mark.parametrize("command, code", [("classify", 0), ("build", 0), ("verify", 1)])
    def test_false_declaration_is_dropped(self, tmp_path, capsys, command, code):
        # A false unit-speed declaration once made every command exit 2.
        cfg = load_preset("example1")
        cfg["curve"] = {**TWISTED_CUBIC, "unit_speed": True}
        cfg["grid"].update(ns=9, nt=4)
        got, summary, err = run_json(capsys, command, "--config", write_config(tmp_path, cfg),
                                     "-o", str(tmp_path))
        assert (got, err) == (code, "")
        if command == "verify":
            assert summary["tolerance"] == 1e-6

    @pytest.mark.parametrize("name", preset_names())
    def test_no_key_in_printed_configs(self, capsys, name):
        assert "unit_speed" not in SceneConfig.from_dict(load_preset(name)).to_dict()["curve"]
        code, out, _ = run_json(capsys, "synthesize", "--preset", name)
        assert code == 0
        assert "unit_speed" not in out["curve"]


class TestClassify:
    @pytest.mark.parametrize(
        "preset,kind,constant",
        [
            ("example1", "Planar", 0.0),
            ("example2", "GeneralHelix", 1.0),
            ("example4", "Salkowski", 1.0),
        ],
    )
    def test_presets(self, capsys, preset, kind, constant):
        code, got, _ = run_json(capsys, "classify", "--preset", preset)
        assert code == 0
        assert got["kind"] == kind
        assert got["constant"] == pytest.approx(constant, abs=1e-9)

    def test_generic_shows_its_deviation(self, capsys):
        # At --tol 0 the helix's rounding spread makes it generic; the
        # deviation reports that spread (it once read 0.0 for every
        # generic verdict).
        code, got, _ = run_json(capsys, "classify", "--preset", "example2", "--tol", "0")
        assert code == 0
        assert got["kind"] == "Generic"
        assert got["constant"] is None
        assert 0.0 < got["deviation"] < 1e-12

    def test_skips_leave_stderr_empty(self):
        # The eight curve has inflection samples: they are counted in the
        # JSON summary and nothing is written to stderr.  Run as a real
        # process so that warnings printed by the interpreter are seen too.
        proc = subprocess.run(
            [sys.executable, "-m", "dpencil", "classify", "--preset", "example3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["skipped_samples"] >= 1

    def test_undefined_samples_are_skipped(self, tmp_path, capsys):
        # The samples past s ~ 709.8 are skipped, as build and verify skip
        # them.  classify once exited 4 with "math range error in 'exp(s)'".
        cfg = load_preset("example3")
        cfg["curve"] = EXP_CURVE
        code, got, err = run_json(capsys, "classify", "--config", write_config(tmp_path, cfg),
                                  "--samples", "1024")
        assert (code, err) == (0, "")
        assert got["kind"] == "Planar"
        assert got["skipped_samples"] > 0

    def test_too_few_usable_samples_exit_4(self, tmp_path, capsys):
        # Only 2 of 256 samples have a frame; classify once reported Planar
        # from those two.
        cfg = load_preset("example3")
        cfg["curve"] = EXP_CURVE
        code, out, err = run(capsys, "classify", "--config", write_config(tmp_path, cfg))
        assert (code, out) == (4, "")
        assert err == "error: only 2 of 256 samples have a defined frame\n"

    def test_overflowing_curve_exit_4(self, tmp_path, capsys):
        # y' = 2e308 q overflows at every sample: no frame is defined, so
        # there is nothing to classify.
        cfg = load_preset("example3")
        cfg["curve"] = {"x": "q", "y": "1e308*q*q", "z": "0", "param": "q",
                        "range": [1.0, 5.0]}
        code, out, err = run(capsys, "classify", "--config", write_config(tmp_path, cfg))
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1


def circle_scene(z: str, lo: float, hi: float) -> dict:
    """The circle in q with the coordinate ``z`` on [lo, hi], synthesized at
    c = 0.5."""
    cfg = load_preset("example1")
    cfg["curve"].update(x="cos(q)", y="sin(q)", z=z, param="q", range=[lo, hi])
    cfg["marching"] = {"mode": "synthesized", "c": 0.5, "sign": 1}
    return cfg


class TestSynthesize:
    def test_circle(self, capsys):
        code, cfg, _ = run_json(capsys, "synthesize", "--preset", "example1")
        assert code == 0
        block = cfg["marching"]["explicit"]
        v = parse_expression(block["V"], ["t"])
        w = parse_expression(block["W"], ["t"])
        assert evaluate(v, {"t": 1.0}) == pytest.approx(SQRT3_2, abs=1e-12)
        assert evaluate(w, {"t": 1.0}) == pytest.approx(0.5, abs=1e-12)
        assert cfg["marching"]["mode"] == "explicit"

    def test_helix(self, capsys):
        code, cfg, _ = run_json(capsys, "synthesize", "--preset", "example2")
        assert code == 0
        block = cfg["marching"]["explicit"]
        for key in ("V", "W"):
            value = evaluate(parse_expression(block[key], ["t"]), {"t": 1.0})
            assert value == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_salkowski_feasible_subdomain(self, tmp_path, capsys):
        code, cfg, err = run_json(capsys, "synthesize", "--preset", "example4")
        assert code == 0
        assert "feasible_domain" in cfg
        q_star = math.sqrt(26.0) * math.pi / 6.0
        assert cfg["feasible_domain"][0][1] == pytest.approx(q_star, abs=1e-6)
        lo, hi = cfg["curve"]["range"]
        assert 0.0 <= lo < hi <= q_star
        assert cfg["marching"]["mode"] == "synthesized"
        assert cfg["marching"]["table"]["nodes"] >= 257
        # The emitted config is itself buildable.
        path = tmp_path / "synth4.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, summary, _ = run_json(
            capsys, "build", "--config", str(path), "-o", str(tmp_path)
        )
        assert code == 0
        assert summary["c_estimate"] == pytest.approx(SQRT3_2, abs=1e-6)

    @pytest.mark.parametrize("command", ["build", "verify", "synthesize"])
    def test_failure_after_a_restriction_prints_one_line(self, tmp_path, capsys, command):
        # On this range the 257-sample feasibility scan misses more
        # infeasible windows inside the interval it keeps than the retries
        # split off, so synthesis still fails after restricting.  The
        # restriction line once came before the error line.
        cfg = load_preset("example1")
        cfg["curve"].update(x="cos(s/sqrt(2))", y="-(s*s)", z="s", unit_speed=False,
                            range=[-2000.0, -5.0])
        cfg["marching"]["mode"] = "synthesized"
        cfg["marching"]["c"] = 0.5
        path = write_config(tmp_path, cfg)
        code, out, err = run(capsys, command, "--config", path, "-o", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: target constant 0.5 infeasible at parameter -328.36689237873316 "
            "(radicand -7.004e-02)"]

    def test_restriction_line_on_success(self, capsys):
        code, cfg, err = run_json(capsys, "synthesize", "--preset", "example4")
        assert code == 0
        assert err == (f"target constant feasible only on {cfg['feasible_domain']}; "
                       f"restricting to {cfg['curve']['range']}\n")

    # Every preset at its own constant, and the curves and constants of the
    # benchmark's synthesis catalogue (the helix at 3/4 and 9/10 is infeasible).
    NO_RETRY = [(name, None) for name in preset_names()] + [
        ("example1", 0.5), ("example2", 0.25), ("example2", 0.75), ("example2", 0.9)]

    @pytest.mark.parametrize("name, c", NO_RETRY)
    def test_presets_take_no_restriction_retry(self, monkeypatch, name, c):
        calls = []
        restrict = dcurve.feasible_domain
        monkeypatch.setattr(dcurve, "feasible_domain",
                            lambda *args: calls.append(args[3]) or restrict(*args))
        for sign in (1, -1):
            raw = load_preset(name)
            raw["marching"].update(mode="synthesized", sign=sign)
            if c is not None:
                raw["marching"]["c"] = c
            cfg = SceneConfig.from_dict(raw)
            try:
                synthesize_feasible(cfg.curve(), cfg.to_dict()["marching"]["c"], sign,
                                    sample_count=256)
            except cli.InfeasibleConstantError as e:
                assert e.param is None  # nowhere feasible: no parameter to retry at
        assert calls == [[], []]

    # The asymptotic limits: the circle and the eight at c = 1 and the helix
    # at 1/sqrt(2), where the radicand vanishes identically.  Feasibility once
    # kept the whole curve, and synthesis failed at its first node after
    # every restriction retry.
    BOUNDARY = [("example1", 1.0), ("example3", 1.0),
                ("example2", 1.0 / math.sqrt(2.0)), ("example2", math.sqrt(0.5))]

    @pytest.mark.parametrize("name, c", BOUNDARY)
    def test_boundary_constant_is_infeasible_without_retry(self, monkeypatch, tmp_path,
                                                           capsys, name, c):
        cfg = load_preset(name)
        cfg["marching"].update(mode="synthesized", c=c)
        assert feasible_domain(SceneConfig.from_dict(cfg).curve(), c) == []
        calls = []
        restrict = dcurve.feasible_domain
        monkeypatch.setattr(dcurve, "feasible_domain",
                            lambda *args: calls.append(args) or restrict(*args))
        path = write_config(tmp_path, cfg)
        for command in ("synthesize", "verify", "build"):
            calls.clear()
            code, out, err = run(capsys, command, "--config", path, "-o", str(tmp_path))
            assert (code, out, err) == (3, "", f"error: target constant {c!r} infeasible\n")
            assert len(calls) == 1

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    @pytest.mark.parametrize("t0", [0.25, -0.25])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_shifted_t0(self, tmp_path, capsys, name, t0, sign):
        # The scale vanishes at t = t0 rather than t = 0: closed forms for the
        # circle and the helix, a table for the eight.
        cfg = load_preset(name)
        cfg["t0"] = t0
        cfg["marching"]["sign"] = sign
        cfg["grid"].update(t_range=[-1.0, 1.0], ns=20, nt=5)
        code, out, _ = run_json(capsys, "synthesize", "--config", write_config(tmp_path, cfg))
        assert code == 0
        _, marching, _ = synthesize_feasible(SceneConfig.from_dict(cfg).curve(),
                                             cfg["marching"]["c"], sign, t0, 256)
        block = out["marching"]
        for key, text in block.get("explicit", {}).items():
            assert parse_expression(text, ["t"]).root == getattr(marching.form, key).root
        path = write_config(tmp_path, out, "synthesized.json")
        for command in ("verify", "build"):
            code, report, _ = run_json(capsys, command, "--config", path, "-o", str(tmp_path))
            assert code == 0
            assert report["c_estimate"] == pytest.approx(cfg["marching"]["c"], abs=1e-6)

    @pytest.mark.parametrize("name", preset_names())
    def test_printed_config_verifies_at_its_constant(self, tmp_path, capsys, name):
        # A preset's controls once rode along into the printed closed form,
        # which then verified at another constant (example2b: 0.6708, not 0.5).
        code, out, _ = run_json(capsys, "synthesize", "--preset", name)
        assert code == 0
        path = write_config(tmp_path, out, "synthesized.json")
        code, report, _ = run_json(capsys, "verify", "--config", path, "-o", str(tmp_path))
        assert code == 0
        assert report["c_estimate"] == pytest.approx(out["marching"]["c"], abs=1e-6)

    def test_controls_do_not_reach_a_synthesized_scale(self, tmp_path, capsys):
        # The circle at c = 0.5: the scale depends on the curve, c, sign and
        # t0 alone.  Copied into the printed closed form, these controls once
        # made it verify at 0.7559.
        cfg = load_preset("example1")
        cfg["marching"] = {"mode": "synthesized", "c": 0.5, "controls": {"x": 1, "y": 2, "z": 1}}
        assert "controls" not in SceneConfig.from_dict(cfg).to_dict()["marching"]
        code, out, _ = run_json(capsys, "synthesize", "--config", write_config(tmp_path, cfg))
        assert code == 0
        assert out["marching"]["mode"] == "explicit"
        assert out["marching"]["controls"] == {"x": 1.0, "y": 1.0, "z": 1.0}
        path = write_config(tmp_path, out, "synthesized.json")
        code, report, _ = run_json(capsys, "verify", "--config", path, "-o", str(tmp_path))
        assert code == 0
        assert report["c_estimate"] == pytest.approx(0.5, abs=1e-6)

    def test_narrow_window_around_an_inflection(self, tmp_path, capsys):
        # (q, q^3, q^6) at c = 0.99999 is feasible only on (-0.0018, 0.0018),
        # around its inflection at 0.  At 257 samples, the default, one sample
        # lands on the inflection and is a hole, so the window is found.  At
        # 256 none does, both samples beside 0 are infeasible, and the window
        # is missed.
        cfg = load_preset("example3")
        cfg["curve"].update(x="q", y="q^3", z="q^6", range=[-1.0, 1.0])
        cfg["marching"].update(mode="synthesized", c=0.99999)
        path = write_config(tmp_path, cfg)
        for samples in ([], ["--samples", "257"]):
            code, out, _ = run_json(capsys, "synthesize", "--config", path, *samples)
            assert code == 0
            assert out["curve"]["range"] == [-0.0017888645254401491, 0.0017888645254401491]
            code, _, _ = run(capsys, "verify", "--config",
                             write_config(tmp_path, out, "narrow.json"), "-o", str(tmp_path))
            assert code == 0
        code, out, err = run(capsys, "synthesize", "--config", path, "--samples", "256")
        assert (code, out, err) == (3, "", "error: target constant 0.99999 infeasible\n")

    @pytest.mark.parametrize("name", ["example1", "example3", "example4"])
    def test_scan_off_the_first_round(self, capsys, name):
        # At 256 samples the feasibility scan is not the first table round,
        # which synthesis then evaluates itself.  The circle and the eight
        # are feasible on their whole curve and print what the default scan
        # does; the Salkowski curve's restriction is the one the 256-sample
        # scan has always found.
        code, out, err = run(capsys, "synthesize", "--preset", name, "--samples", "256")
        assert code == 0
        if name == "example4":
            cfg = json.loads(out)
            assert cfg["feasible_domain"] == [[0.0, 2.669840374340829]]
            assert cfg["curve"]["range"] == [2.669840374340829e-06, 2.6698377045004547]
            assert cfg["marching"]["table"]["max_interp_error"] == 1.9935656250802403e-10
        else:
            assert (code, out, err) == run(capsys, "synthesize", "--preset", name)

    def test_node_without_a_derivative_leaves_the_table(self, tmp_path, capsys):
        # abs has no derivative at the table node q = 0, so the node has no
        # frame and is left out of the table, as an inflection is; it once
        # failed synthesis with exit 4.
        cfg = circle_scene("0*abs(q)", -1.0, 1.0)
        cfg["grid"].update(ns=21, nt=5)
        path = write_config(tmp_path, cfg)
        code, out, _ = run_json(capsys, "synthesize", "--config", path)
        assert code == 0
        assert out["marching"]["table"]["excluded"] == [[-0.0078125, 0.0078125]]
        code, _, _ = run_json(capsys, "verify", "--config", path, "-o", str(tmp_path))
        assert code == 0
        code, summary, _ = run_json(capsys, "build", "--config", path, "-o", str(tmp_path))
        assert code == 0
        assert summary["defect_count"] == 5  # the column at q = 0

    @pytest.mark.parametrize("command", ["synthesize", "verify", "build", "classify"])
    def test_curve_without_a_frame_exit_4(self, tmp_path, capsys, command):
        # A straight line has no frame anywhere, so no constant is feasible
        # on it.  synthesize, verify and build once exited 3 with "target
        # constant 0.5 infeasible", and classify 4.
        cfg = load_preset("example1")
        cfg["curve"].update(x="q", y="2*q", z="0", param="q", range=[0.0, 1.0])
        cfg["marching"] = {"mode": "synthesized", "c": 0.5, "sign": 1}
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, command, "--config", write_config(tmp_path, cfg),
                             "-o", str(out_dir))
        assert (code, out) == (4, "")
        samples = 256 if command == "classify" else 257
        assert err == f"error: only 0 of {samples} samples have a defined frame\n"
        assert not out_dir.exists()

    def test_undefined_part_is_restricted_away(self, tmp_path, capsys):
        # asin(q/2) and its derivatives are defined only on (-2, 2): past
        # that the curve has no frame, like an infeasible part, and the
        # curve is restricted to (-2, 2); it once failed with exit 4.
        cfg = circle_scene("0*asin(q/2)", -3.0, 3.0)
        code, out, _ = run_json(capsys, "synthesize", "--config", write_config(tmp_path, cfg))
        assert code == 0
        (interval,) = out["feasible_domain"]
        assert interval == pytest.approx([-2.0, 2.0], abs=1e-9)
        lo, hi = out["curve"]["range"]
        assert -2.0 < lo < hi < 2.0
        path = write_config(tmp_path, out, "synthesized.json")
        assert run(capsys, "verify", "--config", path, "-o", str(tmp_path))[0] == 0

    def test_bivariate_config(self, tmp_path, capsys):
        # The given u, v, w block is replaced by the synthesized product parts,
        # as the preset's own l, m, n, U, V, W block is.
        cfg = load_preset("example1")
        cfg["marching"]["explicit"] = {"u": "t*t", "v": "0", "w": "t"}
        got = run(capsys, "synthesize", "--config", write_config(tmp_path, cfg))
        assert got == run(capsys, "synthesize", "--preset", "example1")
        assert got[0] == 0

    def test_requires_target(self, tmp_path, capsys):
        cfg = load_preset("example1")
        del cfg["marching"]["c"]
        path = write_config(tmp_path, cfg)
        code, _, err = run(capsys, "synthesize", "--config", path)
        assert code == 2
        assert "marching.c" in err


class TestPresetFidelity:
    def test_closed_form_strings_examples_1_2(self):
        # Canonical-form comparison of the stored marching functions against
        # the reference closed forms for the circle and the helix.
        reference = {
            "example1": {"U": "t", "V": "sqrt(3)/2*t", "W": "t/2"},
            "example2": {"U": "t", "V": "sqrt(2)/2*t", "W": "sqrt(2)/2*t"},
        }
        for name, forms in reference.items():
            stored = load_preset(name)["marching"]["explicit"]
            for key, source in forms.items():
                canon_stored = format_expression(parse_expression(stored[key], ["t"]))
                canon_reference = format_expression(parse_expression(source, ["t"]))
                assert canon_stored == canon_reference

    def test_numeric_agreement_examples_3_4(self, ex3, ex4):
        # The stored coefficient functions of the non-unit-speed scenes agree
        # with freshly synthesized ones at 100 parameters.
        from dpencil.dcurve import feasible_domain, restrict_curve, synthesize_marching_scale
        from dpencil.pencil import marching_values

        for pencil in (ex3, ex4):
            curve = pencil.curve
            intervals = feasible_domain(curve, SQRT3_2)
            curve_r = restrict_curve(curve, max(intervals, key=lambda iv: iv[1] - iv[0]))
            ms = synthesize_marching_scale(curve_r, SQRT3_2)
            lo, hi = curve_r.domain
            worst = 0.0
            checked = 0
            for q in np.linspace(lo + 1e-3, hi - 1e-3, 100):
                q = float(q)
                try:
                    stored = marching_values(pencil.marching, q, 1.0)
                except Exception:
                    continue
                synth = marching_values(ms, q, 1.0)
                worst = max(worst, abs(stored.v_t - synth.v_t), abs(stored.w_t - synth.w_t))
                checked += 1
            assert checked >= 90
            assert worst <= 1e-8

    def test_all_presets_loadable(self):
        for name in preset_names():
            cfg = preset_config(name)
            assert min(cfg.grid_shape) >= 2

    def test_unknown_preset(self):
        with pytest.raises(SceneValidationError) as info:
            load_preset("example5")
        assert str(info.value) == ("unknown preset 'example5'; available: "
                                   + ", ".join(preset_names()))

    def test_example4b_variants_stored(self):
        body = load_preset("example4b")
        alt = load_preset("example4b_alt")
        assert body["marching"]["controls"]["z"] == 1.0
        assert alt["marching"]["controls"]["z"] == -1.0
        assert body["grid"]["t_range"] == [-4.0, 4.0]


# Runs ``classify`` on each config path in argv within one fresh interpreter
# (default recursion limit, no pytest frames) and prints the exit code,
# stdout and stderr of each run as JSON.
CLASSIFY_EACH = """
import contextlib, io, json, sys
from dpencil.cli import main
results = []
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--config", path])
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


class TestDeepExpressions:
    # Each of these once escaped as a RecursionError traceback (exit 1).
    CRASHERS = {
        "power_chain": "^".join(["s"] * 3000) + "^1",
        "sum_chain": "+".join(["cos(s)"] * 3000),
        "constant_sum_chain": "1+" * 3000 + "cos(s)",
        "parentheses": "(" * 3000 + "s" + ")" * 3000,
    }
    # Every component exactly as deep as the parser accepts.
    AT_LIMIT = {
        "x": "+".join(["cos(s)"] * (MAX_DEPTH - 1)),
        "y": "(" * (MAX_DEPTH - 1) + "sin(s)" + ")" * (MAX_DEPTH - 1),
        "z": "s^" + "^".join(["1"] * (MAX_DEPTH - 1)),
    }

    def test_in_a_real_process(self, tmp_path):
        curves = [{"x": x, "y": "sin(s)", "z": "0"} for x in self.CRASHERS.values()]
        paths = []
        for i, curve in enumerate(curves + [self.AT_LIMIT]):
            cfg = load_preset("example3")
            cfg["curve"] = {**curve, "param": "s", "range": [0.5, 1.5]}
            paths.append(write_config(tmp_path, cfg, f"scene{i}.json"))
        proc = subprocess.run(
            [sys.executable, "-c", CLASSIFY_EACH, *paths],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        *too_deep, at_limit = json.loads(proc.stdout)
        for name, (code, out, err) in zip(self.CRASHERS, too_deep):
            assert code == 2, name
            assert out == ""
            assert len(err.splitlines()) == 1
            assert "nested deeper than" in err
        code, out, err = at_limit
        assert code == 0, err
        assert err == ""
        assert json.loads(out)["kind"]
