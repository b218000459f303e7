"""Run the ``pencil`` commands of a parent revision and of the working tree
over one fixed list of inputs, and report every input whose result differs.

    python tools/differential.py PARENT_REV

The parent's ``src/`` is exported with ``git archive`` into a temporary
directory; the change is the working tree's ``src/``.  Each side runs in one
child process, which calls ``dpencil.cli.main`` for every input in turn.
The inputs:

- every command on every preset as it is (explicit mode);
- every command on every preset in synthesized mode at the preset's
  constant, with sign 1 and with sign -1;
- ``synthesize --samples 64|256|257|1024`` on every preset;
- the README round trip: ``synthesize --preset example4``, then ``verify``
  and ``build`` on the config it printed;
- 200 configs drawn at seed 0 from the strategy of
  ``tests/test_cli_fuzz.py``, each with its drawn command and options.

Each run gets a fresh output directory that holds a previous output at
every name the config gives.  A run's result is its exit code, its stdout
and stderr with the temporary directory written as ``<tmp>``, and the
SHA-256 of every file left under ``-o``.  The report gives the count of
identical inputs and groups the others by (command, exit code before ->
after, first word of stderr).  The exit status is 0 when every input is
identical, else 1.

Only the standard library and the ``test`` extra (hypothesis, for the fuzz
draws) are used, and every file is written under temporary directories.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

sys.dont_write_bytecode = True  # nothing under the checkout's tests/ or src/

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("build", "verify", "classify", "synthesize")
SAMPLES = (64, 256, 257, 1024)
FUZZ_DRAWS, FUZZ_SEED = 200, 0
OUT, CONFIG = "{out}", "{config}"
PREVIOUS = "{previous}"  # a step's config: the stdout of the step before it


def _step(argv, config=None) -> dict:
    return {"argv": list(argv), "config": config}


def fixed_inputs() -> list[dict]:
    """Every input but the fuzz draws: {"label", "steps"}, where a step is
    an argv (with ``{out}`` and ``{config}`` placeholders) and the config
    written to ``{config}``, if any."""
    from dpencil.presets import load_preset, preset_names

    inputs = []
    for name in preset_names():
        for command in COMMANDS:
            inputs.append({"label": f"{command} --preset {name}", "steps": [
                _step([command, "--preset", name, "-o", OUT])]})
        for sign in (1, -1):
            cfg = load_preset(name)
            cfg["marching"] = {"mode": "synthesized", "c": cfg["marching"]["c"], "sign": sign}
            for command in COMMANDS:
                inputs.append({"label": f"{command} {name} synthesized sign {sign}", "steps": [
                    _step([command, "--config", CONFIG, "-o", OUT], cfg)]})
        for samples in SAMPLES:
            inputs.append({"label": f"synthesize --preset {name} --samples {samples}", "steps": [
                _step(["synthesize", "--preset", name, "--samples", str(samples), "-o", OUT])]})
    inputs.append({"label": "README round trip (example4)", "steps": [
        _step(["synthesize", "--preset", "example4", "-o", OUT]),
        _step(["verify", "--config", CONFIG, "-o", OUT], PREVIOUS),
        _step(["build", "--config", CONFIG, "-o", OUT], PREVIOUS),
    ]})
    return inputs


def fuzz_inputs(count: int, seed: int) -> list[dict]:
    """``count`` (command, config, options) draws of the CLI fuzz strategy
    at ``seed``, each as a one-step input."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as hypothesis_seed
    from hypothesis import strategies as st

    spec = importlib.util.spec_from_file_location("_cli_fuzz", ROOT / "tests" / "test_cli_fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    drawn = []

    @hypothesis_seed(seed)
    @settings(max_examples=count, database=None, deadline=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(st.sampled_from(fuzz.COMMANDS), fuzz.configs(), fuzz.options)
    def draw(command, config, options):
        drawn.append((command, copy.deepcopy(config), list(options)))

    draw()
    return [{"label": f"fuzz {i}: {command} {' '.join(options)}".rstrip(), "steps": [
        _step([command, "--config", CONFIG, "-o", OUT, *options], config)]}
        for i, (command, config, options) in enumerate(drawn[:count])]


def _place_previous(config, out_dir: Path) -> None:
    """A previous output at each output name of ``config`` that names a file
    under ``out_dir`` and that the file system takes."""
    outputs = config.get("outputs") if isinstance(config, dict) else None
    for name in outputs.values() if isinstance(outputs, dict) else ():
        if not isinstance(name, str):
            continue
        with contextlib.suppress(OSError, ValueError):  # too long, a NUL, a surrogate
            path = out_dir / name
            if out_dir.resolve() not in path.resolve().parents:
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "xb") as sink:
                sink.write(f"previous {name!r}\n".encode())


def _run_step(main, step: dict, config, tmp: Path) -> dict:
    out_dir, config_path = tmp / "out", tmp / "scene.json"
    out_dir.mkdir(exist_ok=True)
    if config is not None:
        config_path.write_text(config if isinstance(config, str) else json.dumps(config),
                               encoding="utf-8")
        _place_previous(config if isinstance(config, dict) else _loads(config), out_dir)
    argv = [str(out_dir) if a == OUT else str(config_path) if a == CONFIG else a
            for a in step["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse
            code = e.code
    files = {str(f.relative_to(out_dir)): hashlib.sha256(f.read_bytes()).hexdigest()
             for f in sorted(out_dir.rglob("*")) if f.is_file()}
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def _loads(text: str):
    with contextlib.suppress(ValueError):
        return json.loads(text)
    return None


def child(src: str, inputs_path: str, results_path: str) -> None:
    """Run every input of ``inputs_path`` with the ``dpencil`` under ``src``
    and write one JSON result per input to ``results_path``."""
    sys.path.insert(0, src)
    from dpencil import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the dpencil under {src}")
    warnings.simplefilter("always")  # each run prints its own warnings
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    with open(results_path, "w", encoding="utf-8") as results:
        for item in inputs:
            steps, previous = [], None
            for step in item["steps"]:
                with tempfile.TemporaryDirectory() as tmp:
                    config = previous if step["config"] == PREVIOUS else step["config"]
                    result = _run_step(cli.main, step, config, Path(tmp))
                    previous = result["stdout"]
                    for key in ("stdout", "stderr"):
                        result[key] = result[key].replace(tmp, "<tmp>")
                steps.append(result)
            results.write(json.dumps(steps) + "\n")


def _export(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into / "src"


def _first_word(text: str) -> str:
    words = text.split()
    return words[0] if words else "-"


def report(inputs: list[dict], before: list, after: list) -> int:
    groups = collections.defaultdict(list)
    for item, old, new in zip(inputs, before, after):
        differs = [(i, o, n) for i, (o, n) in enumerate(zip(old, new)) if o != n]
        if not differs:
            continue
        i, o, n = differs[0]
        key = (item["steps"][i]["argv"][0], f"{o['code']} -> {n['code']}",
               _first_word(n["stderr"] or o["stderr"]))
        fields = sorted(k for k in o if o[k] != n[k])
        groups[key].append((item["label"], fields))
    identical = len(inputs) - sum(map(len, groups.values()))
    runs = [step for steps in after for step in steps]
    codes = collections.Counter(step["code"] for step in runs)
    print(f"identical: {identical} of {len(inputs)} inputs ({len(runs)} runs, "
          f"{sum(len(step['files']) for step in runs)} files under -o)")
    print("exit codes after: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
    for (command, exits, word), members in sorted(groups.items()):
        print(f"differ: {len(members)} x ({command}, exit {exits}, stderr {word!r})")
        for label, fields in members[:3]:
            print(f"  {label}: {', '.join(fields)}")
    return 0 if not groups else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV", help="the revision to compare against")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    inputs = fixed_inputs() + fuzz_inputs(FUZZ_DRAWS, FUZZ_SEED)
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tmp = Path(tmp)
        sides = {"before": _export(args.parent, tmp / "parent"), "after": ROOT / "src"}
        (tmp / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)
        children = {side: subprocess.Popen(
            [sys.executable, __file__, "--child", str(src), str(tmp / "inputs.json"),
             str(tmp / f"{side}.jsonl")], cwd=tmp, env=env) for side, src in sides.items()}
        if any([p.wait() for p in children.values()]):  # wait for both
            print("a child process failed", file=sys.stderr)
            return 2
        results = {side: [json.loads(line) for line in
                          (tmp / f"{side}.jsonl").read_text(encoding="utf-8").splitlines()]
                   for side in sides}
    return report(inputs, results["before"], results["after"])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:5])
        raise SystemExit(0)
    raise SystemExit(main())
