"""Record reference outputs for every input the workloads can produce.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs each task once through ``dpencil.cli.main``, requires the analytic
checks of ``oracles.py`` to pass, and writes the observed summaries and
OBJ/CSV fingerprints to ``perfbench/reference.json``.  The checked-in file
was recorded from the seed commit; re-record only in a change that
explains why outputs moved.
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

import oracles
import workloads
from worker import REFERENCE, Client


def main() -> int:
    outputs, bad = {}, []
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
        client = Client(Path(tmp), None)
        tasks = workloads.all_tasks()
        for i, task in enumerate(tasks):
            _, rc, stdout, stderr = client.execute(task)
            _, cfg = client.config(task)
            problems = [f"exit {rc}, analytic {oracles.expected_exit(task)}"] \
                if rc != oracles.expected_exit(task) else []
            entry = {"exit": rc}
            if not problems and rc != 3:
                obs, problems = oracles.observe(task, stdout, client.out_dir, cfg)
                entry.update(obs)
            client.remove_outputs(task)
            if problems:
                bad.append((task.key, problems, stderr[-300:]))
            outputs[task.key] = entry
            print(f"[{i + 1}/{len(tasks)}] {task.key}: exit {rc}"
                  f"{' FAILED' if problems else ''}", file=sys.stderr)
    for key, problems, stderr in bad:
        print(f"{key}: {problems} {stderr}", file=sys.stderr)
    if bad:
        return 1
    doc = {"python": platform.python_version(), "outputs": outputs}
    REFERENCE.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
