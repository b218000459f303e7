"""The README's library example runs against the current API, and every name
the package exports resolves."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S)
    assert block is not None
    monkeypatch.chdir(tmp_path)  # anything the example writes stays here
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme"})


def test_every_exported_name_resolves():
    import dpencil

    missing = [name for name in dpencil.__all__ if not hasattr(dpencil, name)]
    assert missing == []
