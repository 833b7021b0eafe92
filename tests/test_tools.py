"""Smoke test of ``tools/cli_digests.py``, the CLI byte-identity check."""

import importlib.util
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"


def test_cli_digests_are_22_repeatable_lines_per_seed(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    start = time.perf_counter()
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(tool.digests(0, tmp_path / name))
    assert time.perf_counter() - start < 3.0
    first, second = runs
    assert len(first) == 22 and first == second
    assert all(len(line.split("  ")[0]) == 64 and "[exit" not in line for line in first)
    assert str(tmp_path) not in "\n".join(first)  # inputs are named by file name only
