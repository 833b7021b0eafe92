#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Asserts that
* every workload prints every metric named in BENCHMARK.json, with its
  unit, in both the plain and the traced run, and that all ops pass;
* every op kind's latency median is printed with its sample count;
* a wrong reference value makes ops fail (``failed`` > 0, ``correct``
  false) on both workloads that compare against references;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / SPEC["command"][1]), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0, proc.stderr
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC[key]}, set(metrics) ^ {
            m["name"] for m in SPEC[key]}
        for spec in SPEC[key]:
            assert NAME.match(spec["name"]), spec["name"]
            got = metrics[spec["name"]]
            assert got["unit"] == spec["unit"], (spec, got)
            assert isinstance(got["value"], (int, float)), (spec, got)
            if key == "end_to_end":
                assert got["value"] > 0, (spec, got)
        for op in workloads.WORKLOADS[workload]:
            assert re.search(rf"^op {op}_p50_ms [0-9.]+ ms n=\d+ ", proc.stdout, re.M), op
        print(f"ok: {workload} trace={trace}: {len(metrics)} metrics with units")


def check_wrong_reference() -> None:
    refs = json.loads((BENCH_DIR / "references.json").read_text(encoding="ascii"))
    v = str(7 % workloads.VARIANTS)  # the input variant of seed 7
    refs["correlate"]["tiny"][v] += 1e-6
    for key in ("figs2", "figs2_fresh"):
        for rows in refs[key]["tiny"].values():
            rows[-1][2] += 1e-6
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        path = Path(tmp) / "wrong.json"
        path.write_text(json.dumps(refs), encoding="ascii")
        for workload in ("process", "spectral"):
            result = result_of(bench(workload, 0, "--references", str(path)))
            assert result["failed"] > 0 and not result["correct"], result
            print(f"ok: {workload}: a wrong reference fails "
                  f"{result['failed']} of {result['attempted']} ops")


def check_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = bench("process", 0, cwd=tmp)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok: without the program the benchmark exits {proc.returncode}, no result")


def main() -> int:
    for w in SPEC["workloads"]:
        check_metrics(w["name"])
    check_wrong_reference()
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
