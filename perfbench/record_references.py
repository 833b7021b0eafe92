#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_references.py

Runs ``figs2`` (fixed and fresh H) and ``correlate`` through the CLI for
every input variant and both sizes, and writes ``references.json`` next to
this file.  The committed file was recorded at the commit that introduced
the benchmark; re-record only when a change of these outputs is intended
and explained.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pptlab.cli  # noqa: E402
import workloads  # noqa: E402


def run(argv, out: Path) -> str:
    rc = pptlab.cli.run(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return out.read_text(encoding="ascii")


def main() -> int:
    refs = {"figs2": {}, "figs2_fresh": {}, "correlate": {}}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        out = Path(tmp) / "out"
        for size_name, size in workloads.SIZES.items():
            for key in refs:
                refs[key][size_name] = {}
            for v in range(workloads.VARIANTS):
                ctx = workloads.Context(size=size, workdir=Path(tmp), references={},
                                        size_name=size_name, input_variant=v)
                for key in ("figs2", "figs2_fresh"):
                    rows = workloads.figs2_rows(run(workloads.OPS[key].argv(v, ctx), out))
                    refs[key][size_name][str(v)] = workloads.reference_rows(
                        rows, size[key]["ref_every"])
                for _, argv in workloads.process_inputs(ctx):
                    run(argv[:-2], Path(argv[-1]))
                value = json.loads(run(workloads.OPS["correlate"].argv(v, ctx), out))["value"]
                refs["correlate"][size_name][str(v)] = value[0]
                print(f"{size_name} variant {v}: correlate {value[0]!r}", flush=True)
    (BENCH_DIR / "references.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
