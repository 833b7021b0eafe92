"""Measurement loop, checks bookkeeping and metric reports of the benchmark.

One closed-loop client in one process issues the workload's op kinds in a
fixed cycle (``workloads.OPS`` weights) until the ops have kept it busy for
``--seconds``.  Cycles are never cut short, so the op mix, and with it
``ops_per_s``, is the same in every run.  ``ops_per_s`` is ops over the
time spent inside ``cli.run``; checking outputs is not counted.  Each
op's output is checked; a failed check counts toward ``failed`` and the
run goes on.

Set-up is importing, making the input files and one untimed warm-up op of
each kind (the first call of several scipy paths pays a one-time cost).
``setup_s`` is the median over this process and two fresh processes that
repeat the set-up.

The end-to-end timings are load-normalised.  On a 2-core x86 VM shared
with other tenants, speed drifted by up to 40 % within minutes; every op
kind slowed alike, CPU time as much as wall time.  So
each run also times ``calibrate``, a fixed numpy and pure-Python kernel
that runs no pptlab code, between ops (and five times after set-up),
and scales its timings by ``CAL_NOMINAL_S / median(calibration time)``:
a time reads as it would on the reference machine at its nominal speed.
Over 20 s windows this cut the spread of op medians from 11-16 % to 5-7 %.
The raw values are printed as information.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (``tracing.Tracer``) and reports the
per-layer metrics ``<module>.<function>.<stat>``: counts and self times
per workload op (``call_us`` per call, ``site_us`` per contracted site,
``query_ms`` per oracle query), plus the tracing overhead.  The last stdout
line is the JSON result; the lines before it are information (machine,
per-op latency medians with sample counts, failed fraction).
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
import scipy

import pptlab.cli
import workloads
from tracing import Tracer
from workloads import CheckError

BENCH_DIR = Path(__file__).resolve().parent
EXTRA_SETUPS = 2  # set-up repeated in fresh processes, for the setup_s median
SETUP_CALIBRATIONS = 5
# One calibration sample scatters by about 20 %, so a run takes many: their
# median then moves by a few per cent between runs, not by the drift.
CAL_SHARE = 0.15
# Median calibrate() time on the reference machine (2-core x86 VM, OpenBLAS
# 0.3.31, one BLAS thread) in its quiet periods.
CAL_NOMINAL_S = 0.035
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
LAYER_MODULES = ("cli", "models", "ppt", "memory", "correlations", "tomography", "tensor_ops")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_geomean_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.run.self_ms": "ms/op",
    "ppt.PptMps.to_json_dict.self_ms": "ms/op",
    "ppt.PptMps.from_json_dict.self_ms": "ms/op",
    "models.OqeModel.to_json_dict.self_ms": "ms/op",
    "models.OqeModel.from_json_dict.self_ms": "ms/op",
    "ppt.build_ppt.calls": "calls/op",
    "ppt.build_ppt.self_ms": "ms/op",
    "ppt.PptMps.to_statevector.self_ms": "ms/op",
    "ppt.statevector_to_mps.self_ms": "ms/op",
    "ppt.mps_to_oqe.self_ms": "ms/op",
    "ppt.overlap_matrix.calls": "calls/op",
    "ppt.overlap_matrix.self_ms": "ms/op",
    "memory.TransferMatrix.apply_left.calls": "calls/op",
    "memory.TransferMatrix.apply_left.self_ms": "ms/op",
    "memory.TransferMatrix.apply_left.call_us": "us/call",
    "memory.stationary_state.calls": "calls/op",
    "memory.stationary_state.self_ms": "ms/op",
    "memory.stationary_state.steps": "steps/op",
    "memory.uhlmann_fidelity.calls": "calls/op",
    "memory.uhlmann_fidelity.self_ms": "ms/op",
    "memory.transfer_matrix.calls": "calls/op",
    "memory.transfer_matrix.self_ms": "ms/op",
    "scipy.linalg.expm.calls": "calls/op",
    "scipy.linalg.expm.self_ms": "ms/op",
    "memory.fig_s2_experiment.self_ms": "ms/op",
    "tensor_ops.dominant_left_eigs.calls": "calls/op",
    "tensor_ops.dominant_left_eigs.self_ms": "ms/op",
    "tensor_ops.closest_isometry.self_ms": "ms/op",
    "tensor_ops.polar_unitary.self_ms": "ms/op",
    "tensor_ops.complete_columns.self_ms": "ms/op",
    "tensor_ops.fill_unassigned_columns.self_ms": "ms/op",
    "correlations.expectation.calls": "calls/op",
    "correlations.expectation.self_ms": "ms/op",
    "correlations.expectation.site_us": "us/site",
    "correlations.MultiTimeObservable.from_json_dict.self_ms": "ms/op",
    "tomography.MeasurementOracle.init.self_ms": "ms/op",
    "tomography.MeasurementOracle.reduced_density.calls": "calls/op",
    "tomography.MeasurementOracle.reduced_density.self_ms": "ms/op",
    "tomography.MeasurementOracle.reduced_density.query_ms": "ms/query",
    "tomography.disentangle_reconstruct.self_ms": "ms/op",
    "tomography.variational_fit.calls": "calls/op",
    "tomography.variational_fit.self_ms": "ms/op",
    "tomography.variational_fit.accepted_steps": "steps/op",
    "tomography.reconstruct_entangled_initial.self_ms": "ms/op",
    "tomography.MeasurementOracle.conditional.calls": "calls/op",
    **{f"{m}.self_ms": "ms/op" for m in LAYER_MODULES},
    **{f"{m}.errors": "errors/op" for m in LAYER_MODULES},
    "trace.overhead_pct": "%",
}

REDUCED_DENSITY = "tomography.MeasurementOracle.reduced_density"


def machine_block(inherited: dict) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            get = getattr(ctypes.CDLL(lib), fn, None)
            if get is not None:
                get.restype = ctypes.c_int
                threads = max(threads or 0, get())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "inherited_env": inherited,
        "pinned_env": "OPENBLAS/OMP/MKL_NUM_THREADS=1, PPTLAB_THREADS=1",
    }


def calibrate() -> float:
    """Time a fixed kernel like the ops' own work: small complex matrix
    products and eigensolves, and JSON plus complex-number handling in
    Python.  It calls no pptlab code, so a change to pptlab cannot move it."""
    t0 = time.perf_counter()
    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    b = a.copy()
    for _ in range(150):
        b = numpy.einsum("ij,jk->ik", a, b) / 16.0
    m = rng.standard_normal((64, 64))
    for _ in range(10):
        numpy.linalg.eig(m)
    pairs = [[i * 0.5, i * 0.25] for i in range(10_000)]
    sum(complex(x, y) for x, y in json.loads(json.dumps(pairs)))
    return time.perf_counter() - t0


class Client:
    """The single closed-loop client: runs ops, checks them, counts failures."""

    def __init__(self, ctx: workloads.Context, seed: int):
        self.ctx = ctx
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.issued = {name: 0 for name in workloads.OPS}
        self.tracer: Tracer | None = None
        self.calibrations: list = []

    def run(self, kind, argv, variant: int, out: Path) -> float:
        """Run one op and check its output; return its latency in seconds."""
        out.unlink(missing_ok=True)
        tr = self.tracer
        if tr is not None:
            queries_before = tr.calls[REDUCED_DENSITY]
            tr.stationary_steps_seen.clear()
            tr.active = True
        t0 = time.perf_counter()
        try:
            rc = pptlab.cli.run(argv)  # the wrapped run while tracing
        except Exception:  # the loop must go on; the op counts as failed
            rc = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.active = False
        self.attempted += 1
        try:
            if rc != 0:
                raise CheckError(f"exit code {rc}")
            kind.check(out, variant, self.ctx)
            if tr is not None:
                crosscheck(kind.name, out, tr, queries_before)
        except CheckError as err:
            self.failed += 1
            print(f"check failed: {kind.name} {' '.join(argv)}: {err}", file=sys.stderr)
        except Exception:  # malformed output the check did not foresee
            self.failed += 1
            print(f"check failed: {kind.name} {' '.join(argv)}:", file=sys.stderr)
            traceback.print_exc()
        return dt

    def run_kind(self, kind) -> float:
        v = (self.seed + self.issued[kind.name]) % workloads.VARIANTS
        self.issued[kind.name] += 1
        out = self.ctx.workdir / f"out_{kind.name}"
        return self.run(kind, kind.argv(v, self.ctx) + ["--out", str(out)], v, out)

    def cycles(self, kinds, seconds: float):
        """Whole cycles until the ops have been busy for ``seconds``, with
        calibrations between ops taking CAL_SHARE of the busy time."""
        latencies = {k.name: [] for k in kinds}
        busy = cal_spent = 0.0
        while busy < seconds:
            for kind in kinds:
                for _ in range(kind.weight):
                    dt = self.run_kind(kind)
                    latencies[kind.name].append(dt)
                    busy += dt
                    while cal_spent < CAL_SHARE * busy:
                        self.calibrations.append(calibrate())
                        cal_spent += self.calibrations[-1]
        return latencies, busy


def crosscheck(kind_name: str, out: Path, tracer: Tracer, queries_before: int) -> None:
    """Span counts against the program's own counters."""
    if kind_name.startswith("tomograph"):
        queries = json.loads(out.read_text(encoding="ascii"))["queries"]
        spans = tracer.calls[REDUCED_DENSITY] - queries_before
        if spans != queries:
            raise CheckError(f"{spans} reduced_density spans, report says {queries} queries")
    if kind_name.startswith("complexity"):
        doc = json.loads(out.read_text(encoding="ascii"))
        steps = {r["steps"] for r in (doc if isinstance(doc, list) else [doc])}
        seen = set(tracer.stationary_steps_seen)
        if seen != steps:
            raise CheckError(f"stationary_state returned steps {sorted(seen)}, "
                             f"reports say {sorted(steps)}")


def set_up(client: Client, kinds, workload: str) -> None:
    if workload == "process":
        for name, argv in workloads.process_inputs(client.ctx):
            client.run(workloads.OPS[name], argv, client.ctx.input_variant, Path(argv[-1]))
    for kind in kinds:
        client.run_kind(kind)


def extra_setups(args) -> list:
    """Set-up time and its calibration, each from a fresh process."""
    samples = []
    for _ in range(EXTRA_SETUPS):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
               "--references", args.references, "--setup-only"]
        proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True,
                              timeout=150, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def latency_report(latencies: dict) -> dict:
    """Print each op kind's median with its sample count and the highest
    percentile with at least ten samples beyond it; return the medians in ms."""
    medians = {}
    for name, lat in latencies.items():
        ms = sorted(x * 1e3 for x in lat)
        medians[name] = statistics.median(ms)
        tail = next((p for p in PERCENTILES if len(ms) * (1 - p / 100) >= 10), None)
        if tail is None:
            tail_text = "none (n < 20)"
        else:  # nearest rank
            tail_text = f"p{tail:g} {ms[math.ceil(tail / 100 * len(ms)) - 1]:.3f} ms"
        print(f"op {name}_p50_ms {medians[name]:.3f} ms n={len(ms)} tail: {tail_text}")
    return medians


def layer_metrics(tr: Tracer, n_ops: int, overhead_pct: float) -> dict:
    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    values = {}
    for name, unit in PER_LAYER.items():
        head, stat = name.rsplit(".", 1)
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif head in LAYER_MODULES:
            keys = [k for k in set(tr.calls) | set(tr.errors) if k.startswith(head + ".")]
            if stat == "self_ms":
                value = sum(tr.self_s[k] for k in keys) * 1e3 / n_ops
            else:
                value = sum(tr.errors[k] for k in keys) / n_ops
        elif stat == "calls":
            value = tr.calls[head] / n_ops
        elif stat == "self_ms":
            value = tr.self_s[head] * 1e3 / n_ops
        elif stat == "call_us":
            value = ratio(tr.self_s[head], tr.calls[head], 1e6)
        elif stat == "query_ms":
            value = ratio(tr.self_s[head], tr.calls[head], 1e3)
        elif stat == "site_us":
            value = ratio(tr.self_s[head], tr.extra[head + ".sites"], 1e6)
        else:  # counts the program returned
            value = tr.extra[name] / n_ops
        values[name] = {"value": value, "unit": unit}
    return values


def measure_plain(client, kinds, seconds, setups) -> dict:
    """End-to-end metrics; ``setups`` holds each process's set-up time and
    calibration."""
    latencies, busy = client.cycles(kinds, seconds)
    medians = latency_report(latencies)
    n_ops = sum(len(v) for v in latencies.values())
    cal = statistics.median(client.calibrations)
    geomean_ms = math.exp(statistics.fmean(math.log(m) for m in medians.values()))
    setup_raw = [s["setup_s"] for s in setups]
    print(f"raw setup_s samples {[round(x, 4) for x in setup_raw]}, "
          f"calibrations {[round(s['cal_s'], 4) for s in setups]}")
    print(f"raw ops_per_s {n_ops / busy:.4f}, raw op_p50_geomean_ms {geomean_ms:.3f}, "
          f"calibration median {cal:.5f} s of {len(client.calibrations)} "
          f"(nominal {CAL_NOMINAL_S} s)")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * CAL_NOMINAL_S / s["cal_s"] for s in setups),
        "ops_per_s": n_ops / busy * cal / CAL_NOMINAL_S,
        "op_p50_geomean_ms": geomean_ms * CAL_NOMINAL_S / cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure_traced(client, kinds, seconds) -> dict:
    plain, plain_busy = client.cycles(kinds, seconds / 2)
    cal_plain = statistics.median(client.calibrations)
    client.calibrations.clear()
    tracer = Tracer()
    tracer.install()
    client.tracer = tracer
    try:
        traced, traced_busy = client.cycles(kinds, seconds / 2)
    finally:
        client.tracer = None
        tracer.uninstall()
    latency_report(traced)
    n_traced = sum(len(v) for v in traced.values())
    # ops_per_s of each half, load-normalised like the end-to-end metrics
    rate_plain = sum(len(v) for v in plain.values()) / plain_busy * cal_plain / CAL_NOMINAL_S
    rate_traced = n_traced / traced_busy * statistics.median(client.calibrations) / CAL_NOMINAL_S
    overhead = 100.0 * (1.0 - rate_traced / rate_plain)
    print(f"tracing overhead {overhead:.2f} % of ops_per_s "
          f"({rate_plain:.4f} untraced, {rate_traced:.4f} traced)")
    return layer_metrics(tracer, n_traced, overhead)


def main(args, t0: float, inherited: dict) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    kinds = [workloads.OPS[name] for name in workloads.WORKLOADS[args.workload]]
    references = json.loads(Path(args.references).read_text(encoding="ascii"))

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        ctx = workloads.Context(
            size=workloads.SIZES[args.size], workdir=Path(tmp), references=references,
            size_name=args.size, input_variant=args.seed % workloads.VARIANTS,
        )
        client = Client(ctx, args.seed)
        set_up(client, kinds, args.workload)
        setup = {
            "setup_s": time.perf_counter() - t0,
            "cal_s": statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS)),
        }
        if args.setup_only:
            # a failed check here is also a failure of the parent's own set-up
            print(json.dumps(setup))
            return 0

        print("machine " + json.dumps(machine_block(inherited), sort_keys=True))
        if args.trace == 0:
            metrics = measure_plain(client, kinds, args.seconds, [setup] + extra_setups(args))
        else:
            metrics = measure_traced(client, kinds, args.seconds)

    print(f"failed_frac {client.failed / client.attempted:.6g} "
          f"({client.failed} of {client.attempted} ops)")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0
