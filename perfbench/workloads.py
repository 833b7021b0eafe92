"""Workloads of the pptlab benchmark: op kinds, their inputs and output checks.

Every op is one ``pptlab`` CLI invocation (``pptlab.cli.run(argv)``).  Each op
kind has exactly one configuration per size, so its latency median never
falls between two size clusters.  Inputs come from a variant number
``v`` in ``range(VARIANTS)``: CLI model seeds are ``v`` (``figs2`` uses the
seed block ``v * seeds ...``), and files read by ``correlate`` and
``predict`` are generated from ``v`` during set-up.  The run's ``--seed``
picks the first variant; successive ops of a kind take the next ones, so
every run visits the same spread of inputs.

Why each workload (see README.md for the full table):

* ``spectral``: ``memory`` and ``tensor_ops`` do almost all the work: a
  one-shot spectral solve beside long near-identity time stepping.
  ``correlations`` and ``tomography`` are never called.
* ``process``: writes beside reads of stored PPT files.  A codec change
  moves ``build``/``predict``, a contraction change moves ``correlate``.
  ``memory`` and ``tomography`` are never called.
* ``tomography``: the dense oracle, window gates and SVD sweeps dominate.
  ``memory`` is never called.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pptlab.exceptions import PptlabError
from pptlab.ppt import PptMps

VARIANTS = 16

# Tolerances of the output checks, each with the reason it has that value.
#
# Reference values were recorded at the seed commit by record_references.py.
# A later change may reorder floating-point sums (a matmul in place of an
# einsum, a closed form in place of stepping); over the <= 2000 norm-
# preserving steps or 50 contracted sites used here that moves results by
# ~1e-12 at most, while any change of the computed quantity (a wrong step,
# site or operator) moves them by > 1e-4.  1e-9 separates the two.
REFERENCE_ATOL = 1e-9
# An expectation of Hermitian insertions on a pure state is real; the
# imaginary part is rounding noise, ~1e-15 per contracted site.
IMAG_ATOL = 1e-10
# Exact tomography recovers the process up to rounding; the acceptance
# suite demands the same 1 - 1e-8 (criterion 4).
EXACT_FIDELITY_FLOOR = 1.0 - 1e-8
# Sampled tomography at 10^4 shots recovers fidelities 0.84-0.92 on the 16
# variants (seed commit).  The floor sits well below that spread, so only a
# broken estimator or reconstruction (fidelity ~ 1/(d^2)^N for a random
# guess) fails it.
SAMPLED_FIDELITY_FLOOR = 0.75
# The CLI validation harness compares 20 random two-time expectations of
# the recovered and the true model; the acceptance suite's criterion 8
# uses the same 1e-6.
ENTANGLED_DEVIATION_MAX = 1e-6
# Infidelities are 1 - F with F in [0, 1]; allow rounding at the ends.
UNIT_INTERVAL_SLACK = 1e-12

# One configuration per op kind and size.  "full" is what the benchmark
# measures; "tiny" only serves the self-test.
SIZES = {
    "full": {
        "complexity": {"D": 16},
        "complexity_entangled": {"D": 4},
        "figs2": {"nmax": 1000, "seeds": 4, "every": 1, "ref_every": 100},
        "figs2_fresh": {"nmax": 2000, "seeds": 4, "every": 100, "ref_every": 100},
        "build": {"D": 16, "N": 50},
        "predict": {"D": 4, "N": 6, "nfuture": 50},
        "tomograph": {"D": 2, "N": 9},
        "tomograph_sampled": {"D": 2, "N": 6, "shots": 10000},
        "fit": {"D": 2, "N": 6},
        "reconstruct_entangled": {"D": 2, "N": 7},
    },
    "tiny": {
        "complexity": {"D": 4},
        "complexity_entangled": {"D": 2},
        "figs2": {"nmax": 40, "seeds": 2, "every": 1, "ref_every": 10},
        "figs2_fresh": {"nmax": 60, "seeds": 2, "every": 10, "ref_every": 10},
        "build": {"D": 3, "N": 8},
        "predict": {"D": 2, "N": 4, "nfuture": 8},
        "tomograph": {"D": 2, "N": 4},
        "tomograph_sampled": {"D": 2, "N": 3, "shots": 10000},
        "fit": {"D": 2, "N": 3},
        "reconstruct_entangled": {"D": 2, "N": 3},
    },
}


class CheckError(Exception):
    """An op's output failed its check."""


@dataclass
class Context:
    """What an op's argv and check need besides the variant."""

    size: dict
    workdir: Path
    references: dict
    size_name: str
    input_variant: int = 0  # variant of the files made in set-up


@dataclass(frozen=True)
class OpKind:
    name: str
    weight: int  # ops of this kind per cycle, so cheap kinds get more samples
    argv: Callable[[int, Context], list]
    check: Callable[[Path, int, Context], None]


# -- inputs --------------------------------------------------------------------


def observable_doc(variant: int, d: int, n_steps: int) -> dict:
    """One Hermitian insertion at every step, I + 0.1 H / ||H|| with random H,
    so the expectation stays of order one over many steps."""
    rng = np.random.default_rng(10_000 + variant)
    dim = d * d
    insertions = []
    for step in range(1, n_steps + 1):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2.0
        op = np.eye(dim) + 0.1 * h / np.linalg.norm(h, 2)
        insertions.append(
            {"step": step, "matrix": [[float(z.real), float(z.imag)] for z in op.reshape(-1)]}
        )
    return {"insertions": insertions}


def input_paths(ctx: Context) -> dict:
    w = ctx.workdir
    return {"ppt": w / "input_ppt.json", "obs": w / "input_obs.json", "fit": w / "input_fit.json"}


def process_inputs(ctx: Context) -> list:
    """Argv lists whose outputs are the process workload's input files.

    The observable file is written here directly; it is not a CLI output.
    """
    paths = input_paths(ctx)
    v = ctx.input_variant
    b, p = ctx.size["build"], ctx.size["predict"]
    paths["obs"].write_text(json.dumps(observable_doc(v, 2, b["N"])), encoding="ascii")
    return [
        ("build", ["build", "--D", str(b["D"]), "--N", str(b["N"]), "--seed", str(v),
                   "--out", str(paths["ppt"])]),
        ("fit", ["fit", "--D", str(p["D"]), "--N", str(p["N"]), "--seed", str(v),
                 "--out", str(paths["fit"])]),
    ]


# -- argv per op kind -------------------------------------------------------------


def _complexity_argv(v, ctx):
    return ["complexity", "--D", str(ctx.size["complexity"]["D"]), "--alpha", "2", "--seed", str(v)]


def _complexity_entangled_argv(v, ctx):
    D = ctx.size["complexity_entangled"]["D"]
    return ["complexity", "--D", str(D), "--entangled", "--alpha", "1,2", "--seed", str(v)]


def _figs2_args(key, v, ctx):
    c = ctx.size[key]
    argv = ["figs2", "--D", "2", "--eta", "0.01", "--nmax", str(c["nmax"]),
            "--seeds", str(c["seeds"]), "--seed-base", str(v * c["seeds"])]
    if key == "figs2_fresh":
        argv.append("--time-dependent")
    if c["every"] > 1:
        argv += ["--sample-every", str(c["every"])]
    return argv


def _build_argv(v, ctx):
    b = ctx.size["build"]
    return ["build", "--D", str(b["D"]), "--N", str(b["N"]), "--seed", str(v)]


def _correlate_argv(v, ctx):
    paths = input_paths(ctx)
    return ["correlate", "--ppt", str(paths["ppt"]), "--observable", str(paths["obs"])]


def _predict_argv(v, ctx):
    return ["predict", "--report", str(input_paths(ctx)["fit"]),
            "--nfuture", str(ctx.size["predict"]["nfuture"])]


def _tomograph_argv(v, ctx):
    c = ctx.size["tomograph"]
    return ["tomograph", "--D", str(c["D"]), "--N", str(c["N"]), "--seed", str(v)]


def _tomograph_sampled_argv(v, ctx):
    c = ctx.size["tomograph_sampled"]
    return ["tomograph", "--D", str(c["D"]), "--N", str(c["N"]),
            "--shots", str(c["shots"]), "--seed", str(v)]


def _fit_argv(v, ctx):
    c = ctx.size["fit"]
    return ["fit", "--D", str(c["D"]), "--N", str(c["N"]), "--seed", str(v)]


def _reconstruct_entangled_argv(v, ctx):
    c = ctx.size["reconstruct_entangled"]
    return ["reconstruct-entangled", "--D", str(c["D"]), "--N", str(c["N"]), "--seed", str(v)]


# -- output checks -----------------------------------------------------------------


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError) as err:
        raise CheckError(f"unreadable output: {err}") from err


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_complexity(path, v, ctx):
    doc = _load_json(path)
    reports = doc if isinstance(doc, list) else [doc]
    for rep in reports:
        _require(rep.get("theorem_pass") is True,
                 f"alpha={rep.get('alpha')}: theorem check failed ({rep})")


def figs2_rows(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["n", "mean_infidelity", "median_infidelity", "q25", "q75"]:
        raise CheckError(f"unexpected CSV header {header}")
    return [[int(r[0])] + [float(x) for x in r[1:]] for r in reader]


def reference_rows(rows: list, every: int) -> list:
    """The rows kept as reference: every ``every``-th step."""
    return [r for r in rows if r[0] % every == 0]


def _check_figs2(key):
    def check(path, v, ctx):
        c = ctx.size[key]
        try:
            rows = figs2_rows(path.read_text(encoding="ascii"))
        except (OSError, ValueError, StopIteration) as err:
            raise CheckError(f"unreadable CSV: {err}") from err
        expected_n = sorted(set(range(0, c["nmax"] + 1, c["every"])) | {c["nmax"]})
        _require([r[0] for r in rows] == expected_n, "sample steps differ from the request")
        for r in rows:
            _require(all(-UNIT_INTERVAL_SLACK <= x <= 1 + UNIT_INTERVAL_SLACK for x in r[1:]),
                     f"n={r[0]}: infidelity outside [0, 1]")
        ref = ctx.references[key][ctx.size_name][str(v)]
        got = reference_rows(rows, c["ref_every"])
        _require(len(got) == len(ref), "reference row count differs")
        for g, e in zip(got, ref):
            _require(g[0] == e[0] and max(abs(a - b) for a, b in zip(g[1:], e[1:])) <= REFERENCE_ATOL,
                     f"n={g[0]}: row {g[1:]} differs from reference {e[1:]}")
    return check


def _check_ppt_doc(doc: dict, n_steps: int, env_dim: int | None) -> None:
    try:
        mps = PptMps.from_json_dict(doc)
        mps.validate()
    except (PptlabError, KeyError, TypeError, ValueError) as err:
        raise CheckError(f"PPT does not validate: {err}") from err
    _require(mps.n_steps == n_steps, f"PPT has {mps.n_steps} steps, expected {n_steps}")
    if env_dim is not None:
        _require(mps.env_dim == env_dim, f"PPT bond {mps.env_dim}, expected {env_dim}")


def _check_build(path, v, ctx):
    b = ctx.size["build"]
    doc = _load_json(path)
    _require("model" in doc and "ppt" in doc, "build output lacks model or ppt")
    _check_ppt_doc(doc["ppt"], b["N"], b["D"])


def _check_correlate(path, v, ctx):
    value = _load_json(path).get("value")
    _require(isinstance(value, list) and len(value) == 2, f"malformed value {value}")
    re_, im_ = value
    _require(abs(im_) <= IMAG_ATOL, f"imaginary part {im_:.3e} exceeds {IMAG_ATOL}")
    ref = ctx.references["correlate"][ctx.size_name][str(ctx.input_variant)]
    _require(abs(re_ - ref) <= REFERENCE_ATOL, f"value {re_!r} differs from reference {ref!r}")


def _check_predict(path, v, ctx):
    doc = _load_json(path)
    _require("ppt" in doc, "predict output lacks ppt")
    _check_ppt_doc(doc["ppt"], ctx.size["predict"]["nfuture"], None)


def expected_queries(d: int, D: int, N: int) -> int:
    """f + 1 queries: f = N - R + 1 windows of R sites, (d^2)^(R-1) >= D."""
    R = 1
    while (d * d) ** (R - 1) < D:
        R += 1
    return N - R + 1 + 1


def _check_tomograph(key, floor):
    def check(path, v, ctx):
        c = ctx.size[key]
        doc = _load_json(path)
        fid = doc.get("state_fidelity")
        _require(isinstance(fid, float) and fid >= floor, f"state fidelity {fid} below {floor}")
        want = expected_queries(2, c["D"], c["N"])
        _require(doc.get("queries") == want, f"{doc.get('queries')} queries, expected {want}")
    return check


def _check_fit(path, v, ctx):
    _require(_load_json(path).get("converged") is True, "fit did not converge")


def _check_reconstruct_entangled(path, v, ctx):
    dev = _load_json(path).get("max_expectation_deviation")
    _require(isinstance(dev, float) and dev < ENTANGLED_DEVIATION_MAX,
             f"max expectation deviation {dev} not below {ENTANGLED_DEVIATION_MAX}")


OPS = {
    op.name: op
    for op in [
        OpKind("complexity", 1, _complexity_argv, _check_complexity),
        OpKind("complexity_entangled", 4, _complexity_entangled_argv, _check_complexity),
        OpKind("figs2", 1, lambda v, ctx: _figs2_args("figs2", v, ctx), _check_figs2("figs2")),
        OpKind("figs2_fresh", 1, lambda v, ctx: _figs2_args("figs2_fresh", v, ctx),
               _check_figs2("figs2_fresh")),
        OpKind("build", 2, _build_argv, _check_build),
        OpKind("correlate", 1, _correlate_argv, _check_correlate),
        OpKind("predict", 10, _predict_argv, _check_predict),
        OpKind("tomograph", 1, _tomograph_argv, _check_tomograph("tomograph", EXACT_FIDELITY_FLOOR)),
        OpKind("tomograph_sampled", 1, _tomograph_sampled_argv,
               _check_tomograph("tomograph_sampled", SAMPLED_FIDELITY_FLOOR)),
        OpKind("fit", 10, _fit_argv, _check_fit),
        OpKind("reconstruct_entangled", 3, _reconstruct_entangled_argv,
               _check_reconstruct_entangled),
    ]
}

WORKLOADS = {
    "spectral": ["complexity", "complexity_entangled", "figs2", "figs2_fresh"],
    "process": ["build", "correlate", "predict"],
    "tomography": ["tomograph", "tomograph_sampled", "fit", "reconstruct_entangled"],
}
