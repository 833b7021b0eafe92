"""Command-line entry point wiring configs to experiments.

Every stochastic subcommand requires an explicit seed, outputs are written
with fixed float formatting (17 significant digits, '.' decimal), and
identical configurations produce byte-identical files.

Exit codes: 0 success, 1 validation/usage error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import correlations, memory, models, ppt, tomography
from .exceptions import ConvergenceError, PptlabError, ValidationError


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _parse_floats(text) -> list[float]:
    """Comma list of numbers; empty entries are skipped."""
    try:
        return [float(x) for x in str(text).split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"invalid number list {text!r}") from None


def _parse_lambdas(text: str | None):
    if not text:
        return None
    vals = _parse_floats(text)
    if not all(0 <= v < np.inf for v in vals) or sum(vals) == 0:
        raise ValidationError(f"invalid Schmidt coefficient list {text!r}")
    return np.sqrt(np.array(vals) / np.sum(vals))


def _make_model(args) -> models.OqeModel:
    if getattr(args, "entangled", False):
        lam = _parse_lambdas(getattr(args, "lambdas", None))
        return models.random_entangled_model(args.d, args.D, args.seed, lambdas=lam)
    return models.random_separable_model(args.d, args.D, args.seed)


# -- subcommands -------------------------------------------------------------


def _cmd_build(args) -> int:
    model = _make_model(args)
    mps = ppt.build_ppt(model, args.N)
    doc = {"model": model.to_json_dict(), "ppt": mps.to_json_dict()}
    _write_out(_json_dumps(doc), args.out)
    return 0


def _cmd_complexity(args) -> int:
    alphas = _parse_floats(args.alpha)
    if not alphas:
        raise ValidationError(f"invalid Renyi order list {args.alpha!r}")
    model = _make_model(args)
    reports = []
    for alpha in alphas:
        check = memory.theorem1_check(model, alpha)
        doc = check.report.to_json_dict(predicted_bits=check.predicted)
        doc["theorem_pass"] = check.passed
        doc["theorem_skipped"] = check.skipped
        reports.append(doc)
    _write_out(_json_dumps(reports if len(reports) > 1 else reports[0]), args.out)
    return 0


def _cmd_correlate(args) -> int:
    with open(args.ppt, encoding="ascii") as fh:
        doc = json.load(fh)
    mps = ppt.PptMps.from_json_dict(doc["ppt"] if "ppt" in doc else doc)
    if args.observable:
        with open(args.observable, encoding="ascii") as fh:
            obs = correlations.MultiTimeObservable.from_json_dict(json.load(fh))
    else:
        obs = correlations.MultiTimeObservable.create([])
    value = correlations.expectation(mps, obs)
    _write_out(_json_dumps({"value": [value.real, value.imag]}), args.out)
    return 0


def _cmd_figs2(args) -> int:
    if args.sample_every < 1:
        raise ValidationError(f"--sample-every must be at least 1, got {args.sample_every}")
    seeds = [args.seed_base + k for k in range(args.seeds)]
    points = None
    if args.sample_every > 1:
        points = sorted(set(list(range(0, args.nmax + 1, args.sample_every)) + [args.nmax]))
    rows = memory.fig_s2_experiment(
        args.d,
        args.D,
        args.eta,
        args.nmax,
        seeds,
        time_dependent=args.time_dependent,
        sample_points=points,
    )
    if args.format == "json":
        doc = [
            {"n": n, "mean_infidelity": m, "median_infidelity": md, "q25": q1, "q75": q3}
            for n, m, md, q1, q3 in rows
        ]
        _write_out(_json_dumps(doc), args.out)
    else:
        _write_out(memory.fig_s2_csv(rows), args.out)
    return 0


def _cmd_tomograph(args) -> int:
    model = _make_model(args)
    mode = "sampled" if args.shots else "exact"
    oracle = tomography.MeasurementOracle(
        model, args.N, mode=mode, shots=args.shots or None, seed=args.oracle_seed
    )
    dbound = args.dbound if args.dbound else model.D
    report = tomography.disentangle_reconstruct(
        oracle, args.N, dbound, entangled_initial=model.entangled
    )
    _write_out(report.to_json(), args.out)
    return 0


def _cmd_fit(args) -> int:
    model = _make_model(args)
    target = ppt.build_ppt(model, args.N)
    report = tomography.variational_fit(
        target,
        args.N,
        target.env_dim,
        time_independent=not args.time_dependent,
        seed=args.seed,
    )
    _write_out(report.to_json(), args.out)
    return 0 if report.converged else 2


def _cmd_predict(args) -> int:
    with open(args.report, encoding="ascii") as fh:
        doc = json.load(fh)
    if "recovered_model" not in doc:
        raise ValidationError("report file carries no recovered model")
    model = models.OqeModel.from_json_dict(doc["recovered_model"])
    if not model.time_independent:
        raise ValidationError("prediction requires a time-independent recovered model")
    predicted = ppt.build_ppt(model, args.nfuture)
    _write_out(_json_dumps({"ppt": predicted.to_json_dict()}), args.out)
    return 0


def _cmd_reconstruct_entangled(args) -> int:
    if args.checks < 1:
        raise ValidationError(f"--checks must be at least 1, got {args.checks}")
    lam = _parse_lambdas(args.lambdas)
    model = models.random_entangled_model(args.d, args.D, args.seed, lambdas=lam)
    oracle = tomography.MeasurementOracle(model, args.N)
    form, recovered = tomography.reconstruct_entangled_initial(oracle, D_bound=args.D)
    rng = np.random.default_rng(args.seed + 1)
    worst = 0.0
    truth = ppt.build_ppt(model, args.N)
    rebuilt = ppt.build_ppt(recovered, args.N)
    for _ in range(args.checks):
        obs = _random_observable(rng, args.d, args.N, 2)
        ref = correlations.expectation(truth, obs)
        got = correlations.expectation(rebuilt, obs)
        worst = max(worst, abs(ref - got))
    doc = {
        "lambdas": [float(x) for x in form.lambdas],
        "max_expectation_deviation": worst,
        "model": recovered.to_json_dict(),
    }
    _write_out(_json_dumps(doc), args.out)
    return 0


def _random_observable(rng, d, n_steps, n_insertions):
    steps = sorted(rng.choice(np.arange(1, n_steps + 1), size=n_insertions, replace=False))
    ops = []
    for step in steps:
        ops.append((int(step), models.random_hermitian(d * d, rng)))
    return correlations.MultiTimeObservable.create(ops)


# -- argument plumbing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pptlab",
        description="Purified process tensor experiments over hidden open quantum evolutions.",
    )
    parser.add_argument("--config", help="JSON file whose entries override the flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=True):
        p.add_argument("--d", type=int, default=2, help="system dimension")
        p.add_argument("--D", type=int, default=2, help="environment dimension")
        if seed_required:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("build", help="build a random model and its PPT")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--entangled", action="store_true")
    p.add_argument("--lambdas", help="comma list of Schmidt weights (squared), e.g. 0.9,0.1")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("complexity", help="stationary state and memory complexity")
    common(p)
    p.add_argument("--alpha", default="2", help="comma list of Renyi orders")
    p.add_argument("--entangled", action="store_true")
    p.add_argument("--lambdas")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("correlate", help="evaluate a multi-time observable on a stored PPT")
    p.add_argument("--ppt", required=True, help="PPT JSON file (or build output)")
    p.add_argument("--observable", help="observable JSON file; omitted = empty insertion list")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("figs2", help="near-identity convergence experiment")
    common(p, seed_required=False)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True, help="ensemble size")
    p.add_argument("--seed-base", dest="seed_base", type=int, default=0)
    p.add_argument("--time-dependent", dest="time_dependent", action="store_true")
    p.add_argument("--sample-every", dest="sample_every", type=int, default=1)
    p.set_defaults(func=_cmd_figs2, format="csv")

    p = sub.add_parser("tomograph", help="disentangling reconstruction from measurements")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--dbound", type=int, default=0, help="environment bound (default: true D)")
    p.add_argument("--shots", type=int, default=0, help="sampled mode shot budget (0 = exact)")
    p.add_argument("--oracle-seed", dest="oracle_seed", type=int, default=0)
    p.add_argument("--entangled", action="store_true")
    p.add_argument("--lambdas")
    p.set_defaults(func=_cmd_tomograph)

    p = sub.add_parser("fit", help="variationally fit step unitaries to a built PPT")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--time-dependent", dest="time_dependent", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="extend a fitted time-independent model")
    p.add_argument("--report", required=True, help="fit/tomograph report JSON")
    p.add_argument("--nfuture", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("reconstruct-entangled", help="recover an entangled initial state")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambdas")
    p.add_argument("--checks", type=int, default=20, help="validation expectations")
    p.set_defaults(func=_cmd_reconstruct_entangled)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    with open(args.config, encoding="ascii") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValidationError("config file must hold a JSON object")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValidationError(f"config key {key!r} does not match any flag")
        setattr(args, attr, value)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _apply_config(args)
        return args.func(args)
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (PptlabError, OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
