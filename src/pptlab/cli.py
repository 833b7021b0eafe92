"""Command-line entry point wiring configs to experiments.

Every stochastic subcommand requires an explicit seed, and identical
configurations produce byte-identical output.  ``figs2`` writes the CSV of
``memory.fig_s2_csv`` (17 significant digits, '.' decimal); every other
subcommand writes one JSON document through ``tensor_ops.json_text`` (sorted
keys, compact separators).

Exit codes: 0 success, 1 validation/usage error (a NaN or infinite number in
an output included), 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import correlations, memory, models, ppt, tomography
from .exceptions import ConvergenceError, PptlabError, ValidationError
from .tensor_ops import json_object, json_text


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def int_at_least(low: int):
    """Argparse type: an integer of at least ``low``.  Argparse names the
    flag in the message of a value it rejects ("argument --N: ...")."""

    def parse(text) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports text that is no integer as "invalid int value"
    return parse


non_negative_int = int_at_least(0)  # the seed flags and --shots
positive_int = int_at_least(1)  # --N, --nfuture, --dbound, --checks, --sample-every


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
    lam = _parse_lambdas(getattr(args, "lambdas", None))
    if getattr(args, "entangled", False):
        return models.random_entangled_model(args.d, args.D, args.seed, lambdas=lam)
    if lam is not None:
        raise ValidationError("--lambdas sets the Schmidt weights of --entangled models only")
    return models.random_separable_model(args.d, args.D, args.seed)


# -- subcommands -------------------------------------------------------------


def _cmd_build(args) -> int:
    model = _make_model(args)
    mps = ppt.build_ppt(model, args.N)
    doc = {"model": model.to_json_dict(), "ppt": mps.to_json_dict()}
    _write_out(json_text(doc), args.out)
    return 0


def _cmd_complexity(args) -> int:
    reports = memory.memory_complexity(_make_model(args), _parse_floats(args.alpha))
    docs = [report.to_json_dict() for report in reports]
    _write_out(json_text(docs if len(docs) > 1 else docs[0]), args.out)
    return 0


def _cmd_correlate(args) -> int:
    with open(args.ppt, encoding="ascii") as fh:
        doc = json_object(json.load(fh), "a PPT file")
    mps = ppt.PptMps.from_json_dict(doc["ppt"] if "ppt" in doc else doc)
    if args.observable:
        with open(args.observable, encoding="ascii") as fh:
            obs = correlations.MultiTimeObservable.from_json_dict(json.load(fh))
    else:
        obs = correlations.MultiTimeObservable(())
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        value = correlations.expectation(mps, obs)
    if not np.isfinite(value):
        raise ValidationError(f"expectation value is not finite ({value}): the observable overflows")
    _write_out(json_text({"value": [value.real, value.imag]}), args.out)
    return 0


def _cmd_figs2(args) -> int:
    seeds = [args.seed_base + k for k in range(args.seeds)]
    points = [*range(0, args.nmax + 1, args.sample_every), args.nmax]  # and the last step
    rows = memory.fig_s2_experiment(
        args.d,
        args.D,
        args.eta,
        args.nmax,
        seeds,
        time_dependent=args.time_dependent,
        sample_points=points,
    )
    _write_out(memory.fig_s2_csv(rows), args.out)
    return 0


def _cmd_tomograph(args) -> int:
    model = _make_model(args)
    oracle = tomography.MeasurementOracle(
        model, args.N, shots=args.shots or None, seed=args.oracle_seed
    )
    dbound = model.D if args.dbound is None else args.dbound
    report = tomography.disentangle_reconstruct(
        oracle, args.N, dbound, entangled_initial=model.entangled
    )
    _write_out(report.to_json(), args.out)
    return 0


def _cmd_fit(args) -> int:
    report = tomography.variational_fit(ppt.build_ppt(_make_model(args), args.N), seed=args.seed)
    _write_out(report.to_json(), args.out)
    return 0 if report.converged else 2


def _cmd_predict(args) -> int:
    with open(args.report, encoding="ascii") as fh:
        doc = json_object(json.load(fh), "a report file")
    if "recovered_model" not in doc:
        raise ValidationError("report file carries no recovered model")
    model = models.OqeModel.from_json_dict(doc["recovered_model"])
    if not model.time_independent:
        raise ValidationError("prediction requires a time-independent recovered model")
    predicted = ppt.build_ppt(model, args.nfuture)
    _write_out(json_text({"ppt": predicted.to_json_dict()}), args.out)
    return 0


def _cmd_reconstruct_entangled(args) -> int:
    model = _make_model(args)
    oracle = tomography.MeasurementOracle(model, args.N, unsealed=False)
    form, recovered = tomography.reconstruct_entangled_initial(oracle, D_bound=args.D)
    rng = np.random.default_rng(args.seed + 1)
    checks = [_random_observable(rng, args.d, args.N) for _ in range(args.checks)]
    refs = correlations.expectations(ppt.build_ppt(model, args.N), checks)
    gots = correlations.expectations(ppt.build_ppt(recovered, args.N), checks)
    worst = 0.0
    for ref, got in zip(refs, gots):
        worst = max(worst, abs(complex(ref) - complex(got)))
    doc = {
        "lambdas": [float(x) for x in form.lambdas],
        "max_expectation_deviation": worst,
        "model": recovered.to_json_dict(),
        "queries": oracle.query_log,
    }
    _write_out(json_text(doc), args.out)
    return 0


def _random_observable(rng, d, n_steps):
    """Random Hermitian insertions at min(2, n_steps) distinct steps."""
    steps = sorted(rng.choice(np.arange(1, n_steps + 1), size=min(2, n_steps), replace=False))
    ops = [(int(step), models.random_hermitian(d * d, rng)) for step in steps]
    return correlations.MultiTimeObservable(ops)


# -- argument plumbing --------------------------------------------------------


@functools.cache  # built once per process; parse_args leaves the parser unchanged
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
            p.add_argument(
                "--seed", type=non_negative_int, required=True, help="RNG seed (mandatory)"
            )
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("build", help="build a random model and its PPT")
    common(p)
    p.add_argument("--N", type=positive_int, required=True)
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
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("figs2", help="near-identity convergence experiment")
    common(p, seed_required=False)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True, help="ensemble size")
    p.add_argument("--seed-base", dest="seed_base", type=non_negative_int, default=0)
    p.add_argument("--time-dependent", dest="time_dependent", action="store_true")
    p.add_argument("--sample-every", dest="sample_every", type=positive_int, default=1)
    p.set_defaults(func=_cmd_figs2)

    p = sub.add_parser("tomograph", help="disentangling reconstruction from measurements")
    common(p)
    p.add_argument("--N", type=positive_int, required=True)
    p.add_argument("--dbound", type=positive_int, help="environment bound (default: true D)")
    p.add_argument(
        "--shots", type=non_negative_int, default=0, help="sampled mode shot budget (0 = exact)"
    )
    p.add_argument("--oracle-seed", dest="oracle_seed", type=non_negative_int, default=0)
    p.add_argument("--entangled", action="store_true")
    p.add_argument("--lambdas")
    p.set_defaults(func=_cmd_tomograph)

    p = sub.add_parser("fit", help="variationally fit a shared step unitary to a built PPT")
    common(p)
    p.add_argument("--N", type=positive_int, required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="extend a fitted time-independent model")
    p.add_argument("--report", required=True, help="fit/tomograph report JSON")
    p.add_argument("--nfuture", type=positive_int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("reconstruct-entangled", help="recover an entangled initial state")
    common(p)
    p.add_argument("--N", type=positive_int, required=True)
    p.add_argument("--lambdas")
    p.add_argument("--checks", type=positive_int, default=20, help="validation expectations")
    p.set_defaults(func=_cmd_reconstruct_entangled, entangled=True)

    return parser


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Override the parsed flags with the entries of the ``--config`` file.

    Each value goes through its flag's argparse ``type`` as if it had been
    typed on the command line, so a value that would not parse there (a
    float for an integer flag, text that is no number, a negative seed) is
    rejected here too.  On/off flags take JSON booleans.
    """
    if not args.config:
        return
    with open(args.config, encoding="ascii") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValidationError("config file must hold a JSON object")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        a.dest: a
        for a in commands.choices[args.command]._actions
        if a.option_strings and a.dest != "help"
    }
    for key, value in overrides.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValidationError(f"config key {key!r} does not match any flag")
        setattr(args, action.dest, _config_value(key, value, action))


def _config_value(key: str, value, action: argparse.Action):
    if action.nargs == 0:  # on/off flag
        if not isinstance(value, bool):
            raise ValidationError(f"config key {key!r} takes true or false, got {value!r}")
        return value
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise ValidationError(f"config key {key!r} takes a number or a string, got {value!r}")
    try:
        return (action.type or str)(str(value))
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise ValidationError(f"config key {key!r}: invalid value {value!r} ({err})") from None


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _apply_config(args, parser)
        return args.func(args)
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (PptlabError, OSError, json.JSONDecodeError, UnicodeDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
