import base64
import contextlib
import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pptlab
from pptlab import (
    MultiTimeObservable,
    OqeModel,
    PptMps,
    build_ppt,
    cli,
    memory,
    random_separable_model,
)
from pptlab.models import random_hermitian
from pptlab.cli import run
from pptlab.tensor_ops import decode_complex, encode_complex, json_text

from conftest import pair_leaf


def read(path):
    with open(path, encoding="ascii") as fh:
        return fh.read()


class TestComplexity:
    def test_value_bits_one(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["complexity", "--d", "2", "--D", "2", "--alpha", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        doc = json.loads(read(out))
        assert abs(doc["value_bits"] - 1.0) < 1e-6
        assert doc["theorem_pass"]

    def test_alpha_list(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["complexity", "--d", "2", "--D", "3", "--alpha", "0.5,1,2", "--seed", "1", "--out", str(out)]) == 0
        docs = json.loads(read(out))
        assert len(docs) == 3
        for doc in docs:
            assert abs(doc["value_bits"] - np.log2(3)) < 1e-6

    @pytest.mark.parametrize("entangled", [[], ["--entangled"]], ids=["separable", "entangled"])
    def test_zero_entropy_prints_unsigned(self, capsys, entangled):
        # at D = 1 the stationary state is pure: -(1 log2 1) and log2(1) / (1 - alpha)
        # are -0.0, which must print as 0.0
        assert run(["complexity", "--D", "1", "--alpha", "0.5,1,2", "--seed", "0", *entangled]) == 0
        out = capsys.readouterr().out
        assert [doc["value_bits"] for doc in json.loads(out)] == [0.0, 0.0, 0.0]
        assert "-0.0" not in out

    def test_one_stationary_solve_for_every_order(self, tmp_path, monkeypatch):
        calls = []
        solve = memory.stationary_state

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(memory, "stationary_state", counting)
        out = tmp_path / "c.json"
        argv = ["complexity", "--D", "3", "--alpha", "0.5,1,2,3", "--seed", "1", "--out", str(out)]
        assert run(argv) == 0
        docs = json.loads(read(out))
        assert [doc["alpha"] for doc in docs] == [0.5, 1.0, 2.0, 3.0]
        assert len(calls) == 1
        assert all(doc["theorem_pass"] and doc["steps"] == 0 for doc in docs)

    def test_large_D_builds_no_dense_transfer_matrix(self, monkeypatch, capsys):
        # D = 16 goes through the Krylov solve, whose output must not depend
        # on earlier calls, so it is compared across runs and a fresh process.
        argv = ["complexity", "--D", "16", "--alpha", "1,2", "--seed", "3"]
        src = str(Path(pptlab.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        fresh = subprocess.run(
            [sys.executable, "-m", "pptlab", *argv],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

        def forbidden(sites):
            raise AssertionError(f"dense transfer matrix built for a {sites.shape} site")

        monkeypatch.setattr(memory, "_left_matrix", forbidden)
        outputs = []
        for _ in range(2):
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == [fresh, fresh]
        assert all(doc["theorem_pass"] for doc in json.loads(fresh))


class TestBuildAndCorrelate:
    def test_identity_observable_gives_one(self, tmp_path):
        build_out = tmp_path / "build.json"
        assert run(["build", "--d", "2", "--D", "1", "--N", "3", "--seed", "1", "--out", str(build_out)]) == 0
        obs = MultiTimeObservable([(2, np.eye(4))])
        obs_path = tmp_path / "obs.json"
        obs_path.write_text(obs.to_json())
        out = tmp_path / "value.json"
        assert run(["correlate", "--ppt", str(build_out), "--observable", str(obs_path), "--out", str(out)]) == 0
        value = json.loads(read(out))["value"]
        assert abs(value[0] - 1.0) < 1e-10 and abs(value[1]) < 1e-10

    def test_outputs_roundtrip_through_loaders(self, tmp_path):
        build_out = tmp_path / "build.json"
        run(["build", "--d", "2", "--D", "2", "--N", "3", "--seed", "4", "--out", str(build_out)])
        doc = json.loads(read(build_out))
        OqeModel.from_json_dict(doc["model"])
        PptMps.from_json_dict(doc["ppt"])

    def test_none_claim_correlates_to_the_same_value(self, tmp_path):
        # a document that does not claim right-canonical form is read by
        # its measured form, not rejected
        rng = np.random.default_rng(0)
        obs = MultiTimeObservable([(1, random_hermitian(4, rng)), (3, random_hermitian(4, rng))])
        obs_path = tmp_path / "obs.json"
        obs_path.write_text(obs.to_json())
        values = []
        for canonical in ("right", "none"):
            build_out, out = tmp_path / f"{canonical}.json", tmp_path / f"{canonical}_value.json"
            assert run(["build", "--D", "3", "--N", "4", "--seed", "2", "--out", str(build_out)]) == 0
            doc = json.loads(read(build_out))
            doc["ppt"]["canonical"] = canonical
            build_out.write_text(json.dumps(doc))
            argv = ["correlate", "--ppt", str(build_out), "--observable", str(obs_path)]
            assert run(argv + ["--out", str(out)]) == 0
            values.append(complex(*json.loads(read(out))["value"]))
        assert abs(values[0] - values[1]) < 1e-12
        assert abs(values[0]) > 1e-3  # a non-trivial value

    def test_correlate_without_an_observable_prints_the_norm(self, tmp_path, capsys):
        build_out = tmp_path / "build.json"
        assert run(["build", "--D", "2", "--N", "3", "--seed", "1", "--out", str(build_out)]) == 0
        assert run(["correlate", "--ppt", str(build_out)]) == 0
        assert capsys.readouterr().out == '{"value":[1.0,0.0]}\n'

    def test_build_file_size_does_not_grow_with_n(self, tmp_path):
        # steps 2..N repeat one 16 KB site, written once with its run length
        sizes = []
        for N in (50, 500):
            out = tmp_path / f"build_{N}.json"
            assert run(["build", "--D", "16", "--N", str(N), "--seed", "1", "--out", str(out)]) == 0
            sizes.append(out.stat().st_size)
        assert abs(sizes[1] - sizes[0]) < 1024


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["figs2", "--d", "2", "--D", "2", "--eta", "0.05", "--nmax", "50",
                "--seeds", "3", "--sample-every", "10"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)
        assert read(a).splitlines()[0] == "n,mean_infidelity,median_infidelity,q25,q75"

    def test_tomograph_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["tomograph", "--d", "2", "--D", "2", "--N", "4", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_figs2_monotone_trend_and_baseline(self, tmp_path):
        # regression baseline from the first run: the eta=0.01 ensemble sits
        # near 0.12 median infidelity by n=2000 (gap ~2.2e-4 per step)
        out = tmp_path / "curve.csv"
        assert run(["figs2", "--d", "2", "--D", "2", "--eta", "0.01", "--nmax", "2000",
                    "--seeds", "20", "--sample-every", "200", "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).strip().split("\n")[1:]]
        medians = [float(r[2]) for r in rows]
        assert all(x >= y for x, y in zip(medians, medians[1:]))
        assert 0.05 < medians[-1] < 0.25


class TestConfigAndErrors:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"D": 3}))
        out = tmp_path / "c.json"
        code = run(["--config", str(cfg), "complexity", "--d", "2", "--D", "2",
                    "--alpha", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert abs(json.loads(read(out))["value_bits"] - np.log2(3)) < 1e-6

    def test_unknown_subcommand_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_missing_seed_exits_one(self):
        assert run(["complexity", "--d", "2", "--D", "2", "--alpha", "2"]) == 1

    def test_figs2_empty_seed_ensemble_exits_one(self, capsys):
        assert run(["figs2", "--eta", "0.01", "--nmax", "10", "--seeds", "0"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_figs2_negative_nmax_exits_one(self, capsys):
        assert run(["figs2", "--eta", "0.01", "--nmax", "-5", "--seeds", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("eta", ["nan", "inf", "-0.1", "0"])
    @pytest.mark.parametrize("fresh", [False, True], ids=["fixed", "fresh"])
    def test_figs2_non_finite_or_non_positive_eta_exits_one(self, eta, fresh, capsys):
        argv = ["figs2", "--eta", eta, "--nmax", "10", "--seeds", "2"]
        assert run(argv + (["--time-dependent"] if fresh else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: eta" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("eta", ["1e20", "1e300"])
    @pytest.mark.parametrize("fresh", [False, True], ids=["fixed", "fresh"])
    def test_figs2_eta_too_large_for_unitary_draws_exits_one(self, eta, fresh, capsys):
        # the draws would need more squarings than keep them unitary; refused
        # before any squaring, with no numpy overflow warning on the way
        argv = ["figs2", "--D", "2", "--eta", eta, "--nmax", "3", "--seeds", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + (["--time-dependent"] if fresh else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: eta={float(eta)!r} is too large")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--N", "3"],
            ["build", "--N", "3", "--entangled"],
            ["complexity"],
            ["complexity", "--entangled"],
            ["tomograph", "--N", "3"],
            ["tomograph", "--N", "3", "--entangled"],
            ["fit", "--N", "3"],
            ["reconstruct-entangled", "--N", "3"],
        ],
        ids=["build", "build_entangled", "complexity", "complexity_entangled", "tomograph",
             "tomograph_entangled", "fit", "reconstruct_entangled"],
    )
    @pytest.mark.parametrize(
        "flag, value", [("d", "1"), ("d", "0"), ("D", "0"), ("D", "-1")],
        ids=["d1", "d0", "D0", "D_negative"],
    )
    def test_small_dimensions_exit_one(self, argv, flag, value, capsys):
        assert run(argv + ["--seed", "1", f"--{flag}", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}={value}" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["complexity", "--seed", "1", "--alpha", "abc"],
            ["complexity", "--seed", "1", "--alpha", ""],
            ["complexity", "--seed", "1", "--alpha", "nan"],
            ["complexity", "--seed", "1", "--alpha", "inf"],
            ["complexity", "--seed", "1", "--entangled", "--lambdas", "1,x"],
            ["complexity", "--seed", "1", "--entangled", "--lambdas", "nan"],
            ["complexity", "--seed", "1", "--entangled", "--lambdas", "0,0"],
            ["figs2", "--D", "0", "--eta", "0.01", "--nmax", "10", "--seeds", "2"],
            ["figs2", "--eta", "0.01", "--nmax", "10", "--seeds", "2", "--sample-every", "-3"],
            ["figs2", "--eta", "0.01", "--nmax", "10", "--seeds", "2", "--sample-every", "0"],
            ["reconstruct-entangled", "--N", "3", "--seed", "1", "--checks", "0"],
            ["reconstruct-entangled", "--N", "3", "--seed", "1", "--checks", "-1"],
        ],
        ids=["alpha_text", "alpha_empty", "alpha_nan", "alpha_inf", "lambdas_text", "lambdas_nan",
             "lambdas_zero", "figs2_D0",
             "stride_negative", "stride_zero", "checks_zero", "checks_negative"],
    )
    def test_out_of_range_flags_exit_one(self, argv, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["complexity", "--seed", "-1"],
            ["figs2", "--seed-base", "-1", "--eta", "0.1", "--nmax", "5", "--seeds", "2"],
            ["tomograph", "--shots", "100", "--oracle-seed", "-1", "--N", "4", "--seed", "1"],
            ["tomograph", "--N", "4", "--seed", "1", "--dbound", "0"],
            ["tomograph", "--N", "4", "--seed", "1", "--dbound", "-2"],
        ],
        ids=["seed", "seed_base", "oracle_seed", "dbound_zero", "dbound_negative"],
    )
    def test_negative_integer_flags_exit_one(self, argv, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["build", "--seed", "1"], "N", "0"),
            (["build", "--seed", "1"], "N", "2.5"),
            (["tomograph", "--seed", "1"], "N", "-1"),
            (["fit", "--seed", "1"], "N", "0"),
            (["reconstruct-entangled", "--seed", "1"], "N", "0"),
            (["predict", "--report", "report.json"], "nfuture", "-2"),
            (["predict", "--report", "report.json"], "nfuture", "0"),
            (["tomograph", "--seed", "1", "--N", "3"], "shots", "-1"),
            (["figs2", "--eta", "0.01", "--nmax", "10"], "seeds", "-2"),
            (["figs2", "--eta", "0.01", "--nmax", "10"], "seeds", "0"),
            (["figs2", "--eta", "0.01", "--seeds", "2"], "nmax", "-1"),
        ],
        ids=["N_zero", "N_float", "tomograph_N", "fit_N", "reconstruct_N", "nfuture_negative",
             "nfuture_zero", "shots_negative", "seeds_negative", "seeds_zero", "nmax_negative"],
    )
    def test_integer_flags_checked_at_parse_time(self, tmp_path, capsys, argv, flag, value):
        assert run(argv + [f"--{flag}", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"error: argument --{flag}: " in captured.err
        # the same value from a --config file is rejected through the same type
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        assert run(["--config", str(cfg), *argv, f"--{flag}", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"config key {flag!r}: invalid value" in captured.err

    @pytest.mark.parametrize(
        "config",
        [{"nmax": 2.5}, {"seeds": 2.5}, {"nmax": "ten"}, {"seed_base": -1}, {"eta": None},
         {"time_dependent": 1}, {"sample_every": 0}, {"func": 1}],
        ids=["float_nmax", "float_seeds", "text_nmax", "negative_seed_base", "null_eta",
             "int_for_switch", "zero_sample_every", "not_a_flag"],
    )
    def test_config_values_parse_like_flags(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["--config", str(cfg), "figs2", "--eta", "0.1", "--nmax", "5", "--seeds", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    def test_config_values_convert_through_flag_types(self, tmp_path):
        flags = ["figs2", "--eta", "0.1", "--nmax", "5", "--seeds", "2"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": "10", "seeds": "3", "eta": "0.05", "time-dependent": True}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["--config", str(cfg), *flags, "--out", str(a)]) == 0
        assert run(["figs2", "--eta", "0.05", "--nmax", "10", "--seeds", "3",
                    "--time-dependent", "--out", str(b)]) == 0
        assert read(a) == read(b)

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--N", "3", "--seed", "1"],
            ["complexity", "--seed", "1"],
            ["correlate", "--ppt", "build.json"],
            ["figs2", "--eta", "0.1", "--nmax", "5", "--seeds", "2"],
            ["tomograph", "--N", "3", "--seed", "1"],
            ["fit", "--N", "3", "--seed", "1"],
            ["predict", "--report", "report.json", "--nfuture", "3"],
            ["reconstruct-entangled", "--N", "3", "--seed", "1"],
        ],
        ids=["build", "complexity", "correlate", "figs2", "tomograph", "fit", "predict",
             "reconstruct_entangled"],
    )
    def test_no_subcommand_takes_format(self, tmp_path, capsys, argv):
        # figs2 writes CSV and every other subcommand JSON: there is no choice to make
        assert run(argv + ["--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --format csv" in captured.err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        assert run(["--config", str(cfg), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "does not match any flag" in captured.err

    def test_time_dependent_is_a_figs2_flag_only(self, tmp_path, capsys):
        # fit fits one shared step unitary; a per-step model is mps_to_oqe's read-back
        argv = ["fit", "--N", "3", "--seed", "1"]
        assert run(argv + ["--time-dependent"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --time-dependent" in captured.err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"time-dependent": True}))
        assert run(["--config", str(cfg), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "does not match any flag" in captured.err

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize(
        "argv", [["build", "--N", "3"], ["complexity"], ["tomograph", "--N", "3"]],
        ids=["build", "complexity", "tomograph"],
    )
    def test_lambdas_need_entangled(self, tmp_path, capsys, argv, via_config):
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"lambdas": "0.9,0.1"}))
            argv = ["--config", str(cfg), *argv, "--seed", "1"]
        else:
            argv = [*argv, "--seed", "1", "--lambdas", "0.9,0.1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--entangled" in captured.err
        assert run(argv + ["--entangled"]) == 0

    def test_config_holding_a_list_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"seed": 1}]))
        assert run(["--config", str(cfg), "complexity", "--seed", "1"]) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        assert run(["--config", str(cfg), "complexity", "--d", "2", "--D", "2",
                    "--alpha", "2", "--seed", "1"]) == 1


class TestParserCache:
    """The parser is built once per process and parses as a freshly built one does."""

    def test_cached_parser_matches_fresh_parser(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_every": 2, "nmax": 7}))
        figs2 = ["figs2", "--eta", "0.1", "--nmax", "5", "--seeds", "2"]
        argvs = [
            ["build", "--D", "2", "--N", "2", "--seed", "1"],
            figs2,  # every step
            ["--config", str(cfg), *figs2],  # every second step and the last, from the config
            ["build", "--N", "x", "--seed", "1"],  # argparse error
        ]

        def outcome(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        cli._build_parser.cache_clear()
        cached = [outcome(argv) for _ in range(2) for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        assert cached == fresh + fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 1]
        steps = [[int(row.split(",")[0]) for row in out.splitlines()[1:]] for _, out, _ in fresh[1:3]]
        assert steps == [[0, 1, 2, 3, 4, 5], [0, 2, 4, 6, 7]]
        assert "invalid int value" in fresh[3][2]


class TestTomograph:
    def test_beyond_dense_statevector_size(self, tmp_path):
        # (d^2)^N * D = 2^21 coefficients: more than a dense oracle may hold
        out = tmp_path / "t.json"
        assert run(["tomograph", "--D", "2", "--N", "10", "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["state_fidelity"] >= 1 - 1e-8
        assert doc["queries"] == 10  # f + 1 with R = 2

    def test_sampled_window_over_the_qubit_guard_exits_1(self, tmp_path, capsys):
        # D = 65 needs windows of R = 5 steps, 10 qubits: the first query is refused
        out = tmp_path / "t.json"
        argv = ["tomograph", "--D", "65", "--N", "6", "--shots", "1000", "--seed", "0"]
        for extra in ([], ["--out", str(out)]):
            assert run(argv + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "exceeds 9 qubits" in captured.err
        assert not out.exists()

    def test_non_finite_report_exits_1(self, tmp_path, capsys, monkeypatch):
        # JSON has no NaN: the report is refused before a byte is written
        monkeypatch.setattr(pptlab.tomography, "gauge_fidelity", lambda a, b: float("nan"))
        out = tmp_path / "t.json"
        argv = ["tomograph", "--D", "2", "--N", "3", "--seed", "1"]
        for extra in ([], ["--out", str(out)]):
            assert run(argv + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "not finite" in captured.err
        assert not out.exists()

    def test_dbound_defaults_to_hidden_environment(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["tomograph", "--D", "2", "--N", "5", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--dbound", "2", "--out", str(b)]) == 0
        assert read(a) == read(b)


class TestPipeline:
    @pytest.mark.parametrize("command", ["tomograph", "fit"])
    def test_reports_print_as_every_other_document(self, capsys, command):
        # compact, key-sorted json_text like build, complexity, correlate, predict
        model = random_separable_model(2, 2, 3)
        if command == "tomograph":
            report = pptlab.disentangle_reconstruct(pptlab.MeasurementOracle(model, 4), 4, 2)
        else:
            report = pptlab.variational_fit(build_ppt(model, 4), seed=3)
        assert run([command, "--D", "2", "--N", "4", "--seed", "3"]) == 0
        assert capsys.readouterr().out == json_text(report.to_json_dict()) + "\n"

    def test_fit_then_predict(self, tmp_path):
        fit_out = tmp_path / "fit.json"
        assert run(["fit", "--d", "2", "--D", "2", "--N", "4", "--seed", "2", "--out", str(fit_out)]) == 0
        pred_out = tmp_path / "pred.json"
        assert run(["predict", "--report", str(fit_out), "--nfuture", "6", "--out", str(pred_out)]) == 0
        mps = PptMps.from_json_dict(json.loads(read(pred_out))["ppt"])
        assert mps.n_steps == 6

    def test_fit_of_a_single_step_converges(self, tmp_path):
        # one step: the warm start reads its one unitary off the one site
        out = tmp_path / "fit.json"
        assert run(["fit", "--D", "2", "--N", "1", "--seed", "3", "--out", str(out)]) == 0
        assert json.loads(read(out))["converged"] is True

    def test_predict_needs_a_time_independent_recovered_model(self, tmp_path, capsys):
        # tomograph recovers one unitary per step
        report = tmp_path / "tomo.json"
        assert run(["tomograph", "--D", "2", "--N", "3", "--seed", "0", "--out", str(report)]) == 0
        assert run(["predict", "--report", str(report), "--nfuture", "5"]) == 1
        assert "requires a time-independent recovered model" in capsys.readouterr().err

    def test_reconstruct_entangled(self, tmp_path):
        out = tmp_path / "ent.json"
        code = run(["reconstruct-entangled", "--d", "2", "--D", "2", "--N", "4",
                    "--seed", "5", "--checks", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(read(out))
        assert doc["max_expectation_deviation"] < 1e-6
        assert np.allclose(doc["lambdas"], [1 / np.sqrt(2)] * 2, atol=1e-8)
        # one sweep from step 0: N - R + 3 = 5 requests (R = 2)
        assert doc["queries"] == 5

    def test_reconstruct_entangled_works_from_a_sealed_oracle(self, tmp_path, monkeypatch):
        # the document an unsealed oracle and one expectation per check give
        model = pptlab.random_entangled_model(2, 2, 4)
        oracle = pptlab.MeasurementOracle(model, 6)
        form, recovered = pptlab.reconstruct_entangled_initial(oracle, D_bound=2)
        truth, rebuilt = build_ppt(model, 6), build_ppt(recovered, 6)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(9):
            obs = cli._random_observable(rng, 2, 6)
            worst = max(worst, abs(pptlab.expectation(truth, obs)
                                   - pptlab.expectation(rebuilt, obs)))
        expected = json_text({
            "lambdas": [float(x) for x in form.lambdas], "max_expectation_deviation": worst,
            "model": recovered.to_json_dict(), "queries": oracle.query_log,
        })

        def sealed(self):
            raise AssertionError("the command reads the hidden process")

        for name in ("true_model", "true_mps"):
            monkeypatch.setattr(pptlab.MeasurementOracle, name, sealed)
        out = tmp_path / "ent.json"
        argv = ["reconstruct-entangled", "--D", "2", "--N", "6", "--seed", "4", "--checks", "9"]
        assert run(argv + ["--out", str(out)]) == 0
        assert read(out) == expected

    def test_reconstruct_entangled_single_step(self, tmp_path, capsys):
        # one step holds one insertion, not two
        out = tmp_path / "ent.json"
        argv = ["reconstruct-entangled", "--N", "1", "--seed", "5", "--checks", "5"]
        assert run(argv + ["--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(read(out))["max_expectation_deviation"] < 1e-12


def _as_pairs(site):
    """Rewrite a site's data leaf in [re, im] pair form, so that a test can edit one pair."""
    site["data"] = pair_leaf(decode_complex(site["data"]))
    return site["data"]


def _set_all_entries(value):
    def mutate(ppt_doc):
        for site in ppt_doc["sites"]:
            site["data"] = [list(value)] * len(_as_pairs(site))

    return mutate


def _set_entry(index, value):
    def mutate(ppt_doc):
        _as_pairs(ppt_doc["sites"][1])[index] = value

    return mutate


def _set_key(key, value):
    def mutate(ppt_doc):
        ppt_doc[key] = value

    return mutate


def _set_repeat(value):
    """Set the ``repeat`` of site document 2, the run of steps 2 and 3."""

    def mutate(ppt_doc):
        ppt_doc["sites"][1]["repeat"] = value

    return mutate


def _copy_site(src, dst):
    def mutate(ppt_doc):
        ppt_doc["sites"][dst] = ppt_doc["sites"][src]

    return mutate


def _expose_leading_site(shape):
    """Replace the document by the ``build --D 2 --N 3 --seed 1`` process
    with its initial system leg exposed, the leading site read as ``shape``."""

    def mutate(ppt_doc):
        exposed = build_ppt(random_separable_model(2, 2, 1), 3, expose_initial_leg=True)
        ppt_doc.update(exposed.to_json_dict())
        ppt_doc["leading_site"]["shape"] = shape

    return mutate


def _repeat_leading_site(repeat):
    """Expose the leading site as ``_expose_leading_site`` does, with a valid
    shape, and give it a "repeat"."""

    def mutate(ppt_doc):
        _expose_leading_site([1, 2, 1, 2])(ppt_doc)
        ppt_doc["leading_site"]["repeat"] = repeat

    return mutate


def _one_site_with_d(d):
    """Replace the document by one step of a single (1, d, d, 1) site, stated as ``d``."""

    def mutate(ppt_doc):
        site = np.ones((1, d, d, 1), dtype=np.complex128) / d
        ppt_doc.clear()
        ppt_doc.update(format_version=3, d=d, sites=[{"shape": list(site.shape),
                                                      "data": encode_complex(site)}])

    return mutate


def _set_bytes(edit):
    """Replace site 2's data leaf by the base64 text of ``edit(entries)``."""

    def mutate(ppt_doc):
        site = ppt_doc["sites"][1]
        raw = edit(decode_complex(site["data"]).astype("<c16").tobytes())
        site["data"] = base64.b64encode(raw).decode("ascii")

    return mutate


def _set_text(edit):
    """Replace site 2's data leaf by ``edit(text)`` of its base64 text."""

    def mutate(ppt_doc):
        site = ppt_doc["sites"][1]
        site["data"] = edit(site["data"])

    return mutate


NAN_BYTES = np.array([complex(0.0, np.nan)]).astype("<c16").tobytes()
INF_BYTES = np.array([complex(np.inf, 1.0)]).astype("<c16").tobytes()
HUGE_BYTES = np.array([complex(0.0, 2.7e154)]).astype("<c16").tobytes()  # squares overflow
EYE4 = encode_complex(np.eye(4))
EYE4_INF = encode_complex(np.eye(4) + np.diag([0.0, np.inf, 0.0, 0.0]))
NAN_PAIRS = [[float("nan"), 0.0]] + [[0.0, 0.0]] * 15  # a 4 x 4 matrix in [re, im] pairs


class TestMalformedFiles:
    """Damaged input files exit 1 with a message, never a traceback or a value."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_set_entry(0, [float("nan"), 0.0]), "non-finite"),
            (_set_entry(3, [0.5]), "[re, im] pairs"),
            (_set_entry(3, [0.5, 0.0, 0.0]), "[re, im] pairs"),
            (_set_key("canonical", "banana"), "canonical form"),
            (_set_key("canonical", "mixed"), "canonical form"),
            (_set_all_entries([3.0, 0.0]), "right-canonicality residual"),
            (_set_key("sites", []), "no sites"),
            (_set_bytes(lambda raw: NAN_BYTES + raw[16:]), "non-finite"),
            (_set_bytes(lambda raw: raw[:-16] + INF_BYTES), "non-finite"),
            (_set_text(lambda text: "!" + text[1:]), "not valid base64"),
            (_set_text(lambda text: text[:-1] + "\u00e9"), "not valid base64"),
            (_set_text(lambda text: text.rstrip("=")), "not valid base64"),
            (_set_bytes(lambda raw: raw + bytes(8)), "not a multiple of 16"),
            (_set_bytes(lambda raw: raw[:-16]), "do not fill shape"),
            (_set_bytes(lambda raw: raw[:-16] + HUGE_BYTES), "right-canonicality residual"),
            (_set_key("d", "x"), "'d' must be an integer"),
            (_set_key("d", True), "'d' must be an integer"),
            (_one_site_with_d(1), "need d >= 2"),
            (_set_key("sites", 5), "'sites' must be a list"),
            (_set_key("sites", [5]), "a site must be an object"),
            (_copy_site(1, 0), "chain element 0 has left bond 2, expected 1"),
            (_set_key("initial_vector", encode_complex(np.ones(1))), "'initial_vector'"),
            (_expose_leading_site([1, 1, 2, 2]), "leading site physical extents"),
            (_repeat_leading_site(2), "leading site is step 0 and cannot repeat"),
            (_repeat_leading_site("x"), "leading site is step 0 and cannot repeat"),
            (_set_repeat(True), "'repeat' must be an integer >= 1"),
            (_set_repeat(1.5), "'repeat' must be an integer >= 1"),
            (_set_repeat("2"), "'repeat' must be an integer >= 1"),
            (_set_repeat(0), "'repeat' must be an integer >= 1"),
            (_set_repeat(-1), "'repeat' must be an integer >= 1"),
            (_set_repeat(10**10), "more than MAX_STEPS"),
            (_set_key("format_version", 2), "format version 2 sites cannot repeat"),
        ],
        ids=["nan", "short_pair", "long_pair", "garbage_canonical", "mixed_canonical",
             "false_right_claim", "empty",
             "base64_nan", "base64_inf", "base64_bad_char", "base64_non_ascii",
             "base64_bad_padding", "base64_16k_plus_8_bytes", "base64_short_count",
             "base64_overflowing_entry", "text_d", "true_d", "d_1", "int_sites", "int_site",
             "first_left_bond_2", "initial_vector", "leading_site_on_input_leg",
             "repeated_leading_site", "text_repeat_on_leading_site",
             "true_repeat", "float_repeat", "text_repeat", "zero_repeat", "negative_repeat",
             "huge_repeat", "repeat_in_format_2"],
    )
    def test_correlate_rejects(self, tmp_path, capsys, mutate, message):
        build_out = tmp_path / "build.json"
        assert run(["build", "--D", "2", "--N", "3", "--seed", "1", "--out", str(build_out)]) == 0
        doc = json.loads(read(build_out))
        mutate(doc["ppt"])
        build_out.write_text(json.dumps(doc))
        out = tmp_path / "value.json"
        assert run(["correlate", "--ppt", str(build_out), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("canonical", ["right", "none"])
    def test_correlate_rejects_a_scaled_first_site(self, tmp_path, capsys, canonical):
        # a right claim's norm is certified from its first site, a none claim's swept
        build_out = tmp_path / "build.json"
        assert run(["build", "--D", "2", "--N", "3", "--seed", "1", "--out", str(build_out)]) == 0
        doc = json.loads(read(build_out))
        site = doc["ppt"]["sites"][0]
        site["data"] = encode_complex(1.001 * decode_complex(site["data"], site["shape"]))
        doc["ppt"]["canonical"] = canonical
        build_out.write_text(json.dumps(doc))
        assert run(["correlate", "--ppt", str(build_out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: state norm deviates from 1 by 1.000e-03")

    @pytest.mark.parametrize(
        "leaf, message", [("unitaries", "unitarity"), ("initial_state", "norm")]
    )
    def test_predict_rejects_overflowing_entries(self, tmp_path, capsys, leaf, message):
        model = random_separable_model(2, 2, 3)
        doc = {"recovered_model": model.to_json_dict()}
        if leaf == "unitaries":
            doc["recovered_model"]["unitaries"] = [encode_complex(1e200 * model.unitaries[0])]
        else:
            doc["recovered_model"]["initial_state"] = encode_complex(1e200 * model.initial_state)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert run(["predict", "--report", str(report), "--nfuture", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("d", "x", "'d' must be an integer"),
            ("D", True, "'D' must be an integer"),
            ("d", -2, "need d >= 2"),
            ("unitaries", 5, "'unitaries' must be a list"),
            ("time_independent", "yes", "'time_independent' must be true or false"),
        ],
        ids=["text_d", "true_D", "negative_d", "int_unitaries", "text_time_independent"],
    )
    def test_predict_rejects_malformed_keys(self, tmp_path, capsys, key, value, message):
        doc = {"recovered_model": random_separable_model(2, 2, 3).to_json_dict()}
        doc["recovered_model"][key] = value
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert run(["predict", "--report", str(report), "--nfuture", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err

    def test_correlate_rejects_overflowing_value(self, tmp_path, capsys):
        build_out = tmp_path / "build.json"
        assert run(["build", "--D", "2", "--N", "3", "--seed", "1", "--out", str(build_out)]) == 0
        huge = 1e300 * np.eye(4)
        obs = tmp_path / "obs.json"
        obs.write_text(MultiTimeObservable([(1, huge), (2, huge)]).to_json())
        out = tmp_path / "value.json"
        argv = ["correlate", "--ppt", str(build_out), "--observable", str(obs), "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("correlate", "5", "a PPT file must be an object, got int"),
            ("correlate", "[1]", "a PPT file must be an object, got list"),
            ("correlate", '{"ppt": 5}', "a PPT document must be an object, got int"),
            ("correlate", '{"ppt": [1]}', "a PPT document must be an object, got list"),
            ("predict", "5", "a report file must be an object, got int"),
            ("predict", '"text"', "a report file must be an object, got str"),
            ("predict", '{"recovered_model": [1]}', "a model document must be an object, got list"),
        ],
        ids=["ppt_int", "ppt_list", "nested_ppt_int", "nested_ppt_list", "report_int",
             "report_text", "nested_model_list"],
    )
    def test_non_object_documents_exit_one(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        if command == "correlate":
            argv = ["correlate", "--ppt", str(path)]
        else:
            argv = ["predict", "--report", str(path), "--nfuture", "3"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err

    @pytest.mark.parametrize(
        "observable, message",
        [
            ([], "an observable document must be an object, got list"),
            ({"insertions": 5}, "'insertions' must be a list, got int"),
            ({"insertions": [5]}, "an insertion must be an object, got int"),
            ({"insertions": [{"step": "x", "matrix": EYE4}]}, "'step' must be an integer, got 'x'"),
            ({"insertions": [{"step": 1.5, "matrix": EYE4}]}, "'step' must be an integer, got 1.5"),
            (
                {"insertions": [{"step": True, "matrix": EYE4}]},
                "'step' must be an integer, got True",
            ),
            ({"insertions": [{"step": 1, "matrix": NAN_PAIRS}]}, "non-finite"),
            ({"insertions": [{"step": 1, "matrix": EYE4_INF}]}, "non-finite"),
            ({"insertions": [{"step": 1, "matrix": encode_complex(np.ones(15))}]}, "not square"),
            (
                {"insertions": [{"step": 1, "matrix": EYE4},
                                {"step": 2, "matrix": encode_complex(np.eye(9))}]},
                "operators must be square and of one shape",
            ),
            (
                {"insertions": [{"step": 1, "matrix": encode_complex(np.eye(9))}]},
                "has shape (9, 9), expected (4, 4)",
            ),
        ],
        ids=["list", "int_insertions", "int_insertion", "text_step", "float_step", "true_step",
             "nan_pair", "base64_inf", "fifteen_entries", "two_shapes", "nine_by_nine_at_d2"],
    )
    def test_malformed_observable_exits_one(self, tmp_path, capsys, observable, message):
        build_out = tmp_path / "build.json"
        assert run(["build", "--D", "2", "--N", "3", "--seed", "1", "--out", str(build_out)]) == 0
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(observable))
        assert run(["correlate", "--ppt", str(build_out), "--observable", str(obs)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err

    @pytest.mark.parametrize("raw", [b'{"x": "\xc3\xa9"}', b"\xff\xfe{}"],
                             ids=["utf8_e_acute", "utf16_bom"])
    @pytest.mark.parametrize("flag", ["--config", "--ppt", "--observable", "--report"])
    def test_non_ascii_files_exit_one(self, tmp_path, capsys, flag, raw):
        build_out = tmp_path / "build.json"
        assert run(["build", "--D", "2", "--N", "3", "--seed", "1", "--out", str(build_out)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        argv = {
            "--config": ["--config", str(bad), "build", "--N", "3", "--seed", "1"],
            "--ppt": ["correlate", "--ppt", str(bad)],
            "--observable": ["correlate", "--ppt", str(build_out), "--observable", str(bad)],
            "--report": ["predict", "--report", str(bad), "--nfuture", "3"],
        }[flag]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_predict_rejects_long_pair(self, tmp_path, capsys):
        doc = {"recovered_model": random_separable_model(2, 2, 3).to_json_dict()}
        unitaries = doc["recovered_model"]["unitaries"]
        unitaries[0] = pair_leaf(decode_complex(unitaries[0]))
        unitaries[0][5] = [0.5, 0.0, 0.0]
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert run(["predict", "--report", str(report), "--nfuture", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "[re, im] pairs" in captured.err


# -- fuzzing the complex-array leaves of written files ---------------------------

B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _leaf_paths(doc, key):
    """Paths to the complex-array leaves under ``doc[key]``."""
    top = doc[key]
    paths = [(key, "sites", k, "data") for k in range(len(top.get("sites", [])))]
    paths += [(key, "unitaries", k) for k in range(len(top.get("unitaries", [])))]
    paths += [(key, "initial_state")] if "initial_state" in top else []
    return paths


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """A separable and an entangled ``build`` output and a ``fit`` report, with the
    subcommand that reads each and the leaves that subcommand decodes."""
    tmp = tmp_path_factory.mktemp("written")
    cases = []
    for name, argv, key, reader in [
        ("build", ["build", "--D", "2", "--N", "3", "--seed", "1"], "ppt", "correlate"),
        ("entangled", ["build", "--D", "2", "--N", "3", "--seed", "2", "--entangled"],
         "ppt", "correlate"),
        ("fit", ["fit", "--D", "2", "--N", "3", "--seed", "3"], "recovered_model", "predict"),
    ]:
        path = tmp / f"{name}.json"
        assert run(argv + ["--out", str(path)]) == 0
        doc = json.loads(read(path))
        cases.append((doc, _leaf_paths(doc, key), reader))
    return tmp, cases


class TestCodecLeafFuzz:
    """Any value in place of one complex-array leaf exits 0 or 1, never with a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_replaced_leaf_never_escapes(self, written_files, data):
        tmp, cases = written_files
        doc, paths, reader = cases[data.draw(st.integers(0, len(cases) - 1), label="file")]
        path = data.draw(st.sampled_from(paths), label="leaf")
        *parents, last = path
        size = len(base64.b64decode(functools.reduce(operator.getitem, path, doc)))
        value = data.draw(
            st.one_of(
                json_values,
                st.text(alphabet=B64_ALPHABET, max_size=2 * size),
                st.binary(max_size=2 * size).map(lambda b: base64.b64encode(b).decode()),
                st.binary(min_size=size, max_size=size).map(lambda b: base64.b64encode(b).decode()),
                st.lists(st.lists(st.floats(), min_size=1, max_size=3), max_size=size // 16 + 2),
            ),
            label="value",
        )
        damaged = copy.deepcopy(doc)
        functools.reduce(operator.getitem, parents, damaged)[last] = value
        src = tmp / "damaged.json"
        src.write_text(json.dumps(damaged), encoding="ascii")
        flag = "--ppt" if reader == "correlate" else "--report"
        argv = [reader, flag, str(src)] + (["--nfuture", "4"] if reader == "predict" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (out.getvalue() != "")
        if code == 0 and reader == "predict":  # what is written must read back
            PptMps.from_json_dict(json.loads(out.getvalue())["ppt"])
