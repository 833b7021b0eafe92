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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pptlab
from pptlab import MultiTimeObservable, OqeModel, PptMps, cli, memory, random_separable_model
from pptlab.cli import run
from pptlab.tensor_ops import decode_complex, encode_complex

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


    def test_one_stationary_solve_per_alpha(self, tmp_path, monkeypatch):
        calls = []
        solve = memory.stationary_state

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(memory, "stationary_state", counting)
        out = tmp_path / "c.json"
        assert run(["complexity", "--D", "3", "--alpha", "1,2", "--seed", "1", "--out", str(out)]) == 0
        assert len(json.loads(read(out))) == 2
        assert len(calls) == 2

    def test_large_D_builds_no_dense_transfer_matrix(self, monkeypatch, capsys):
        # D = 16 goes through the Krylov solve; ARPACK keeps state between
        # calls, so the output is compared across runs and a fresh process.
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
        obs = MultiTimeObservable.create([(2, np.eye(4))])
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
        ],
        ids=["N_zero", "N_float", "tomograph_N", "fit_N", "reconstruct_N", "nfuture_negative",
             "nfuture_zero", "shots_negative"],
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
         {"time_dependent": 1}, {"format": "xml"}, {"func": 1}],
        ids=["float_nmax", "float_seeds", "text_nmax", "negative_seed_base", "null_eta",
             "int_for_switch", "unknown_choice", "not_a_flag"],
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
            ["predict", "--report", "report.json", "--nfuture", "3"],
        ],
        ids=["build", "complexity", "correlate", "predict"],
    )
    def test_format_is_a_figs2_flag_only(self, tmp_path, capsys, argv):
        assert run(argv + ["--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --format csv" in captured.err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        assert run(["--config", str(cfg), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "does not match any flag" in captured.err

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        assert run(["--config", str(cfg), "complexity", "--d", "2", "--D", "2",
                    "--alpha", "2", "--seed", "1"]) == 1


class TestParserCache:
    """The parser is built once per process and parses as a freshly built one does."""

    def test_cached_parser_matches_fresh_parser(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "nmax": 7}))
        figs2 = ["figs2", "--eta", "0.1", "--nmax", "5", "--seeds", "2"]
        argvs = [
            ["build", "--D", "2", "--N", "2", "--seed", "1"],
            figs2,  # csv by default
            ["--config", str(cfg), *figs2],  # json from the config file
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
        assert fresh[1][1].startswith("n,mean_infidelity") and fresh[2][1].startswith("[{")
        assert "invalid int value" in fresh[3][2]


class TestTomograph:
    def test_beyond_dense_statevector_size(self, tmp_path):
        # (d^2)^N * D = 2^21 coefficients: more than a dense oracle may hold
        out = tmp_path / "t.json"
        assert run(["tomograph", "--D", "2", "--N", "10", "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["state_fidelity"] >= 1 - 1e-8
        assert doc["queries"] == 10  # f + 1 with R = 2

    def test_dbound_defaults_to_hidden_environment(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["tomograph", "--D", "2", "--N", "5", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--dbound", "2", "--out", str(b)]) == 0
        assert read(a) == read(b)


class TestPipeline:
    def test_fit_then_predict(self, tmp_path):
        fit_out = tmp_path / "fit.json"
        assert run(["fit", "--d", "2", "--D", "2", "--N", "4", "--seed", "2", "--out", str(fit_out)]) == 0
        pred_out = tmp_path / "pred.json"
        assert run(["predict", "--report", str(fit_out), "--nfuture", "6", "--out", str(pred_out)]) == 0
        mps = PptMps.from_json_dict(json.loads(read(pred_out))["ppt"])
        assert mps.n_steps == 6

    def test_reconstruct_entangled(self, tmp_path):
        out = tmp_path / "ent.json"
        code = run(["reconstruct-entangled", "--d", "2", "--D", "2", "--N", "4",
                    "--seed", "5", "--checks", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(read(out))
        assert doc["max_expectation_deviation"] < 1e-6
        assert np.allclose(doc["lambdas"], [1 / np.sqrt(2)] * 2, atol=1e-8)


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


def _copy_site(src, dst):
    def mutate(ppt_doc):
        ppt_doc["sites"][dst] = ppt_doc["sites"][src]

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
            (_set_key("sites", 5), "'sites' must be a list"),
            (_set_key("sites", [5]), "a site must be an object"),
            (_copy_site(1, 0), "chain element 0 has left bond 2, expected 1"),
            (_set_key("initial_vector", encode_complex(np.ones(1))), "'initial_vector'"),
        ],
        ids=["nan", "short_pair", "long_pair", "garbage_canonical", "mixed_canonical",
             "false_right_claim", "empty",
             "base64_nan", "base64_inf", "base64_bad_char", "base64_non_ascii",
             "base64_bad_padding", "base64_16k_plus_8_bytes", "base64_short_count",
             "base64_overflowing_entry", "text_d", "true_d", "int_sites", "int_site",
             "first_left_bond_2", "initial_vector"],
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
        assert not out.exists()

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
        obs.write_text(MultiTimeObservable.create([(1, huge), (2, huge)]).to_json())
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
        ],
        ids=["list", "int_insertions", "int_insertion", "text_step", "float_step", "true_step"],
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
