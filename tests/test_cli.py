import json

import numpy as np
import pytest

from pptlab import MultiTimeObservable, OqeModel, PptMps, memory, random_separable_model
from pptlab.cli import run


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

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        assert run(["--config", str(cfg), "complexity", "--d", "2", "--D", "2",
                    "--alpha", "2", "--seed", "1"]) == 1


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


def _set_all_entries(value):
    def mutate(ppt_doc):
        for site in ppt_doc["sites"]:
            site["data"] = [list(value)] * len(site["data"])

    return mutate


def _set_entry(index, value):
    def mutate(ppt_doc):
        ppt_doc["sites"][1]["data"][index] = value

    return mutate


def _set_key(key, value):
    def mutate(ppt_doc):
        ppt_doc[key] = value

    return mutate


class TestMalformedFiles:
    """Damaged input files exit 1 with a message, never a traceback or a value."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_set_entry(0, [float("nan"), 0.0]), "non-finite"),
            (_set_entry(3, [0.5]), "[re, im] pairs"),
            (_set_entry(3, [0.5, 0.0, 0.0]), "[re, im] pairs"),
            (_set_key("canonical", "banana"), "canonical form"),
            (_set_all_entries([3.0, 0.0]), "right-canonicality residual"),
            (_set_key("sites", []), "no sites"),
        ],
        ids=["nan", "short_pair", "long_pair", "garbage_canonical", "false_right_claim", "empty"],
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

    def test_predict_rejects_long_pair(self, tmp_path, capsys):
        doc = {"recovered_model": random_separable_model(2, 2, 3).to_json_dict()}
        doc["recovered_model"]["unitaries"][0][5] = [0.5, 0.0, 0.0]
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert run(["predict", "--report", str(report), "--nfuture", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
