"""The public surface: what ``pptlab`` exports, and what it no longer does."""

import dataclasses
import inspect

import numpy as np
import pytest

import pptlab
from pptlab import correlations, memory, tomography


def test_every_exported_name_resolves():
    assert [name for name in pptlab.__all__ if not hasattr(pptlab, name)] == []
    assert len(set(pptlab.__all__)) == len(pptlab.__all__)


@pytest.mark.parametrize("name", ["expectation", "expectations", "dense_expectation"])
def test_correlation_routes_are_exported(name):
    # expectations evaluates many observables in one batched sweep
    assert name in pptlab.__all__
    assert getattr(pptlab, name) is getattr(correlations, name)


@pytest.mark.parametrize("name", ["TransferMatrix", "transfer_matrix", "model_transfer_matrix"])
def test_dense_transfer_layer_is_gone(name):
    assert name not in pptlab.__all__
    assert not hasattr(pptlab, name)
    assert not hasattr(memory, name)


@pytest.mark.parametrize(
    "owner, name",
    [(pptlab.MeasurementOracle, "mode"), (pptlab.variational_fit, "warm_start"),
     (pptlab.variational_fit, "n_restarts"), (pptlab.variational_fit, "time_independent"),
     (pptlab.variational_fit, "N"), (pptlab.variational_fit, "D"),
     (pptlab.ComplexityReport.to_json_dict, "predicted_bits"),
     (pptlab.fig_s2_experiment, "rho0")],
    ids=["oracle_mode", "fit_warm_start", "fit_n_restarts", "fit_time_independent", "fit_N",
         "fit_D", "report_predicted_bits", "figs2_rho0"],
)
def test_removed_parameters_stay_gone(owner, name):
    # shots=None already means exact; the restart count is FIT_RESTARTS; the
    # fit shares one step unitary and reads N and D off its target; a report
    # carries its own prediction; every figs2 run starts from |0><0|
    assert name not in inspect.signature(owner).parameters


@pytest.mark.parametrize("name", ["theorem1_check", "Theorem1Result"])
def test_theorem1_wrappers_are_gone(name):
    # memory_complexity reports Theorem 1 for every order from one solve
    assert name not in pptlab.__all__
    assert not hasattr(pptlab, name)
    assert not hasattr(memory, name)


def test_ppt_is_stored_as_runs():
    # a PPT holds (site, repeat) runs; chain() is the one per-step view
    fields = {f.name: f for f in dataclasses.fields(pptlab.PptMps)}
    assert fields["runs"].init and "sites" not in fields
    assert "sites" not in inspect.signature(pptlab.PptMps).parameters


def test_canonical_form_is_measured_not_set():
    # the form is a property of the sites, so no label can contradict them
    assert [f.name for f in dataclasses.fields(pptlab.PptMps)] == ["runs"]
    assert "canonical" not in inspect.signature(pptlab.PptMps).parameters
    with pytest.raises(TypeError):
        pptlab.PptMps(runs=(), canonical="right")
    mps = pptlab.build_ppt(_MODEL, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mps.canonical = "none"
    assert mps.canonical == "right"


def test_d_and_step_0_are_measured_not_set():
    # d is the sites' out extent and step 0 a first site with input extent 1
    exposed = pptlab.build_ppt(_MODEL, 2, expose_initial_leg=True)
    for label in ({"d": 2}, {"leading_site": exposed.leading_site}):
        with pytest.raises(TypeError):
            pptlab.PptMps(runs=exposed.runs, **label)
    mps = pptlab.PptMps(runs=exposed.runs)
    assert (mps.d, mps.n_steps, len(mps.chain())) == (_MODEL.d, 2, 3)
    assert mps.leading_site is mps.runs[0][0] and mps.leading_site.shape[2] == 1
    for name in ("d", "leading_site", "n_steps"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mps, name, None)
    assert pptlab.build_ppt(_MODEL, 2).leading_site is None


def test_entangled_is_derived_not_set():
    fields = {f.name: f for f in dataclasses.fields(pptlab.OqeModel)}
    assert "entangled" in fields and not fields["entangled"].init


@pytest.mark.parametrize(
    "owner, name",
    [(pptlab.OqeModel, "create"), (pptlab.MultiTimeObservable, "create"),
     (pptlab.MeasurementOracle, "initial_system_state"),
     (pptlab.MeasurementOracle, "conditional"), (pptlab.MeasurementOracle, "condition"),
     (pptlab.MeasurementOracle, "_left_env"), (tomography, "_forward_envs")],
    ids=["model_create", "observable_create", "oracle_initial_system_state",
         "oracle_conditional", "oracle_condition", "oracle_left_env", "fit_forward_envs"],
)
def test_removed_methods_stay_gone(owner, name):
    # the constructors are the one way in; the oracle answers only by
    # measuring, and nothing post-selects its step 0; every left-to-right
    # chain walk is ppt._left_envs
    assert not hasattr(owner, name)


_MODEL = pptlab.random_entangled_model(2, 2, 0)
_MAKERS = {
    "OqeModel": lambda: pptlab.OqeModel(2, 2, _MODEL.unitaries, _MODEL.initial_state),
    "SchmidtForm": _MODEL.initial_schmidt,
    "PptMps": lambda: pptlab.build_ppt(_MODEL, 2),
    "MultiTimeObservable": lambda: pptlab.MultiTimeObservable([(1, np.eye(4))]),
    "ComplexityReport": lambda: memory.memory_complexity(_MODEL, [2])[0],
}


@pytest.mark.parametrize("name", list(_MAKERS))
def test_array_holding_dataclasses_compare_by_identity(name):
    """The generated ``__eq__`` compared arrays and raised; these compare by
    identity, so ``==`` gives a bool and ``hash`` works."""
    a, b = _MAKERS[name](), _MAKERS[name]()
    assert type(a).__name__ == name
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and len({a, b}) == 2
