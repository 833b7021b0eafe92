"""The public surface: what ``pptlab`` exports, and what it no longer does."""

import dataclasses
import inspect

import pytest

import pptlab
from pptlab import memory


def test_every_exported_name_resolves():
    assert [name for name in pptlab.__all__ if not hasattr(pptlab, name)] == []
    assert len(set(pptlab.__all__)) == len(pptlab.__all__)


@pytest.mark.parametrize("name", ["TransferMatrix", "transfer_matrix", "model_transfer_matrix"])
def test_dense_transfer_layer_is_gone(name):
    assert name not in pptlab.__all__
    assert not hasattr(pptlab, name)
    assert not hasattr(memory, name)


@pytest.mark.parametrize(
    "owner, name",
    [(pptlab.MeasurementOracle, "mode"), (pptlab.variational_fit, "warm_start"),
     (pptlab.variational_fit, "n_restarts")],
    ids=["oracle_mode", "fit_warm_start", "fit_n_restarts"],
)
def test_removed_parameters_stay_gone(owner, name):
    # shots=None already means exact; the restart count is FIT_RESTARTS
    assert name not in inspect.signature(owner).parameters


def test_entangled_is_derived_not_set():
    fields = {f.name: f for f in dataclasses.fields(pptlab.OqeModel)}
    assert "entangled" in fields and not fields["entangled"].init
