"""The public surface: what ``pptlab`` exports, and what it no longer does."""

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
