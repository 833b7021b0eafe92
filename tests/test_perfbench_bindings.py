"""What the benchmark in ``perfbench/`` reads off the library, exercised on
small real results.  A rename of one of these names passes every other
test and fails only the traced benchmark run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from pptlab import (
    MultiTimeObservable,
    build_ppt,
    correlations,
    memory,
    random_entangled_model,
    random_separable_model,
    tomography,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import ``perfbench/<name>.py`` as it stands, under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

_MODULES = {"memory": memory, "correlations": correlations, "tomography": tomography}


def _run_hook(tracer, key: str, *args):
    """Call the library function named by an ``_EXTRA`` key and feed its
    bound arguments and result to the hook, as the tracer's wrapper does."""
    layer, name = key.split(".")
    fn = getattr(_MODULES[layer], name)
    result = fn(*args)
    tracing._EXTRA[key](tracer, inspect.signature(fn).bind(*args).arguments, result)
    return result


def test_extra_hooks_read_real_results():
    assert set(tracing._EXTRA) == {
        "memory.stationary_state", "correlations.expectation", "tomography.variational_fit",
    }
    tracer = tracing.Tracer()
    model = random_separable_model(2, 2, 0)
    _run_hook(tracer, "memory.stationary_state", model)
    assert tracer.stationary_steps_seen == [0]
    assert tracer.extra["memory.stationary_state.steps"] == 0

    obs = MultiTimeObservable([(2, np.eye(4))])
    _run_hook(tracer, "correlations.expectation", build_ppt(model, 3), obs)
    _run_hook(tracer, "correlations.expectation", build_ppt(model, 3, expose_initial_leg=True), obs)
    assert tracer.extra["correlations.expectation.sites"] == 2 + 3

    report = _run_hook(tracer, "tomography.variational_fit", build_ppt(model, 2))
    assert tracer.extra["tomography.variational_fit.accepted_steps"] == len(report.loss_trace) - 1


@pytest.mark.parametrize(
    "model, N, expose",
    [(random_separable_model(2, 3, 1), 4, False), (random_entangled_model(2, 2, 1), 3, False),
     (random_entangled_model(2, 2, 1), 3, True)],
    ids=["separable", "entangled", "exposed"],
)
def test_ppt_document_check_reads_real_documents(model, N, expose):
    # an exposed step 0 is not counted among the N steps
    mps = build_ppt(model, N, expose_initial_leg=expose)
    doc = mps.to_json_dict()
    workloads._check_ppt_doc(doc, N, mps.env_dim)
    workloads._check_ppt_doc(doc, N, None)
    with pytest.raises(workloads.CheckError, match="steps"):
        workloads._check_ppt_doc(doc, N + 1, None)
    doc["canonical"] = "banana"
    with pytest.raises(workloads.CheckError, match="does not validate"):
        workloads._check_ppt_doc(doc, N, None)
