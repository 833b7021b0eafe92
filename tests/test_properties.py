"""Generated-case invariants: MPS sweeps against dense oracles, exact JSON round trips.

Cases range over d in {2, 3}, D in 1..4, N in 1..5, separable or entangled
initial states, and time-independent or time-dependent steps.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pptlab import (
    MultiTimeObservable,
    OqeModel,
    PptMps,
    build_ppt,
    dense_expectation,
    expectation,
    random_entangled_model,
    random_separable_model,
    transfer_matrix,
)
from pptlab.ppt import overlap_matrix
from pptlab.tensor_ops import complex_to_pairs, pairs_to_complex

from conftest import random_observable

CASES = settings(max_examples=60, deadline=None)

model_specs = st.fixed_dictionaries(
    {
        "d": st.sampled_from([2, 3]),
        "D": st.integers(1, 4),
        "N": st.integers(1, 5),
        "entangled": st.booleans(),
        "time_dependent": st.booleans(),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def make_model(spec, D=None):
    D = spec["D"] if D is None else D
    steps = spec["N"] if spec["time_dependent"] else 1
    make = random_entangled_model if spec["entangled"] and D > 1 else random_separable_model
    return make(spec["d"], D, spec["seed"], steps=steps)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@CASES
@given(spec=model_specs, expose=st.booleans())
def test_expectation_matches_dense_oracle(spec, expose):
    model = make_model(spec)
    rng = np.random.default_rng(spec["seed"])
    n_insertions = int(rng.integers(0, min(3, spec["N"]) + 1))
    obs = random_observable(rng, spec["d"], spec["N"], n_insertions)
    mps = build_ppt(model, spec["N"], expose_initial_leg=expose)
    assert abs(expectation(mps, obs) - dense_expectation(model, spec["N"], obs)) < 1e-10


@CASES
@given(spec=model_specs, D_other=st.integers(1, 4), expose=st.booleans())
def test_overlap_matrix_matches_dense_contraction(spec, D_other, expose):
    N = spec["N"]
    other = make_model(dict(spec, seed=spec["seed"] + 1), D_other)
    a = build_ppt(make_model(spec), N, expose_initial_leg=expose)
    b = build_ppt(other, N, expose_initial_leg=expose)
    va = a.to_statevector().reshape(-1, a.env_dim)
    vb = b.to_statevector().reshape(-1, b.env_dim)
    assert np.max(np.abs(overlap_matrix(a, b) - va.conj().T @ vb)) < 1e-12


@CASES
@given(
    d=st.sampled_from([2, 3]),
    left=st.integers(1, 4),
    right=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_transfer_actions_match_dense_matrices(d, left, right, seed):
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    tm = transfer_matrix(gaussian(left, d, d, right))
    rho_l, rho_r = gaussian(left, left), gaussian(right, right)
    vec_l = tm.left_matrix() @ rho_l.reshape(-1, order="F")
    vec_r = tm.dense @ rho_r.reshape(-1, order="F")
    assert np.max(np.abs(tm.apply_left(rho_l) - vec_l.reshape(right, right, order="F"))) < 1e-12
    assert np.max(np.abs(tm.apply_right(rho_r) - vec_r.reshape(left, left, order="F"))) < 1e-12


@CASES
@given(spec=model_specs, expose=st.booleans())
def test_json_round_trips_are_bit_exact(spec, expose):
    model = make_model(spec)
    back = OqeModel.from_json(model.to_json())
    assert all(same_bits(u, v) for u, v in zip(model.unitaries, back.unitaries))
    assert same_bits(model.initial_state, back.initial_state)

    mps = build_ppt(model, spec["N"], expose_initial_leg=expose)
    text = mps.to_json()
    again = PptMps.from_json(text)
    assert all(same_bits(s, t) for s, t in zip(mps.chain(), again.chain()))
    assert again.to_json() == text

    obs = random_observable(np.random.default_rng(spec["seed"]), spec["d"], spec["N"], 1)
    obs_back = MultiTimeObservable.from_json(obs.to_json())
    assert same_bits(obs.insertions[0][1], obs_back.insertions[0][1])


@CASES
@given(
    arrays(
        np.complex128,
        array_shapes(min_dims=1, max_dims=3, max_side=4),
        elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
    )
)
def test_codec_round_trip_is_bit_exact(arr):
    pairs = json.loads(json.dumps(complex_to_pairs(arr)))
    assert same_bits(pairs_to_complex(pairs, list(arr.shape)), arr)
