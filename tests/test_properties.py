"""Generated-case invariants: MPS sweeps against dense oracles, CPTP transfer
maps, exact JSON round trips.

Cases range over d in {2, 3}, D in 1..4, N in 1..5 (up to 8 for the
measurement oracle), separable or entangled initial states, and
time-independent or time-dependent steps.  The near-identity experiment is
checked bit for bit against its per-step reference over block edges, and
the stationary solve (base-site blocks, Krylov or dense) against the dense
projection on the whole effective environment.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pptlab import (
    MeasurementOracle,
    ValidationError,
    cli,
    memory,
    tomography,
    MultiTimeObservable,
    OqeModel,
    PptMps,
    build_ppt,
    dense_expectation,
    expectation,
    random_entangled_model,
    random_separable_model,
)
from pptlab.models import random_haar_unitary
from pptlab.ppt import overlap_matrix
from pptlab.tensor_ops import decode_complex, encode_complex, transfer_left, transfer_right

from conftest import (
    dense_left_matrix,
    dense_reduced_density,
    dense_stationary_state,
    dense_transfer_matrix,
    fig_s2_reference,
    pair_leaf,
    pauli_sampled_estimate_loop,
    random_observable,
    version_1_model_doc,
    version_1_ppt_doc,
)

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

    site = gaussian(left, d, d, right)
    dense = dense_transfer_matrix(site)
    # the library's one left-matrix kernel is the oracle's einsum, bit for bit
    assert np.array_equal(memory._left_matrix(site), dense.conj().T)
    rho_l, rho_r = gaussian(left, left), gaussian(right, right)
    vec_l = dense.conj().T @ rho_l.reshape(-1, order="F")
    vec_r = dense @ rho_r.reshape(-1, order="F")
    got_l = transfer_left(rho_l, site, site)
    got_r = transfer_right(rho_r.T, site, site).T
    assert np.max(np.abs(got_l - vec_l.reshape(right, right, order="F"))) < 1e-12
    assert np.max(np.abs(got_r - vec_r.reshape(left, left, order="F"))) < 1e-12


def unit_images(action, n):
    """Images of the row-major matrix units |a><c| (index a * n + c) of n x n operators."""
    return np.stack([action(e) for e in np.eye(n * n).reshape(n * n, n, n)])


def column_major_matrix(images, n):
    """Matrix on column-major vectorised operators of the map with ``unit_images``."""
    m = images.shape[-1]
    return images.reshape(n, n, m, m).transpose(3, 2, 1, 0).reshape(m * m, n * n)


@CASES
@given(spec=model_specs)
def test_chain_transfer_maps_are_cptp_and_unital(spec):
    # Every chain site B of a PPT is right-canonical, so its left action
    # X -> sum B^dag X B is CPTP and its right action X -> sum B X B^dag is unital.
    for site in build_ppt(make_model(spec), spec["N"]).chain():
        l, r = site.shape[0], site.shape[3]
        left = unit_images(lambda x: transfer_left(x, site, site), l)
        right = unit_images(lambda x: transfer_right(x.T, site, site).T, r)
        choi = left.reshape(l, l, r, r).transpose(0, 2, 1, 3).reshape(l * r, l * r)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert np.linalg.eigvalsh((choi + choi.conj().T) / 2.0).min() > -1e-10
        assert np.max(np.abs(np.trace(left, axis1=1, axis2=2) - np.eye(l).reshape(-1))) < 1e-12
        assert np.max(np.abs(transfer_right(np.eye(r), site, site) - np.eye(l))) < 1e-12
        lmat = dense_left_matrix(site)
        assert np.max(np.abs(column_major_matrix(left, l) - lmat)) < 1e-12
        assert np.max(np.abs(column_major_matrix(right, r) - lmat.conj().T)) < 1e-12


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


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308]
codec_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@CASES
@given(
    arrays(
        np.complex128,
        array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
        elements=st.builds(complex, codec_floats, codec_floats),
    )
)
def test_codec_round_trip_is_bit_exact(arr):
    """Base64 and pair leaves both survive JSON text and decode to the same bits.

    An empty pair list is rejected as malformed (``test_malformed_pairs``),
    so the pair form is compared on non-empty arrays only.
    """
    text = json.loads(json.dumps(encode_complex(arr)))
    assert same_bits(decode_complex(text, list(arr.shape)), arr)
    if arr.size:
        pairs = json.loads(json.dumps(pair_leaf(arr)))
        assert same_bits(decode_complex(pairs, list(arr.shape)), arr)


@CASES
@given(spec=model_specs, expose=st.booleans())
def test_version_1_documents_load_bit_identically(spec, expose):
    model = make_model(spec)
    back = OqeModel.from_json(json.dumps(version_1_model_doc(model), sort_keys=True))
    assert all(same_bits(u, v) for u, v in zip(model.unitaries, back.unitaries))
    assert same_bits(model.initial_state, back.initial_state)

    mps = build_ppt(model, spec["N"], expose_initial_leg=expose)
    text = json.dumps(version_1_ppt_doc(mps), sort_keys=True, separators=(",", ":"))
    again = PptMps.from_json(text)
    assert all(same_bits(s, t) for s, t in zip(mps.chain(), again.chain()))
    assert again.to_json() == mps.to_json()
    assert again.to_json_dict()["format_version"] == 2


@settings(max_examples=25, deadline=None)
@given(spec=model_specs, expose=st.booleans(), n_insertions=st.integers(0, 3))
def test_correlate_reads_version_1_and_2_files_alike(spec, expose, n_insertions):
    """``correlate`` prints the same bytes from a format-1 file with pair
    leaves and from the format-2 file of the same PPT."""
    model = make_model(spec)
    mps = build_ppt(model, spec["N"], expose_initial_leg=expose)
    rng = np.random.default_rng(spec["seed"])
    obs = random_observable(rng, spec["d"], spec["N"], min(n_insertions, spec["N"]))
    obs_pairs = {"insertions": [{"step": s, "matrix": pair_leaf(m)} for s, m in obs.insertions]}
    docs = {
        "v1.json": {"model": version_1_model_doc(model), "ppt": version_1_ppt_doc(mps)},
        "v2.json": {"model": model.to_json_dict(), "ppt": mps.to_json_dict()},
        "obs1.json": obs_pairs,
        "obs2.json": obs.to_json_dict(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            with open(os.path.join(tmp, name), "w", encoding="ascii") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)
        printed = set()
        files = itertools.product(["v1.json", "v2.json"], ["obs1.json", "obs2.json"])
        for ppt_file, obs_file in files:
            out = io.StringIO()
            argv = ["correlate", "--ppt", os.path.join(tmp, ppt_file),
                    "--observable", os.path.join(tmp, obs_file)]
            with contextlib.redirect_stdout(out):
                assert cli.run(argv) == 0
            printed.add(out.getvalue())
    assert len(printed) == 1


@CASES
@given(spec=model_specs, data=st.data())
def test_oracle_density_matches_dense_reference(spec, data):
    """The MPS oracle against the dense statevector route, after random gates.

    N reaches 8 at d = 2 and 5 at d = 3, where the dense state still fits
    the dense-state guard.  The window is any legal range whose density has
    at most 2^20 entries (every legal range but the six-site windows at
    d = 2, whose 4096 x 4096 densities take 268 MB each).
    """
    d = spec["d"]
    N = data.draw(st.integers(1, 8 if d == 2 else 5), label="N")
    model = make_model(dict(spec, N=N))
    oracle = MeasurementOracle(model, N)
    rng = np.random.default_rng(spec["seed"])
    circuit = []
    for _ in range(data.draw(st.integers(0, 3), label="gates")):
        width = data.draw(st.integers(1, min(N, 3 if d == 2 else 2)), label="width")
        start = data.draw(st.integers(1, N - width + 1), label="start")
        circuit.append((start, random_haar_unitary((d * d) ** width, rng)))
    width = data.draw(st.integers(1, min(N, 5 if d == 2 else 3)), label="window")
    a = data.draw(st.integers(1, N - width + 1), label="first site")
    for start, gate in circuit:
        oracle.apply_gate(start, gate)
    rho = oracle.reduced_density((a, a + width - 1))
    ref = dense_reduced_density(oracle.true_mps(), (a, a + width - 1), circuit)
    assert np.max(np.abs(rho - ref)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    shots=st.integers(1, 20000),
    trailing=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_pauli_estimate_matches_per_setting_loop(n, shots, trailing, seed):
    """The batched sampled-mode estimator, with batches of 3^m settings for
    any m (the whole stack when m = n; never at n = 6, where it would stay
    cached), returns the per-setting loop's estimate bit for bit and leaves
    the generator in the same state."""
    budget = 3 ** min(trailing, n if n < 6 else 5) * 4**n
    g = np.random.default_rng(seed)
    a = g.standard_normal((2**n, 2**n)) + 1j * g.standard_normal((2**n, 2**n))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(tomography, "_BATCH_ENTRIES", budget):
        got = tomography._pauli_sampled_estimate(rho, shots, got_rng)
    assert np.array_equal(got, pauli_sampled_estimate_loop(rho, shots, ref_rng))
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


ORACLE_STEPS = ["apply", "measure", "repeat", "reset", "invalid", "mutate"]


@CASES
@given(spec=model_specs, sampled=st.booleans(), data=st.data())
def test_stateful_oracle_matches_fresh_replay(spec, sampled, data):
    """One oracle meets a sequence of gate applications, measurements, a
    repeated measurement, resets, invalid gates and in-place edits of gate
    arrays it has applied.  Every answer equals, bit for bit, a fresh
    oracle's given the gates applied since the last reset, and that answer
    is within 1e-12 of the dense reference; sampled answers equal the
    per-setting estimator (``pauli_sampled_estimate_loop``) applied to the
    fresh exact density on a generator with the same seed.  ``apply_gate``
    calls ``_apply_gate`` once and ``reduced_density`` never does; an
    invalid gate or an edit of an applied array changes no later answer."""
    d = 2 if sampled else spec["d"]
    N = data.draw(st.integers(2, 6 if d == 2 else 4), label="N")
    model = make_model(dict(spec, d=d, N=N))
    shots = 5000
    oracle = (MeasurementOracle(model, N, mode="sampled", shots=shots, seed=spec["seed"])
              if sampled else MeasurementOracle(model, N))
    stream = np.random.default_rng(spec["seed"])
    rng = np.random.default_rng(spec["seed"])
    steps = data.draw(st.permutations(ORACLE_STEPS), label="steps")
    steps += data.draw(st.lists(st.sampled_from(ORACLE_STEPS), max_size=4), label="more")
    applied = []  # (start, copy of the gate as applied, the caller's array)
    sites = (1, 1)

    def apply():
        width = data.draw(st.integers(1, min(N, 2)), label="width")
        start = data.draw(st.integers(1, N - width + 1), label="start")
        gate = random_haar_unitary((d * d) ** width, rng)
        before = oracle.query_log
        with mock.patch.object(tomography, "_apply_gate", wraps=tomography._apply_gate) as spy:
            oracle.apply_gate(start, gate)
        assert spy.call_count == 1 and oracle.query_log == before
        applied.append((start, gate.copy(), gate))

    def measure(window):
        before = oracle.query_log
        with mock.patch.object(tomography, "_apply_gate", wraps=tomography._apply_gate) as spy:
            got = oracle.reduced_density(window)
        assert spy.call_count == 0 and oracle.query_log == before + 1
        fresh = MeasurementOracle(model, N)
        for start, gate, _ in applied:
            fresh.apply_gate(start, gate)
        exact = fresh.reduced_density(window)
        ref = dense_reduced_density(oracle.true_mps(), window, [g[:2] for g in applied])
        assert np.max(np.abs(exact - ref)) < 1e-12
        if sampled:
            assert np.array_equal(got, pauli_sampled_estimate_loop(exact, shots, stream))
        else:
            assert np.array_equal(got, exact)

    def new_window():
        width = data.draw(st.integers(1, min(N, 2 if sampled else 3)), label="window")
        a = data.draw(st.integers(1, N - width + 1), label="first site")
        return a, a + width - 1

    apply()
    for step in steps:
        if step == "mutate" and not applied:
            step = "apply"
        if step == "apply":
            apply()
        elif step == "repeat":
            measure(sites)
            continue
        elif step == "reset":
            oracle.reset()
            applied.clear()
        elif step == "invalid":
            start, gate = data.draw(
                st.sampled_from([(1, 2.0 * np.eye(d * d)), (N + 1, np.eye(d * d)),
                                 (N, np.eye(d**4)), (1, np.eye(d * d)[:, :2])]),
                label="invalid gate",
            )
            before = oracle.query_log
            with mock.patch.object(tomography, "_apply_gate") as spy:
                with pytest.raises(ValidationError):
                    oracle.apply_gate(start, gate)
            assert oracle.query_log == before and spy.call_count == 0
        elif step == "mutate":  # overwrite a gate array the oracle has already applied
            _, _, gate = applied[data.draw(st.integers(0, len(applied) - 1), label="mutate")]
            gate[...] = random_haar_unitary(gate.shape[0], rng)
        sites = new_window()
        measure(sites)


@CASES
@given(
    d=st.sampled_from([2, 3]),
    D=st.integers(1, 3),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=10),
    time_dependent=st.booleans(),
    n_max=st.integers(0, 300),
    budget=st.sampled_from([1, 200, 2000, memory._BLOCK_ENTRIES]),
    mixed_start=st.booleans(),
    data=st.data(),
)
def test_fig_s2_blocks_match_per_step_reference(
    d, D, seeds, time_dependent, n_max, budget, mixed_start, data
):
    # A small entry budget gives short blocks, so block edges fall inside n_max.
    with mock.patch.object(memory, "_BLOCK_ENTRIES", budget):
        edge = memory._block_steps(len(seeds), d, D)
        extra = data.draw(st.lists(st.integers(0, n_max), max_size=20))
        points = [0, n_max, edge - 1, edge, edge + 1, 2 * edge, *extra]
        points = [n for n in points if 0 <= n <= n_max]
        rho0 = np.eye(D) / D if mixed_start else None
        kwargs = dict(time_dependent=time_dependent, sample_points=points, rho0=rho0)
        rows = memory.fig_s2_experiment(d, D, 0.1, n_max, seeds, **kwargs)
    assert rows == fig_s2_reference(d, D, 0.1, n_max, seeds, **kwargs)


@CASES
@given(
    d=st.sampled_from([2, 3]),
    D=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    weights=st.none() | st.lists(st.floats(0.01, 1.0), min_size=2, max_size=3),
    krylov=st.booleans(),
)
def test_stationary_state_matches_dense_oracle(d, D, seed, weights, krylov):
    # A crossover of 1 sends every D >= 2 through the Krylov branch.
    if weights is None or D == 1:
        model = random_separable_model(d, D, seed)
    else:
        lambdas = np.sqrt(weights[: min(d, D)])
        model = random_entangled_model(d, D, seed, lambdas=lambdas)
    with mock.patch.object(memory, "_DENSE_MAX_ENTRIES", 1 if krylov else 64):
        rho, steps, degenerate = memory.stationary_state(model)
    ref, _, ref_degenerate = dense_stationary_state(model)
    assert steps == 0 and degenerate == ref_degenerate
    assert np.max(np.abs(rho - ref)) < 1e-10
