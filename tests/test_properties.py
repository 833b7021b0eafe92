"""Generated-case invariants: MPS sweeps against dense oracles, CPTP transfer
maps, exact JSON round trips.

Cases range over d in {2, 3}, D in 1..4, N in 1..5 (up to 6 for the
run-length site codec, the model read-back and the step-1 tomography round
trip, and 8 for the measurement oracle and the batched expectations),
separable or entangled initial states, and time-independent or
time-dependent steps.  The near-identity experiment is
checked bit for bit against its per-step reference over block edges, its
Taylor-kernel unitaries against scipy's ``expm`` (and for unitarity, or
refusal, up to eta = 1e8 and dim 16) and against the kernel with every
product on the given layout (byte for byte above dim 4), its left matrices
in either layout against the one einsum on the sites as given, its CSV
against the f-string form, and the stationary solve
(base-site blocks, Krylov or dense) against the dense projection on the
whole effective environment.  Construction is fuzzed over (site, repeat)
lists of sites of rank 1..5.  ``PptMps.validate``'s certified norm check
decides like the dense norm on short chains and like the sweep on repeated
runs of up to 10^4 steps.  Expectations match the dense oracle on the PPT as
built, with its first element scaled and with invertible bond gauges, and
``transfer_right`` matches its own two-product formula.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
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
    disentangle_reconstruct,
    expectation,
    expectations,
    gauge_fidelity,
    mps_to_oqe,
    near_identity_unitary,
    random_entangled_model,
    random_separable_model,
)
from pptlab.models import (
    _TAYLOR_BLOCKS,
    _TAYLOR_MAX_SQUARINGS,
    _TAYLOR_THETA,
    UNITARITY_TOL,
    random_haar_unitary,
    random_hermitian,
)
from pptlab.ppt import CANONICAL_TOL, DENSE_STATE_GUARD, overlap_matrix
from pptlab.tensor_ops import decode_complex, encode_complex, transfer_left, transfer_right

from conftest import (
    bond_gauged,
    dense_left_matrix,
    dense_norm,
    dense_reduced_density,
    dense_stationary_state,
    dense_transfer_matrix,
    fig_s2_reference,
    negated_zeros,
    pair_leaf,
    pauli_sampled_estimate_loop,
    random_bond_gauges,
    random_observable,
    random_right_canonical_site,
    step_sites,
    version_1_model_doc,
    version_1_ppt_doc,
    version_2_ppt_doc,
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
@given(spec=model_specs, expose=st.booleans(), c=st.floats(0.5, 2.0), K=st.integers(1, 3))
def test_expectations_match_dense_oracle_in_any_gauge(spec, expose, c, K):
    """The PPT as built, with its first element scaled by c (right-canonical
    sites, norm c) and with invertible bond gauges (measures "none") all give
    the dense oracle's values: only a PPT ready to measure is read after its
    last insertion, any other is divided by its squared norm."""
    model = make_model(spec)
    rng = np.random.default_rng(spec["seed"])
    obs_list = [
        random_observable(rng, spec["d"], spec["N"], int(rng.integers(0, min(3, spec["N"]) + 1)))
        for _ in range(K)
    ]
    want = np.array([dense_expectation(model, spec["N"], obs) for obs in obs_list])
    built = build_ppt(model, spec["N"], expose_initial_leg=expose)
    (first, n), *rest = built.runs
    scaled = PptMps(runs=((c * first, n), *rest))
    gauged = bond_gauged(built, random_bond_gauges(built, rng))
    assert scaled.canonical == "right"
    assert gauged.canonical == ("none" if len(built.chain()) > 1 else "right")
    for mps in (built, scaled, gauged):
        assert np.max(np.abs(expectations(mps, obs_list) - want)) < 1e-10


@CASES
@given(
    spec=model_specs,
    N=st.integers(1, 8),
    expose=st.booleans(),
    right=st.booleans(),
    K=st.sampled_from([1, 2, 7]),
)
def test_expectations_match_one_sweep_per_observable(spec, N, expose, right, K):
    """One batched sweep gives, bit for bit, each observable's own sweep: on
    a right-canonical chain each value is read after its own last insertion,
    on a chain that measures "none" (its last site scaled) after the whole
    chain over one shared norm.  The last of several observables inserts
    nothing, so it reads the identity rows of the others' steps."""
    spec = dict(spec, N=N)
    rng = np.random.default_rng(spec["seed"])
    mps = build_ppt(make_model(spec), N, expose_initial_leg=expose)
    if not right:
        *head, (site, n) = mps.runs
        mps = PptMps(runs=(*head, (1.25 * site, n)))
    counts = [int(rng.integers(0, min(3, N) + 1)) for _ in range(K - 1)]
    obs_list = [random_observable(rng, spec["d"], N, c) for c in counts + [0 if K > 1 else 1]]
    assert mps.canonical == ("right" if right or len(mps.chain()) == 1 else "none")
    got = expectations(mps, obs_list)
    assert same_bits(got, np.array([expectation(mps, obs) for obs in obs_list]))


@CASES
@given(spec=model_specs)
def test_models_are_valid_and_consistent_by_construction(spec):
    """A model built from fresh arrays equals one built from a model's
    read-only arrays, derives ``entangled`` from the Schmidt rank, holds
    read-only arrays, and gets bond d*D from ``build_ppt`` exactly when it
    is entangled; replacing the initial state re-derives the flag."""
    model = make_model(spec)
    d, D, N = model.d, model.D, spec["N"]
    psi = np.array(model.initial_state)
    direct = OqeModel(d, D, [np.array(u) for u in model.unitaries], psi)
    reused = OqeModel(d, D, model.unitaries, model.initial_state)
    assert direct.to_json() == reused.to_json() and direct.entangled == reused.entangled
    schmidt = np.linalg.svd(psi.reshape(d, D), compute_uv=False)
    assert direct.entangled == (np.count_nonzero(schmidt > 1e-8) > 1)
    assert direct.entangled == (spec["entangled"] and D > 1)
    assert set(build_ppt(direct, N).bond_dims) == {d * D if direct.entangled else D}
    stored = [*direct.unitaries, direct.initial_state]
    assert not any(a.flags.writeable for a in stored) and psi.flags.writeable
    if D > 1:
        bell = np.zeros(d * D)
        bell[0] = bell[D + 1] = np.sqrt(0.5)  # (|0, 0> + |1, 1>) / sqrt(2)
        swapped = dataclasses.replace(direct, initial_state=bell)
        assert swapped.entangled and set(build_ppt(swapped, N).bond_dims) == {d * D}
        assert not dataclasses.replace(swapped, initial_state=np.eye(d * D)[0]).entangled


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


def two_product_transfer_right(env, bra, ket):
    """``transfer_right`` as two matrix products of its own, the formula the
    mirrored ``transfer_left`` call must match."""
    x = ket.reshape(-1, ket.shape[3]) @ env.T  # ((c, o, i), b)
    return bra.reshape(bra.shape[0], -1).conj() @ x.reshape(ket.shape[0], -1).T


@CASES
@given(
    d=st.sampled_from([2, 3]),
    bonds=st.tuples(*[st.integers(1, 5)] * 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_transfer_right_is_the_two_product_formula(d, bonds, seed):
    # bra (a, o, i, b) and ket (c, o, i, j) may differ in both bonds
    a, b, c, j = bonds
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    env, bra, ket = gaussian(b, j), gaussian(a, d, d, b), gaussian(c, d, d, j)
    got = transfer_right(env, bra, ket)
    want = two_product_transfer_right(env, bra, ket)
    # within 1e-14 of the largest entry: the two sum the same products in other orders
    assert got.shape == (a, c) and np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()


def given_layout_left_matrix(sites):
    """The left-matrix formula written out on its own: one einsum over the
    sites in the layout they come in, which both of ``memory._left_matrix``'s
    layouts must match byte for byte."""
    *lead, l, _, _, r = sites.shape
    dense = np.einsum("...aoib,...coid->...bdac", sites, sites.conj())
    return dense.reshape(*lead, r * r, l * l)


@st.composite
def left_matrix_cases(draw):
    """(lead, l, r): a stack of at most ``l r`` sites or of more, split over
    0, 1 or 2 lead axes, with at most 2^19 output entries."""
    l, r = draw(st.integers(1, 8), label="l"), draw(st.integers(1, 8), label="r")
    most = min(2000, 2**19 // (l * r) ** 2)
    if draw(st.booleans(), label="long") and most > l * r:
        stack = draw(st.integers(l * r + 1, most), label="stack")
    else:
        stack = draw(st.integers(1, min(l * r, most)), label="stack")
    axes = draw(st.sampled_from([0, 1, 2] if stack == 1 else [1, 2]), label="axes")
    if axes < 2:
        return (stack,) * axes, l, r
    last = draw(st.sampled_from([n for n in range(1, 9) if stack % n == 0]), label="last")
    return (stack // last, last), l, r


@CASES
@given(d=st.sampled_from([2, 3]), case=left_matrix_cases(), seed=st.integers(0, 2**32 - 1))
@example(d=2, case=((455, 4), 2, 2), seed=0)  # a figs2 block at D = 2: stack innermost
@example(d=2, case=((1, 4), 2, 2), seed=0)  # fixed H at D = 2: the given layout
@example(d=2, case=((2730, 4), 1, 1), seed=0)  # D = 1: the given layout
@example(d=2, case=((65,), 8, 8), seed=0)  # wide bonds: the given layout
def test_left_matrix_is_the_given_layout_formula(d, case, seed):
    # both layouts of the one kernel give the given-layout einsum's bytes
    lead, l, r = case
    rng = np.random.default_rng(seed)
    sites = rng.standard_normal((*lead, l, d, d, r, 2)) @ np.array([1.0, 1.0j])
    got = memory._left_matrix(sites)
    assert got.shape == (*lead, r * r, l * l) and got.flags.c_contiguous
    assert got.tobytes() == given_layout_left_matrix(sites).tobytes()


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

    # build_ppt, and two producers that put an exposed step 0 first in their runs
    oracle = MeasurementOracle(model, spec["N"])
    sweep = disentangle_reconstruct(oracle, spec["N"], spec["D"], entangled_initial=True)
    built = build_ppt(model, spec["N"], expose_initial_leg=expose)
    for mps in (built, oracle.true_mps(), sweep.recovered_mps):
        text = mps.to_json()
        again = PptMps.from_json(text)
        assert all(same_bits(s, t) for s, t in zip(mps.chain(), again.chain(), strict=True))
        assert again.to_json() == text and again.n_steps == spec["N"]

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
    for old_doc in (version_1_ppt_doc(mps), version_2_ppt_doc(mps)):
        text = json.dumps(old_doc, sort_keys=True, separators=(",", ":"))
        again = PptMps.from_json(text)
        assert all(same_bits(s, t) for s, t in zip(mps.chain(), again.chain()))
        assert again.to_json() == mps.to_json()
        assert again.to_json_dict()["format_version"] == 3


def byte_runs(sites) -> list[int]:
    """Lengths of the maximal runs of consecutive sites with equal shape and bytes."""
    runs = []
    for k, t in enumerate(sites):
        if k and same_bits(t, sites[k - 1]):
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def assert_read_only(t):
    with pytest.raises(ValueError, match="read-only"):
        t[(0,) * t.ndim] = 1.0


@CASES
@given(spec=model_specs, expose=st.booleans(), n_steps=st.integers(1, 6), data=st.data())
def test_repeated_sites_are_stored_once(spec, expose, n_steps, data):
    """A format-3 document holds one site document per maximal run of
    byte-identical consecutive sites, and reads back bit for bit, each run as
    one read-only array.

    Some steps swap their site for a copy whose zero parts are -0.0: equal in
    value, but a run of its own wherever the site has a zero part (enlarged
    sites of absorbed entangled states do; ``test_ppt.py`` pins that case).
    """
    model = make_model(dict(spec, N=n_steps))
    built = build_ppt(model, n_steps, expose_initial_leg=expose)
    if model.time_independent:  # step 0 or the first step, then one run of the shared site
        assert len(built.runs) <= 2
    for t, _ in built.runs:
        assert_read_only(t)
    flips = data.draw(st.lists(st.booleans(), min_size=n_steps, max_size=n_steps))
    sites = [negated_zeros(t) if f else t for t, f in zip(step_sites(built), flips)]
    mps = dataclasses.replace(built, runs=built.runs[:expose] + tuple((t, 1) for t in sites))
    doc = json.loads(mps.to_json())
    assert doc["format_version"] == 3
    runs = byte_runs(sites)
    assert [s.get("repeat", 1) for s in doc["sites"]] == runs
    assert all(s.get("repeat", 2) > 1 for s in doc["sites"])  # a run of 1 omits the key

    back = PptMps.from_json(mps.to_json())
    assert all(same_bits(s, t) for s, t in zip(mps.chain(), back.chain(), strict=True))
    assert back.n_steps == n_steps and back.to_json() == mps.to_json()
    assert [n for _, n in back.runs[expose:]] == runs
    for t, _ in back.runs:
        assert_read_only(t)


@st.composite
def run_lists(draw):
    """(site, repeat) lists near a PPT's: d in 1..3, bonds in 1..3 from a
    first left bond of 1, a first run that may be step 0 and repeats in
    1..3, with some sites of a shape drawn outright (rank 1..5, extents
    0..3) and entries drawn at random."""
    d, lead = draw(st.integers(1, 3)), draw(st.booleans())
    bonds = draw(st.lists(st.integers(1, 3), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = []
    for k, (left, right) in enumerate(zip([1, *bonds], bonds[:-1])):
        step_0 = lead and k == 0
        shape = (left, d, 1 if step_0 else d, right)
        if draw(st.integers(0, 4)) == 0:
            shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=5)))
        repeat = 1 if step_0 else draw(st.integers(1, 3))
        runs.append((rng.standard_normal(shape) + 1j * rng.standard_normal(shape), repeat))
    return tuple(runs)


@CASES
@given(runs=run_lists(), normalise=st.booleans())
def test_construction_admits_only_ppts_its_reader_reads(runs, normalise):
    """A run list raises ``ValidationError`` at construction, or makes a
    PPT whose document reads back with the same runs or is rejected only
    for its norm; ``normalise`` scales the first run to a unit norm."""
    try:
        mps = PptMps(runs=runs)
    except ValidationError:
        return
    if normalise:
        (t, n), *rest = mps.runs
        mps = dataclasses.replace(mps, runs=((t / mps.norm() ** (1 / n), n), *rest))
    try:
        back = PptMps.from_json(mps.to_json())
    except ValidationError as err:
        assert "state norm deviates" in str(err)
        return
    assert [(t.shape, n) for t, n in back.runs] == [(t.shape, n) for t, n in mps.runs]
    assert back.to_json() == mps.to_json()


@settings(max_examples=25, deadline=None)
@given(spec=model_specs, expose=st.booleans(), n_insertions=st.integers(0, 3))
def test_correlate_reads_version_1_and_2_files_alike(spec, expose, n_insertions):
    """``correlate`` prints the same bytes from a format-1 file with pair
    leaves, a format-2 file and the format-3 file of the same PPT."""
    model = make_model(spec)
    mps = build_ppt(model, spec["N"], expose_initial_leg=expose)
    rng = np.random.default_rng(spec["seed"])
    obs = random_observable(rng, spec["d"], spec["N"], min(n_insertions, spec["N"]))
    obs_pairs = {"insertions": [{"step": s, "matrix": pair_leaf(m)} for s, m in obs.insertions]}
    docs = {
        "v1.json": {"model": version_1_model_doc(model), "ppt": version_1_ppt_doc(mps)},
        "v2.json": {"model": model.to_json_dict(), "ppt": version_2_ppt_doc(mps)},
        "v3.json": {"model": model.to_json_dict(), "ppt": mps.to_json_dict()},
        "obs1.json": obs_pairs,
        "obs2.json": obs.to_json_dict(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            with open(os.path.join(tmp, name), "w", encoding="ascii") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)
        printed = set()
        files = itertools.product(["v1.json", "v2.json", "v3.json"], ["obs1.json", "obs2.json"])
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
    """The MPS oracle against the dense statevector route, after random gates
    that may start at step 0, the initial system leg.

    The reference expands ``build_ppt(model, N, expose_initial_leg=True)``
    and applies the gates by ``tensordot``; a gate on R steps from step 0
    has dimension d (d^2)^(R-1).  N reaches 8 at d = 2 and 5 at d = 3,
    where the dense state still fits the dense-state guard.  The window is
    any legal range of steps, step 0 included, of at most five steps at
    d = 2 and three at d = 3, so its density has at most 2^20 entries (a
    six-step window from step 1 at d = 2 would take 268 MB).
    """
    d = spec["d"]
    N = data.draw(st.integers(1, 8 if d == 2 else 5), label="N")
    model = make_model(dict(spec, N=N))
    oracle = MeasurementOracle(model, N)
    rng = np.random.default_rng(spec["seed"])
    circuit = []
    for _ in range(data.draw(st.integers(0, 3), label="gates")):
        width = data.draw(st.integers(1, min(N, 3 if d == 2 else 2)), label="width")
        start = data.draw(st.integers(0, N - width + 1), label="start")
        dim = (d * d) ** width // (d if start == 0 else 1)
        circuit.append((start, random_haar_unitary(dim, rng)))
    width = data.draw(st.integers(1, min(N, 5 if d == 2 else 3)), label="window")
    a = data.draw(st.integers(0, N - width + 1), label="first step")
    for start, gate in circuit:
        oracle.apply_gate(start, gate)
    rho = oracle.reduced_density((a, a + width - 1))
    exposed = build_ppt(model, N, expose_initial_leg=True)
    ref = dense_reduced_density(exposed, (a, a + width - 1), circuit)
    assert np.max(np.abs(rho - ref)) < 1e-12


@CASES
@given(spec=model_specs)
def test_sweep_from_step_zero_recovers_the_process(spec):
    """``disentangle_reconstruct(..., entangled_initial=True)`` walks its
    windows from step 0 with the bound D as given: N - R + 3 requests, and
    the recovered model (initial joint state included) reproduces the
    hidden process's expectations."""
    d, D, N = spec["d"], spec["D"], spec["N"]
    model = make_model(spec)
    report = disentangle_reconstruct(MeasurementOracle(model, N), N, D, entangled_initial=True)
    assert report.queries == N - tomography.window_size(d, D) + 3
    assert report.state_fidelity > 1 - 1e-8
    truth, rebuilt = build_ppt(model, N), build_ppt(report.recovered_model, N)
    rng = np.random.default_rng(spec["seed"])
    for _ in range(5):
        obs = random_observable(rng, d, N, min(N, 2))
        assert abs(expectation(truth, obs) - expectation(rebuilt, obs)) < 1e-8


@CASES
@given(spec=model_specs, data=st.data())
def test_sweep_from_step_one_recovers_the_process(spec, data):
    """``disentangle_reconstruct`` from step 1 with the tight bound, D or
    d D for an entangled model (its absorbed environment), for N from the
    window size R to 6: f + 1 = N - R + 2 requests, and the recovered PPT
    has state fidelity above 1 - 1e-8 with the hidden one."""
    d, D = spec["d"], spec["D"]
    bound = d * D if spec["entangled"] and D > 1 else D  # make_model's entangled rule
    R = tomography.window_size(d, bound)
    N = data.draw(st.integers(R, 6), label="N")
    model = make_model(dict(spec, N=N))
    report = disentangle_reconstruct(MeasurementOracle(model, N), N, bound)
    assert report.queries == N - R + 2
    assert report.state_fidelity > 1 - 1e-8


@CASES
@given(spec=model_specs, N=st.integers(1, 6), expose=st.booleans())
def test_model_read_back_rebuilds_the_process(spec, N, expose):
    """``build_ppt`` -> ``mps_to_oqe`` -> ``build_ppt`` gives the same
    process up to the environment gauge: gauge fidelity at least 1 - 1e-10."""
    model = make_model(dict(spec, N=N))
    mps = build_ppt(model, N, expose_initial_leg=expose)
    rebuilt = build_ppt(mps_to_oqe(mps)[0], N, expose_initial_leg=expose)
    assert gauge_fidelity(mps, rebuilt) >= 1 - 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), shots=st.integers(1, 20000), seed=st.integers(0, 2**32 - 1))
def test_batched_pauli_estimate_matches_per_setting_loop(n, shots, seed):
    """The per-qubit sampled-mode estimator agrees with the per-setting loop
    within 1e-12 (the sums run in another order) and leaves the generator in
    the same state: one multinomial call draws every setting's counts in
    setting order.  The loop costs 3^n (2^n)^3, so n = 7 and 8 are checked
    on sampled settings (``test_wide_windows_match_per_setting_rotations``)."""
    g = np.random.default_rng(seed)
    a = g.standard_normal((2**n, 2**n)) + 1j * g.standard_normal((2**n, 2**n))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = tomography._pauli_sampled_estimate(rho, shots, got_rng)
    assert np.max(np.abs(got - pauli_sampled_estimate_loop(rho, shots, ref_rng))) < 1e-12
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


ORACLE_STEPS = ["apply", "measure", "repeat", "reset", "invalid", "mutate"]


@CASES
@given(spec=model_specs, sampled=st.booleans(), data=st.data())
def test_stateful_oracle_matches_fresh_replay(spec, sampled, data):
    """One oracle meets a sequence of gate applications, measurements, a
    repeated measurement, resets, invalid gates and in-place edits of gate
    arrays it has applied.  Every answer equals, bit for bit, a fresh
    oracle's given the gates applied since the last reset, and that answer
    is within 1e-12 of the dense reference; sampled answers are within
    1e-12 of the per-setting estimator (``pauli_sampled_estimate_loop``)
    applied to the fresh exact density on a generator with the same seed.  ``apply_gate``
    calls ``_apply_gate`` once and ``reduced_density`` never does; an
    invalid gate or an edit of an applied array changes no later answer."""
    d = 2 if sampled else spec["d"]
    N = data.draw(st.integers(2, 6 if d == 2 else 4), label="N")
    model = make_model(dict(spec, d=d, N=N))
    shots = 5000
    oracle = (MeasurementOracle(model, N, shots=shots, seed=spec["seed"])
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
            assert np.max(np.abs(got - pauli_sampled_estimate_loop(exact, shots, stream))) < 1e-12
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
    data=st.data(),
)
def test_fig_s2_blocks_match_per_step_reference(d, D, seeds, time_dependent, n_max, budget, data):
    # A small entry budget gives short blocks, so block edges fall inside n_max.
    with mock.patch.object(memory, "_BLOCK_ENTRIES", budget):
        edge = memory._block_steps(len(seeds), d, D)
        extra = data.draw(st.lists(st.integers(0, n_max), max_size=20))
        points = [0, n_max, edge - 1, edge, edge + 1, 2 * edge, *extra]
        points = [n for n in points if 0 <= n <= n_max]
        kwargs = dict(time_dependent=time_dependent, sample_points=points)
        rows = memory.fig_s2_experiment(d, D, 0.1, n_max, seeds, **kwargs)
    assert rows == fig_s2_reference(d, D, 0.1, n_max, seeds, **kwargs)


@CASES
@given(
    dim=st.integers(1, 9),
    eta=st.floats(1e-6, 3.0),
    size=st.none() | st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_identity_unitary_matches_expm(dim, eta, size, seed):
    # scipy's Pade expm of the same draws is the oracle for the Taylor kernel
    u = near_identity_unitary(dim, eta, seed, size=size)
    shape = () if size is None else (size,)
    rng = np.random.default_rng(seed)
    draws = [random_hermitian(dim, rng) for _ in range(int(np.prod(shape)))]
    h = np.reshape(draws, (*shape, dim, dim))
    assert u.shape == h.shape
    if u.size:
        assert np.max(np.abs(u - scipy.linalg.expm(1j * eta * h))) < 1e-13
        eye = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(dim)
        assert np.max(np.abs(eye)) < 1e-13


def _expm_skew_given_layout(x, scaled):
    """The Taylor kernel with every product a stacked matmul on the given
    (k, n, n) layout, as ``models._expm_skew`` runs dimensions above 4."""
    shape, n = x.shape, x.shape[-1]
    x = x.reshape(-1, n, n)
    _, s = np.frexp(scaled.reshape(-1))
    s = np.maximum(s, 0)
    powers = np.empty((3,) + x.shape, dtype=np.complex128)
    powers[0] = np.eye(n)
    np.divide(x, np.exp2(s)[:, np.newaxis, np.newaxis], out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    cube = powers[1] @ powers[2]
    blocks = (_TAYLOR_BLOCKS @ powers.view(np.float64).reshape(3, -1)).view(np.complex128)
    b3, b2, b1, b0 = blocks.reshape((4,) + x.shape)[::-1]
    u = b3 + cube / math.factorial(12)
    for block in (b2, b1, b0):
        u = block + cube @ u
    for r in range(int(s.max(initial=0))):
        sel = s > r
        v = u[sel]
        u[sel] = v @ v
    return u.reshape(shape), s.reshape(shape[:-2])


@CASES
@given(
    dim=st.integers(1, 9),
    eta=st.floats(1e-6, 3.0),
    size=st.none() | st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_identity_unitary_matches_the_given_layout_kernel(dim, eta, size, seed):
    # above dim 4 the kernel is the given-layout one, byte for byte; up to
    # dim 4 its stack-innermost products round differently, and each slice's
    # difference grows like the unitarity defect, doubling per squaring: it
    # measured at most 2 * 2^s units of roundoff over 8 * 10^4 slices, and
    # the bound is 4 times that
    u = near_identity_unitary(dim, eta, seed, size=size)
    shape = () if size is None else (size,)
    rng = np.random.default_rng(seed)
    draws = [random_hermitian(dim, rng) for _ in range(int(np.prod(shape)))]
    x = (1j * eta) * np.reshape(draws, (*shape, dim, dim))
    ref, s = _expm_skew_given_layout(x, np.max(np.sum(np.abs(x), axis=-2), axis=-1) / _TAYLOR_THETA)
    if dim > 4:
        assert u.tobytes() == ref.tobytes()
    else:
        bound = 8 * np.exp2(s) * np.finfo(float).eps / 2
        assert np.all(np.max(np.abs(u - ref), axis=(-1, -2)) <= bound)


@CASES
@given(
    dim=st.integers(1, 16),
    log_eta=st.floats(-6.0, 8.0),
    size=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_identity_unitary_is_unitary_or_refused(dim, log_eta, size, seed):
    # a draw is refused exactly when it needs more than 17 squarings, which
    # could leave it further from unitary than OqeModel accepts
    eta = 10.0**log_eta
    rng = np.random.default_rng(seed)
    hs = np.stack([random_hermitian(dim, rng) for _ in range(size)])
    scaled = eta * np.max(np.sum(np.abs(hs), axis=-2), axis=-1) / _TAYLOR_THETA
    limit = 2.0**_TAYLOR_MAX_SQUARINGS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            us = near_identity_unitary(dim, eta, seed, size=size)
        except ValidationError as err:
            assert str(err).startswith(f"eta={eta!r} ")
            assert scaled.max() >= limit * (1 - 1e-12)
            return
    assert scaled.max() < limit * (1 + 1e-12)
    for u in us:
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= UNITARITY_TOL
    if dim % 2 == 0:  # the model's own check, on a time-dependent model of these steps
        OqeModel(2, dim // 2, tuple(us), np.eye(dim)[0])


@CASES
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 10**9), *[st.floats(width=64)] * 4), max_size=40
    )
)
def test_fig_s2_csv_is_the_format_spec_form(rows):
    # the one %-format per row writes what an f-string's .17g spec writes
    # for every float: subnormals, +-0, +-inf and nan included
    want = "n,mean_infidelity,median_infidelity,q25,q75\n" + "".join(
        f"{n},{a:.17g},{b:.17g},{c:.17g},{e:.17g}\n" for n, a, b, c, e in rows
    )
    assert memory.fig_s2_csv(rows) == want


@CASES
@given(
    d=st.sampled_from([2, 3]),
    D=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    weights=st.none() | st.lists(st.floats(0.01, 1.0), min_size=2, max_size=3),
    krylov=st.booleans(),
    bare=st.booleans(),
)
def test_stationary_state_matches_dense_oracle(d, D, seed, weights, krylov, bare):
    # A crossover of 1 sends every D >= 2 through the Krylov branch.  A bare
    # right-canonical site is not unital, so its fixed point needs GMRES.
    rho0 = None
    if bare:
        rng = np.random.default_rng(seed)
        subject = random_right_canonical_site(rng, d, D)
        rho0 = memory.pure_env_density(rng.standard_normal(D) + 1j * rng.standard_normal(D))
    elif weights is None or D == 1:
        subject = random_separable_model(d, D, seed)
    else:
        lambdas = np.sqrt(weights[: min(d, D)])
        subject = random_entangled_model(d, D, seed, lambdas=lambdas)
    with mock.patch.object(memory, "_DENSE_MAX_ENTRIES", 1 if krylov else 64):
        rho, steps, degenerate = memory.stationary_state(subject, rho0)
    ref, _, ref_degenerate = dense_stationary_state(subject, rho0)
    assert steps == 0 and degenerate == ref_degenerate
    assert np.max(np.abs(rho - ref)) < 1e-10


def _perturbed(mps, change, rng):
    """``mps`` with its first chain element scaled by 1 + eps ("head"), or
    with the site of one later run moved by noise that leaves its
    right-canonicality residual at 0.9 ``CANONICAL_TOL`` ("site").  A built
    chain gives its first element (step 0 or step 1) a run of its own."""
    kind, eps = change
    runs = list(mps.runs)
    if kind == "head":
        runs[0] = (runs[0][0] * (1.0 + eps), runs[0][1])
        return dataclasses.replace(mps, runs=tuple(runs))
    later = range(1, len(runs))
    if kind == "site" and later:
        k = later[int(rng.integers(len(later)))]
        t, n = runs[k]
        z = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        # the residual is linear in the noise scale to first order
        cross = np.einsum("aoib,coib->ac", t, z.conj())
        slope = np.max(np.abs(cross + cross.conj().T))
        runs[k] = (t + 0.9 * CANONICAL_TOL / slope * z, n)
        moved = dataclasses.replace(mps, runs=tuple(runs))
        assert 0.5 * CANONICAL_TOL < moved.right_canonical_residual() <= CANONICAL_TOL
        return moved
    return mps


def assert_validate_decides_like(mps, reference: float):
    """``validate`` accepts exactly when the reference norm lies within
    ``CANONICAL_TOL`` of 1, outside a rounding band of 1e-13 about that
    threshold."""
    try:
        mps.validate()
        accepted = True
    except ValidationError as err:
        assert "state norm deviates" in str(err)
        accepted = False
    if abs(abs(reference - 1.0) - CANONICAL_TOL) > 1e-13:
        assert accepted == (abs(reference - 1.0) <= CANONICAL_TOL), (reference, accepted)


norm_changes = st.one_of(
    st.just(("none", 0.0)),
    st.tuples(st.just("head"), st.sampled_from([-1e-3, -1e-9, -1e-11, 1e-11, 1e-9, 1e-3])),
    st.just(("site", 0.0)),
)


@CASES
@given(spec=model_specs, expose=st.booleans(), n_steps=st.integers(1, 6), change=norm_changes)
def test_norm_certificate_decides_like_the_dense_norm(spec, expose, n_steps, change):
    """A right-canonical claim's norm check, certified from the first chain
    element where the residual bound is tight enough and swept otherwise,
    accepts exactly the chains whose dense norm is within ``CANONICAL_TOL``
    (separable, entangled, exposed-leg and time-dependent chains)."""
    n_steps = min(n_steps, 4 if spec["d"] == 3 else 6)  # the dense vector fits the guard
    mps = build_ppt(make_model(dict(spec, N=n_steps)), n_steps, expose_initial_leg=expose)
    mps = _perturbed(mps, change, np.random.default_rng(spec["seed"]))
    assert mps.dense_size() <= DENSE_STATE_GUARD
    assert_validate_decides_like(mps, dense_norm(mps))


@settings(max_examples=20, deadline=None)
@given(
    spec=model_specs,
    expose=st.booleans(),
    repeat=st.sampled_from([10, 100, 1000, 10**4]),
    change=norm_changes,
)
def test_norm_certificate_decides_like_the_sweep_on_long_runs(spec, expose, repeat, change):
    """The same over one repeated site run of up to 10^4 steps, against the
    ``norm`` sweep, the only reference at that length."""
    model = make_model(dict(spec, time_dependent=False))
    mps = build_ppt(model, repeat, expose_initial_leg=expose)
    mps = _perturbed(mps, change, np.random.default_rng(spec["seed"]))
    assert_validate_decides_like(mps, mps.norm())
