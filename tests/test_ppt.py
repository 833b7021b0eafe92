import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pptlab import (
    ConversionError,
    DegenerateStateError,
    DimensionError,
    MeasurementOracle,
    OqeModel,
    PptMps,
    ValidationError,
    build_ppt,
    check_isometry,
    disentangle_reconstruct,
    evolve_env,
    expectation,
    expectations,
    gauge_fidelity,
    memory_size,
    mps_to_oqe,
    overlap,
    ppt_to_process_tensor,
    random_entangled_model,
    random_haar_unitary,
    random_separable_model,
    site_tensor_from_unitary,
    stationarity_onset,
    to_right_canonical,
    variational_fit,
)
from pptlab import ppt as ppt_module
from pptlab import tensor_ops, tomography
from pptlab.memory import initial_env_density
from pptlab.ppt import split_block

from conftest import (
    bond_gauged,
    dense_ppt_vector,
    embed_environment,
    negated_zeros,
    perturbed,
    random_bond_gauges,
    random_env_isometry,
    random_observable,
    schmidt_spectra_dense,
)


class TestBuildPpt:
    def test_no_environment_is_product(self, rng):
        model = random_separable_model(2, 1, rng)
        mps = build_ppt(model, 3)
        assert mps.bond_dims == [1, 1, 1]
        assert abs(mps.norm() - 1.0) < 1e-10

    def test_separable_bonds_and_canonicality(self, rng):
        model = random_separable_model(2, 2, rng)
        mps = build_ppt(model, 5)
        assert mps.bond_dims == [2] * 5
        assert mps.right_canonical_residual() < 1e-10
        mps.validate()

    def test_entangled_bond_is_effective_dimension(self, rng):
        model = random_entangled_model(2, 2, rng)
        mps = build_ppt(model, 4)
        assert mps.bond_dims == [4] * 4

    def test_matches_dense_circuit_replay(self, rng):
        for ent in (False, True):
            model = (
                random_entangled_model(2, 2, rng) if ent else random_separable_model(2, 2, rng)
            )
            mps = build_ppt(model, 4)
            ref = dense_ppt_vector(model, 4)
            got = mps.to_statevector()
            # states agree up to a global phase fixed at the largest entry
            k = np.argmax(np.abs(ref))
            assert np.linalg.norm(got * (ref[k] / got[k]) - ref) < 1e-10

    def test_exposed_initial_leg(self, rng):
        model = random_entangled_model(2, 2, rng, lambdas=np.sqrt([0.7, 0.3]))
        mps = build_ppt(model, 3, expose_initial_leg=True)
        assert mps.leading_site is not None
        assert abs(mps.norm() - 1.0) < 1e-10
        # projecting the exposed leg on a Schmidt vector leaves that branch
        form = model.initial_schmidt()
        vec = mps.to_statevector().reshape(2, -1)
        branch = form.sys_basis[:, 0].conj() @ vec
        assert abs(np.linalg.norm(branch) - form.lambdas[0]) < 1e-10

    def test_invalid_n(self, rng):
        with pytest.raises(ValidationError):
            build_ppt(random_separable_model(2, 2, rng), 0)

    @pytest.mark.parametrize("N", [2.0, 2.5, True, np.bool_(True), "2"])
    def test_rejects_non_integer_n(self, rng, N):
        with pytest.raises(ValidationError, match="N must be an integer"):
            build_ppt(random_separable_model(2, 2, rng), N)

    def test_numpy_integer_n_accepted(self, rng):
        model = random_separable_model(2, 2, rng)
        assert build_ppt(model, np.int64(3)).to_json() == build_ppt(model, 3).to_json()

    def test_n_capped_at_max_steps(self, rng):
        model = random_separable_model(2, 2, rng)
        mps = build_ppt(model, ppt_module.MAX_STEPS)
        assert mps.n_steps == ppt_module.MAX_STEPS
        # the boundary site, then one run of the shared site
        assert [n for _, n in mps.runs] == [1, ppt_module.MAX_STEPS - 1]
        with pytest.raises(ValidationError, match="MAX_STEPS"):
            build_ppt(model, ppt_module.MAX_STEPS + 1)

    @pytest.mark.parametrize("kind", ["separable", "entangled", "exposed"])
    def test_horizon_cap_holds_no_per_step_structure(self, rng, kind):
        # MAX_STEPS steps are at most two runs, two site documents and two
        # residuals; validate is left out, as its norm sweep walks every step
        ent = kind == "entangled"
        model = (random_entangled_model if ent else random_separable_model)(2, 2, rng)
        mps = build_ppt(model, ppt_module.MAX_STEPS, expose_initial_leg=kind == "exposed")
        assert mps.n_steps == ppt_module.MAX_STEPS and len(mps.runs) <= 2
        docs = mps.to_json_dict()["sites"]
        assert len(docs) <= 2 and sum(doc.get("repeat", 1) for doc in docs) == ppt_module.MAX_STEPS
        assert len(mps._gram_residuals) <= 2

    def test_time_dependent_needs_enough_unitaries(self, rng):
        model = random_separable_model(2, 2, rng, steps=2)
        with pytest.raises(ValidationError):
            build_ppt(model, 3)

    def test_steps_sharing_a_unitary_form_one_run(self):
        # mps_to_oqe reads a run back as one shared unitary object, which the
        # model stores once; rebuilding keeps the boundary step and one run
        N = 10**4
        mps = build_ppt(random_separable_model(2, 16, 0), N)
        model = mps_to_oqe(mps)[0]
        assert len(model.unitaries) == N and len({id(u) for u in model.unitaries}) == 2
        rebuilt = build_ppt(model, N)
        assert rebuilt.n_steps == N and len(rebuilt.runs) <= 2
        assert len(rebuilt.to_json_dict()["sites"]) == 2


_STEP_SITE = build_ppt(random_separable_model(2, 2, 0), 2).runs[-1][0]  # bonds 2 and 2


class TestSiteLayout:
    """B[a, o, i, b] = <o, b|U|i, a> / sqrt(d) has one owner: a stack of
    unitaries is laid out slice by slice, and ``_site_matrix`` undoes it."""

    @pytest.mark.parametrize("d, D", [(2, 1), (2, 3), (3, 2)])
    def test_a_stack_is_laid_out_slice_by_slice(self, rng, d, D):
        us = np.stack([[random_haar_unitary(d * D, rng) for _ in range(3)] for _ in range(2)])
        sites = site_tensor_from_unitary(us, d, D)
        assert sites.shape == (2, 3, D, d, d, D)
        for idx in np.ndindex(2, 3):
            single = site_tensor_from_unitary(us[idx], d, D)
            assert sites[idx].tobytes() == single.tobytes()
            # the inverse layout gives back U / sqrt(d), entry for entry
            assert ppt_module._site_matrix(single).tobytes() == (us[idx] / np.sqrt(d)).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 4, 4, 1)], ids=repr)
    def test_rejects_what_is_no_stack_of_unitaries_of_the_size(self, shape):
        with pytest.raises(DimensionError, match="incompatible with d=2, D=2"):
            site_tensor_from_unitary(np.ones(shape), 2, 2)


class TestConstruction:
    """A PPT owns read-only copies of its sites and checks its runs as the reader does."""

    @pytest.mark.parametrize(
        "runs, message",
        [((), "PPT stores no sites"),
         (((np.ones(3), 1),), "chain element 0 is rank 1, expected 4"),
         (((_STEP_SITE, 5),), "chain element 0 has left bond 2, expected 1"),
         (((np.ones((1, 2, 2, 0)), 1),), r"chain element 0 has an empty extent: shape \(1, 2, 2, 0\)"),
         (((np.ones((1, 1, 1, 1)), 1), (np.ones((1, 1, 1, 1)), 2)), "need d >= 2, got d=1")],
        ids=["no_runs", "rank_1", "opens_on_bond_2", "empty_extent", "d_1"],
    )
    def test_a_malformed_chain_is_rejected_at_construction(self, runs, message):
        with pytest.raises(ValidationError, match=message):
            PptMps(runs=runs)

    def test_validate_checks_only_the_norm(self, monkeypatch):
        mps = build_ppt(random_separable_model(2, 2, 0), 3)
        head = replace(mps, runs=((mps.runs[0][0] * 1.001, 1), *mps.runs[1:]))

        def unreachable(*args):
            raise AssertionError("validate checked the shapes again")

        monkeypatch.setattr(ppt_module, "_check_shapes", unreachable)
        mps.validate()
        with pytest.raises(ValidationError, match="state norm deviates"):
            head.validate()

    def test_measured_form_does_not_follow_the_callers_arrays(self):
        built = build_ppt(random_separable_model(2, 2, 0), 3)
        runs = [(np.array(t), n) for t, n in built.runs]
        mps = PptMps(runs=tuple(runs))
        assert mps.canonical == "right" and mps.right_canonical_residual() < 1e-12
        runs[1][0][...] *= 2  # the caller's own array, after the PPT measured it
        assert mps.canonical == "right" and mps.right_canonical_residual() < 1e-12
        assert PptMps(runs=tuple(runs)).canonical == "none"
        assert all(not t.flags.writeable and t.dtype == np.complex128 for t, _ in mps.runs)

    @pytest.mark.parametrize("repeat", [0, 2.0, True], ids=["zero", "float", "bool"])
    def test_a_repeat_is_an_integer_of_at_least_one(self, repeat):
        site = build_ppt(random_separable_model(2, 2, 0), 1).runs[0][0]
        with pytest.raises(ValidationError, match=f"'repeat' must be an integer >= 1, got {repeat}"):
            PptMps(runs=((site, repeat),))

    def test_a_numpy_integer_repeat_is_stored_as_int(self):
        (first, _), (site, _) = build_ppt(random_separable_model(2, 2, 0), 4).runs
        mps = PptMps(runs=((first, 1), (site, np.int64(3))))
        assert type(mps.runs[1][1]) is int and mps.n_steps == 4

    def test_produced_sites_are_c_contiguous_and_read_only(self, rng):
        fitted = variational_fit(build_ppt(random_separable_model(2, 2, rng), 3))
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 5)
        outputs = [  # at D = 16, site_tensor_from_unitary returns strided views of the unitary
            build_ppt(random_separable_model(2, 16, rng), 4),
            build_ppt(random_entangled_model(2, 2, rng), 4, expose_initial_leg=True),
            fitted.recovered_mps,
            disentangle_reconstruct(oracle, 5, 2).recovered_mps,
        ]
        for mps in outputs:
            assert all(t.flags.c_contiguous and not t.flags.writeable for t, _ in mps.runs)

    def test_a_non_finite_site_is_rejected(self):
        (first, _), (site, _) = build_ppt(random_separable_model(2, 2, 0), 3).runs
        site = np.array(site)
        site[0, 0, 0, 0] = np.nan
        with pytest.raises(DimensionError, match="tensor contains non-finite entries"):
            PptMps(runs=((first, 1), (site, 2)))


class TestOverlap:
    @pytest.mark.parametrize(
        ("left", "right"),
        [((2, 3, True), (2, 4, False)), ((2, 3, False), (2, 4, False)),
         ((2, 3, True), (2, 3, False)), ((2, 3, False), (3, 3, False))],
        ids=["exposed_step_0_same_length", "steps", "exposed_step_0", "d"],
    )
    @pytest.mark.parametrize("fn", [overlap, ppt_module.overlap_matrix, gauge_fidelity])
    def test_mismatched_ppts_raise_dimension_error(self, rng, fn, left, right):
        # d, N and expose_initial_leg of each side; the first case has chains
        # of equal length whose first elements differ in their in leg
        a, b = (
            build_ppt(random_separable_model(d, 2, rng), N, expose_initial_leg=expose)
            for d, N, expose in (left, right)
        )
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DimensionError, match="overlap requires"):
                fn(x, y)


class TestLeftSweep:
    """Every left-to-right walk of a chain is ``ppt._left_envs``: with
    ``ppt.transfer_left`` counted, each walk counts exactly its steps."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = [0]
        step = ppt_module.transfer_left

        def counting(*args):
            calls[0] += 1
            return step(*args)

        monkeypatch.setattr(ppt_module, "transfer_left", counting)
        return calls

    @pytest.mark.parametrize("expose", [False, True])
    def test_expectation_stops_at_the_last_insertion(self, rng, steps, expose):
        mps = build_ppt(random_entangled_model(2, 2, rng), 7, expose_initial_leg=expose)
        obs = random_observable(rng, 2, 5)
        expectation(mps, obs)
        assert steps[0] == int(expose) + obs.last_step

    @pytest.mark.parametrize("expose", [False, True])
    def test_expectations_walk_once_to_the_furthest_insertion(self, rng, steps, expose):
        mps = build_ppt(random_entangled_model(2, 2, rng), 7, expose_initial_leg=expose)
        obs_list = [random_observable(rng, 2, n) for n in (3, 5, 2)]
        expectations(mps, obs_list)
        assert steps[0] == int(expose) + max(obs.last_step for obs in obs_list)

    def test_expectations_of_a_scaled_first_element_stop_at_the_last_insertion(self, rng, steps):
        # right-canonical sites after a first element off unit norm: read after the
        # insertion and divided by the first element's squared norm, within 1e-12
        built = build_ppt(random_separable_model(2, 4, rng), 1000)
        (first, n), *rest = built.runs
        scaled = PptMps(runs=((1.001 * first, n), *rest))
        obs = random_observable(rng, 2, 3)
        want = expectation(built, obs)
        steps[0] = 0
        got = expectation(scaled, obs)
        assert steps[0] == obs.last_step
        assert abs(got - want) < 1e-12

    def test_expectations_certify_the_first_element_before_reading_it(self, rng, steps):
        # sites within CANONICAL_TOL of right-canonical whose residual bound g, over
        # 10 steps, exceeds what certifies the first element's squared norm: swept
        model = random_separable_model(2, 4, rng, steps=10)
        built = build_ppt(model, 10)
        (first, _), *rest = built.runs
        loose = [(t * (1 + 5e-12), n) for t, n in rest]  # Gram residual 1e-11 each
        mps = PptMps(runs=((1.001 * first, 1), *loose))
        assert mps.canonical == "right" and mps._certified_head_norm2() is None
        obs = random_observable(rng, 2, 3)
        want = expectation(bond_gauged(mps, random_bond_gauges(mps, rng)), obs)
        steps[0] = 0
        assert abs(expectation(mps, obs) - want) < 1e-12
        assert steps[0] == 10

    def test_norm_sweeps_once_per_object(self, rng, steps):
        mps = build_ppt(random_separable_model(2, 2, rng), 6)
        assert mps.norm() == mps.norm() == overlap(mps, mps).real ** 0.5
        assert steps[0] == 6 + 6  # one norm sweep and the overlap's
        gauge_fidelity(mps, mps)
        assert steps[0] == 12 + 6  # the overlap matrix only
        PptMps(runs=mps.runs).norm()
        assert steps[0] == 18 + 6  # a new object sweeps its own

    def test_expectations_of_a_non_canonical_chain_walk_it_once(self, rng, steps):
        # one batched sweep to the end, the shared norm riding along as one more row
        (first, _), (site, n) = build_ppt(random_separable_model(2, 2, rng), 6).runs
        mps = PptMps(runs=((first, 1), (1.25 * site, n)))
        assert mps.canonical == "none"
        expectations(mps, [random_observable(rng, 2, 6) for _ in range(4)])
        assert steps[0] == 6

    @pytest.mark.parametrize("expose", [False, True])
    def test_overlap_walks_the_chain(self, rng, steps, expose):
        mps = build_ppt(random_separable_model(2, 3, rng), 6, expose_initial_leg=expose)
        overlap(mps, mps)
        assert steps[0] == 6 + int(expose)

    @pytest.mark.parametrize("kind", ["mps", "model", "time_dependent"])
    def test_evolve_env_walks_n_steps(self, rng, steps, kind):
        model = random_separable_model(2, 2, rng, steps=5 if kind == "time_dependent" else 1)
        if kind == "mps":  # a chain opens on a left bond of 1
            evolve_env(np.ones((1, 1)), build_ppt(model, 5), 4)
        else:
            evolve_env(initial_env_density(model), model, 4)
        assert steps[0] == 4

    def test_stationarity_onset_walks_to_its_onset(self, rng, steps):
        onset = stationarity_onset(random_separable_model(2, 2, rng))
        assert onset > 0 and steps[0] == onset

    def test_oracle_sweeps_each_site_once_per_gate(self, rng, steps):
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 6)
        oracle.reduced_density((3, 4))
        assert steps[0] == 3  # steps 0, 1 and 2
        oracle.reduced_density((3, 4))
        assert steps[0] == 3
        oracle.apply_gate(1, random_haar_unitary(4, rng))
        oracle.reduced_density((4, 5))
        assert steps[0] == 3 + 3  # steps 1 to 3 again: the gate moved step 1
        oracle.reset()
        oracle.reduced_density((2, 2))
        assert steps[0] == 6 + 2

    def test_one_fit_evaluation_walks_the_chain(self, rng, steps, monkeypatch):
        # each evaluation ends in one _optimal_final_unitary call; the fit
        # takes the target's norm first, and each gradient's backward sweep,
        # the left sweep of the mirrored chains, walks steps N to 2.
        # One shared unitary cannot fit a time-dependent target at once.
        N = 5
        seen, grads = [], [0]
        solve, take_grad = tomography._optimal_final_unitary, tomography._backward_grad

        def counting(lmat):
            seen.append(steps[0] - (N - 1) * grads[0])  # less the backward sweeps
            return solve(lmat)

        def gradient(*args):
            grads[0] += 1
            return take_grad(*args)

        monkeypatch.setattr(tomography, "_optimal_final_unitary", counting)
        monkeypatch.setattr(tomography, "_backward_grad", gradient)
        variational_fit(build_ppt(random_separable_model(2, 2, rng, steps=N), N))
        assert len(seen) > 1 and seen == [N * (k + 2) for k in range(len(seen))]
        assert 1 <= grads[0] < len(seen)


class TestSplitBlock:
    @pytest.mark.parametrize(
        "left, shapes, right",
        [(1, [(2, 2), (2, 2), (2, 2)], 3), (3, [(2, 1), (2, 2), (2, 2)], 2), (2, [(3, 3), (3, 3)], 1)],
    )
    def test_reassembles_the_block_in_a_pinned_gauge(self, rng, left, shapes, right):
        fused = int(np.prod([o * i for o, i in shapes]))
        block = rng.standard_normal((left, fused, right)) + 1j * rng.standard_normal((left, fused, right))
        sites = split_block(block, shapes)
        assert [t.shape[1:3] for t in sites] == shapes
        out = sites[0].reshape(left, -1, sites[0].shape[3])
        for t in sites[1:]:
            out = np.einsum("apb,bqc->apqc", out, t.reshape(t.shape[0], -1, t.shape[3]))
            out = out.reshape(left, -1, t.shape[3])
        assert np.max(np.abs(out - block)) < 1e-12
        for t in sites[1:]:
            rows = t.reshape(t.shape[0], -1)
            peak = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
            assert np.all(peak.real > 0) and np.all(np.abs(peak.imag) <= 1e-15 * peak.real)
        # a global phase of the block moves into the first site only
        rotated = split_block(np.exp(0.7j) * block, shapes)
        assert all(np.max(np.abs(a - b)) < 1e-12 for a, b in zip(sites[1:], rotated[1:]))


class TestCheckIsometry:
    def test_identity(self):
        psi = np.zeros(6)
        psi[0] = 1.0
        model = OqeModel(2, 3, [np.eye(6)], psi)
        assert check_isometry(model) < 1e-14

    def test_haar(self, rng):
        model = random_separable_model(2, 3, rng)
        assert check_isometry(model) < 1e-10

    def test_scaled_unitary_flagged(self, rng):
        # a non-unitary step is refused when the model is built, so
        # check_isometry only ever measures models that passed that check
        model = random_separable_model(2, 2, rng)
        with pytest.raises(ValidationError, match="unitarity"):
            OqeModel(2, 2, (1.1 * model.unitaries[0],), model.initial_state)


class TestRightCanonical:
    def random_mps(self, rng, d, N, bond):
        sites = []
        left = 1
        for n in range(N):
            right = bond if n < N - 1 else bond
            t = rng.standard_normal((left, d, d, right)) + 1j * rng.standard_normal(
                (left, d, d, right)
            )
            sites.append(t)
            left = right
        return PptMps(runs=tuple((t, 1) for t in sites))

    def test_idempotent_on_canonical_input(self, rng):
        mps = build_ppt(random_separable_model(2, 2, rng), 4)
        again = to_right_canonical(mps)
        assert abs(abs(overlap(again, mps)) - 1.0) < 1e-12
        for a, b in zip(again.chain(), mps.chain(), strict=True):
            assert a.shape == b.shape

    def test_preserves_state(self, rng):
        mps = self.random_mps(rng, 2, 4, 3)
        canon = to_right_canonical(mps)
        v0 = mps.to_statevector()
        v1 = canon.to_statevector()
        v0 /= np.linalg.norm(v0)
        fid = abs(np.vdot(v1, v0))
        assert fid > 1 - 1e-12
        assert canon.right_canonical_residual() < 1e-10

    def test_product_state_truncates_to_bond_one(self, rng):
        # product MPS written with inflated bonds collapses back to 1
        base = build_ppt(random_separable_model(2, 1, rng), 3)
        inflated = []
        for t in base.chain():
            big = np.zeros((t.shape[0] * 2, 2, 2, t.shape[3] * 2), dtype=np.complex128)
            big[: t.shape[0], :, :, : t.shape[3]] = t
            inflated.append(big)
        inflated[0] = inflated[0][:1]
        mps = PptMps(runs=tuple((t, 1) for t in inflated))
        canon = to_right_canonical(mps)
        assert canon.bond_dims == [1, 1, 2]  # final leg keeps its padded size

    def test_zero_state_raises(self):
        runs = ((np.zeros((1, 2, 2, 1), dtype=np.complex128), 1),)
        with pytest.raises(DegenerateStateError):
            to_right_canonical(PptMps(runs=runs))

    @pytest.mark.parametrize("kind", ["separable", "entangled", "exposed"])
    def test_a_ppt_ready_to_measure_is_returned_as_it_is(self, rng, kind):
        model = (random_separable_model if kind == "separable" else random_entangled_model)(2, 2, rng)
        mps = build_ppt(model, 4, expose_initial_leg=kind == "exposed")
        assert to_right_canonical(mps) is mps
        # right-canonical sites after a first element of squared norm 4
        (first, n), *rest = mps.runs
        scaled = PptMps(runs=((2.0 * first, n), *rest))
        assert scaled.canonical == "right"
        canon = to_right_canonical(scaled)
        assert canon is not scaled and abs(canon.norm() - 1.0) < 1e-12
        assert abs(abs(overlap(canon, mps)) - 1.0) < 1e-12

    def test_a_scaled_first_element_is_divided_and_the_runs_kept(self, rng):
        built = build_ppt(random_separable_model(2, 4, 0), 1000)
        (first, n), (site, repeat) = built.runs
        scaled = PptMps(runs=((1.001 * first, n), (site, repeat)))
        canon = to_right_canonical(scaled)
        assert [k for _, k in canon.runs] == [1, 999] and np.array_equal(canon.runs[1][0], site)
        assert ppt_module._ready_to_measure(canon)
        # the same reads as the sweep's, here of the state with gauged inner bonds
        short = PptMps(runs=((1.001 * first, n), (site, 7)))
        swept = to_right_canonical(bond_gauged(short, random_bond_gauges(short, rng)))
        kept = to_right_canonical(short)
        assert len(kept.runs) == 2 and len(swept.runs) == 8
        assert memory_size(short) == memory_size(swept) == 4
        (a, res_a), (b, res_b) = mps_to_oqe(kept), mps_to_oqe(swept)
        assert max(res_a) < 1e-10 and max(res_b) < 1e-10
        assert gauge_fidelity(build_ppt(a, 8), build_ppt(b, 8)) > 1 - 1e-10
        assert gauge_fidelity(build_ppt(a, 8), short) > 1 - 1e-10

    def test_unitary_bond_gauges_canonicalise_alike(self, rng):
        mps = self.random_mps(rng, 2, 4, 3)
        assert mps.canonical == "none"
        a, b = (
            to_right_canonical(bond_gauged(mps, random_bond_gauges(mps, rng, unitary=True)))
            for _ in range(2)
        )
        for x, y in zip(a.chain(), b.chain(), strict=True):
            assert x.shape == y.shape and np.max(np.abs(x - y)) < 1e-12


class TestMemorySize:
    def test_no_environment(self, rng):
        assert memory_size(build_ppt(random_separable_model(2, 1, rng), 4)) == 1

    def test_haar_d2_matches_dense_schmidt(self, rng):
        model = random_separable_model(2, 2, rng)
        mps = build_ppt(model, 6)
        assert memory_size(mps) == 2
        # dense oracle: SVD across every cut of the full statevector
        vec = mps.to_statevector()
        dims = [4] * 6 + [2]
        for n, spec in enumerate(schmidt_spectra_dense(vec, dims), start=1):
            rank_dense = int(np.count_nonzero(spec > 1e-8))
            assert rank_dense <= 2
        assert max(
            int(np.count_nonzero(s > 1e-8)) for s in schmidt_spectra_dense(vec, dims)
        ) == memory_size(mps)

    def test_isometry_embedding_invariance(self, rng):
        model = random_separable_model(2, 4, rng)
        lifted = embed_environment(model, random_env_isometry(rng, 4, 8))
        assert memory_size(build_ppt(model, 4)) == 4
        assert memory_size(build_ppt(lifted, 4)) == 4


class TestMpsToOqe:
    def test_roundtrip(self, rng):
        model = random_separable_model(2, 2, rng)
        mps = build_ppt(model, 5)
        recovered, residuals = mps_to_oqe(mps)
        assert max(residuals) < 1e-10
        # steps 2..5 share one site array, read once into one unitary
        assert all(u is recovered.unitaries[1] for u in recovered.unitaries[2:])
        assert len(set(residuals[1:])) == 1
        rebuilt = build_ppt(recovered, 5)
        assert gauge_fidelity(rebuilt, mps) > 1 - 1e-10

    def test_perturbed_roundtrip(self, rng):
        model = random_separable_model(2, 2, rng)
        noisy = to_right_canonical(perturbed(build_ppt(model, 4), 1e-3, rng))
        recovered, residuals = mps_to_oqe(noisy)
        assert 1e-5 < max(residuals) < 1e-1
        rebuilt = build_ppt(recovered, 4)
        assert gauge_fidelity(rebuilt, noisy) > 1 - 1e-4

    def test_product_recovers_global_phase(self, rng):
        u = random_haar_unitary(2, rng)
        psi = np.zeros(2)
        psi[0] = 1.0
        model = OqeModel(2, 1, [np.kron(u, np.eye(1))], psi)
        mps = build_ppt(model, 3)
        recovered, _ = mps_to_oqe(mps)
        got = recovered.unitaries[1]
        phase = np.trace(got.conj().T @ u) / 2
        phase /= abs(phase)
        assert np.max(np.abs(got * phase - u)) < 1e-10

    def test_right_canonicalises_other_input(self, rng):
        # the process in a gauge that is not right-canonical, claimed as "none"
        mps = build_ppt(random_separable_model(2, 3, rng), 3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sites = mps.chain()
        sites[0] = np.einsum("aoib,bc->aoic", sites[0], g)
        sites[1] = np.einsum("cb,boid->coid", np.linalg.inv(g), sites[1])
        twin = PptMps(runs=tuple((t, 1) for t in sites))
        assert twin.right_canonical_residual() > 1e-3
        recovered, residuals = mps_to_oqe(twin)
        assert max(residuals) < 1e-10
        assert gauge_fidelity(build_ppt(recovered, 3), mps) > 1 - 1e-10

    def test_rank_deficient_site_aborts(self):
        sites = [np.zeros((1, 2, 2, 1), dtype=np.complex128) for _ in range(2)]
        sites[0][0, 0, 0, 0] = 1.0
        sites[1][0, 0, 0, 0] = 1.0  # sum_{oi} B B^dag = 1, but rank-1 as a d x d map
        mps = PptMps(runs=tuple((t, 1) for t in sites))
        with pytest.raises(ConversionError) as err:
            mps_to_oqe(mps)
        assert err.value.site is not None

    @pytest.mark.parametrize(
        "sites, failing, message",
        [
            ([("deficient", 2, 4), ("deficient", 4, 4)], 1, "rank deficient"),
            ([("good", 2, 4), ("wide", 4, 2), ("deficient", 2, 4)], 2, "left bond 4 exceeds"),
        ],
    )
    def test_the_first_failing_step_is_named(self, rng, sites, failing, message):
        # runs of different shapes are read by different stacked SVDs, and a run
        # whose left bond exceeds its right is read by none; the error still
        # names the first failing step in step order
        lead = np.zeros((1, 2, 1, 2), dtype=np.complex128)
        lead[0, 0, 0, 0] = 1.0  # step 0, the first chain element, of unit norm
        runs = [(lead, 1)]
        for kind, l, r in sites:  # right-canonical (l, 2, 2, r) sites
            t = np.zeros((l, 2, 2, r), dtype=np.complex128)
            if kind == "good":  # the rows a < l of a Haar unitary's site: full rank
                t = site_tensor_from_unitary(random_haar_unitary(2 * r, rng), 2, r)[:l]
            elif kind == "wide":  # row a is the unit vector at (o, i) = a, b = 0
                t.reshape(l, 4, r)[np.arange(l), np.arange(l), 0] = 1.0
            else:  # row a is the unit vector at o = i = 0, b = a: rank l < d l
                t[np.arange(l), 0, 0, np.arange(l)] = 1.0
            runs.append((t, 1))
        mps = PptMps(runs=tuple(runs))
        assert mps.canonical == "right"
        with pytest.raises(ConversionError, match=message) as err:
            mps_to_oqe(mps)
        assert err.value.site == failing

    def test_runs_are_read_in_bounded_stacks(self):
        # 600 runs of distinct (16, 2, 2, 16) sites: the model holds their unitaries
        # twice (read and copied); one stack of every site matrix with its SVD
        # would hold 5.5 times them at the peak
        u = random_haar_unitary(32, 0)
        mps = build_ppt(OqeModel(2, 16, [u.copy() for _ in range(600)], np.eye(32)[0]), 600)
        assert len(mps.runs) == 600
        tracemalloc.start()
        try:
            mps_to_oqe(mps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 600 * u.nbytes

    @pytest.mark.parametrize("D", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["separable", "entangled", "exposed"])
    def test_stacked_read_gives_the_per_site_bytes(self, D, kind):
        # recovered chains of the disentangling reconstruction, step 0 exposed
        # for an entangled model and for "exposed"
        model = (random_entangled_model if kind == "entangled" else random_separable_model)(
            2, D, D
        )
        N = 6 if D < 5 else 5
        report = disentangle_reconstruct(
            MeasurementOracle(model, N), N, D, entangled_initial=kind != "separable"
        )
        for mps in (report.recovered_mps, build_ppt(model, N)):
            got, residuals = mps_to_oqe(mps)
            want, want_residuals = per_site_read(mps)
            assert len(got.unitaries) == len(want) == N
            assert all(u.tobytes() == w.tobytes() for u, w in zip(got.unitaries, want))
            assert residuals == want_residuals


def per_site_read(mps):
    """The step unitaries and residuals of ``mps_to_oqe``, one 2-D SVD per run."""
    mps = to_right_canonical(mps)
    d, lead = mps.d, mps.leading_site
    D = max(t.shape[3] for t, _ in mps.runs)
    unitaries, residuals = [], []
    for t, repeat in mps.runs[lead is not None :]:
        l, _, _, r = t.shape
        w = np.sqrt(d) * ppt_module._site_matrix(t)
        u, s, vh = np.linalg.svd(w, full_matrices=False)
        iso = u @ vh
        unitaries += [ppt_module._embed_and_complete(iso, d, l, r, D)] * repeat
        residuals += [float(np.linalg.norm(w - iso))] * repeat
    return unitaries, residuals


class TestProcessTensor:
    def test_identity_single_step(self):
        psi = np.zeros(2)
        psi[0] = 1.0
        model = OqeModel(2, 1, [np.eye(2)], psi)
        upsilon = ppt_to_process_tensor(build_ppt(model, 1))
        evals = np.sort(np.linalg.eigvalsh(upsilon))[::-1]
        assert np.allclose(evals, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert abs(np.trace(upsilon) - 1.0) < 1e-10

    def test_haar_hermitian_psd_unit_trace(self, rng):
        model = random_separable_model(2, 2, rng)
        upsilon = ppt_to_process_tensor(build_ppt(model, 2))
        assert np.max(np.abs(upsilon - upsilon.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(upsilon).min() > -1e-12
        assert abs(np.trace(upsilon) - 1.0) < 1e-10

    def test_gauge_invariance(self, rng):
        model = random_separable_model(2, 2, rng)
        lifted = embed_environment(model, random_env_isometry(rng, 2, 5))
        a = ppt_to_process_tensor(build_ppt(model, 2))
        b = ppt_to_process_tensor(build_ppt(lifted, 2))
        assert np.max(np.abs(a - b)) < 1e-10

    def test_capacity_guard(self, rng):
        from pptlab import CapacityError

        model = random_separable_model(2, 2, rng)
        with pytest.raises(CapacityError):
            ppt_to_process_tensor(build_ppt(model, 7))


class TestGaugeInvariance:
    def test_lifted_model_state_relation(self, rng):
        """Embedding the environment acts as the isometry on the final leg only.

        The separable build splits a Schmidt phase between system and
        environment factors, so the comparison fixes the global phase.
        """
        model = random_separable_model(2, 2, rng)
        iso = random_env_isometry(rng, 2, 4)
        lifted = embed_environment(model, iso)
        v = build_ppt(model, 3).to_statevector().reshape(-1, 2)
        w = build_ppt(lifted, 3).to_statevector().reshape(-1, 4)
        ref = v @ iso.T
        k = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
        phase = ref[k] / w[k]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.max(np.abs(w * phase - ref)) < 1e-10

    def test_expectations_unchanged(self, rng):
        model = random_entangled_model(2, 2, rng)
        iso = random_env_isometry(rng, 2, 3)
        lifted = embed_environment(model, iso)
        mps_a = build_ppt(model, 4)
        mps_b = build_ppt(lifted, 4)
        for _ in range(5):
            obs = random_observable(rng, 2, 4)
            assert abs(expectation(mps_a, obs) - expectation(mps_b, obs)) < 1e-10

    def test_left_canonicality_beyond_first_site(self, rng):
        mps = build_ppt(random_separable_model(2, 3, rng), 4)
        for t in mps.chain()[1:]:
            g = np.einsum("aoib,aoic->bc", t.conj(), t)
            assert np.max(np.abs(g - np.eye(t.shape[3]))) < 1e-10

    def test_unit_norm_over_dimension_grid(self, rng):
        for d in (2, 3):
            for D in (1, 2, 3):
                for N in (1, 2, 4):
                    for ent in (False, True):
                        if ent and D == 1:
                            continue
                        model = (
                            random_entangled_model(d, D, rng)
                            if ent
                            else random_separable_model(d, D, rng)
                        )
                        assert abs(build_ppt(model, N).norm() - 1.0) < 1e-10


class TestSerialization:
    def test_json_roundtrip(self, rng):
        mps = build_ppt(random_entangled_model(2, 2, rng), 3)
        back = PptMps.from_json(mps.to_json())
        assert back.d == mps.d and back.canonical == mps.canonical
        assert abs(abs(overlap(back, mps)) - 1.0) < 1e-12

    @pytest.mark.parametrize("shape, valid", [([1, 2, 1, 3], True), ([1, 1, 2, 3], False)],
                             ids=["output_leg", "input_leg"])
    def test_leading_site_extents_checked(self, rng, shape, valid):
        # a leading site carries the initial system state on its output leg
        exposed = build_ppt(random_separable_model(2, 3, rng), 2, expose_initial_leg=True)
        doc = exposed.to_json_dict()
        doc["leading_site"]["shape"] = shape
        if valid:
            assert PptMps.from_json_dict(doc).leading_site.shape == (1, 2, 1, 3)
        else:
            with pytest.raises(ValidationError, match="leading site physical extents"):
                PptMps.from_json_dict(doc)

    @pytest.mark.parametrize("repeat", [1, 2, "x"])
    def test_leading_site_cannot_repeat(self, rng, repeat):
        # the leading site is step 0: a "repeat" there is rejected, not ignored
        exposed = build_ppt(random_separable_model(2, 3, rng), 2, expose_initial_leg=True)
        doc = exposed.to_json_dict()
        doc["leading_site"]["repeat"] = repeat
        with pytest.raises(ValidationError, match="leading site is step 0 and cannot repeat"):
            PptMps.from_json_dict(doc)

    def test_each_site_is_decoded_and_checked_once(self, monkeypatch):
        doc = build_ppt(random_separable_model(2, 2, 0), 3).to_json_dict()
        assert [site.get("repeat", 1) for site in doc["sites"]] == [1, 2]
        checks = []
        check = tensor_ops.as_complex_array

        def counting(*args, **kwargs):
            checks.append(args[0].shape)
            return check(*args, **kwargs)

        monkeypatch.setattr(tensor_ops, "as_complex_array", counting)
        monkeypatch.setattr(ppt_module, "as_complex_array", counting)
        PptMps.from_json_dict(doc)
        assert checks == [(1, 2, 2, 2), (2, 2, 2, 2)]  # one finiteness check per site

    def test_a_repeated_site_needs_equal_bonds(self, rng):
        # a run's second step opens on the run's own right bond
        doc = build_ppt(random_separable_model(2, 2, rng), 3).to_json_dict()
        doc["sites"][0]["repeat"] = 2
        with pytest.raises(ValidationError, match="chain element 1 has left bond 1, expected 2"):
            PptMps.from_json_dict(doc)

    def test_sites_differing_in_a_signed_zero_stay_apart(self, rng):
        # enlarged sites hold exact zeros; negating them keeps every value
        mps = build_ppt(random_entangled_model(2, 2, rng), 4)
        sites = mps.chain()
        sites[2] = negated_zeros(sites[2])
        assert np.array_equal(sites[1], sites[2]) and sites[1].tobytes() != sites[2].tobytes()
        doc = replace(mps, runs=tuple((t, 1) for t in sites)).to_json_dict()
        assert [site.get("repeat", 1) for site in doc["sites"]] == [1, 1, 1, 1]
        back = PptMps.from_json_dict(doc)
        assert [n for _, n in back.runs] == [1, 1, 1, 1]
        assert [t.tobytes() for t in back.chain()] == [t.tobytes() for t in sites]

    def test_documents_expand_to_at_most_max_steps(self, rng, monkeypatch):
        doc = build_ppt(random_separable_model(2, 2, rng), 4).to_json_dict()
        assert [site.get("repeat", 1) for site in doc["sites"]] == [1, 3]
        monkeypatch.setattr(ppt_module, "MAX_STEPS", 4)
        assert PptMps.from_json_dict(doc).n_steps == 4
        doc["sites"][1]["repeat"] = 4
        with pytest.raises(ValidationError, match="more than MAX_STEPS=4 steps"):
            PptMps.from_json_dict(doc)

    def test_version_check(self, rng):
        doc = build_ppt(random_separable_model(2, 2, rng), 2).to_json_dict()
        assert doc["format_version"] == 3
        for version in (99, 4, 0, None, "2", True, 2.0):
            doc["format_version"] = version
            with pytest.raises(ValidationError, match="unsupported format version"):
                PptMps.from_json_dict(doc)


class TestNormCertificate:
    """``validate`` certifies a right-canonical claim's unit norm from the
    first chain element and the residual bound, and sweeps otherwise."""

    @staticmethod
    def _count_sweeps(monkeypatch) -> list:
        calls = []
        sweep = ppt_module.overlap_matrix

        def counting(a, b):
            calls.append(a.n_steps)
            return sweep(a, b)

        monkeypatch.setattr(ppt_module, "overlap_matrix", counting)
        return calls

    def test_right_claim_needs_no_sweep(self, rng, monkeypatch):
        doc = build_ppt(random_separable_model(2, 16, rng), 50).to_json_dict()
        calls = self._count_sweeps(monkeypatch)
        mps = PptMps.from_json_dict(doc)
        mps.validate()
        assert calls == [] and mps.canonical == "right"

    @staticmethod
    def _gauge_twin_doc(rng) -> dict:
        """A six-step document whose sites are not right-canonical: a gauge
        G on the bond after step 2 keeps the state and its unit norm."""
        sites = build_ppt(random_separable_model(2, 3, rng), 6).chain()
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sites[1] = np.einsum("aoib,bc->aoic", sites[1], g)
        sites[2] = np.einsum("cb,boid->coid", np.linalg.inv(g), sites[2])
        return PptMps(runs=tuple((t, 1) for t in sites)).to_json_dict()

    def test_none_claim_is_swept(self, rng, monkeypatch):
        doc = self._gauge_twin_doc(rng)
        assert doc["canonical"] == "none"
        calls = self._count_sweeps(monkeypatch)
        assert PptMps.from_json_dict(doc).canonical == "none"
        assert calls == [6]

    def test_none_claim_on_right_canonical_sites_is_certified(self, rng, monkeypatch):
        # the form is measured: a "none" label does not force the sweep
        doc = build_ppt(random_separable_model(2, 3, rng), 6).to_json_dict()
        doc["canonical"] = "none"
        calls = self._count_sweeps(monkeypatch)
        mps = PptMps.from_json_dict(doc)
        assert calls == [] and mps.canonical == "right"
        assert mps.to_json_dict()["canonical"] == "right"

    def test_false_right_claim_is_rejected_without_a_sweep(self, rng, monkeypatch):
        doc = self._gauge_twin_doc(rng)
        doc["canonical"] = "right"
        calls = self._count_sweeps(monkeypatch)
        with pytest.raises(ValidationError, match=r"right-canonicality residual .* exceeds 1e-10"):
            PptMps.from_json_dict(doc)
        assert calls == []

    def test_loose_bound_falls_back_to_the_sweep(self, rng, monkeypatch):
        # four steps share a site scaled by 1 + eta (residual ~2 eta) and the
        # head undoes their growth: the norm is 1, but the bound is ~8 l eta
        eta = 2e-11
        mps = build_ppt(random_separable_model(2, 2, rng), 5)
        (first, _), (site, _) = mps.runs
        mps = replace(mps, runs=((first * (1.0 + eta) ** -4, 1), (site * (1.0 + eta), 4)))
        assert 3e-11 < mps.right_canonical_residual() < 1e-10
        assert not mps._norm_certified()
        calls = self._count_sweeps(monkeypatch)
        mps.validate()
        assert calls == [5]

    @pytest.mark.parametrize("canonical", ["right", "none"])
    def test_scaled_head_is_rejected_with_the_swept_deviation(self, rng, canonical):
        mps = build_ppt(random_separable_model(2, 3, rng), 4)
        (first, _), *rest = mps.runs
        doc = replace(mps, runs=((first * 1.001, 1), *rest)).to_json_dict()
        doc["canonical"] = canonical
        with pytest.raises(ValidationError, match=r"state norm deviates from 1 by 1\.000e-03"):
            PptMps.from_json_dict(doc)
