import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pptlab import (
    BoundViolationError,
    MeasurementOracle,
    UnsupportedPredictionError,
    ValidationError,
    build_ppt,
    disentangle_reconstruct,
    expectation,
    gauge_fidelity,
    predict_future,
    random_entangled_model,
    random_separable_model,
    reconstruct_entangled_initial,
    to_right_canonical,
    variational_fit,
)
from pptlab import tomography
from pptlab.models import random_haar_unitary
from pptlab.tomography import (
    _pauli_sampled_estimate,
    _setting_rotations,
    window_size,
)

from conftest import (
    fit_overlap_and_grads,
    pauli_sampled_estimate_loop,
    perturbed,
    random_observable,
)


class TestReducedDensity:
    def test_product_model_full_range_is_pure(self, rng):
        model = random_separable_model(2, 1, rng)
        oracle = MeasurementOracle(model, 3)
        rho = oracle.reduced_density((1, 3))
        purity = np.trace(rho @ rho).real
        assert abs(purity - 1.0) < 1e-12

    def test_trace_one_and_psd(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 4)
        rho = oracle.reduced_density((2, 3))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_matches_direct_dense_partial_trace(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 4)
        rho = oracle.reduced_density((2, 3))
        vec = build_ppt(model, 4).to_statevector().reshape(4, 4, 4, 4, 2)
        x = np.moveaxis(vec, [1, 2], [0, 1]).reshape(16, -1)
        ref = x @ x.conj().T
        assert np.max(np.abs(rho - ref)) < 1e-12

    def test_query_log_counts(self, rng):
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 4)
        oracle.reduced_density((1, 2))
        oracle.reduced_density((3, 4))
        assert oracle.query_log == 2

    def test_sealed_oracle_hides_truth(self, rng):
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 3, unsealed=False)
        with pytest.raises(ValidationError):
            oracle.true_mps()

    @pytest.mark.parametrize(
        "circuit",
        [
            [(0, np.eye(4))],
            [(5, np.eye(4))],
            [(4, np.eye(16))],
            [(3, np.eye(64))],
            [(1, np.eye(8))],
            [(1, np.eye(4)[:, :2])],
            [(1, 2.0 * np.eye(4))],
            [(1, np.full((4, 4), np.nan))],
            [(True, np.eye(4))],
            [(np.bool_(True), np.eye(4))],
            [(1.0, np.eye(4))],
            [(1, np.eye(4)), (2, 2.0 * np.eye(4))],
        ],
        ids=["start_zero", "start_past_end", "pair_past_end", "triple_past_end",
             "not_a_power_of_d2", "not_square", "not_unitary", "nan", "start_bool",
             "start_numpy_bool", "start_float", "bad_second_gate"],
    )
    def test_rejects_malformed_circuit(self, rng, circuit):
        # the last gate of each circuit is malformed; it must leave the state
        # as the gates before it made it
        model = random_separable_model(2, 2, rng)
        oracle, fresh = MeasurementOracle(model, 4), MeasurementOracle(model, 4)
        with pytest.raises(ValidationError):
            for start, gate in circuit:
                oracle.apply_gate(start, gate)
        assert oracle.query_log == 0
        for start, gate in circuit[:-1]:
            fresh.apply_gate(start, gate)
        assert np.array_equal(oracle.reduced_density((1, 4)), fresh.reduced_density((1, 4)))

    @pytest.mark.parametrize(
        "sites",
        [(0, 2), (3, 2), (1, 5), (1.9, 2.2), (1.0, 2), (True, 2), (1, True), (1, np.bool_(True)),
         (1,), (1, 2, 3), 2, None],
        ids=["zero", "reversed", "past_end", "floats", "float_start", "bool_start", "bool_end",
             "numpy_bool_end", "one_entry", "three_entries", "not_a_pair", "none"],
    )
    def test_rejects_malformed_sites(self, rng, sites):
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 4)
        with pytest.raises(ValidationError):
            oracle.reduced_density(sites)
        assert oracle.query_log == 0

    def test_numpy_integer_sites_accepted(self, rng):
        model = random_separable_model(2, 2, rng)
        gate = random_haar_unitary(16, rng)
        oracle, ref = MeasurementOracle(model, 4), MeasurementOracle(model, 4)
        oracle.apply_gate(np.int64(1), gate)
        ref.apply_gate(1, gate)
        got = oracle.reduced_density((np.int64(2), np.int32(3)))
        assert np.array_equal(got, ref.reduced_density((2, 3)))


class TestDisentangle:
    def test_window_arithmetic_matches_worked_instance(self):
        # environment bound d**4 at d=2 gives a 3-site window and a 2-site tail
        assert window_size(2, 16) == 3
        N, R = 5, window_size(2, 16)
        assert N - R + 1 == 3

    def test_exact_roundtrip_d2_D2(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5)
        report = disentangle_reconstruct(oracle, 5, 2)
        assert report.state_fidelity > 1 - 1e-8
        assert report.queries == 5  # f = 4 windows + 1 trailing block

    def test_oracle_applies_each_gate_once(self, rng):
        # The oracle extends its cached chain by one gate per query, so the
        # f window gates are applied once each, plus f undos in the rebuild.
        N = 50
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), N)
        f = N - window_size(2, 2) + 1
        with mock.patch.object(tomography, "_apply_gate", wraps=tomography._apply_gate) as spy:
            report = disentangle_reconstruct(oracle, N, 2)
        assert report.queries == f + 1
        assert spy.call_count == 2 * f
        assert report.state_fidelity > 1 - 1e-10

    def test_reused_oracle_matches_fresh(self, rng):
        # the reconstruction resets the oracle first: neither an earlier
        # reconstruction nor a gate the caller applied changes its answer
        model = random_separable_model(2, 2, rng)
        fresh = disentangle_reconstruct(MeasurementOracle(model, 6), 6, 2)
        reused = MeasurementOracle(model, 6)
        disentangle_reconstruct(reused, 6, 2)
        holding = MeasurementOracle(model, 6)
        holding.apply_gate(2, random_haar_unitary(16, rng))
        for oracle in (reused, holding):
            report = disentangle_reconstruct(oracle, 6, 2)
            assert report.queries == fresh.queries
            for got, ref in zip(report.recovered_mps.sites, fresh.recovered_mps.sites, strict=True):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_loose_bound_still_works(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5)
        report = disentangle_reconstruct(oracle, 5, 16)
        assert report.state_fidelity > 1 - 1e-8
        assert report.queries == 3 + 1

    def test_product_case_single_site_windows(self, rng):
        model = random_separable_model(2, 1, rng)
        oracle = MeasurementOracle(model, 4)
        report = disentangle_reconstruct(oracle, 4, 1)
        assert report.state_fidelity > 1 - 1e-10
        assert report.queries == 4 + 1

    def test_bound_violation(self, rng):
        # true environment (8) exceeds the 2-site window capacity (4)
        model = random_separable_model(2, 8, rng)
        oracle = MeasurementOracle(model, 5)
        with pytest.raises(BoundViolationError):
            disentangle_reconstruct(oracle, 5, 2)

    def test_recovered_model_reproduces_expectations(self, rng):
        model = random_separable_model(2, 4, rng)
        oracle = MeasurementOracle(model, 5)
        report = disentangle_reconstruct(oracle, 5, 4)
        rebuilt = build_ppt(report.recovered_model, 5)
        truth = oracle.true_mps()
        for _ in range(10):
            obs = random_observable(rng, 2, 5)
            assert abs(expectation(truth, obs) - expectation(rebuilt, obs)) < 1e-8

    def test_entangled_initial_convention(self, rng):
        model = random_entangled_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5)
        report = disentangle_reconstruct(oracle, 5, 2, entangled_initial=True)
        assert report.state_fidelity > 1 - 1e-8

    @pytest.mark.parametrize("D", [2, 4])
    @pytest.mark.parametrize("N", [20, 100])
    def test_long_chain_roundtrip(self, N, D):
        """Far beyond the reach of a dense (d^2)^N statevector."""
        model = random_separable_model(2, D, 100 * N + D)
        oracle = MeasurementOracle(model, N)
        report = disentangle_reconstruct(oracle, N, D)
        assert 1 - report.state_fidelity < 1e-8
        assert report.queries == N - window_size(2, D) + 2  # f + 1

    def test_fidelity_over_dimension_grid(self):
        """Exact-oracle reconstruction succeeds whenever the bound holds."""
        for D in (1, 2, 4):
            for N in (4, 5, 6):
                for seed in range(10):
                    model = random_separable_model(2, D, 10_000 * D + 100 * N + seed)
                    oracle = MeasurementOracle(model, N)
                    report = disentangle_reconstruct(oracle, N, D)
                    assert report.state_fidelity > 1 - 1e-8, (D, N, seed)


_ROTATIONS = {
    "X": np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    "Y": np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0),
    "Z": np.eye(2),
}
_PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}


def _label_average_estimate(rho, shots, rng):
    """Reference estimator: each Pauli-product expectation is the parity of
    the observed outcomes, averaged over the settings compatible with it."""
    n = int(round(np.log2(rho.shape[0])))
    settings = list(itertools.product("XYZ", repeat=n))
    per_setting = max(1, shots // len(settings))
    sums, counts = {}, {}
    for setting in settings:
        rot = functools.reduce(np.kron, [_ROTATIONS[c] for c in setting])
        p = np.clip(np.real(np.diag(rot @ rho @ rot.conj().T)), 0.0, None)
        phat = rng.multinomial(per_setting, p / p.sum()) / per_setting
        for mask in itertools.product([False, True], repeat=n):
            label = tuple(c if m else "I" for c, m in zip(setting, mask))
            bits = [np.binary_repr(z, n) for z in range(2**n)]
            signs = [(-1) ** sum(b == "1" for b, m in zip(z, mask) if m) for z in bits]
            sums[label] = sums.get(label, 0.0) + float(np.dot(phat, signs))
            counts[label] = counts.get(label, 0) + 1
    est = sum(
        sums[k] / counts[k] * functools.reduce(np.kron, [_PAULIS[c] for c in k]) for k in sums
    )
    est = (est + est.conj().T) / 2.0
    return est / np.trace(est).real


class TestSampledMode:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_label_average_reference(self, n):
        for k in range(3):
            g = np.random.default_rng(10 * n + k)
            a = g.standard_normal((2**n, 2**n)) + 1j * g.standard_normal((2**n, 2**n))
            rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
            got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            got = _pauli_sampled_estimate(rho, 5000, got_rng)
            ref = _label_average_estimate(rho, 5000, ref_rng)
            assert np.max(np.abs(got - ref)) < 1e-12
            assert got_rng.random() == ref_rng.random()  # same draws consumed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_setting_rotations_match_kron_products(self, n):
        rots = _setting_rotations(n)
        settings = list(itertools.product("XYZ", repeat=n))
        assert rots.shape == (3**n, 2**n, 2**n)
        for rot, setting in zip(rots, settings):
            ref = functools.reduce(np.kron, [tomography._BASIS_ROTATIONS[c] for c in setting])
            assert np.array_equal(rot, ref)
        assert not rots.flags.writeable
        with pytest.raises(ValueError):
            rots[0, 0, 0] = 0.0

    def test_width_three_window_streams_its_rotations(self):
        # n = 6 qubits: the whole stack would hold 729 rotations of 64 x 64
        # (48 MB); the estimator runs through it in batches and keeps none
        g = np.random.default_rng(6)
        a = g.standard_normal((64, 64)) + 1j * g.standard_normal((64, 64))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        got_rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        cached = _setting_rotations.cache_info().currsize
        tracemalloc.start()
        try:
            got = _pauli_sampled_estimate(rho, 10000, got_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == pauli_sampled_estimate_loop(rho, 10000, ref_rng).tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert peak < 3**6 * 64 * 64 * 16 / 4
        assert _setting_rotations.cache_info().currsize == cached

    def test_estimates_are_normalized(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 3, mode="sampled", shots=2000, seed=5)
        rho = oracle.reduced_density((1, 1))
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12

    def test_fidelity_deficit_shrinks_with_shots(self):
        deficits = {shots: [] for shots in (10**3, 10**4, 10**5)}
        for seed in range(3):
            model = random_separable_model(2, 2, seed)
            for shots in deficits:
                oracle = MeasurementOracle(
                    model, 4, mode="sampled", shots=shots, seed=100 + seed
                )
                report = disentangle_reconstruct(oracle, 4, 2)
                deficits[shots].append(1.0 - report.state_fidelity)
        medians = [np.median(deficits[s]) for s in (10**3, 10**4, 10**5)]
        assert medians[0] > medians[1] > medians[2]

    def test_fixed_shot_run_reproduces_recorded_fidelity(self):
        """Pins the RNG stream and the window densities the estimator sees:
        0.8971587980126566 is this run's fidelity when the oracle expands
        the PPT into a dense statevector (``dense_reduced_density``)."""
        oracle = MeasurementOracle(
            random_separable_model(2, 2, 1), 6, mode="sampled", shots=10_000, seed=0
        )
        report = disentangle_reconstruct(oracle, 6, 2)
        assert abs(report.state_fidelity - 0.8971587980126566) < 1e-10

    def test_requires_shot_count(self, rng):
        with pytest.raises(ValidationError):
            MeasurementOracle(random_separable_model(2, 2, rng), 3, mode="sampled")


class TestVariationalFit:
    def test_truth_warm_start_is_global_minimum(self, rng):
        model = random_separable_model(2, 2, rng)
        target = build_ppt(model, 4)
        # exact warm start: the hidden unitary in the gauge where psi_E = |0>
        from pptlab.tensor_ops import fill_unassigned_columns

        w = np.zeros((2, 2), dtype=np.complex128)
        w[:, 0] = model.initial_schmidt().env_basis[:, 0]
        w = fill_unassigned_columns(w, np.array([True, False]))
        lifted = np.kron(np.eye(2), w)
        u0 = lifted.conj().T @ model.unitaries[0] @ lifted
        report = variational_fit(
            target, 4, 2, time_independent=True, warm_start=([u0], w)
        )
        assert report.loss_trace[0] < 1e-12

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "time_dependent"])
    @pytest.mark.parametrize("entangled", [False, True], ids=["separable", "entangled"])
    def test_overlap_gradient_matches_finite_difference(self, rng, shared, entangled):
        """The overlap is holomorphic in the step unitaries, so its central
        difference along any direction X is sum(grad * X)."""
        N = 4
        make = random_entangled_model if entangled else random_separable_model
        target = build_ppt(make(2, 2, rng, steps=N), N)
        D = target.env_dim
        u_list = [random_haar_unitary(2 * D, rng) for _ in range(1 if shared else N)]
        of = random_haar_unitary(D, rng)
        xs = [rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape) for u in u_list]
        _, grads = fit_overlap_and_grads(target, u_list, of, 2, D, shared)

        def overlap_along(eps):
            moved = [u + eps * x for u, x in zip(u_list, xs)]
            return fit_overlap_and_grads(target, moved, of, 2, D, shared)[0]

        eps = 1e-6
        fd = (overlap_along(eps) - overlap_along(-eps)) / (2 * eps)
        assert abs(fd - sum(np.sum(g * x) for g, x in zip(grads, xs))) < 1e-8

    def test_time_independent_fit_predicts_next_step(self, rng):
        model = random_separable_model(2, 2, rng)
        target = build_ppt(model, 6)
        report = variational_fit(target, 6, 2, time_independent=True, seed=1)
        assert report.loss_trace[-1] < 1e-8
        predicted = predict_future(report, 7)
        truth = build_ppt(model, 7)
        for _ in range(5):
            obs = random_observable(rng, 2, 7)
            assert abs(expectation(truth, obs) - expectation(predicted, obs)) < 1e-6

    def test_time_dependent_fit(self, rng):
        model = random_separable_model(2, 2, rng, steps=4)
        target = build_ppt(model, 4)
        report = variational_fit(target, 4, 2, time_independent=False, seed=2)
        assert report.loss_trace[-1] < 1e-10
        assert gauge_fidelity(report.recovered_mps, target) > 1 - 1e-8

    def test_noisy_target_reports_floor(self, rng):
        model = random_separable_model(2, 2, rng)
        target = to_right_canonical(perturbed(build_ppt(model, 4), 1e-4, rng))
        report = variational_fit(target, 4, 2, time_independent=True, seed=3, n_restarts=1)
        assert not report.converged
        assert "stalled" in report.gauge_note
        assert 1e-10 < report.loss_trace[-1] < 1e-4

    def test_refit_of_tomographed_state_predicts_future(self, rng):
        """Headline pipeline: measure, reconstruct, refit time-independently,
        predict — across the bond gauges the reconstruction introduces."""
        for seed in (0, 1):
            model = random_separable_model(2, 2, seed)
            oracle = MeasurementOracle(model, 5)
            rep = disentangle_reconstruct(oracle, 5, 2)
            fit = variational_fit(rep.recovered_mps, 5, 2, time_independent=True, seed=seed)
            assert fit.loss_trace[-1] < 1e-10, seed
            predicted = predict_future(fit, 7)
            truth = build_ppt(model, 7)
            for _ in range(5):
                obs = random_observable(rng, 2, 7)
                assert abs(expectation(truth, obs) - expectation(predicted, obs)) < 1e-6


class TestPredictFuture:
    def test_same_length_is_identity(self, rng):
        model = random_separable_model(2, 2, rng)
        target = build_ppt(model, 5)
        report = variational_fit(target, 5, 2, time_independent=True, seed=0)
        assert gauge_fidelity(predict_future(report, 5), target) > 1 - 1e-8

    def test_product_model_exact(self, rng):
        model = random_separable_model(2, 1, rng)
        target = build_ppt(model, 5)
        report = variational_fit(target, 5, 1, time_independent=True, seed=0)
        predicted = predict_future(report, 8)
        truth = build_ppt(model, 8)
        for _ in range(5):
            obs = random_observable(rng, 2, 8)
            assert abs(expectation(truth, obs) - expectation(predicted, obs)) < 1e-12

    def test_rejects_time_dependent(self, rng):
        model = random_separable_model(2, 2, rng, steps=3)
        oracle = MeasurementOracle(model, 3)
        report = disentangle_reconstruct(oracle, 3, 2)
        with pytest.raises(UnsupportedPredictionError):
            predict_future(report, 5)


class TestEntangledRecovery:
    def test_maximally_entangled(self, rng):
        model = random_entangled_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5)
        form, recovered = reconstruct_entangled_initial(oracle)
        assert np.allclose(form.lambdas, [1 / np.sqrt(2)] * 2, atol=1e-8)
        truth = build_ppt(model, 5)
        rebuilt = build_ppt(recovered, 5)
        for _ in range(50):
            obs = random_observable(rng, 2, 5)
            assert abs(expectation(truth, obs) - expectation(rebuilt, obs)) < 1e-6

    def test_skewed_lambdas(self, rng):
        model = random_entangled_model(2, 2, rng, lambdas=np.sqrt([0.9, 0.1]))
        oracle = MeasurementOracle(model, 5)
        form, recovered = reconstruct_entangled_initial(oracle)
        assert abs(form.lambdas[0] - 0.9486832980505138) < 1e-6
        assert abs(form.lambdas[1] - 0.31622776601683794) < 1e-6

    def test_separable_reduces_to_plain_reconstruction(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5)
        form, recovered = reconstruct_entangled_initial(oracle)
        assert form.lambdas.size == 1
        truth = build_ppt(model, 5)
        rebuilt = build_ppt(recovered, 5)
        for _ in range(10):
            obs = random_observable(rng, 2, 5)
            assert abs(expectation(truth, obs) - expectation(rebuilt, obs)) < 1e-8


class TestReportSerialization:
    def test_json_roundtrip_fields(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 4)
        report = disentangle_reconstruct(oracle, 4, 2)
        import json

        doc = json.loads(report.to_json())
        assert doc["state_fidelity"] > 1 - 1e-8
        assert len(doc["per_site_unitarity_residual"]) == 4
        from pptlab import OqeModel, PptMps

        PptMps.from_json_dict(doc["recovered_mps"])
        OqeModel.from_json_dict(doc["recovered_model"])
