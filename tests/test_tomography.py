import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pptlab import (
    BoundViolationError,
    CapacityError,
    MeasurementOracle,
    PptMps,
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
from pptlab.tomography import _pauli_sampled_estimate, window_size

from conftest import (
    dense_reduced_density,
    fit_overlap_and_grad,
    invert_pauli_frame,
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

    @pytest.mark.parametrize(
        "n_steps, kwargs",
        [(2.5, {}), (3.0, {}), (True, {}),
         (3, {"shots": 1.5}), (3, {"shots": True}), (3, {"shots": np.bool_(True)}),
         (3, {"shots": "100"}), (3, {"shots": 0}),
         (3, {"seed": 1.5}), (3, {"seed": -1}), (3, {"seed": True})],
        ids=["float_steps", "integral_float_steps", "bool_steps", "float_shots", "bool_shots",
             "numpy_bool_shots", "text_shots", "zero_shots",
             "float_seed", "negative_seed", "bool_seed"],
    )
    def test_rejects_non_integer_steps_or_shots(self, rng, n_steps, kwargs):
        with pytest.raises(ValidationError):
            MeasurementOracle(random_separable_model(2, 2, rng), n_steps, **kwargs)

    def test_numpy_integer_steps_and_shots_accepted(self):
        model = random_separable_model(2, 2, 3)
        ref = MeasurementOracle(model, 3, shots=100, seed=0)
        got = MeasurementOracle(model, np.int64(3), shots=np.int32(100), seed=np.int64(0))
        assert got.reduced_density((2, 3)).tobytes() == ref.reduced_density((2, 3)).tobytes()

    def test_sealed_oracle_hides_truth(self, rng):
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 3, unsealed=False)
        with pytest.raises(ValidationError):
            oracle.true_mps()

    @pytest.mark.parametrize(
        "circuit",
        [
            [(0, np.eye(4))],
            [(-1, np.eye(4))],
            [(0, np.eye(16))],
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
        ids=["start_zero", "start_negative", "sixteen_at_step_zero", "start_past_end",
             "pair_past_end", "triple_past_end", "not_a_power_of_d2", "not_square",
             "not_unitary", "nan", "start_bool", "start_numpy_bool", "start_float",
             "bad_second_gate"],
    )
    def test_rejects_malformed_circuit(self, rng, circuit):
        # the last gate of each circuit is malformed; it must leave the state
        # as the gates before it made it.  At step 0 (dimension d = 2) a gate
        # spans whole steps only with dimension 2, 8 or 32.
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
        [(-1, 2), (3, 2), (1, 5), (1.9, 2.2), (1.0, 2), (True, 2), (1, True), (1, np.bool_(True)),
         (1,), (1, 2, 3), 2, None],
        ids=["negative", "reversed", "past_end", "floats", "float_start", "bool_start", "bool_end",
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


class TestInitialLeg:
    """Step 0 is the initial system leg, measured and gated like any other
    site."""

    def test_step_zero_is_the_initial_system_state(self, rng):
        model = random_entangled_model(2, 3, rng, lambdas=np.sqrt([0.7, 0.3]))
        oracle = MeasurementOracle(model, 3)
        psi = model.initial_state.reshape(2, 3)
        assert np.max(np.abs(oracle.reduced_density((0, 0)) - psi @ psi.conj().T)) < 1e-14
        assert oracle.reduced_density((0, 2)).shape == (32, 32)
        assert oracle.query_log == 2

    def test_true_mps_exposes_step_zero(self, rng):
        """``true_mps`` is ``build_ppt``'s chain with step 0 exposed, run for
        run and bit for bit."""
        model = random_entangled_model(3, 4, rng, lambdas=np.sqrt([0.5, 0.3, 0.2]))
        truth = MeasurementOracle(model, 3).true_mps()
        built = build_ppt(model, 3, expose_initial_leg=True)
        assert truth.leading_site.shape == (1, 3, 1, 4)
        assert [(t.tobytes(), t.shape, n) for t, n in truth.runs] == [
            (t.tobytes(), t.shape, n) for t, n in built.runs
        ]
        assert gauge_fidelity(truth, built) > 1 - 1e-13


class _NoAccess:
    """Stands in for the hidden model; any attribute access fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"the hidden model was read (.{name})")


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
            got_chain, ref_chain = report.recovered_mps.chain(), fresh.recovered_mps.chain()
            for got, ref in zip(got_chain, ref_chain, strict=True):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_loose_bound_still_works(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5)
        report = disentangle_reconstruct(oracle, 5, 16)
        assert report.state_fidelity > 1 - 1e-8
        assert report.queries == 3 + 1

    @pytest.mark.parametrize(
        "N, D_bound",
        [(4.0, 2), (True, 2), (4, 1.7), (4, 2.0), (4, True), (4, 0), (4, "2")],
        ids=["float_N", "bool_N", "float_bound", "integral_float_bound", "bool_bound",
             "zero_bound", "text_bound"],
    )
    def test_rejects_non_integer_length_or_bound(self, rng, N, D_bound):
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 4)
        with pytest.raises(ValidationError):
            disentangle_reconstruct(oracle, N, D_bound)
        assert oracle.query_log == 0

    def test_numpy_integer_length_and_bound_accepted(self, rng):
        oracle = MeasurementOracle(random_separable_model(2, 2, rng), 4)
        ref = disentangle_reconstruct(oracle, 4, 2)
        got = disentangle_reconstruct(oracle, np.int64(4), np.int32(2))
        assert got.to_json() == ref.to_json()

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
        # the windows start at step 0 under the bound D itself: R = 2, so
        # N - R + 2 = 5 windows and one trailing request
        model = random_entangled_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5)
        report = disentangle_reconstruct(oracle, 5, 2, entangled_initial=True)
        assert report.state_fidelity > 1 - 1e-8
        assert report.queries == 6
        assert report.recovered_mps.leading_site is not None
        assert report.recovered_model.D == 2 and report.recovered_model.entangled

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

    def test_width_three_window_streams_its_rotations(self):
        # n = 6 qubits: a stack of all 729 setting rotations of 64 x 64 would
        # hold 48 MB; the per-qubit estimator never forms one
        g = np.random.default_rng(6)
        a = g.standard_normal((64, 64)) + 1j * g.standard_normal((64, 64))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        got_rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        tracemalloc.start()
        try:
            got = _pauli_sampled_estimate(rho, 10000, got_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(got - pauli_sampled_estimate_loop(rho, 10000, ref_rng))) < 1e-12
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert peak < 3**6 * 64 * 64 * 16 / 4

    @pytest.mark.parametrize("n", [7, 8])
    def test_wide_windows_match_per_setting_rotations(self, n):
        """The per-setting loop takes seconds at n = 7 and about half a
        minute at n = 8, so each per-qubit stage is checked on a sample of
        settings: setting s has the probabilities diag(R_s rho R_s^dag), and
        frequencies on those settings alone invert to the frame-inverted sum
        of R_s^dag diag(phat_s) R_s."""
        g = np.random.default_rng(n)
        dim = 2**n
        a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        p = tomography._per_qubit(tomography._OUTCOME_MAP, rho, n)
        phat = np.zeros((3**n, dim))
        x = np.zeros((dim, dim), dtype=np.complex128)
        for s in g.choice(3**n, size=4, replace=False):
            digits = np.unravel_index(s, (3,) * n)  # the first qubit most significant
            rot = functools.reduce(np.kron, tomography._R[list(digits)])
            assert np.max(np.abs(p[s] - np.diag(rot @ rho @ rot.conj().T))) < 1e-12
            phat[s] = g.dirichlet(np.ones(dim))
            x += rot.conj().T @ (phat[s][:, np.newaxis] * rot)
        got = tomography._per_qubit(tomography._INVERSE_FRAME, phat, n)
        assert np.max(np.abs(got - invert_pauli_frame(x, n))) < 1e-12

    def test_sampled_window_over_the_qubit_guard_is_refused_unmeasured(self):
        # five steps from step 1 (the windows of D = 65) are 10 qubits: inside
        # the dense guard, so the exact oracle answers them, but not sampled
        model = random_separable_model(2, 3, 0)
        oracle = MeasurementOracle(model, 6, shots=1000, seed=0)
        state = oracle._rng.bit_generator.state
        assert tomography.SAMPLED_QUBIT_GUARD == 9
        with pytest.raises(CapacityError, match="exceeds 9 qubits"):
            oracle.reduced_density((1, 5))
        with pytest.raises(CapacityError):
            oracle.reduced_density((0, 5))  # 11 legs: step 0 has one
        assert oracle.query_log == 0 and oracle._rng.bit_generator.state == state
        with mock.patch.object(tomography, "SAMPLED_QUBIT_GUARD", 3):
            assert oracle.reduced_density((0, 1)).shape == (8, 8)  # 3 qubits pass
            with pytest.raises(CapacityError):
                oracle.reduced_density((1, 2))
        assert oracle.query_log == 1
        assert MeasurementOracle(model, 6).reduced_density((1, 5)).shape == (2**10, 2**10)

    def test_estimates_are_normalized(self, rng):
        model = random_separable_model(2, 2, rng)
        oracle = MeasurementOracle(model, 3, shots=2000, seed=5)
        rho = oracle.reduced_density((1, 1))
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12

    def test_fidelity_deficit_shrinks_with_shots(self):
        deficits = {shots: [] for shots in (10**3, 10**4, 10**5)}
        for seed in range(3):
            model = random_separable_model(2, 2, seed)
            for shots in deficits:
                oracle = MeasurementOracle(model, 4, shots=shots, seed=100 + seed)
                report = disentangle_reconstruct(oracle, 4, 2)
                deficits[shots].append(1.0 - report.state_fidelity)
        medians = [np.median(deficits[s]) for s in (10**3, 10**4, 10**5)]
        assert medians[0] > medians[1] > medians[2]

    def test_fixed_shot_run_reproduces_recorded_fidelity(self):
        """Pins the RNG stream, the window densities the estimator sees and
        the gauge of the window gates' unassigned columns (they decide where
        a truncated sampled window's weight goes).  0.9232282539930443 is
        reached both by the oracle and by a stand-in that expands the PPT
        into a dense statevector (``dense_reduced_density``)."""
        oracle = MeasurementOracle(random_separable_model(2, 2, 1), 6, shots=10_000, seed=0)
        for source in (oracle, _DenseSampledOracle(oracle.true_mps(), 10_000, seed=0)):
            report = disentangle_reconstruct(source, 6, 2)
            assert abs(report.state_fidelity - 0.9232282539930443) < 1e-10


class _DenseSampledOracle:
    """Sampled-mode stand-in for ``MeasurementOracle``: each window density
    comes from the dense statevector after the recorded gates and goes
    through the same estimator and RNG stream."""

    unsealed = True

    def __init__(self, mps, shots, seed):
        self._mps, self.shots = mps, shots
        self.d, self.n_steps = mps.d, mps.n_steps
        self._rng = np.random.default_rng(seed)
        self.query_log = 0
        self._gates = []

    def true_mps(self):
        return self._mps

    def reset(self):
        self._gates = []

    def apply_gate(self, start, gate):
        self._gates.append((start, gate))

    def reduced_density(self, sites):
        self.query_log += 1
        rho = dense_reduced_density(self._mps, sites, self._gates)
        return _pauli_sampled_estimate(rho, self.shots, self._rng)


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
        trace, _, _ = tomography._descend(target, u0, 2, 2, target.norm() ** 2)
        assert trace[0] < 1e-12

    def test_warm_start_sums_the_steps_without_stacking_them(self):
        # mps_to_oqe gives 10^4 references to two unitaries; a stack of them
        # would hold 10^4 copies of a 32 x 32 complex matrix (164 MB)
        target = build_ppt(random_separable_model(2, 16, 0), 10**4)
        tracemalloc.start()
        try:
            tomography._warm_start(target, 2, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("entangled", [False, True], ids=["separable", "entangled"])
    def test_overlap_gradient_matches_finite_difference(self, rng, entangled):
        """The overlap is holomorphic in the shared step unitary, so its
        central difference along any direction X is sum(grad * X)."""
        N = 4
        make = random_entangled_model if entangled else random_separable_model
        target = build_ppt(make(2, 2, rng, steps=N), N)
        D = target.env_dim
        u = random_haar_unitary(2 * D, rng)
        of = random_haar_unitary(D, rng)
        x = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        _, grad = fit_overlap_and_grad(target, u, of, 2, D)

        def overlap_along(eps):
            return fit_overlap_and_grad(target, u + eps * x, of, 2, D)[0]

        eps = 1e-6
        fd = (overlap_along(eps) - overlap_along(-eps)) / (2 * eps)
        assert abs(fd - np.sum(grad * x)) < 1e-8

    @pytest.mark.parametrize(
        "seed", [1.5, -1, True], ids=["float_seed", "negative_seed", "bool_seed"]
    )
    def test_rejects_non_integer_length_or_dimension(self, seed):
        target = build_ppt(random_separable_model(2, 2, 5), 3)
        with pytest.raises(ValidationError):
            variational_fit(target, seed=seed)

    def test_rejects_an_exposed_initial_leg(self):
        # the ansatz opens on step 1, and mps_to_oqe reads an exposed leg,
        # so the fit itself refuses one
        target = build_ppt(random_entangled_model(2, 2, 5), 3, expose_initial_leg=True)
        with pytest.raises(ValidationError, match="absorb_initial_leg"):
            variational_fit(target)

    def test_time_independent_fit_predicts_next_step(self, rng):
        model = random_separable_model(2, 2, rng)
        target = build_ppt(model, 6)
        report = variational_fit(target, seed=1)
        assert report.loss_trace[-1] < 1e-8
        predicted = predict_future(report, 7)
        truth = build_ppt(model, 7)
        for _ in range(5):
            obs = random_observable(rng, 2, 7)
            assert abs(expectation(truth, obs) - expectation(predicted, obs)) < 1e-6

    def test_shared_step_is_one_run(self, rng):
        # step 1 (pinned to |0>), the shared step, and the last step with the final unitary
        report = variational_fit(build_ppt(random_separable_model(2, 2, rng), 6), seed=1)
        mps = report.recovered_mps
        assert [n for _, n in mps.runs] == [1, 4, 1] and mps.n_steps == 6
        per_step = PptMps(runs=tuple((t, 1) for t in mps.chain()))
        assert per_step.to_json() == mps.to_json()

    def test_noisy_target_reports_floor(self, rng):
        model = random_separable_model(2, 2, rng)
        target = to_right_canonical(perturbed(build_ppt(model, 4), 1e-4, rng))
        report = variational_fit(target, seed=3)
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
            fit = variational_fit(rep.recovered_mps, seed=seed)
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
        report = variational_fit(target, seed=0)
        assert gauge_fidelity(predict_future(report, 5), target) > 1 - 1e-8

    def test_product_model_exact(self, rng):
        model = random_separable_model(2, 1, rng)
        target = build_ppt(model, 5)
        report = variational_fit(target, seed=0)
        predicted = predict_future(report, 8)
        truth = build_ppt(model, 8)
        for _ in range(5):
            obs = random_observable(rng, 2, 8)
            assert abs(expectation(truth, obs) - expectation(predicted, obs)) < 1e-12

    @pytest.mark.parametrize("n_future", [2.5, 8.0, True, 0])
    def test_rejects_non_integer_length(self, rng, n_future):
        target = build_ppt(random_separable_model(2, 1, rng), 3)
        report = variational_fit(target, seed=0)
        with pytest.raises(ValidationError):
            predict_future(report, n_future)

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

    @pytest.mark.parametrize("unsealed", [False, True], ids=["sealed", "unsealed"])
    def test_runs_on_measurements_alone(self, rng, unsealed):
        """One oracle whose hidden model cannot be read answers everything
        in one sweep from step 0: N - R + 3 requests."""
        model = random_entangled_model(2, 2, rng)
        oracle = MeasurementOracle(model, 5, unsealed=unsealed)
        oracle._model = _NoAccess()
        form, recovered = reconstruct_entangled_initial(oracle, 2)
        assert form.lambdas.size == 2 and oracle.query_log == 5 - window_size(2, 2) + 3
        truth, rebuilt = build_ppt(model, 5), build_ppt(recovered, 5)
        for _ in range(50):
            obs = random_observable(rng, 2, 5)
            assert abs(expectation(truth, obs) - expectation(rebuilt, obs)) < 1e-6

    @pytest.mark.parametrize("N", [3, 4])
    def test_branch_fit_outlasts_its_plateau(self, N):
        # short chains, where a per-outcome branch fit once stalled on a
        # plateau; the sweep from step 0 has no fit to stall
        model = random_entangled_model(2, 2, 2)
        form, recovered = reconstruct_entangled_initial(MeasurementOracle(model, N), 2)
        truth, rebuilt = build_ppt(model, N), build_ppt(recovered, N)
        rng = np.random.default_rng(N)
        for _ in range(20):
            obs = random_observable(rng, 2, N)
            assert abs(expectation(truth, obs) - expectation(rebuilt, obs)) < 1e-6

    def test_sampled_pipeline(self):
        """At 10^5 shots per request the pipeline runs end to end on the same
        request count and recovers the Schmidt weights to within the
        sampling error, though the sampled windows' support exceeds the
        bound (noise support) and is truncated to it."""
        model = random_entangled_model(2, 2, 0, lambdas=np.sqrt([0.7, 0.3]))
        oracle = MeasurementOracle(model, 4, shots=10**5, seed=0)
        form, _ = reconstruct_entangled_initial(oracle, 2)
        assert form.lambdas.size == 2 and oracle.query_log == 4 - window_size(2, 2) + 3
        assert np.max(np.abs(form.lambdas**2 - [0.7, 0.3])) < 0.01

    @pytest.mark.parametrize("seed", range(8))
    def test_gauge_is_pinned_against_noise(self, seed):
        """The windows of a sweep from step 0 have degenerate support spectra
        and split into degenerate singular values; 1e-14 Hermitian noise on
        every window must not turn the recovered basis inside them."""

        class NoisyOracle(MeasurementOracle):
            def reduced_density(self, sites):
                rho = super().reduced_density(sites)
                g = noise.standard_normal(rho.shape) + 1j * noise.standard_normal(rho.shape)
                return rho + 1e-14 * (g + g.conj().T) / 2

        noise = np.random.default_rng(100 + seed)
        model = random_entangled_model(2, 2, seed)
        clean, noisy = (
            disentangle_reconstruct(cls(model, 6), 6, 2, entangled_initial=True).recovered_mps
            for cls in (MeasurementOracle, NoisyOracle)
        )
        moved = max(np.max(np.abs(a - b)) for a, b in zip(clean.chain(), noisy.chain()))
        assert moved < 1e-10

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
