import tracemalloc

import numpy as np
import pytest

from pptlab import (
    ConvergenceError,
    DimensionError,
    OqeModel,
    ValidationError,
    build_ppt,
    evolve_env,
    fig_s2_csv,
    fig_s2_experiment,
    infidelity,
    initial_env_density,
    memory,
    memory_complexity,
    near_identity_unitary,
    random_entangled_model,
    random_separable_model,
    renyi_complexity,
    stationarity_onset,
    stationary_state,
    uhlmann_fidelity,
)
from pptlab.memory import DEGENERACY_GAP, pure_env_density
from pptlab.models import random_haar_unitary
from pptlab.ppt import _left_sweep, site_tensor_from_unitary
from pptlab.tensor_ops import transfer_left, transfer_right

from conftest import (
    dense_left_matrix,
    dense_ppt_vector,
    dense_stationary_state,
    dense_transfer_matrix,
    partial_process_tensor,
    random_right_canonical_site,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
_SWAP = np.eye(4)[[0, 2, 1, 3]]
# step unitaries on (system qubit) (x) (environment), system factor first
STRUCTURED = {
    "I": np.eye(4),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],
    "SWAP": _SWAP,
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]),
    "HxI": np.kron(_H, np.eye(2)),
    "IxX": np.kron(np.eye(2), _X),
    "SWAPxI": np.kron(_SWAP, np.eye(2)),  # D = 4: the second environment qubit idles
}


def assert_matches_dense_oracle(model_or_site, rho0=None, raises=False):
    """``stationary_state`` gives the oracle's state and degeneracy flag, or,
    with ``raises``, both raise the same ``ConvergenceError``."""
    if raises:
        with pytest.raises(ConvergenceError) as ref:
            dense_stationary_state(model_or_site, rho0)
        with pytest.raises(ConvergenceError) as got:
            stationary_state(model_or_site, rho0)
        assert str(got.value) == str(ref.value)
        assert abs(got.value.residual - ref.value.residual) < 1e-12
        return
    rho, _, degenerate = stationary_state(model_or_site, rho0)
    ref, _, ref_degenerate = dense_stationary_state(model_or_site, rho0)
    assert degenerate == ref_degenerate
    assert np.max(np.abs(rho - ref)) < 1e-10


def no_dense_projection(*args):
    """Stands in for ``memory._dense_projection`` where the Krylov branch must decide."""
    raise AssertionError("handed over to the dense projection")


@pytest.fixture
def transfer_calls(monkeypatch):
    """A one-element list counting the ``transfer_left`` calls made in ``memory``."""
    calls = [0]
    step = memory.transfer_left

    def counting_step(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(memory, "transfer_left", counting_step)
    return calls


class TestTransferMatrix:
    """The transfer map through ``transfer_left``/``transfer_right`` and the
    library's one left-matrix kernel, ``memory._left_matrix``."""

    def test_trivial_environment(self, rng):
        site = memory._model_site(random_separable_model(2, 1, rng), 1)
        lmat = memory._left_matrix(site)
        assert lmat.shape == (1, 1) and abs(lmat[0, 0] - 1.0) < 1e-12
        assert abs(transfer_left(np.ones((1, 1)), site, site)[0, 0] - 1.0) < 1e-12

    def test_maximally_mixed_fixed_point_both_sides(self, rng):
        site = memory._model_site(random_separable_model(2, 2, rng), 1)
        iD = np.eye(2) / 2
        assert np.max(np.abs(transfer_left(iD, site, site) - iD)) < 1e-12
        assert np.max(np.abs(transfer_right(iD, site, site) - iD)) < 1e-12

    def test_dense_matches_functional(self, rng):
        site = rng.standard_normal((3, 2, 2, 3)) + 1j * rng.standard_normal((3, 2, 2, 3))
        dense = dense_transfer_matrix(site)
        assert np.array_equal(memory._left_matrix(site), dense.conj().T)
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = rho + rho.conj().T
        left_vec = memory._left_matrix(site) @ rho.reshape(-1, order="F")
        left = transfer_left(rho, site, site)
        assert np.max(np.abs(left_vec.reshape(3, 3, order="F") - left)) < 1e-12
        right_vec = dense @ rho.reshape(-1, order="F")
        right = np.einsum("aoib,bj,coij->ac", site, rho, site.conj())
        assert np.max(np.abs(right_vec.reshape(3, 3, order="F") - right)) < 1e-12
        right_action = transfer_right(rho.T, site, site).T
        assert np.max(np.abs(right_vec.reshape(3, 3, order="F") - right_action)) < 1e-12

    def test_left_matrix_matches_loop_oracle(self, rng):
        sites = [
            site_tensor_from_unitary(random_separable_model(2, 3, rng).unitaries[0], 2, 3)
            for _ in range(2)
        ]
        stacked = memory._left_matrix(np.stack(sites))
        assert stacked.shape == (2, 9, 9) and stacked.flags.c_contiguous
        for site, lmat in zip(sites, stacked):
            assert np.max(np.abs(memory._left_matrix(site) - dense_left_matrix(site))) < 1e-12
            assert np.array_equal(lmat, memory._left_matrix(site))

    def test_spectral_radius_bound(self, rng):
        for _ in range(10):
            site = memory._model_site(random_separable_model(2, 3, rng), 1)
            assert np.max(np.abs(np.linalg.eigvals(memory._left_matrix(site)))) <= 1 + 1e-10

    def test_trace_preservation_and_positivity(self, rng):
        site = memory._model_site(random_separable_model(2, 3, rng), 1)
        for _ in range(100):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            out = transfer_left(rho, site, site)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-10


class TestEvolveEnv:
    def test_zero_steps(self, rng):
        model = random_separable_model(2, 2, rng)
        rho0 = initial_env_density(model)
        assert np.array_equal(evolve_env(rho0, model, 0), rho0)

    def test_matches_dense_matrix_power(self, rng):
        model = random_separable_model(2, 2, rng)
        site = site_tensor_from_unitary(model.unitaries[0], 2, 2)
        rho0 = initial_env_density(model)
        n = 7
        got = evolve_env(rho0, model, n)
        lmat = np.linalg.matrix_power(dense_left_matrix(site), n)
        # the left matrix acts on (bra, ket)-ordered operators, rho^T
        ref = (lmat @ rho0.T.reshape(-1, order="F")).reshape(2, 2, order="F").T
        assert np.max(np.abs(got - ref)) < 1e-10

    @pytest.mark.parametrize(
        "make", [random_separable_model, random_entangled_model], ids=["separable", "entangled"]
    )
    def test_matches_dense_replay_of_the_circuit(self, make):
        # the environment's reduced state in a dense replay of the generating
        # circuit, from a complex psi_E, whose conjugate evolves differently
        model = make(2, 3, 3)
        rho0 = initial_env_density(model)
        assert np.max(np.abs(rho0.imag)) > 0.1
        for n in range(1, 5):
            x = dense_ppt_vector(model, n).reshape(-1, rho0.shape[0])  # (physical, env)
            assert np.max(np.abs(evolve_env(rho0, model, n) - x.T @ x.conj())) < 1e-12

    def test_converges_to_maximally_mixed(self, rng):
        model = random_separable_model(2, 2, rng)
        rho = evolve_env(initial_env_density(model), model, 200)
        assert infidelity(rho, np.eye(2) / 2) < 1e-8

    def test_mps_route_and_range_check(self, rng):
        model = random_separable_model(2, 2, rng)
        mps = build_ppt(model, 3)
        rho0 = np.ones((1, 1), dtype=np.complex128)
        rho3 = evolve_env(rho0, mps, 3)
        assert abs(np.trace(rho3) - 1.0) < 1e-10
        with pytest.raises(ValidationError):
            evolve_env(rho0, mps, 4)

    def test_mps_route_expands_only_the_first_n_steps(self, rng):
        model = random_separable_model(2, 2, rng)
        long = build_ppt(model, 10**5)
        assert len(long.runs) == 2
        rho0 = np.ones((1, 1), dtype=np.complex128)
        tracemalloc.start()
        try:
            got = evolve_env(rho0, long, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-step list of 10^5 elements alone takes 800 KB
        assert peak < 100_000
        assert got.tobytes() == evolve_env(rho0, build_ppt(model, 1), 1).tobytes()
        exposed = build_ppt(random_entangled_model(2, 2, rng), 3, expose_initial_leg=True)
        rho4 = evolve_env(rho0, exposed, 4)  # step 0 and three steps
        assert abs(np.trace(rho4) - 1.0) < 1e-10
        with pytest.raises(ValidationError, match=r"step count 5 outside \[0, 4\]"):
            evolve_env(rho0, exposed, 5)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "2", None])
    def test_rejects_non_integer_step_count(self, rng, n):
        model = random_separable_model(2, 2, rng)
        for target in (model, build_ppt(model, 3)):
            rho0 = initial_env_density(model) if target is model else np.ones((1, 1))
            with pytest.raises(ValidationError, match="step count"):
                evolve_env(rho0, target, n)

    def test_numpy_integer_step_count_accepted(self, rng):
        model = random_separable_model(2, 2, rng)
        rho0 = initial_env_density(model)
        assert np.array_equal(evolve_env(rho0, model, np.int64(3)), evolve_env(rho0, model, 3))


class TestStationaryState:
    def test_separable_haar_gives_maximally_mixed(self, rng):
        model = random_separable_model(2, 2, rng)
        rho, steps, degenerate = stationary_state(model)
        assert not degenerate
        assert infidelity(rho, np.eye(2) / 2) < 1e-8

    def test_maximally_entangled_gives_i4(self, rng):
        model = random_entangled_model(2, 2, rng)
        rho, _, degenerate = stationary_state(model)
        assert degenerate
        assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-8

    def test_skewed_lambdas_match_dense_power_limit(self, rng):
        cases = [
            (random_entangled_model(2, 2, rng, lambdas=np.sqrt([0.9, 0.1])), [0.9, 0.1]),
            (random_entangled_model(3, 3, rng, lambdas=np.sqrt([0.6, 0.3, 0.1])), [0.6, 0.3, 0.1]),
            (random_separable_model(2, 3, rng), [1.0]),
        ]
        for model, lam2 in cases:
            rho, _, degenerate = stationary_state(model)
            assert degenerate == model.entangled
            # closed form: reduced initial system state (x) I/D
            evals = np.sort(np.linalg.eigvalsh(rho))
            assert np.allclose(evals, np.sort(np.kron(lam2, np.ones(model.D) / model.D)), atol=1e-8)
            # dense oracle: matrix-power the left action until stationary
            dense = dense_transfer_matrix(memory._model_site(model, 1))
            lmat = np.linalg.matrix_power(dense.conj().T, 4096)
            rho0 = initial_env_density(model)
            dim = rho0.shape[0]
            ref = (lmat @ rho0.reshape(-1, order="F")).reshape(dim, dim, order="F")
            assert np.max(np.abs(rho - ref)) < 1e-8

    # A crossover of 1 sends every D >= 2 through the Krylov branch first; the
    # spectra below are degenerate, rotating or nearly so, which it must hand
    # over to the dense projection with the same result or the same error.

    @pytest.mark.parametrize("crossover", [64, 1], ids=["dense", "krylov"])
    @pytest.mark.parametrize("entangled", [False, True], ids=["separable", "entangled"])
    @pytest.mark.parametrize("gate", list(STRUCTURED))
    def test_structured_unitaries_match_dense_oracle(self, gate, entangled, crossover, monkeypatch):
        u = STRUCTURED[gate]
        D = u.shape[0] // 2
        env = np.eye(D)
        if entangled:
            psi = (np.kron([1.0, 0.0], env[0]) + np.kron([0.0, 1.0], env[1])) / np.sqrt(2)
        else:
            psi = np.kron([0.6, 0.8], env[0])
        monkeypatch.setattr(memory, "_DENSE_MAX_ENTRIES", crossover)
        # I (x) X flips the environment every step: eigenvalue -1 never decays
        assert_matches_dense_oracle(OqeModel(2, D, [u], psi), raises=gate == "IxX")

    @pytest.mark.parametrize("crossover", [64, 1], ids=["dense", "krylov"])
    def test_unitary_environment_matches_dense_oracle(self, crossover, monkeypatch):
        # U = I (x) V: the environment turns by V on its own, so every eigenvalue
        # of the left action lies on the unit circle and Arnoldi cannot converge
        u = np.kron(np.eye(2), random_haar_unitary(8, 1))
        psi = random_separable_model(2, 8, 2).initial_state
        monkeypatch.setattr(memory, "_DENSE_MAX_ENTRIES", crossover)
        assert_matches_dense_oracle(OqeModel(2, 8, [u], psi), raises=True)

    @pytest.mark.parametrize("crossover", [64, 1], ids=["dense", "krylov"])
    def test_bare_mps_errors_match_dense_oracle(self, crossover, monkeypatch):
        d = 2
        site = np.repeat(np.repeat(_X[:, None, None, :] / d, d, axis=1), d, axis=2)
        monkeypatch.setattr(memory, "_DENSE_MAX_ENTRIES", crossover)
        # rho -> X rho X: a rotating component, then a map with no eigenvalue 1
        rotating, lossy = site, site / 2
        assert_matches_dense_oracle(rotating, np.diag([1.0, 0.0]), raises=True)
        assert_matches_dense_oracle(lossy, np.eye(2) / 2, raises=True)

    @pytest.mark.parametrize("crossover", [64, 1], ids=["dense", "krylov"])
    @pytest.mark.parametrize("p", [1e-10, 1e-5], ids=["inside_gap", "outside_gap"])
    def test_slow_cycle_matches_dense_oracle(self, p, crossover, monkeypatch):
        # A classical 3-cycle that stays put with probability p: eigenvalue 1
        # is simple and |lambda_2| = 1 - 1.5p + O(p^2), inside DEGENERACY_GAP
        # of 1 for p = 1e-10 (the gap test must see it) and outside for 1e-5.
        site = np.zeros((3, 3, 3, 3), dtype=np.complex128)
        for k in range(3):
            site[k, 0, k, (k + 1) % 3] = np.sqrt(1 - p)
            site[k, 1, k, k] = np.sqrt(p)
        monkeypatch.setattr(memory, "_DENSE_MAX_ENTRIES", crossover)
        assert_matches_dense_oracle(site, np.eye(3) / 3)
        assert_matches_dense_oracle(site, np.diag([1.0, 0.0, 0.0]), raises=p < DEGENERACY_GAP)

    @pytest.mark.parametrize("eta", [0.02, 0.05, 0.3, 1.0, pytest.param(None, id="haar")])
    @pytest.mark.parametrize("D", [9, 12, 16])
    def test_reducible_channel_matches_dense_oracle(self, D, eta, monkeypatch):
        # U is block-diagonal over two halves of the environment, so each half
        # keeps its weight: eigenvalue 1 is at least double, and near-identity
        # blocks crowd more eigenvalues near 1.  A loose Ritz value can land
        # inside that cluster, so the Krylov branch must hand it over.  Haar
        # blocks (eta None) are also coupled weakly, a coupling strength per
        # seed, which makes eigenvalue 1 simple and leaves |lambda_2| within
        # 0.1 of 1.
        d = 2
        monkeypatch.setattr(memory, "_DENSE_MAX_ENTRIES", 1)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            u = np.zeros((d * D, d * D), dtype=np.complex128)
            for half in (range(D // 2), range(D // 2, D)):
                idx = [s * D + e for s in range(d) for e in half]
                dim = d * len(half)
                if eta is None:
                    u[np.ix_(idx, idx)] = random_haar_unitary(dim, rng)
                else:
                    u[np.ix_(idx, idx)] = near_identity_unitary(dim, eta, rng)
            psi_e = rng.standard_normal(D) + 1j * rng.standard_normal(D)  # weight in both halves
            psi = np.kron([1.0, 0.0], psi_e / np.linalg.norm(psi_e))
            assert_matches_dense_oracle(OqeModel(d, D, [u], psi))
            if eta is None:
                coupled = near_identity_unitary(d * D, (0.001, 0.005, 0.05)[seed], rng) @ u
                assert_matches_dense_oracle(OqeModel(d, D, [coupled], psi))

    @pytest.mark.parametrize("D", [9, 12, 16])
    def test_non_unital_site_takes_the_gmres_fixed_point(self, D, rng, monkeypatch):
        # a trace-preserving, non-unital site: sigma is not I/D, so GMRES
        # iterates, and the dense projection must not be needed
        site = random_right_canonical_site(rng, 2, D)
        rho0 = pure_env_density(rng.standard_normal(D) + 1j * rng.standard_normal(D))

        monkeypatch.setattr(memory, "_dense_projection", no_dense_projection)
        assert_matches_dense_oracle(site, rho0)

    def test_one_arnoldi_solve_and_no_gmres_iteration_on_a_unital_site(
        self, transfer_calls, monkeypatch
    ):
        solves = []  # matvecs of each gap decision
        decide = memory._gap_decides

        def counting_decide(*args):
            before = transfer_calls[0]
            result = decide(*args)
            solves.append(transfer_calls[0] - before)
            return result

        monkeypatch.setattr(memory, "_gap_decides", counting_decide)
        rho, _, _ = stationary_state(random_separable_model(2, 16, 0))
        assert np.max(np.abs(rho - np.eye(16) / 16)) < 1e-12
        # the loose tolerance decides a Haar channel; GMRES starts at I/D, the
        # fixed point of a unital site: one residual matvec
        assert len(solves) == 1
        assert transfer_calls[0] <= solves[0] + 1

    def test_non_unital_gmres_memory_stays_a_few_bases(self, monkeypatch):
        # GMRES iterates on a non-unital site and reuses the gap decision's
        # basis of _KRYLOV_BASIS + 1 vectors of D^2 entries, so the solve's
        # peak stays a small multiple of that basis (an unrestarted basis
        # would grow with every matvec)
        D = 32
        rng = np.random.default_rng(0)
        site = random_right_canonical_site(rng, 2, D)
        rho0 = pure_env_density(rng.standard_normal(D) + 1j * rng.standard_normal(D))
        monkeypatch.setattr(memory, "_dense_projection", no_dense_projection)
        tracemalloc.start()
        try:
            rho = stationary_state(site, rho0)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(rho - np.eye(D) / D)) > 1e-3  # not I/D: GMRES iterated
        residual = transfer_left(rho.T, site, site).T - rho
        assert np.max(np.abs(residual)) < 1e-12
        assert peak < 3 * (memory._KRYLOV_BASIS + 1) * D * D * 16

    @pytest.mark.parametrize(
        ("D", "seeds", "budget"), [(16, range(4), 40), (32, range(2), 50)], ids=["D16", "D32"]
    )
    def test_haar_channel_solve_within_a_matvec_budget(self, D, seeds, budget, transfer_calls):
        # a Haar channel's bulk sits near |lambda| = 0.5, so the loose pass
        # bounds |lambda_2| below 0.9 without resolving it
        for seed in seeds:
            transfer_calls[0] = 0
            rho, _, degenerate = stationary_state(random_separable_model(2, D, seed))
            assert not degenerate and np.max(np.abs(rho - np.eye(D) / D)) < 1e-12
            assert transfer_calls[0] <= budget

    @pytest.mark.parametrize("seed", [0, 1])
    def test_band_channel_stays_matrix_free(self, seed, monkeypatch):
        # |lambda_2| is about 0.87: the loose pass cannot bound it below 0.9,
        # the 1e-2 pass can, so the dense projection must not be needed
        u = near_identity_unitary(2 * 16, 0.1, seed)
        model = OqeModel(2, 16, [u], random_separable_model(2, 16, seed).initial_state)

        monkeypatch.setattr(memory, "_dense_projection", no_dense_projection)
        assert_matches_dense_oracle(model)

    def test_transfer_order_beside_evolve_env(self, rng):
        # A right-canonical site whose left action has a complex fixed point:
        # stationary_state takes and returns density matrices, so it is
        # evolve_env's limit with no transposes.
        site = random_right_canonical_site(rng, 2, 3)
        rho0 = pure_env_density(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        limit = _left_sweep(rho0.T, [site] * 400, [site] * 400).T  # evolve_env's sweep
        assert np.max(np.abs(limit.imag)) > 0.01
        assert np.max(np.abs(stationary_state(site, rho0)[0] - limit)) < 1e-10
        model = random_entangled_model(2, 3, rng, lambdas=np.sqrt([0.9, 0.1]))
        rho_st = stationary_state(model)[0]
        assert np.max(np.abs(rho_st.imag)) > 0.01
        limit = evolve_env(initial_env_density(model), model, 200)
        assert np.max(np.abs(rho_st - limit)) < 1e-10

    def test_controlled_z_keeps_the_complex_environment_basis(self):
        # U = |0><0| (x) I + |1><1| (x) V Z V^dag dephases the environment in
        # the eigenbasis of V Z V^dag: its fixed space has dimension 2, and
        # one step reaches the stationary state.  Projecting in (bra, ket)
        # order instead misses it by 0.41 entrywise for psi_E = (0.6, 0.8i).
        v = random_haar_unitary(2, 5)
        w = v @ np.diag([1.0, -1.0]) @ v.conj().T
        u = np.kron(np.diag([1.0, 0.0]), np.eye(2)) + np.kron(np.diag([0.0, 1.0]), w)
        psi_e = np.array([0.6, 0.8j])
        model = OqeModel(2, 2, [u], np.kron([1.0, 0.0], psi_e))
        rho_e = np.outer(psi_e, psi_e.conj())
        dephased = sum(np.outer(c, c.conj()) @ rho_e @ np.outer(c, c.conj()) for c in v.T)
        rho_st = stationary_state(model)[0]
        assert np.max(np.abs(rho_st - dephased)) < 1e-12
        assert np.max(np.abs(rho_st - evolve_env(initial_env_density(model), model, 1))) < 1e-12

    def test_bare_mps_with_rotating_peripheral_eigenvalue(self):
        # Kraus operators X/d at every (o, i): the left action is rho -> X rho X,
        # with eigenvalue +1 on span{I, X} and -1 on span{Y, Z}.
        d = 2
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        site = np.repeat(np.repeat(x[:, None, None, :] / d, d, axis=1), d, axis=2)
        with pytest.raises(ConvergenceError) as err:
            stationary_state(site, np.diag([1.0, 0.0]))
        # |0><0| = (I + Z)/2 keeps its Z/2 part, of Frobenius norm 1/sqrt(2)
        assert abs(err.value.residual - 1 / np.sqrt(2)) < 1e-12
        rho, steps, degenerate = stationary_state(site, np.eye(2) / 2)
        assert degenerate and steps == 0
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12
        # halving the Kraus operators leaves eigenvalues +-1/4: no fixed point
        with pytest.raises(ConvergenceError):
            stationary_state(site / 2, np.eye(2) / 2)


class TestRenyiComplexity:
    def test_maximally_mixed_qubit(self):
        assert abs(renyi_complexity(np.eye(2) / 2, 2.0) - 1.0) < 1e-12

    def test_pure_state_is_zero(self):
        rho = np.zeros((3, 3), dtype=np.complex128)
        rho[0, 0] = 1.0
        for alpha in (0.5, 1.0, 2.0):
            assert abs(renyi_complexity(rho, alpha)) < 1e-12

    def test_maximally_mixed_any_alpha(self):
        for D in (2, 3, 4):
            for alpha in (0.5, 1.0, 2.0):
                assert abs(renyi_complexity(np.eye(D) / D, alpha) - np.log2(D)) < 1e-12

    def test_monotone_in_alpha(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        values = [renyi_complexity(rho, a) for a in np.linspace(0.3, 4.0, 12)]
        assert all(x >= y - 1e-9 for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", ["x", 0.0, np.nan, True])
    def test_memory_complexity_checks_alpha_before_solving(self, rng, alpha, monkeypatch):
        def unreachable(model):
            raise AssertionError("the stationary solve ran before alpha was checked")

        monkeypatch.setattr(memory, "stationary_state", unreachable)
        with pytest.raises(ValidationError, match="alpha"):
            memory_complexity(random_separable_model(2, 2, rng), [2.0, alpha])

    @pytest.mark.parametrize("alphas", [[], (), 2.0, "2", None, {2.0}, np.array([2.0])],
                             ids=["empty_list", "empty_tuple", "scalar", "text", "none", "set",
                                  "array"])
    def test_memory_complexity_takes_a_non_empty_sequence(self, rng, alphas):
        with pytest.raises(ValidationError, match="alpha"):
            memory_complexity(random_separable_model(2, 2, rng), alphas)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValidationError):
            renyi_complexity(np.eye(2) / 2, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, "2", None, True, [2.0]])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValidationError):
            renyi_complexity(np.eye(2) / 2, alpha)


class TestTheorem1:
    def test_separable_d3(self, rng):
        model = random_separable_model(2, 3, rng)
        (report,) = memory_complexity(model, [2.0])
        assert abs(report.predicted_bits - np.log2(3)) < 1e-12
        assert report.theorem_pass and not report.theorem_skipped

    def test_entangled_maximal_alpha2(self, rng):
        model = random_entangled_model(2, 2, rng)
        (report,) = memory_complexity(model, [2.0])
        assert abs(report.predicted_bits - 2.0) < 1e-9
        assert report.theorem_pass

    def test_entangled_skewed_alpha1(self, rng):
        model = random_entangled_model(2, 2, rng, lambdas=np.sqrt([0.9, 0.1]))
        (report,) = memory_complexity(model, [1.0])
        c0 = -0.9 * np.log2(0.9) - 0.1 * np.log2(0.1)
        assert abs(report.predicted_bits - (c0 + 1.0)) < 1e-9
        assert abs(report.value_bits - report.predicted_bits) < 1e-6
        assert report.theorem_pass

    def test_degenerate_separable_is_skipped(self):
        psi = np.kron([1.0, 0.0], [1.0, 0.0])
        model = OqeModel(2, 2, [np.eye(4)], psi)
        (report,) = memory_complexity(model, [2.0])
        assert report.theorem_skipped and not report.theorem_pass

    def test_carries_the_measured_report(self, rng):
        # every order reads the one stationary state, and its value and
        # prediction are those of that order alone
        model = random_entangled_model(2, 3, rng, lambdas=np.sqrt([0.7, 0.3]))
        alphas = [0.5, 1.0, 2.0, 3.0]
        reports = memory_complexity(model, alphas)
        rho, _, _ = stationary_state(model)
        c0 = {a: memory._renyi_bits(np.array([0.7, 0.3]), a) for a in alphas}
        for alpha, report in zip(alphas, reports, strict=True):
            assert report.alpha == alpha and report.stationary is reports[0].stationary
            assert not report.stationary.flags.writeable
            assert np.array_equal(report.stationary, rho)
            assert report.value_bits == renyi_complexity(rho, alpha)
            assert report.value_bits == memory_complexity(model, [alpha])[0].value_bits
            assert abs(report.predicted_bits - (np.log2(3) + c0[alpha])) < 1e-12
            assert report.theorem_pass and not report.theorem_skipped

    def test_complexity_report_bounds(self, rng):
        model = random_separable_model(2, 4, rng)
        (rep,) = memory_complexity(model, [0.7])
        assert 0.0 <= rep.value_bits <= np.log2(4) + 1e-9


class TestStationarityOnset:
    def test_trivial_environment(self, rng):
        assert stationarity_onset(random_separable_model(2, 1, rng)) == 0

    @pytest.mark.parametrize(
        "make, onset",
        [
            (random_separable_model, 30),
            (random_entangled_model, 30),
            # unequal Schmidt weights: the stationary state A (x) I/D carries
            # the complex reduced system state A, which differs from A^T
            (lambda d, D, seed: random_entangled_model(d, D, seed, np.sqrt([0.9, 0.1])), 29),
        ],
        ids=["separable", "entangled", "entangled_skewed"],
    )
    def test_onset_of_the_physical_environment_state(self, make, onset):
        # evolve_env matches the dense replay (TestEvolveEnv), so the onset is
        # the first step whose physical state is within tol of rho_st
        model = make(2, 3, 3)
        n0 = stationarity_onset(model, tol=1e-8)
        rho0, rho_st = initial_env_density(model), stationary_state(model)[0]
        assert n0 == onset
        assert infidelity(evolve_env(rho0, model, n0), rho_st) < 1e-8
        assert infidelity(evolve_env(rho0, model, n0 - 1), rho_st) > 1e-8

    def test_partial_process_tensors_shift_invariant(self, rng):
        # Uhlmann fidelity is quadratic in state distance, so an onset at
        # fidelity tolerance t pins the partial process tensors to ~sqrt(t).
        model = random_separable_model(2, 2, rng)
        n0 = stationarity_onset(model, tol=1e-8)
        rho_a = evolve_env(initial_env_density(model), model, n0)
        rho_b = evolve_env(rho_a, model, 1)
        upsilon_a = partial_process_tensor(model, rho_a, 3)
        upsilon_b = partial_process_tensor(model, rho_b, 3)
        assert np.max(np.abs(upsilon_a - upsilon_b)) < 1e-4

        n0_tight = stationarity_onset(model, tol=1e-13)
        rho_a = evolve_env(initial_env_density(model), model, n0_tight)
        rho_b = evolve_env(rho_a, model, 1)
        upsilon_a = partial_process_tensor(model, rho_a, 3)
        upsilon_b = partial_process_tensor(model, rho_b, 3)
        assert np.max(np.abs(upsilon_a - upsilon_b)) < 1e-7

    @pytest.mark.parametrize(
        "tol", [0.0, -1e-8, 1.0, 2.0, float("nan"), float("inf"), "1e-8", None, True]
    )
    def test_rejects_tol_outside_unit_interval(self, rng, tol):
        with pytest.raises(ValidationError, match="tol"):
            stationarity_onset(random_separable_model(2, 2, rng), tol=tol)

    def test_smaller_eta_converges_slower(self):
        onsets = {0.01: [], 0.005: []}
        psi = np.kron([1.0, 0.0], [1.0, 0.0])
        for eta in onsets:
            for seed in range(3):
                u = near_identity_unitary(4, eta, seed)
                model = OqeModel(2, 2, [u], psi)
                onsets[eta].append(stationarity_onset(model, tol=0.05))
        assert np.median(onsets[0.005]) > np.median(onsets[0.01])


class TestFigS2:
    def test_smaller_eta_larger_transient_infidelity(self):
        seeds = list(range(8))
        pts = [200, 400, 600]
        r01 = fig_s2_experiment(2, 2, 0.01, 600, seeds, sample_points=pts)
        r005 = fig_s2_experiment(2, 2, 0.005, 600, seeds, sample_points=pts)
        for a, b in zip(r005, r01):
            assert a[2] > b[2]

    def test_csv_format(self):
        rows = fig_s2_experiment(2, 2, 0.05, 5, [0], sample_points=[0, 5])
        text = fig_s2_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n,mean_infidelity,median_infidelity,q25,q75"
        assert len(lines) == 3
        assert "." in lines[1] and "," in lines[1]

    def test_fresh_h_mode_runs(self):
        rows = fig_s2_experiment(2, 2, 0.05, 50, [0, 1], time_dependent=True, sample_points=[50])
        assert rows[0][1] < 0.5

    @pytest.mark.parametrize(
        "d, D, time_dependent", [(2, 3, False), (2, 3, True), (3, 2, False), (3, 2, True)]
    )
    def test_matches_evolve_env_reference(self, d, D, time_dependent):
        # Each seed's curve rebuilt independently: a model from that seed's
        # near_identity_unitary draws (one, or one per step), evolve_env from
        # the start for every point, and the full Uhlmann fidelity to I/D.
        seeds, n_max, points, eta = [3, 8, 11, 20], 12, [0, 1, 5, 12], 0.1
        rho0 = np.zeros((D, D))
        rho0[0, 0] = 1.0
        psi = np.zeros(d * D)
        psi[0] = 1.0
        curves = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            draws = n_max if time_dependent else 1
            us = [near_identity_unitary(d * D, eta, rng) for _ in range(draws)]
            model = OqeModel(d, D, us, psi)
            curves.append([infidelity(evolve_env(rho0, model, n), np.eye(D) / D) for n in points])
        expected = [
            [np.mean(c), np.median(c), np.quantile(c, 0.25), np.quantile(c, 0.75)]
            for c in np.array(curves).T
        ]
        rows = fig_s2_experiment(
            d, D, eta, n_max, seeds, time_dependent=time_dependent, sample_points=points
        )
        assert [row[0] for row in rows] == points
        assert np.max(np.abs(np.array([row[1:] for row in rows]) - expected)) < 1e-12
        assert rows[-1][1] > 0.05  # still far from I/D, so the rows are not all zero

    def test_fresh_h_draws_once_per_seed_per_block(self, monkeypatch):
        calls = []
        draw = memory.near_identity_unitary

        def counting(*args, **kwargs):
            calls.append(kwargs.get("size"))
            return draw(*args, **kwargs)

        monkeypatch.setattr(memory, "near_identity_unitary", counting)
        seeds, n_max = [0, 1, 2, 3], 2000
        fig_s2_experiment(2, 2, 0.01, n_max, seeds, time_dependent=True, sample_points=[n_max])
        block = memory._block_steps(len(seeds), 2, 2)
        assert 1 < block < n_max
        assert len(calls) == len(seeds) * -(-n_max // block)
        assert sum(calls) == len(seeds) * n_max

    def test_block_holds_at_most_one_step_of_large_environments(self):
        assert memory._block_steps(4, 2, 16) == 1

    def test_empty_sample_points_give_no_rows(self):
        assert fig_s2_experiment(2, 2, 0.05, 10, [0, 1], sample_points=[]) == []
        assert fig_s2_experiment(2, 2, 0.05, 10, [0], time_dependent=True, sample_points=[]) == []

    @pytest.mark.parametrize("d, D", [(1, 2), (2, 0), (2.5, 2), (2, 2.0), (True, 2), (2, True)])
    def test_rejects_small_dimensions(self, d, D):
        with pytest.raises(ValidationError):
            fig_s2_experiment(d, D, 0.05, 10, [0])

    def test_rejects_empty_seed_ensemble(self):
        with pytest.raises(ValidationError):
            fig_s2_experiment(2, 2, 0.05, 10, [])

    @pytest.mark.parametrize("eta", [0.0, -0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_rejects_non_finite_or_non_positive_eta(self, eta, time_dependent):
        with pytest.raises(ValidationError, match="eta"):
            fig_s2_experiment(2, 2, eta, 10, [0], time_dependent=time_dependent)

    def test_rejects_negative_n_max(self):
        with pytest.raises(ValidationError):
            fig_s2_experiment(2, 2, 0.05, -5, [0])

    @pytest.mark.parametrize(
        "n_max, seeds, sample_points, message",
        [
            (3.0, [0], None, "n_max"),
            (True, [0], None, "n_max"),
            ("3", [0], None, "n_max"),
            (3, True, None, "seeds"),
            (3, 2, None, "seeds"),
            (3, 2.0, None, "seeds"),
            (3, None, None, "seeds"),
            (3, np.arange(2), None, "seeds"),
            (3, [0, 1.5], None, "seeds"),
            (3, [0, -1], None, "seeds"),
            (3, [0], [0, 2.5], "sample points"),
            (3, [0], [True], "sample points"),
            (3, [0], 3, "sample points"),
            (3, [0], 3.0, "sample points"),
            (3, [0], {3}, "sample points"),
        ],
        ids=["float_n_max", "bool_n_max", "text_n_max", "bool_seeds", "count_seeds", "float_seeds",
             "no_seeds", "array_seeds", "float_seed", "negative_seed", "float_sample_point",
             "bool_sample_point", "count_sample_points", "float_sample_points",
             "set_sample_points"],
    )
    def test_rejects_non_integer_arguments(self, n_max, seeds, sample_points, message):
        with pytest.raises(ValidationError, match=message):
            fig_s2_experiment(2, 2, 0.05, n_max, seeds, sample_points=sample_points)

    def test_numpy_integers_accepted(self):
        ref = fig_s2_experiment(2, 2, 0.05, 3, [0, 1], sample_points=[1, 3])
        got = fig_s2_experiment(
            2, 2, 0.05, np.int64(3), (np.int64(0), np.int32(1)),
            sample_points=[np.int32(1), np.int64(3)],
        )
        assert got == ref

    def test_rejects_sample_points_beyond_n_max(self):
        with pytest.raises(ValidationError):
            fig_s2_experiment(2, 2, 0.05, 5, [0], sample_points=[0, 5, 9])

    def test_regression_baseline_eta001(self):
        # Achieved value recorded as the regression baseline: the unitarized
        # ensemble's gap is ~2.2*eta^2, giving median infidelity ~2.6e-2 at
        # n=5000 for eta=0.01 over seeds 0..19 (see the acceptance suite for
        # the unattained 1e-6 target).
        rows = fig_s2_experiment(2, 2, 0.01, 5000, list(range(20)), sample_points=[5000])
        assert 1e-2 < rows[0][2] < 4e-2


class TestUhlmannFidelity:
    def test_identical_states(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert uhlmann_fidelity(a, b) < 1e-12

    def test_pure_vs_maximally_mixed(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        assert abs(uhlmann_fidelity(a, np.eye(2) / 2) - 0.5) < 1e-12


class TestInputChecks:
    """Every rejection of a bad argument, raised before any work."""

    _ENTRY_POINTS = {
        "evolve_env": lambda rho: evolve_env(rho, random_separable_model(2, 2, 0), 1),
        "stationary_state": lambda rho: stationary_state(random_separable_model(2, 2, 0), rho),
        "renyi_complexity": lambda rho: renyi_complexity(rho, 2.0),
    }

    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "rho, message",
        [(np.ones((2, 3)) / 2, "must be square"),
         (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
         (np.diag([1.5, -0.5]), "negative eigenvalue"),
         (np.eye(2), "trace deviates from 1")],
        ids=["not_square", "not_hermitian", "negative", "trace"],
    )
    def test_environment_states_are_checked(self, entry, rho, message):
        with pytest.raises(ValidationError, match=message):
            self._ENTRY_POINTS[entry](rho)

    def test_evolve_env_step_count_on_a_model(self):
        with pytest.raises(ValidationError, match="must be non-negative"):
            evolve_env(np.eye(2) / 2, random_separable_model(2, 2, 0), -1)
        with pytest.raises(ValidationError, match="stores only 3 steps"):
            evolve_env(np.eye(2) / 2, random_separable_model(2, 2, 0, steps=3), 4)

    @pytest.mark.parametrize(
        "rho0, target, n",
        [(np.eye(2) / 2, build_ppt(random_separable_model(2, 2, 0), 5), 4),
         (np.eye(3) / 3, random_separable_model(2, 2, 0), 2),
         (np.eye(2) / 2, random_entangled_model(2, 2, 0), 2),
         (np.eye(3) / 3, random_separable_model(2, 2, 0), 0)],
        ids=["ppt", "model", "entangled_model", "zero_steps"],
    )
    def test_evolve_env_checks_rho0_against_the_first_bond(self, rho0, target, n):
        # a PPT opens on a bond of 1; an entangled model's environment is d*D
        with pytest.raises(DimensionError, match="does not match the first bond"):
            evolve_env(rho0, target, n)

    @pytest.mark.parametrize(
        "target, rho0, error, message",
        [(build_ppt(random_separable_model(2, 2, 0), 3), None, ValidationError, "rho0 is required"),
         (random_separable_model(2, 2, 0, steps=2), None, ValidationError, "time-independent"),
         (np.ones((2, 2, 2)), np.eye(2) / 2, DimensionError, "rank 4"),
         (np.ones((1, 2, 2, 2)), np.eye(1), DimensionError,
          "equal bond dimensions"),
         (random_separable_model(2, 2, 0), np.eye(3) / 3, DimensionError,
          "does not match the transfer dimension"),
         (build_ppt(random_separable_model(2, 3, 0, steps=3), 3), np.eye(3) / 3, ValidationError,
          "need a model or a site array, got PptMps")],
        ids=["ppt_without_rho0", "time_dependent", "rank_3_site", "unequal_bonds", "rho0_dim",
             "ppt"],
    )
    def test_stationary_state_arguments(self, target, rho0, error, message):
        with pytest.raises(error, match=message):
            stationary_state(target, rho0)

    def test_stationarity_onset_needs_a_time_independent_model(self):
        with pytest.raises(ValidationError, match="requires a time-independent model"):
            stationarity_onset(random_separable_model(2, 2, 0, steps=2))
