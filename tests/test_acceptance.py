"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 6 is known to fail its convergence-depth clause for the
unitarized near-identity ensemble; it is asserted at its stated target
anyway and reported honestly.
"""

import time

import numpy as np

import pptlab as pl
from pptlab.tensor_ops import transfer_left, transfer_right

from conftest import dense_transfer_matrix, random_observable


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")


def test_criterion_1_separable_complexity_matches_log2_d():
    t0 = time.time()
    worst = 0.0
    for D in (2, 3, 4):
        for seed in range(10):
            model = pl.random_separable_model(2, D, seed)
            rho, _, degenerate = pl.stationary_state(model)
            assert not degenerate
            for alpha in (0.5, 1.0, 2.0):
                dev = abs(pl.renyi_complexity(rho, alpha) - np.log2(D))
                worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10
    report(
        "criterion 1 (separable memory complexity = log2 D)",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 10


def test_criterion_2_entangled_complexity_adds_initial_entropy():
    t0 = time.time()
    worst = 0.0
    for lam2 in ([0.5, 0.5], [0.9, 0.1]):
        lam2 = np.array(lam2)
        model = pl.random_entangled_model(2, 2, 5, lambdas=np.sqrt(lam2))
        rho, _, _ = pl.stationary_state(model)
        for alpha in (1.0, 2.0):
            if alpha == 1.0:
                c0 = float(-np.sum(lam2 * np.log2(lam2)))
            else:
                c0 = float(np.log2(np.sum(lam2**alpha)) / (1 - alpha))
            dev = abs(pl.renyi_complexity(rho, alpha) - (c0 + 1.0))
            worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10
    report(
        "criterion 2 (entangled memory complexity = C0 + log2 D)",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 10


def test_criterion_3_mps_and_dense_expectations_agree():
    t0 = time.time()
    rng = np.random.default_rng(33)
    worst = 0.0
    cases = 0
    while cases < 50:
        D = int(rng.choice([1, 2, 4]))
        entangled = D > 1 and rng.random() < 0.4
        model = (
            pl.random_entangled_model(2, D, rng)
            if entangled
            else pl.random_separable_model(2, D, rng)
        )
        N = int(rng.integers(2, 6))
        mps = pl.build_ppt(model, N)
        obs = random_observable(rng, 2, N, min(2, N))
        dev = abs(pl.expectation(mps, obs) - pl.dense_expectation(model, N, obs))
        worst = max(worst, dev)
        cases += 1
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 30
    report(
        "criterion 3 (MPS vs dense oracle over 50 observables)",
        ok,
        f"max |difference| {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert elapsed < 30


def test_criterion_4_tomography_roundtrip():
    t0 = time.time()
    rng = np.random.default_rng(44)
    worst_fid_deficit = 0.0
    worst_expectation = 0.0
    for D in (2, 4):
        for N in (5, 6):
            for seed in range(10):
                model = pl.random_separable_model(2, D, 1000 * D + 100 * N + seed)
                oracle = pl.MeasurementOracle(model, N)
                rep = pl.disentangle_reconstruct(oracle, N, D)
                worst_fid_deficit = max(worst_fid_deficit, 1.0 - rep.state_fidelity)
                truth = oracle.true_mps()
                rebuilt = pl.build_ppt(rep.recovered_model, N)
                for _ in range(20):
                    obs = random_observable(rng, 2, N)
                    dev = abs(pl.expectation(truth, obs) - pl.expectation(rebuilt, obs))
                    worst_expectation = max(worst_expectation, dev)
    elapsed = time.time() - t0
    ok = worst_fid_deficit < 1e-8 and worst_expectation < 1e-8 and elapsed < 120
    report(
        "criterion 4 (tomography round trip, 40 reconstructions)",
        ok,
        f"max fidelity deficit {worst_fid_deficit:.2e}, "
        f"max expectation dev {worst_expectation:.2e}, {elapsed:.1f}s",
    )
    assert worst_fid_deficit < 1e-8
    assert worst_expectation < 1e-8
    assert elapsed < 120


def test_criterion_5_prediction_from_time_independent_fit():
    t0 = time.time()
    rng = np.random.default_rng(55)
    passed_seeds = 0
    failures = []
    for seed in range(10):
        model = pl.random_separable_model(2, 2, 7000 + seed)
        target = pl.build_ppt(model, 5)
        rep = pl.variational_fit(target, seed=seed)
        predicted = pl.predict_future(rep, 8)
        truth = pl.build_ppt(model, 8)
        worst = 0.0
        for _ in range(10):
            steps = sorted(rng.choice(np.arange(6, 9), size=2, replace=False))
            obs = pl.MultiTimeObservable(
                [(int(s), pl.models.random_hermitian(4, rng)) for s in steps]
            )
            worst = max(worst, abs(pl.expectation(truth, obs) - pl.expectation(predicted, obs)))
        if worst < 1e-6:
            passed_seeds += 1
        else:
            failures.append((seed, worst, rep.converged))
    elapsed = time.time() - t0
    ok = passed_seeds >= 8 and elapsed < 120
    report(
        "criterion 5 (future prediction from N=5 fit)",
        ok,
        f"{passed_seeds}/10 seeds within 1e-6 (failures: {failures}), {elapsed:.1f}s",
    )
    assert passed_seeds >= 8
    assert elapsed < 120


def test_criterion_6_near_identity_convergence():
    t0 = time.time()
    seeds = list(range(20))
    tail = [5000]
    transient = list(range(100, 1001))
    fixed_01 = pl.fig_s2_experiment(2, 2, 0.01, 5000, seeds, sample_points=transient + tail)
    fresh_01 = pl.fig_s2_experiment(
        2, 2, 0.01, 5000, seeds, time_dependent=True, sample_points=tail
    )
    fixed_005 = pl.fig_s2_experiment(2, 2, 0.005, 1000, seeds, sample_points=transient)
    med_fixed = fixed_01[-1][2]
    med_fresh = fresh_01[-1][2]
    m01 = np.array([row[2] for row in fixed_01[: len(transient)]])
    m005 = np.array([row[2] for row in fixed_005])
    ordering = bool(np.all(m005 > m01))
    elapsed = time.time() - t0
    converged = med_fixed < 1e-6 and med_fresh < 1e-6
    ok = converged and ordering and elapsed < 60
    report(
        "criterion 6 (near-identity convergence)",
        ok,
        f"median infidelity at n=5000: fixed {med_fixed:.2e}, fresh {med_fresh:.2e} "
        f"(target 1e-6); eta ordering on [100,1000]: {ordering}; {elapsed:.1f}s",
    )
    assert ordering
    assert elapsed < 60
    assert med_fixed < 1e-6, (
        "unitarized exp(i*eta*H) steps have a spectral gap ~2.2*eta^2, so the "
        "environment cannot reach 1e-6 infidelity by step 5000 at eta=0.01; "
        f"measured {med_fixed:.3e}"
    )
    assert med_fresh < 1e-6


def test_criterion_7_invariant_suite():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = {"isometry": 0.0, "canonical": 0.0, "trace": 0.0, "radius": 0.0, "fixed": 0.0}
    for case in range(100):
        d = int(rng.choice([2, 3]))
        D = int(rng.choice([1, 2, 3, 4]))
        if rng.random() < 0.3:
            u = pl.near_identity_unitary(d * D, 0.05, rng)
            psi = np.kron(pl.random_haar_state(d, rng), pl.random_haar_state(D, rng))
            model = pl.OqeModel(d, D, [u], psi)
        else:
            model = pl.random_separable_model(d, D, rng)
        worst["isometry"] = max(worst["isometry"], pl.check_isometry(model))
        mps = pl.build_ppt(model, 3)
        worst["canonical"] = max(worst["canonical"], mps.right_canonical_residual())
        site = pl.site_tensor_from_unitary(model.unitaries[0], d, D)
        radius = np.max(np.abs(np.linalg.eigvals(dense_transfer_matrix(site))))
        worst["radius"] = max(worst["radius"], radius - 1.0)
        iD = np.eye(D) / D
        worst["fixed"] = max(
            worst["fixed"],
            float(np.max(np.abs(transfer_left(iD, site, site) - iD))),
            float(np.max(np.abs(transfer_right(iD.T, site, site).T - iD))),
        )
        g = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        worst["trace"] = max(
            worst["trace"], abs(np.trace(transfer_left(rho, site, site)).real - 1.0)
        )
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-10}
    ok = not bad and elapsed < 30
    report(
        "criterion 7 (invariant suite over 100 random models)",
        ok,
        f"max residuals {({k: f'{v:.1e}' for k, v in worst.items()})}, {elapsed:.1f}s",
    )
    assert not bad, worst
    assert elapsed < 30


def test_criterion_8_entangled_initial_state_recovery():
    t0 = time.time()
    rng = np.random.default_rng(88)
    model = pl.random_entangled_model(2, 2, 99)
    oracle = pl.MeasurementOracle(model, 5)
    form, recovered = pl.reconstruct_entangled_initial(oracle)
    truth = pl.build_ppt(model, 5)
    rebuilt = pl.build_ppt(recovered, 5)
    worst = 0.0
    for _ in range(50):
        obs = random_observable(rng, 2, 5)
        worst = max(worst, abs(pl.expectation(truth, obs) - pl.expectation(rebuilt, obs)))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 120
    report(
        "criterion 8 (entangled initial-state recovery)",
        ok,
        f"max two-time deviation {worst:.2e} over 50 observables, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 120
