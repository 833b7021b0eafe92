"""Recovering an entangled system-environment initial state from measurements.

The oracle holds the hidden process with the initial system leg exposed as
step 0.  ``reduced_density((0, 0))`` measures the initial system state like
any other window.  Post-selecting (``condition``) one of its eigenvectors
collapses the environment to one pure branch, which is an ordinary
(separable) process: the first branch fixes the step unitaries, later ones
are fitted through the recovered chain while the step unitaries are held
fixed.  Assembling the branches on orthogonal environment vectors restores
the full model, up to the usual environment gauge.  The oracle is sealed
and every measurement is counted, so ``query_log`` is the data cost.
"""

import numpy as np

import pptlab as pl
from pptlab.models import random_hermitian
from pptlab.tomography import window_size

hidden = pl.random_entangled_model(2, 2, seed=21, lambdas=np.sqrt([0.9, 0.1]))
print("hidden Schmidt values:", np.round(hidden.initial_schmidt().lambdas, 6))

# Step 0 of a fresh oracle is the reduced initial system state rho_S, and
# post-selecting it on an outcome returns that outcome's probability.
probe = pl.MeasurementOracle(hidden, n_steps=5, unsealed=False)
rho_s = probe.reduced_density((0, 0))
print("measured rho_S eigenvalues:", np.round(np.linalg.eigvalsh(rho_s)[::-1], 6))
print("P(outcome |0>):", round(probe.condition([1.0, 0.0]), 6))

oracle = pl.MeasurementOracle(hidden, n_steps=5, unsealed=False)
form, recovered = pl.reconstruct_entangled_initial(oracle, D_bound=2)
f = 5 - window_size(2, 2) + 1  # windows of R = 2 steps for D = 2
print("recovered Schmidt values:", np.round(form.lambdas, 6))
print("recovered env branches (computational):")
print(np.round(form.env_basis.T, 3))
print(f"queries: {oracle.query_log} = 1 (rho_S) + {form.lambdas.size} outcomes x {f + 1}")

truth = pl.build_ppt(hidden, 5)
rebuilt = pl.build_ppt(recovered, 5)
rng = np.random.default_rng(3)
worst = 0.0
for _ in range(50):
    steps = sorted(rng.choice(np.arange(1, 6), size=2, replace=False))
    obs = pl.MultiTimeObservable(
        [(int(s), random_hermitian(4, rng)) for s in steps]
    )
    worst = max(worst, abs(pl.expectation(truth, obs) - pl.expectation(rebuilt, obs)))
print("worst two-time deviation over 50 observables:", worst)
