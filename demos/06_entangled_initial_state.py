"""Recovering an entangled system-environment initial state from measurements.

The oracle holds the hidden process with the initial system leg exposed as
step 0.  ``reduced_density((0, 0))`` measures the initial system state like
any other window, and a window gate may start there too.  So the
disentangling sweep simply starts at step 0: its windows of R steps walk the
chain 0..N under the environment bound D itself, N - R + 2 windows and one
trailing request, and the recovered chain carries step 0, which becomes the
initial joint state of the recovered model.  Nothing is post-selected.  The
oracle is sealed and every measurement is counted, so ``query_log`` is the
data cost.
"""

import numpy as np

import pptlab as pl
from pptlab.models import random_hermitian
from pptlab.tomography import window_size

N = 5
hidden = pl.random_entangled_model(2, 2, seed=21, lambdas=np.sqrt([0.9, 0.1]))
print("hidden Schmidt values:", np.round(hidden.initial_schmidt().lambdas, 6))

# Step 0 of a fresh oracle is the reduced initial system state rho_S.
probe = pl.MeasurementOracle(hidden, n_steps=N, unsealed=False)
rho_s = probe.reduced_density((0, 0))
print("measured rho_S eigenvalues:", np.round(np.linalg.eigvalsh(rho_s)[::-1], 6))

oracle = pl.MeasurementOracle(hidden, n_steps=N, unsealed=False)
form, recovered = pl.reconstruct_entangled_initial(oracle, D_bound=2)
R = window_size(2, 2)  # windows of R = 2 steps for D = 2
print("recovered Schmidt values:", np.round(form.lambdas, 6))
print("recovered environment dimension:", recovered.D)
print(f"queries: {oracle.query_log} = N - R + 3 = {N - R + 3}")

truth = pl.build_ppt(hidden, N)
rebuilt = pl.build_ppt(recovered, N)
rng = np.random.default_rng(3)
checks = []
for _ in range(50):
    steps = sorted(rng.choice(np.arange(1, N + 1), size=2, replace=False))
    checks.append(pl.MultiTimeObservable(
        [(int(s), random_hermitian(4, rng)) for s in steps]
    ))
# one batched sweep per PPT evaluates every observable
pairs = zip(pl.expectations(truth, checks), pl.expectations(rebuilt, checks))
worst = max(abs(complex(ref) - complex(got)) for ref, got in pairs)
print("worst two-time deviation over 50 observables:", worst)
