"""Reconstructing a hidden process from reduced-density measurements.

The disentangling circuit walks an R-site window over the chain: each
window's reduced density operator fixes a unitary that rotates the local
support so one site factors out in |0>.  After the sweep, the trailing
block's spectrum gives the Schmidt data, the environment basis is pinned
to the computational one, and undoing the gates yields the state.  A
variational refit with explicitly unitary step ansatz then exposes the
hidden model for prediction.
"""

import numpy as np

import pptlab as pl

# -- exact-oracle reconstruction ------------------------------------------

hidden = pl.random_separable_model(2, 2, seed=11)
oracle = pl.MeasurementOracle(hidden, n_steps=5)
report = pl.disentangle_reconstruct(oracle, N=5, D_bound=2)
print("state fidelity:      ", report.state_fidelity)
print("reduced-density calls:", report.queries, "(windows + trailing block)")
print("site residuals:      ", [f"{r:.1e}" for r in report.per_site_unitarity_residual])

# -- sampled oracle: finite measurement statistics -------------------------

for shots in (10**3, 10**5):
    noisy = pl.MeasurementOracle(hidden, 5, shots=shots, seed=1)
    rep = pl.disentangle_reconstruct(noisy, 5, 2)
    print(f"shots={shots:>6d}: fidelity deficit {1 - rep.state_fidelity:.3e}")

# -- variational refit and prediction ---------------------------------------

target = pl.build_ppt(hidden, 5)
fit = pl.variational_fit(target, seed=0)
print("fit loss trace:      ", [f"{x:.1e}" for x in fit.loss_trace[:3]], "->",
      f"{fit.loss_trace[-1]:.1e}")

predicted = pl.predict_future(fit, n_future=8)
truth = pl.build_ppt(hidden, 8)
rng = np.random.default_rng(2)
checks = []
for _ in range(20):
    steps = sorted(rng.choice(np.arange(6, 9), size=2, replace=False))
    checks.append(pl.MultiTimeObservable(
        [(int(s), pl.models.random_hermitian(4, rng)) for s in steps]
    ))
# one batched sweep per PPT evaluates every observable
pairs = zip(pl.expectations(truth, checks), pl.expectations(predicted, checks))
worst = max(abs(complex(ref) - complex(got)) for ref, got in pairs)
print("worst step-6..8 prediction error over 20 observables:", worst)
