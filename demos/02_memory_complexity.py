"""Stationary environment states and the memory complexity of a process.

Iterating the transfer map drives the environment to its stationary state,
the projection of the initial state onto the fixed points of that map; the
Renyi entropy (base 2) of that state measures how much quantum memory
the process consumes.  For generic evolutions the values are known in
closed form: log2(D) for product initial states, plus the entropy of the
reduced initial system state when system and environment start entangled.
"""

import numpy as np

import pptlab as pl
from pptlab.tensor_ops import transfer_left, transfer_right

print("--- separable initial states: complexity = log2 D ---")
for D in (2, 3, 4):
    model = pl.random_separable_model(2, D, seed=D)
    # every order from one stationary solve
    for report in pl.memory_complexity(model, [0.5, 1.0, 2.0]):
        print(f"D={D} alpha={report.alpha}: {report.value_bits:.9f} (log2 D = {np.log2(D):.9f})")

print()
print("--- entangled initial states add the initial system entropy ---")
for lam2 in ([0.5, 0.5], [0.9, 0.1]):
    model = pl.random_entangled_model(2, 2, seed=3, lambdas=np.sqrt(lam2))
    (report,) = pl.memory_complexity(model, [2.0])
    print(
        f"lambda^2={lam2}: measured {report.value_bits:.9f}, "
        f"predicted {report.predicted_bits:.9f}, pass={report.theorem_pass}"
    )
    print(
        f"  stationary eigenvalues {np.round(np.linalg.eigvalsh(report.stationary), 6)}"
        f" (degenerate transfer spectrum: {report.degenerate}; projected onto the fixed points)"
    )

print()
print("--- the transfer map behind it ---")
model = pl.random_separable_model(2, 2, seed=1)
site = pl.site_tensor_from_unitary(model.unitaries[0], 2, 2)
iD = np.eye(2) / 2
print("I/D left fixed point: ", np.max(np.abs(transfer_left(iD, site, site) - iD)))
print("I/D right fixed point:", np.max(np.abs(transfer_right(iD, site, site) - iD)))

# How long until the process forgets its initial state?
print("stationarity onset (fidelity 1-1e-8):", pl.stationarity_onset(model, tol=1e-8))
