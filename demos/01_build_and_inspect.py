"""Build purified process tensors and inspect their MPS structure.

A hidden open evolution couples a d-dimensional system to a D-dimensional
environment through one joint unitary per step.  Keeping the environment
leg of the generating circuit turns the multi-time process into a pure
state: an MPS whose bond dimension is the environment size.
"""

import numpy as np

import pptlab as pl

# A qubit coupled to a qubit-sized environment, product initial state.
model = pl.random_separable_model(d=2, D=2, seed=7)
mps = pl.build_ppt(model, N=5)

print("bond dimensions:      ", mps.bond_dims)
print("norm:                 ", mps.norm())
print("right-canonical resid:", mps.right_canonical_residual())
print("step-isometry resid:  ", pl.check_isometry(model))

# The maximal Schmidt rank across cuts is the memory size: the smallest
# environment able to reproduce the same process.
print("memory size:          ", pl.memory_size(mps))

# Entangling the initial state enlarges the effective environment to d*D.
entangled = pl.random_entangled_model(d=2, D=2, seed=7)
print("entangled bond dims:  ", pl.build_ppt(entangled, N=5).bond_dims)

# The description is unique only up to an environment basis change: embed
# the environment into a larger one and nothing physical moves.
rng = np.random.default_rng(0)
z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
iso = np.linalg.qr(z)[0]
lift = np.kron(np.eye(2), iso)
bigger = pl.OqeModel(
    2,
    6,
    [lift @ model.unitaries[0] @ lift.conj().T + np.eye(12) - lift @ lift.conj().T],
    lift @ model.initial_state,
)
big_mps = pl.build_ppt(bigger, N=5)
print("embedded bond dims:   ", big_mps.bond_dims)
print("memory size unchanged:", pl.memory_size(big_mps))
print("gauge fidelity:       ", pl.gauge_fidelity(mps, big_mps))

# The dense process tensor (environment traced out) is a unit-trace
# positive operator on the in/out legs.
upsilon = pl.ppt_to_process_tensor(pl.build_ppt(model, N=2))
print("process tensor trace: ", np.trace(upsilon).real)
print("smallest eigenvalue:  ", np.linalg.eigvalsh(upsilon).min())

# And the hidden model can be read back off the MPS, up to the gauge.
recovered, residuals = pl.mps_to_oqe(mps)
print("site unitarity resid: ", max(residuals))
print("round-trip fidelity:  ", pl.gauge_fidelity(pl.build_ppt(recovered, 5), mps))
