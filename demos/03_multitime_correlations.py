"""Multi-time correlations: MPS contraction against a dense circuit replay.

An observable is a set of operator insertions on the (out, in) leg pairs of
chosen steps.  The MPS route carries the environment state from the left
and stops after the last insertion; the dense route rebuilds the full
statevector.  They agree to machine precision, which pins down every index
convention in the library.
"""

import numpy as np

import pptlab as pl
from pptlab.models import random_hermitian

rng = np.random.default_rng(5)
model = pl.random_separable_model(2, 2, rng)
N = 5
mps = pl.build_ppt(model, N)

# Identity insertions just measure the norm.
identity = pl.MultiTimeObservable([(2, np.eye(4)), (4, np.eye(4))])
print("identity insertions:", pl.expectation(mps, identity))

# A two-time correlation of random Hermitian operators.
obs = pl.MultiTimeObservable(
    [(2, random_hermitian(4, rng)), (4, random_hermitian(4, rng))]
)
mps_value = pl.expectation(mps, obs)
dense_value = pl.dense_expectation(model, N, obs)
print("MPS contraction:    ", mps_value)
print("dense circuit replay:", dense_value)
print("difference:         ", abs(mps_value - dense_value))

# Operators factorized over the out and in legs assemble with pair_operator.
sz = np.diag([1.0, -1.0])
obs_zz = pl.MultiTimeObservable(
    [(1, pl.pair_operator(sz, np.eye(2))), (3, pl.pair_operator(sz, np.eye(2)))]
)
print("Z(out,1) Z(out,3):  ", pl.expectation(mps, obs_zz))

# Causality: what happens before step 3 cannot see later unitaries.
td = pl.random_separable_model(2, 2, rng, steps=5)
altered = pl.OqeModel(
    2,
    2,
    list(td.unitaries[:3]) + [pl.random_haar_unitary(4, rng) for _ in range(2)],
    td.initial_state,
)
early = pl.MultiTimeObservable([(1, random_hermitian(4, rng)), (3, random_hermitian(4, rng))])
v1 = pl.expectation(pl.build_ppt(td, 5), early)
v2 = pl.expectation(pl.build_ppt(altered, 5), early)
print("causality violation:", abs(v1 - v2))
