"""Multi-time correlations of a process, by MPS contraction and by a dense oracle.

An observable is a set of (step, operator) insertions; each operator is a
d^2 x d^2 matrix on the (out, in) index pair of its step, fused row major
as sigma = o * d + i.  The MPS route carries the environment state from the
left, sandwiches the operators at insertion steps and stops after the last
insertion (the remaining sites are right-canonical and contract to the
identity).  The dense route replays the generating circuit on a full
statevector and shares no contraction code with the MPS route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import CapacityError, DimensionError, ValidationError
from .models import OqeModel
from .ppt import DENSE_STATE_GUARD, PptMps
from .tensor_ops import complex_to_pairs, pairs_to_complex, transfer_left


@dataclass(frozen=True)
class MultiTimeObservable:
    """Ordered insertions (step, matrix) with strictly increasing steps."""

    insertions: tuple[tuple[int, np.ndarray], ...]

    @staticmethod
    def create(insertions) -> "MultiTimeObservable":
        items = []
        prev = 0
        for step, op in insertions:
            step = int(step)
            if step <= prev:
                raise ValidationError("insertion steps must be strictly increasing and >= 1")
            items.append((step, np.asarray(op, dtype=np.complex128)))
            prev = step
        return MultiTimeObservable(insertions=tuple(items))

    def validate(self, d: int, n_steps: int) -> None:
        for step, op in self.insertions:
            if not 1 <= step <= n_steps:
                raise ValidationError(f"insertion step {step} outside [1, {n_steps}]")
            if op.shape != (d * d, d * d):
                raise DimensionError(
                    f"operator at step {step} has shape {op.shape}, expected {(d * d, d * d)}"
                )

    @property
    def last_step(self) -> int:
        return self.insertions[-1][0] if self.insertions else 0

    def to_json_dict(self) -> dict:
        return {
            "insertions": [
                {"step": step, "matrix": complex_to_pairs(op)}
                for step, op in self.insertions
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "MultiTimeObservable":
        items = []
        for entry in doc["insertions"]:
            flat = pairs_to_complex(entry["matrix"])
            dim = int(round(np.sqrt(flat.size)))
            if dim * dim != flat.size:
                raise ValidationError("operator data is not square")
            items.append((int(entry["step"]), flat.reshape(dim, dim)))
        return MultiTimeObservable.create(items)

    @staticmethod
    def from_json(text: str) -> "MultiTimeObservable":
        return MultiTimeObservable.from_json_dict(json.loads(text))


def pair_operator(out_op: np.ndarray, in_op: np.ndarray) -> np.ndarray:
    """Assemble a composite insertion from operators on the out and in legs."""
    return np.kron(
        np.asarray(out_op, dtype=np.complex128), np.asarray(in_op, dtype=np.complex128)
    )


def expectation(mps: PptMps, obs: MultiTimeObservable) -> complex:
    """<PPT| (insertions) |PPT> by left-to-right transfer contraction."""
    if mps.canonical != "right":
        raise ValidationError("expectation requires a right-canonical MPS")
    obs.validate(mps.d, mps.n_steps)
    ops = dict(obs.insertions)
    nu = mps.boundary_vector()
    env = np.outer(nu.conj(), nu)
    lead = int(mps.leading_site is not None)  # an exposed initial leg is step 0
    for step, t in enumerate(mps.chain()[: lead + obs.last_step], start=1 - lead):
        env = transfer_left(env, t, t, ops.get(step))
    return complex(np.trace(env))


def dense_expectation(model: OqeModel, N: int, obs: MultiTimeObservable) -> complex:
    """Independent dense oracle for ``expectation``.

    Replays the generating circuit: starting from the joint initial state,
    each step appends a maximally entangled pair and applies the step
    unitary to the fresh half and the environment.  Operators are then
    applied directly to the statevector.
    """
    model.validate()
    obs.validate(model.d, N)
    d, D = model.d, model.D
    if (d * d) ** N * d * D > DENSE_STATE_GUARD:
        raise CapacityError("dense oracle would exceed the statevector guard")
    pair = np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)  # sum_j |jj>/sqrt(d)

    # state axes: (o_0, o_1, i_1, ..., o_n, i_n, env)
    state = model.initial_state.reshape(d, D)
    for n in range(1, N + 1):
        u = np.asarray(model.unitary_at(n), dtype=np.complex128).reshape(d, D, d, D)
        state = np.tensordot(state, pair.reshape(d, d), axes=0)  # (..., env, o_n, i_n)
        # apply U to (o_n, env): contract input legs (i=o_n slot, a=env)
        state = np.tensordot(state, u, axes=[[-3, -2], [3, 2]])  # -> (..., i_n, o_n, env)
        state = np.moveaxis(state, -2, -3)  # -> (..., o_n, i_n, env)
    ket = state
    bra = state.conj()
    for step, op in obs.insertions:
        axes = (1 + 2 * (step - 1), 2 + 2 * (step - 1))  # o_step, i_step in the axis list
        m = op.reshape(d, d, d, d)  # (o', i', o, i)
        ket = np.tensordot(ket, m, axes=[list(axes), [2, 3]])
        ket = np.moveaxis(ket, (-2, -1), axes)
    return complex(np.tensordot(bra, ket, axes=ket.ndim))
