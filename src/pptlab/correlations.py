"""Multi-time correlations of a process, by MPS contraction and by a dense oracle.

An observable is a set of (step, operator) insertions; each operator is a
d^2 x d^2 matrix on the (out, in) index pair of its step, fused row major
as sigma = o * d + i.  The MPS route carries the environment state from the
left and sandwiches the operators at insertion steps.  ``expectations``
evaluates many observables in one sweep: it carries a stack of
environments, one per observable, through ``tensor_ops.transfer_left``'s
batch axis, and inserts at each step the stack of their operators, the
identity for an observable with no insertion there; ``expectation`` sweeps
a stack of one by the same code.  On an MPS ready to measure (right-canonical
with a unit first element, as ``ppt.to_right_canonical`` returns it) a value
is read after its last insertion (the remaining sites contract to the
identity); any other MPS is swept to its end and divided by its squared norm,
which one more row of the stack, with no insertions, carries in the same
sweep.  The dense route replays the generating circuit on a full statevector
and shares no contraction code with the MPS route.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .exceptions import CapacityError, DegenerateStateError, DimensionError, ValidationError
from .models import OqeModel
from .ppt import DENSE_STATE_GUARD, PptMps, _left_envs, _ready_to_measure
from .tensor_ops import (
    _decode_entries,
    _is_integer,
    as_complex_array,
    encode_complex,
    json_int,
    json_object,
    json_text,
)


@dataclass(frozen=True, eq=False)
class MultiTimeObservable:
    """Ordered insertions (step, matrix) with strictly increasing steps.

    Construction checks that every step is an integer (bools rejected),
    that the steps strictly increase from 1 and that the operators are
    finite square matrices of one shape, and stores the steps as Python
    ints and the operators as complex128 arrays.
    """

    insertions: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        items = []
        prev = 0
        for step, op in self.insertions:
            if not _is_integer(step):
                raise ValidationError(f"insertion step must be an integer, got {step!r}")
            step = int(step)
            if step <= prev:
                raise ValidationError("insertion steps must be strictly increasing and >= 1")
            op = as_complex_array(op, ndim=2)  # finite, rank 2
            shape = items[0][1].shape if items else (op.shape[0],) * 2
            if op.shape != shape:
                raise DimensionError(
                    f"operator at step {step} has shape {op.shape}; operators must be "
                    "square and of one shape"
                )
            items.append((step, op))
            prev = step
        object.__setattr__(self, "insertions", tuple(items))

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
                {"step": step, "matrix": encode_complex(op)}
                for step, op in self.insertions
            ]
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    @staticmethod
    def from_json_dict(doc: dict) -> "MultiTimeObservable":
        """Decode an observable document: an object whose ``insertions`` is a
        list of objects, each with an integer ``step`` and a square ``matrix``.

        Each matrix is decoded to its raw entries and checked once, by
        construction."""
        insertions = json_object(doc, "an observable document")["insertions"]
        if not isinstance(insertions, list):
            raise ValidationError(f"'insertions' must be a list, got {type(insertions).__name__}")
        items = []
        for entry in insertions:
            json_object(entry, "an insertion")
            flat = _decode_entries(entry["matrix"])
            dim = int(round(np.sqrt(flat.size)))
            if dim * dim != flat.size:
                raise ValidationError("operator data is not square")
            items.append((json_int(entry, "step"), flat.reshape(dim, dim)))
        return MultiTimeObservable(items)

    @staticmethod
    def from_json(text: str) -> "MultiTimeObservable":
        return MultiTimeObservable.from_json_dict(json.loads(text))


def pair_operator(out_op: np.ndarray, in_op: np.ndarray) -> np.ndarray:
    """Assemble a composite insertion from operators on the out and in legs."""
    return np.kron(
        np.asarray(out_op, dtype=np.complex128), np.asarray(in_op, dtype=np.complex128)
    )


def expectation(mps: PptMps, obs: MultiTimeObservable) -> complex:
    """<PPT| (insertions) |PPT> / <PPT|PPT>: ``expectations`` of the one observable."""
    return complex(expectations(mps, [obs])[0])


def expectations(mps: PptMps, observables) -> np.ndarray:
    """``expectation`` of every observable of the sequence, by one batched left sweep.

    Every observable is validated before anything is swept.  The sweep carries
    one environment per observable, stacked (``ppt._left_envs``), a single
    observable too; a chain step where some observable inserts carries the
    stack of their operators, with the identity for the others, all of them
    written into one array.  Observable k's value is the trace of its
    environment after its last insertion on an MPS ``_ready_to_measure``, whose
    norm is 1 and whose later steps contract to the identity, else after the
    whole chain divided by the squared norm, the trace of one more row with no
    insertions (products with the identity are exact, so it equals
    ``overlap``'s value).  Each value is bit for bit the one a sweep of that
    observable alone gives.  An empty sequence gives an empty array.
    """
    observables = list(observables)
    for obs in observables:
        obs.validate(mps.d, mps.n_steps)
    n = len(observables)
    if not n:
        return np.empty(0, dtype=np.complex128)
    lead = int(mps.leading_site is not None)  # an exposed initial leg is step 0
    right = _ready_to_measure(mps)
    ends = [lead + obs.last_step for obs in observables]  # sweep position of each read
    chain = mps.chain(max(ends) if right else None)
    if not right:  # one more row, with no insertions, sweeps the squared norm alongside
        observables.append(MultiTimeObservable(()))
        ends = [len(chain)] * (n + 1)
    rows = len(observables)
    inserted = sorted({lead + step - 1 for obs in observables for step, _ in obs.insertions})
    dd = mps.d * mps.d
    stack = np.zeros((len(inserted), rows, dd, dd), dtype=np.complex128)
    stack.reshape(len(inserted), rows, dd * dd)[..., :: dd + 1] = 1.0  # the identity, to start
    ops = dict(zip(inserted, stack))  # chain index -> a view of its rows' operators
    for k, obs in enumerate(observables):
        for step, op in obs.insertions:
            ops[lead + step - 1][k] = op
    envs = _left_envs(np.ones((rows, 1, 1), dtype=np.complex128), chain, chain, ops)
    values = np.empty(rows, dtype=np.complex128)
    at, env = 0, next(envs)
    for k in sorted(range(rows), key=ends.__getitem__):  # read in sweep order
        for env in itertools.islice(envs, ends[k] - at):
            pass
        at = ends[k]
        values[k] = np.trace(env[k])
    if right:
        return values
    norm2 = values[n].real
    if norm2 < 1e-24:
        raise DegenerateStateError("state has numerically zero norm")
    return values[:n] / norm2


def dense_expectation(model: OqeModel, N: int, obs: MultiTimeObservable) -> complex:
    """Independent dense oracle for ``expectation``.

    Replays the generating circuit: starting from the joint initial state,
    each step appends a maximally entangled pair and applies the step
    unitary to the fresh half and the environment.  Operators are then
    applied directly to the statevector.
    """
    obs.validate(model.d, N)
    d, D = model.d, model.D
    if (d * d) ** N * d * D > DENSE_STATE_GUARD:
        raise CapacityError("dense oracle would exceed the statevector guard")
    pair = np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)  # sum_j |jj>/sqrt(d)

    # state axes: (o_0, o_1, i_1, ..., o_n, i_n, env)
    state = model.initial_state.reshape(d, D)
    for n in range(1, N + 1):
        u = model.unitary_at(n).reshape(d, D, d, D)
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
