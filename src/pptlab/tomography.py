"""Reconstruction of purified process tensors from measured reduced densities.

The measurement oracle stands in for the laboratory: it holds the (hidden)
PPT, applies the known window gates it is given one at a time and answers
reduced density operators of the current state on contiguous site ranges,
either exactly or from a finite number of projective samples in a fixed
Pauli-product scheme.  It keeps the state as a right-canonical MPS: a gate
is applied to its R sites and re-split by SVDs, and a window density
contracts the left environment into the window block (the right side is
the identity), so nothing of size (d^2)^N is ever formed.  The left
environments of the sites no gate has touched since they were contracted
are kept between queries, so each gate is applied once and a whole
reconstruction costs time linear in N (the sliding-window scheme of Cramer
et al., Nat. Commun. 1, 149 (2010), with environments kept between steps as
in Schollwoeck, Ann. Phys. 326, 96 (2011)).

The disentangling algorithm walks a window of R sites across the chain.
Each window's reduced density operator has support of dimension at most the
hidden bond, so a window unitary can rotate that support into the subspace
whose first site is |0>.  After f = N - R + 1 gates the state is a product
of |0>s with an entangled block on the trailing R - 1 sites; diagonalising
that block fixes the Schmidt vectors and values, the environment basis is
pinned to the computational one, and undoing the gates on the MPS of that
product yields the state.

The variational route refits the site unitaries directly: the ansatz is a
sequentially generated state with parametric step unitaries (one shared
matrix in the time-independent case) and a final unitary on the
environment.  The step unitaries follow gradient ascent on the overlap
with a polar retraction back onto the unitary manifold; the final unitary
enters the overlap linearly and is therefore set to its exact maximiser at
every evaluation.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BoundViolationError,
    CapacityError,
    ConvergenceError,
    DegenerateStateError,
    DimensionError,
    SingularityError,
    UnsupportedPredictionError,
    ValidationError,
)
from .models import OqeModel, SchmidtForm, near_identity_unitary, random_haar_unitary
from .ppt import (
    PROCESS_TENSOR_GUARD,
    PptMps,
    build_ppt,
    gauge_fidelity,
    mps_to_oqe,
    site_tensor_from_unitary,
    split_block,
    to_right_canonical,
)
from .tensor_ops import (
    _is_integer,
    closest_isometry,
    fill_unassigned_columns,
    polar_unitary,
    transfer_left,
    transfer_right,
)

SUPPORT_TOL = 1e-10  # window eigenvalues counted as support by disentangle_reconstruct
FIT_MAX_ITER = 400  # gradient steps tried per variational_fit restart
FIT_SUCCESS_TOL = 1e-10  # variational_fit loss below which a fit has converged
OUTCOME_TOL = 1e-6  # initial Schmidt coefficients kept as measurement outcomes
BRANCH_FIT_TOL = 1e-9  # exact-mode loss allowed for a conditional branch fit


# -- measurement oracle ------------------------------------------------------


class MeasurementOracle:
    """Simulated tomography primitive over a sealed hidden model.

    ``mode`` is "exact" or "sampled"; sampled mode draws ``shots``
    projective samples per reduced-density request, split over a fixed
    informationally complete Pauli-product basis (d = 2 only), and returns
    the re-Hermitised, trace-normalised linear-inversion estimate.
    ``query_log`` counts reduced-density requests.

    The hidden process is held as its right-canonical ``PptMps`` only.
    The oracle is stateful, like a laboratory: ``apply_gate`` applies one
    window gate to the current chain, ``reset`` returns to the hidden chain
    and ``reduced_density`` measures the current chain.  The left
    environments of the sites no gate has touched since they were
    contracted are kept, so a query extends the environment only up to its
    window and a sliding-window reconstruction costs time linear in
    ``n_steps``.
    """

    def __init__(
        self,
        hidden_model: OqeModel,
        n_steps: int,
        mode: str = "exact",
        shots: int | None = None,
        seed: int | None = None,
        unsealed: bool = True,
    ):
        hidden_model.validate()
        if mode not in ("exact", "sampled"):
            raise ValidationError(f"unknown oracle mode {mode!r}")
        if mode == "sampled":
            if shots is None or shots < 1:
                raise ValidationError("sampled mode requires a positive shot count")
            if hidden_model.d != 2:
                raise ValidationError("the Pauli-product sampling scheme requires d = 2")
        self._model = hidden_model
        self._mps = build_ppt(hidden_model, n_steps)
        self.d = hidden_model.d
        self.n_steps = n_steps
        self.mode = mode
        self.shots = shots
        self.query_log = 0
        self.unsealed = unsealed
        self._rng = np.random.default_rng(seed)
        self.reset()

    # -- unsealed access (testing/diagnostics only) --

    def true_mps(self) -> PptMps:
        if not self.unsealed:
            raise ValidationError("oracle is sealed; the true PPT is not accessible")
        return self._mps

    def true_model(self) -> OqeModel:
        if not self.unsealed:
            raise ValidationError("oracle is sealed; the hidden model is not accessible")
        return self._model

    # -- measurement surface --

    def reset(self) -> None:
        """Return to the hidden chain, undoing every applied gate."""
        # _chain is the state after the gates applied since the last reset;
        # _envs[k] is the left environment of _chain[:k]
        self._chain = list(self._mps.sites)
        self._envs = [np.ones((1, 1), dtype=np.complex128)]

    def apply_gate(self, start, gate) -> None:
        """Apply one window gate to the current state.

        Simulates a disentangling gate a laboratory would physically apply.
        A gate on R sites from ``start`` is a unitary on their fused
        (d^2)^R physical index; a gate that is not, that runs past the last
        step or whose start is not an integer (bools included) raises
        ``ValidationError`` and leaves the state as it was.  Not a request:
        ``query_log`` is unchanged.
        """
        start, gate = self._checked_gate(start, gate)
        _apply_gate(self._chain, start - 1, gate)
        del self._envs[start:]

    def reduced_density(self, sites: tuple[int, int]) -> np.ndarray:
        """Reduced density operator of the current state on the contiguous
        1-based range ``sites``.

        Site bounds that are not integers (bools included) or not an
        ordered range of steps raise ``ValidationError``.  Counts as one
        request.
        """
        try:
            a, b = sites
        except (TypeError, ValueError):
            raise ValidationError(f"site range {sites!r} is not a pair of sites") from None
        if not (_is_integer(a) and _is_integer(b) and 1 <= a <= b <= self.n_steps):
            raise ValidationError(f"site range {sites} outside [1, {self.n_steps}]")
        a, b = int(a), int(b)
        width = b - a + 1
        if (self.d * self.d) ** width > PROCESS_TENSOR_GUARD:
            raise CapacityError(f"window of width {width} exceeds the dense guard")
        self.query_log += 1
        env = self._left_env(a - 1)
        block = _contract_sites(self._chain[a - 1 : b])  # (l, window, r)
        l, n_phys, r = block.shape
        # env[l', l] = sum over the left physical legs of conj(X[.., l']) X[.., l]
        x = (env @ block.reshape(l, -1)).reshape(l, n_phys, r).transpose(1, 0, 2)
        rho = x.reshape(n_phys, -1) @ block.transpose(1, 0, 2).reshape(n_phys, -1).conj().T
        rho = (rho + rho.conj().T) / 2.0
        if self.mode == "exact":
            return rho
        return _pauli_sampled_estimate(rho, self.shots, self._rng)

    def _left_env(self, n: int) -> np.ndarray:
        """Left environment of the first ``n`` sites of the current chain."""
        while len(self._envs) <= n:
            t = self._chain[len(self._envs) - 1]
            self._envs.append(transfer_left(self._envs[-1], t, t))
        return self._envs[n]

    def _checked_gate(self, start, gate) -> tuple[int, np.ndarray]:
        """Validate one gate: start site, fit on the chain, unitarity.

        Returns a C-ordered copy of the gate, so the result of applying it
        does not depend on the layout of the caller's array.
        """
        if not _is_integer(start) or not 1 <= start <= self.n_steps:
            raise ValidationError(f"gate start {start!r} is not a site in [1, {self.n_steps}]")
        gate = np.array(gate, dtype=np.complex128, order="C")
        dim = gate.shape[0] if gate.ndim == 2 and gate.shape[0] == gate.shape[1] else 0
        width = window_size(self.d, dim) - 1  # smallest R with (d^2)^R >= dim
        if width < 1 or (self.d * self.d) ** width != dim:
            raise ValidationError(
                f"gate of shape {gate.shape} is not a square (d^2)^R matrix for d={self.d}"
            )
        if start + width - 1 > self.n_steps:
            raise ValidationError(
                f"gate on sites {start}..{start + width - 1} runs past step {self.n_steps}"
            )
        # written so that a NaN deviation (non-finite entries) fails as well
        if not np.max(np.abs(gate.conj().T @ gate - np.eye(dim))) <= 1e-10:
            raise ValidationError(f"gate at site {start} is not unitary")
        return int(start), gate

    def initial_system_state(self) -> np.ndarray:
        """Reduced density operator of the system factor of the initial state."""
        psi = self._model.initial_state.reshape(self._model.d, self._model.D)
        return psi @ psi.conj().T

    def conditional(self, sys_vector: np.ndarray) -> tuple["MeasurementOracle", float]:
        """Oracle for the process conditioned on measuring the initial system
        state along ``sys_vector``; also returns the outcome probability."""
        x = np.asarray(sys_vector, dtype=np.complex128).reshape(-1)
        if x.size != self._model.d:
            raise DimensionError("conditioning vector must live on the system space")
        x = x / np.linalg.norm(x)
        y = x.conj() @ self._model.initial_state.reshape(self._model.d, self._model.D)
        prob = float(np.linalg.norm(y) ** 2)
        if prob < 1e-12:
            raise ValidationError("conditioning outcome has vanishing probability")
        y = y / np.linalg.norm(y)
        sys0 = np.zeros(self._model.d, dtype=np.complex128)
        sys0[0] = 1.0
        cond_model = OqeModel.create(
            self._model.d,
            self._model.D,
            list(self._model.unitaries),
            np.kron(sys0, y),
        )
        oracle = MeasurementOracle(
            cond_model,
            self.n_steps,
            mode=self.mode,
            shots=self.shots,
            seed=int(self._rng.integers(2**63)) if self.mode == "sampled" else None,
            unsealed=self.unsealed,
        )
        return oracle, prob


def _contract_sites(sites) -> np.ndarray:
    """Block (left bond, fused physical index, right bond) of consecutive sites."""
    block = sites[0]
    for t in sites[1:]:
        block = np.tensordot(block, t, axes=1)
    return block.reshape(block.shape[0], -1, block.shape[-1])


def _apply_gate(chain: list, start: int, gate: np.ndarray, max_bond: int | None = None) -> None:
    """Apply a window unitary to the sites of ``chain`` from index ``start`` on.

    The sites are contracted into one block, the gate multiplies its fused
    physical index, and SVDs from the right split it back (``split_block``:
    singular values above 1e-12 relative, at most ``max_bond``).  A unitary
    keeps a right-canonical block right-canonical, so a right-canonical
    chain stays right-canonical.
    """
    d = chain[0].shape[1]
    width = window_size(d, gate.shape[0]) - 1
    block = gate @ _contract_sites(chain[start : start + width])
    chain[start : start + width] = split_block(block, d, width, max_bond=max_bond)


# -- sampled-mode estimator --------------------------------------------------

_BASIS_ROTATIONS = {
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0),
    "Y": np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=np.complex128) / np.sqrt(2.0),
    "Z": np.eye(2, dtype=np.complex128),
}
_BASIS_STACK = np.stack([_BASIS_ROTATIONS[c] for c in "XYZ"])
_BATCH_ENTRIES = 2**18  # matrix entries in one batch of setting rotations


def _pauli_sampled_estimate(rho: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Linear-inversion estimate of ``rho`` from Pauli-product measurements.

    The total shot budget is split evenly over the 3^n basis settings of
    the n underlying qubits.  The measured projectors, weighted by their
    observed frequencies, sum to X = sum_s R_s^dag diag(p_s) R_s; inverting
    the frame on every qubit q, X -> 3 X - tr_q(X) (x) I_q, averages every
    Pauli expectation over all settings compatible with it.  The settings
    are handled in batches of their rotations (``_rotation_batches``) by
    batched products, one multinomial call per batch drawing its counts in
    setting order, and X is accumulated setting by setting in that order.
    """
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    per_setting = max(1, shots // 3**n)
    est = np.zeros((dim, dim), dtype=np.complex128)
    for rots in _rotation_batches(n):
        p = np.real(np.sum((rots @ rho) * rots.conj(), axis=2))
        p = np.clip(p, 0.0, None)
        p = p / p.sum(axis=1, keepdims=True)
        phat = rng.multinomial(per_setting, p) / per_setting
        terms = rots.conj().transpose(0, 2, 1) @ (phat[:, :, np.newaxis] * rots)
        terms[0] += est  # the axis-0 sum then adds the terms to est in order
        est = np.sum(terms, axis=0)
    eye = np.eye(2).reshape(2, 1, 1, 2, 1)  # I_q on the axes (a, q, b, a', q', b')
    for q in range(n):
        x = est.reshape(2**q, 2, 2 ** (n - q - 1), 2**q, 2, 2 ** (n - q - 1))
        partial = np.trace(x, axis1=1, axis2=4)[:, np.newaxis, :, :, np.newaxis, :]
        est = (3.0 * x - partial * eye).reshape(dim, dim)
    est = (est + est.conj().T) / 2.0
    return est / np.trace(est).real


def _rotation_batches(n: int):
    """Stacks of the Pauli-product rotations of n qubits that together run
    through all 3^n settings in ``itertools.product("XYZ", repeat=n)``
    order.  The whole stack (``_setting_rotations``) is one batch if it
    has at most ``_BATCH_ENTRIES`` entries; otherwise each batch fixes the
    leading qubits' setting and runs through the fewest trailing qubits'
    settings that keep it within the budget (one setting at the least)."""
    m = n
    while m > 0 and 3**m * 4**n > _BATCH_ENTRIES:
        m -= 1
    if m == n:
        yield _setting_rotations(n)
        return
    for prefix in itertools.product("XYZ", repeat=n - m):
        stack = functools.reduce(np.kron, [_BASIS_ROTATIONS[c] for c in prefix])[np.newaxis]
        for _ in range(m):
            stack = _kron_stack(stack, _BASIS_STACK)
        yield stack


@functools.cache
def _setting_rotations(n: int) -> np.ndarray:
    """Read-only stack (3^n, 2^n, 2^n) of the Pauli-product basis rotations,
    one per setting in ``itertools.product("XYZ", repeat=n)`` order; kept
    for the life of the process, so only asked for within the batch budget."""
    rots = _BASIS_STACK.copy()
    for _ in range(n - 1):
        rots = _kron_stack(rots, _BASIS_STACK)
    rots.flags.writeable = False
    return rots


def _kron_stack(stack: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Entry k * len(factors) + j is ``np.kron(stack[k], factors[j])``, by
    the same single product per entry."""
    k, a, _ = stack.shape
    f, b, _ = factors.shape
    out = stack[:, np.newaxis, :, np.newaxis, :, np.newaxis] * factors[
        np.newaxis, :, np.newaxis, :, np.newaxis, :
    ]
    return out.reshape(k * f, a * b, a * b)


# -- reconstruction report ----------------------------------------------------


@dataclass
class ReconstructionReport:
    recovered_mps: PptMps
    recovered_model: OqeModel | None
    state_fidelity: float | None
    per_site_unitarity_residual: list[float]
    loss_trace: list[float] = field(default_factory=list)
    gauge_note: str = ""
    converged: bool = True
    queries: int = 0

    def to_json_dict(self) -> dict:
        doc = {
            "state_fidelity": self.state_fidelity,
            "per_site_unitarity_residual": self.per_site_unitarity_residual,
            "loss_trace": self.loss_trace,
            "gauge_note": self.gauge_note,
            "converged": self.converged,
            "queries": self.queries,
            "recovered_mps": self.recovered_mps.to_json_dict(),
        }
        if self.recovered_model is not None:
            doc["recovered_model"] = self.recovered_model.to_json_dict()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# -- disentangling tomography --------------------------------------------------


def window_size(d: int, env_bound: int) -> int:
    """Smallest R with (d^2)^(R-1) >= env_bound."""
    k, cap = 0, 1
    while cap < env_bound:
        cap *= d * d
        k += 1
    return k + 1


def disentangle_reconstruct(
    oracle: MeasurementOracle,
    N: int,
    D_bound: int,
    entangled_initial: bool = False,
) -> ReconstructionReport:
    """Reconstruct the PPT through the sliding-window disentangling circuit.

    ``D_bound`` bounds the hidden environment size; with
    ``entangled_initial`` the effective bound is ``d * D_bound`` to account
    for the absorbed initial system leg.  Exactly f + 1 reduced-density
    requests are issued: one per window plus one for the trailing block.
    The oracle is reset first and holds the f window gates afterwards.
    """
    if N != oracle.n_steps:
        raise ValidationError(f"oracle answers {oracle.n_steps} steps, not {N}")
    d = oracle.d
    d2 = d * d
    bound = int(D_bound) * (d if entangled_initial else 1)
    if bound < 1:
        raise ValidationError("environment bound must be positive")
    R = window_size(d, bound)
    if N < R:
        raise ValidationError(f"need at least R={R} steps for environment bound {bound}")
    f = N - R + 1
    limit = d2 ** (R - 1)
    notes: list[str] = []

    gates: list[tuple[int, np.ndarray]] = []
    queries_before = oracle.query_log
    oracle.reset()
    for j in range(1, f + 1):
        rho_w = oracle.reduced_density((j, j + R - 1))
        evals, vecs = _eigh_descending(rho_w)
        n_support = int(np.count_nonzero(evals > SUPPORT_TOL))
        n_support = max(n_support, 1)
        if n_support > limit:
            if oracle.mode == "exact":
                raise BoundViolationError(
                    f"window {j}: support dimension {n_support} exceeds {limit}; "
                    "the environment bound is too small"
                )
            notes.append(
                f"window {j}: sampled support {n_support} truncated to the bound {limit}"
            )
            n_support = limit
        if n_support > 1 and np.any(np.abs(np.diff(evals[:n_support])) < 1e-10):
            notes.append(f"window {j}: near-degenerate support spectrum, canonical ordering used")
        basis = fill_unassigned_columns(vecs, np.arange(vecs.shape[1]) < n_support)
        gate = basis.conj().T
        gates.append((j, gate))
        oracle.apply_gate(j, gate)

    if f < N:
        rho_tail = oracle.reduced_density((f + 1, N))
        evals, vecs = _eigh_descending(rho_tail)
        keep = int(np.count_nonzero(evals > SUPPORT_TOL))
        keep = min(max(keep, 1), limit)
        lam = np.sqrt(np.clip(evals[:keep], 0.0, None))
        lam = lam / np.linalg.norm(lam)
        tail = vecs[:, :keep] * lam  # columns lam_s |a_s>
        env_dim = keep
        tail_sites = split_block(tail.reshape(1, -1, env_dim), d, R - 1, max_bond=env_dim)
    else:
        # Single-site windows disentangle everything; the trailing query is a
        # consistency check on the last site.
        oracle.reduced_density((N, N))
        env_dim = 1
        tail_sites = []

    zero = np.zeros((1, d, d, 1), dtype=np.complex128)
    zero[0, 0, 0, 0] = 1.0
    chain = [zero] * f + tail_sites
    for j, gate in reversed(gates):
        _apply_gate(chain, j - 1, gate.conj().T, max_bond=env_dim)
    nrm = float(np.linalg.norm(chain[0]))  # below 1 where a sampled state was truncated
    if nrm < 1e-12:
        raise DegenerateStateError("reconstructed state has numerically zero norm")
    chain[0] = chain[0] / nrm

    mps = PptMps(sites=tuple(chain), d=d, canonical="right")
    model, residuals = mps_to_oqe(mps)
    fidelity = gauge_fidelity(mps, oracle.true_mps()) if oracle.unsealed else None
    notes.append("environment basis pinned to the computational frame")
    return ReconstructionReport(
        recovered_mps=mps,
        recovered_model=model,
        state_fidelity=fidelity,
        per_site_unitarity_residual=residuals,
        gauge_note="; ".join(notes),
        queries=oracle.query_log - queries_before,
    )


def _eigh_descending(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigendecomposition with a deterministic phase convention."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for k in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, k])))
        if abs(v[idx, k]) > 0:
            v[:, k] = v[:, k] * (v[idx, k].conjugate() / abs(v[idx, k]))
    return w, v


# -- variational fitting -------------------------------------------------------


def _ansatz_sites(u_list, d: int, D: int, n_steps: int) -> list[np.ndarray]:
    sites = []
    for n in range(n_steps):
        u = u_list[0] if len(u_list) == 1 else u_list[n]
        sites.append(site_tensor_from_unitary(u, d, D))
    sites[0] = sites[0][0:1]  # initial environment pinned to |0>
    return sites


def _forward_envs(target_chain, ansatz_sites):
    """Left environments: envs[n] contracts the first n sites of target and ansatz."""
    env = np.ones((1, 1), dtype=np.complex128)
    envs = [env]
    for tn, an in zip(target_chain, ansatz_sites):
        env = transfer_left(env, tn, an)
        envs.append(env)
    return envs


def _backward_envs(target_chain, ansatz_sites, of):
    """Right environments: envs[n] contracts sites n.. of target and ansatz with ``of``."""
    envs = [of]
    for tn, an in zip(target_chain[::-1], ansatz_sites[::-1]):
        envs.append(transfer_right(envs[-1], tn, an))
    return envs[::-1]


def _unitary_gradient(left, target_site, right):
    """Gradient of the (linear) overlap in the matrix M[(o, b), (i, a)] = sqrt(d) B[a, o, i, b]
    of one ansatz site B, from the environments on either side of it."""
    l, d, _, r = target_site.shape
    q, s = left.shape[1], right.shape[1]
    g = (left.T @ target_site.reshape(l, -1).conj()).reshape(-1, r) @ right  # (a, o, i, b)
    return g.reshape(q, d, d, s).transpose(1, 3, 2, 0).reshape(d * s, d * q) / np.sqrt(d)


def _backward_grads(chain, sites, of, fwd, d, D, shared, u_count):
    grads_u = [np.zeros((d * D, d * D), dtype=np.complex128) for _ in range(u_count)]
    bwd = _backward_envs(chain[1:], sites[1:], of)
    for n, (tn, right) in enumerate(zip(chain, bwd)):
        h = _unitary_gradient(fwd[n], tn, right)
        # the boundary site's left bond is pinned to |0>: it feeds columns (i, alpha=0)
        grads_u[0 if shared else n][:, :: D if n == 0 else 1] += h
    return grads_u


def _optimal_final_unitary(lmat: np.ndarray) -> tuple[np.ndarray, float]:
    """Final environment unitary maximising Re<target|ansatz>.

    The overlap is linear in the final unitary, Re sum Of[p,q] L[p,q], so
    the maximiser follows from the SVD and the attained value is the
    nuclear norm of L.
    """
    u_, s_, vh_ = np.linalg.svd(lmat.T)
    return (u_ @ vh_).conj().T, float(s_.sum())


def _retract(u: np.ndarray, direction: np.ndarray, step: float) -> np.ndarray:
    m = u + step * direction
    u_, s, vh = np.linalg.svd(m)
    return u_ @ vh


def variational_fit(
    target: PptMps,
    N: int,
    D: int,
    time_independent: bool,
    seed=0,
    warm_start: tuple[list[np.ndarray], np.ndarray] | None = None,
    n_restarts: int = 5,
) -> ReconstructionReport:
    """Fit parametric step unitaries (plus a final environment unitary) to a
    target PPT by gradient ascent on the overlap with polar retraction.

    The warm start defaults to the polar projections of the reshaped target
    site matrices, with the environment gauge aligned so the ansatz initial
    state |0> is consistent.  Restarts perturb the warm start; the best loss
    wins.  The fit is not deterministic in general and may stall in a local
    minimum, in which case the report flags ``converged = False``.
    """
    if N != target.n_steps:
        raise ValidationError(f"target has {target.n_steps} steps, not {N}")
    if target.env_dim != D:
        raise DimensionError(f"target environment dimension {target.env_dim} != D={D}")
    if target.canonical != "right":
        target = to_right_canonical(target)
    d = target.d
    rng = np.random.default_rng(seed)

    if warm_start is not None:
        u0, of0 = [u.copy() for u in warm_start[0]], warm_start[1].copy()
        residuals: list[float] = []
    else:
        u0, of0, residuals = _warm_start(target, d, D, time_independent)
    if time_independent and len(u0) != 1:
        raise ValidationError("time-independent fit takes a single warm-start unitary")
    if not time_independent and len(u0) != N:
        raise ValidationError(f"time-dependent fit takes {N} warm-start unitaries")

    nt2 = target.norm() ** 2
    best = None
    for attempt in range(n_restarts + 1):
        if attempt == 0:
            u_list = [u.copy() for u in u0]
        elif attempt <= (n_restarts + 1) // 2:  # perturb the warm start
            scale = 0.1 * attempt
            u_list = [u @ near_identity_unitary(u.shape[0], scale, rng) for u in u0]
        else:  # fresh random basins
            u_list = [random_haar_unitary(u.shape[0], rng) for u in u0]
        trace, of = _descend(target, u_list, d, D, time_independent, nt2)
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], [u.copy() for u in u_list], of, trace)
        if best[0] < FIT_SUCCESS_TOL:
            break

    loss, u_list, of, trace = best
    mps = _ansatz_mps(u_list, of, d, D, N)
    psi0 = np.zeros(d * D, dtype=np.complex128)
    psi0[0] = 1.0
    model = OqeModel.create(d, D, u_list, psi0)
    note = "ansatz initial state fixed to |0>; recovered unitaries carry an environment gauge"
    converged = loss < FIT_SUCCESS_TOL
    if not converged:
        note += f"; stalled at loss {loss:.3e} after {n_restarts} restarts"
    return ReconstructionReport(
        recovered_mps=mps,
        recovered_model=model,
        state_fidelity=gauge_fidelity(mps, target),
        per_site_unitarity_residual=residuals,
        loss_trace=trace,
        gauge_note=note,
        converged=converged,
    )


def _descend(target, u_list, d, D, shared, nt2) -> tuple[list[float], np.ndarray]:
    """Gradient descent on the step unitaries with polar retraction.

    The final environment unitary enters the overlap linearly, so it is set
    to its exact maximiser at every evaluation; the step-unitary gradient
    taken at that point is the gradient of the envelope.  ``u_list`` is
    updated in place; returns the loss trace and the final unitary.
    """
    chain = target.chain()

    def evaluate(ul):
        sites = _ansatz_sites(ul, d, D, len(chain))
        fwd = _forward_envs(chain, sites)
        of, nuclear = _optimal_final_unitary(fwd[-1])
        return nt2 + 1.0 - 2.0 * nuclear, of, sites, fwd

    loss, of, sites, fwd = evaluate(u_list)
    grads = _backward_grads(chain, sites, of, fwd, d, D, shared, len(u_list))
    step = 0.2
    trace = [loss]
    for _ in range(FIT_MAX_ITER):
        if loss < 1e-14 or step < 1e-12:
            break
        cand_u = [_retract(u, g.conj(), step) for u, g in zip(u_list, grads)]
        cand_loss, cand_of, cand_sites, cand_fwd = evaluate(cand_u)
        if cand_loss < loss - 1e-16:
            u_list[:] = cand_u
            loss, of, sites, fwd = cand_loss, cand_of, cand_sites, cand_fwd
            trace.append(loss)
            grads = _backward_grads(chain, sites, of, fwd, d, D, shared, len(u_list))
            step = min(step * 1.5, 2.0)
        else:
            step *= 0.5
    if trace[-1] != loss:
        trace.append(loss)
    return trace, of


def _ansatz_mps(u_list, of, d, D, n_steps) -> PptMps:
    sites = _ansatz_sites(u_list, d, D, n_steps)
    last = np.einsum("aoib,cb->aoic", sites[-1], of)
    sites[-1] = last
    return PptMps(sites=tuple(sites), d=d, canonical="right")


def _warm_start(target: PptMps, d: int, D: int, time_independent: bool):
    """Polar warm start from the reshaped target sites, gauge aligned.

    For the time-independent ansatz the shared unitary is the polar mean of
    the bulk site matrices; the initial environment vector implied by the
    boundary site is rotated onto |0>, which also fixes the final gauge
    unitary.
    """
    model, residuals = mps_to_oqe(target)
    if model.D != D:
        raise DimensionError(f"target bond dimension {model.D} incompatible with D={D}")
    if not time_independent:
        return list(model.unitaries), np.eye(D, dtype=np.complex128), residuals

    if len(model.unitaries) >= 2:
        try:
            u_shared = polar_unitary(np.mean(np.stack(model.unitaries[1:]), axis=0))
        except SingularityError:  # wildly inconsistent site gauges average to ~0
            u_shared = model.unitaries[1]
    else:
        u_shared = model.unitaries[0]
    # Initial environment vector in the shared gauge, read off the boundary site:
    # (i', beta), i -> delta_{i', i} psi_beta.
    uv = u_shared.conj().T @ _branch_injection(target.sites[0], d, D)
    psi = np.zeros(D, dtype=np.complex128)
    for i in range(d):
        psi += uv[i * D : (i + 1) * D, i]
    nrm = np.linalg.norm(psi)
    if nrm < 1e-8:
        return [u_shared], np.eye(D, dtype=np.complex128), residuals
    first = np.arange(D) == 0
    w = fill_unassigned_columns(np.outer(psi / nrm, first), first)
    lifted = np.kron(np.eye(d), w)
    return [lifted.conj().T @ u_shared @ lifted], w, residuals


def predict_future(report: ReconstructionReport, n_future: int) -> PptMps:
    """Extend a time-independent recovered model to ``n_future`` steps."""
    if report.recovered_model is None:
        raise UnsupportedPredictionError("report carries no recovered model")
    if not report.recovered_model.time_independent:
        raise UnsupportedPredictionError("prediction requires a time-independent model")
    return build_ppt(report.recovered_model, n_future)


# -- entangled initial states ---------------------------------------------------


def reconstruct_entangled_initial(
    oracle: MeasurementOracle,
    D_bound: int | None = None,
) -> tuple[SchmidtForm, OqeModel]:
    """Recover an entangled initial state together with the step unitaries.

    Measuring the initial system state in its eigenbasis collapses the
    environment to one pure branch per outcome.  The first branch is
    tomographed and fixes the step unitaries, with the recovered
    environment basis pinned so that branch starts in |0>.  Every further
    branch is tomographed and fitted while the later step unitaries are
    held fixed; the free parameters are the first-step injection of the new
    branch (the step unitary applied to the unknown initial environment
    vector, which is the identifiable combination) together with a final
    environment unitary.  Recovered branches are installed on successive
    computational basis vectors, orthogonal to all previous ones, so the
    assembled initial state is sum_s lambda_s |x_s> |s>.
    """
    rho_s = oracle.initial_system_state()
    evals, xs = _eigh_descending(rho_s)
    lam = np.sqrt(np.clip(evals, 0.0, None))
    n_out = max(int(np.count_nonzero(lam > OUTCOME_TOL)), 1)
    lam = lam[:n_out] / np.linalg.norm(lam[:n_out])
    xs = xs[:, :n_out]
    if D_bound is None:
        D_bound = oracle.true_model().D

    cond0, _ = oracle.conditional(xs[:, 0])
    rep0 = disentangle_reconstruct(cond0, oracle.n_steps, D_bound)
    d = oracle.d
    D0 = rep0.recovered_model.D
    if D0 < n_out:
        raise ConvergenceError(
            f"recovered environment dimension {D0} cannot hold {n_out} branches"
        )
    later_sites = [
        site_tensor_from_unitary(u, d, D0) for u in rep0.recovered_model.unitaries[1:]
    ]
    injections = [_branch_injection(rep0.recovered_mps.sites[0], d, D0)]

    for s in range(1, n_out):
        cond, _ = oracle.conditional(xs[:, s])
        rep = disentangle_reconstruct(cond, oracle.n_steps, D_bound)
        inj, loss = _fit_branch_injection(rep.recovered_mps, later_sites, d, D0)
        if loss > BRANCH_FIT_TOL and oracle.mode == "exact":
            raise ConvergenceError(
                f"recovered {s}/{n_out} outcomes; the conditional fit for outcome {s} "
                f"stalled at loss {loss:.3e}",
                residual=loss,
            )
        injections.append(inj)

    u1 = _assemble_first_unitary(injections, d, D0)
    u_list = [u1, *rep0.recovered_model.unitaries[1:]]
    env_basis = np.eye(D0, dtype=np.complex128)[:, :n_out]
    psi = np.zeros(d * D0, dtype=np.complex128)
    for s in range(n_out):
        psi += lam[s] * np.kron(xs[:, s], env_basis[:, s])
    model = OqeModel.create(d, D0, u_list, psi)
    form = SchmidtForm(lambdas=lam, sys_basis=xs, env_basis=env_basis)
    return form, model


def _branch_injection(site1: np.ndarray, d: int, D: int) -> np.ndarray:
    """First-step injection isometry L[(o, b), i] = sqrt(d) B_1[0, o, i, b]."""
    inj = np.sqrt(d) * site1.transpose(1, 3, 2, 0).reshape(d * site1.shape[3], d)
    if site1.shape[3] < D:
        pad = np.zeros((d * D, d), dtype=np.complex128)
        pad_view = pad.reshape(d, D, d)
        pad_view[:, : site1.shape[3], :] = inj.reshape(d, site1.shape[3], d)
        inj = pad
    return inj


def _fit_branch_injection(target: PptMps, later_sites, d: int, D: int):
    """Best first-step injection isometry and final environment unitary
    matching ``target``, with the later step tensors held fixed.

    The overlap is linear in both unknowns, so alternating closed-form
    updates (closest isometry and polar factor) converge in a few rounds.
    """
    if len(later_sites) != target.n_steps - 1:
        raise DimensionError("later-site count does not match the target length")
    chain = target.chain()
    nt2 = target.norm() ** 2
    of = np.eye(D, dtype=np.complex128)
    loss = np.inf
    left = np.ones((1, 1), dtype=np.complex128)
    for _ in range(100):
        right = _backward_envs(chain[1:], later_sites, of)[0]
        grad_inj = _unitary_gradient(left, chain[0], right)
        inj = closest_isometry(grad_inj.conj())
        first = (inj.reshape(d, D, d) / np.sqrt(d)).transpose(0, 2, 1)  # (o, i, b)
        env = _forward_envs(chain, [first[np.newaxis], *later_sites])[-1]
        of, nuclear = _optimal_final_unitary(env)
        loss, prev = nt2 + 1.0 - 2.0 * nuclear, loss
        if abs(prev - loss) < 1e-15:
            break
    return inj, loss


def _assemble_first_unitary(injections, d: int, D: int) -> np.ndarray:
    """First step unitary with branch s installed on columns (i, e_s).

    The collected injection columns are jointly re-orthonormalised (they
    are orthogonal across branches up to reconstruction error) and the
    remaining columns completed deterministically.
    """
    n_out = len(injections)
    block = np.column_stack([inj[:, i] for i in range(d) for inj in injections])
    block = closest_isometry(block)
    full = np.zeros((d * D, d * D), dtype=np.complex128)
    assigned = np.zeros(d * D, dtype=bool)
    col = 0
    for i in range(d):
        for s in range(n_out):
            full[:, i * D + s] = block[:, col]
            assigned[i * D + s] = True
            col += 1
    return fill_unassigned_columns(full, assigned)
