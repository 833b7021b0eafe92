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
in Schollwoeck, Ann. Phys. 326, 96 (2011)).  A sampled estimate never
forms a setting's rotation: its outcome probabilities and inverted frame
are products of per-qubit maps (the structure of projected least squares,
Guta, Kahn, Kueng & Tropp, J. Phys. A 53, 204001 (2020)).

The disentangling algorithm walks a window of R sites across the chain,
from step 1 or, to recover an entangled initial state, from step 0.  Each
window's reduced density operator has support of dimension at most the
hidden bond, so a window unitary can rotate that support into the subspace
whose first site is |0>.  After f gates (one per window) the state is a
product of |0>s with an entangled block on the trailing R - 1 sites;
diagonalising that block fixes the Schmidt vectors and values, the
environment basis is pinned to the computational one, and undoing the gates
on the MPS of that product yields the state.

The variational route refits a time-independent model directly: the ansatz
is a sequentially generated state with one parametric step unitary shared
by every step and a final unitary on the environment.  The step unitary
follows gradient ascent on the overlap with a polar retraction back onto
the unitary manifold; the final unitary enters the overlap linearly and is
therefore set to its exact maximiser at every evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BoundViolationError,
    CapacityError,
    DegenerateStateError,
    DimensionError,
    SingularityError,
    UnsupportedPredictionError,
    ValidationError,
)
from .models import OqeModel, SchmidtForm, _as_rng, near_identity_unitary, random_haar_unitary
from .ppt import (
    CLUSTER_TOL,
    PROCESS_TENSOR_GUARD,
    PptMps,
    _contract_sites,
    _left_envs,
    _read_unitaries,
    _site_matrix,
    absorb_initial_leg,
    build_ppt,
    gauge_fidelity,
    mps_to_oqe,
    site_tensor_from_unitary,
    split_block,
    to_right_canonical,
)
from .tensor_ops import (
    _cluster_rotation,
    _clusters,
    _is_integer,
    closest_isometry,
    fill_unassigned_columns,
    json_text,
    polar_unitary,
)

SUPPORT_TOL = 1e-10  # window eigenvalues counted as support by disentangle_reconstruct
SAMPLED_QUBIT_GUARD = 9  # widest sampled window: its estimate holds ~3.3 x 6^n complex entries
FIT_MAX_ITER = 400  # gradient steps tried per variational_fit restart
FIT_RESTARTS = 5  # variational_fit attempts after the warm start
FIT_SUCCESS_TOL = 1e-10  # variational_fit loss below which a fit has converged


# -- measurement oracle ------------------------------------------------------


class MeasurementOracle:
    """Simulated tomography primitive over a sealed hidden model.

    ``shots=None`` answers exactly; a positive integer ``shots`` draws that
    many projective samples per reduced-density request, split over a fixed
    informationally complete Pauli-product basis (d = 2 only), and returns
    the re-Hermitised, trace-normalised linear-inversion estimate.
    ``query_log`` counts reduced-density requests.

    The hidden process is held only as its right-canonical ``PptMps``, the
    chain ``build_ppt`` makes with the initial system leg exposed as step 0
    (chain index n is step n).  The oracle is stateful, like a laboratory:
    ``apply_gate`` applies one window gate, ``reset`` undoes the gates and
    ``reduced_density`` measures the current chain.  The left environments
    of the sites nothing has touched since they were contracted are kept and
    a query's left sweep extends them only up to its window, so a repeated
    query sweeps no site and a sliding-window reconstruction costs time
    linear in ``n_steps``.
    """

    def __init__(
        self,
        hidden_model: OqeModel,
        n_steps: int,
        shots: int | None = None,
        seed: int | None = None,
        unsealed: bool = True,
    ):
        if shots is not None:
            if not (_is_integer(shots) and shots >= 1):
                raise ValidationError(
                    f"shots must be None (exact) or a positive integer, got {shots!r}"
                )
            if hidden_model.d != 2:
                raise ValidationError("the Pauli-product sampling scheme requires d = 2")
        self._model = hidden_model
        self.d = hidden_model.d
        self.n_steps = n_steps
        self.shots = shots
        self.query_log = 0
        self.unsealed = unsealed
        self._rng = _as_rng(seed)
        self._truth = build_ppt(hidden_model, n_steps, expose_initial_leg=True)
        self.reset()

    # -- unsealed access (testing/diagnostics only) --

    def true_mps(self) -> PptMps:
        """The hidden chain with step 0 exposed, as ``build_ppt`` makes it."""
        if not self.unsealed:
            raise ValidationError("oracle is sealed; the true PPT is not accessible")
        return self._truth

    def true_model(self) -> OqeModel:
        if not self.unsealed:
            raise ValidationError("oracle is sealed; the hidden model is not accessible")
        return self._model

    # -- measurement surface --

    def reset(self) -> None:
        """Undo every applied gate."""
        # _chain is the state after the gates applied since the last reset;
        # _envs[k] is the left environment of _chain[:k]
        self._chain = self._truth.chain()
        self._envs = [np.ones((1, 1), dtype=np.complex128)]

    def apply_gate(self, start, gate) -> None:
        """Apply one window gate to the current state.

        Simulates a disentangling gate a laboratory would physically apply.
        A gate on R steps from ``start`` >= 0 is a unitary on their fused
        physical index, of dimension (d^2)^R from step 1 on and d (d^2)^(R-1)
        from step 0 (the initial system leg); a gate that is not, that runs
        past the last step or whose start is not an integer (bools included)
        raises ``ValidationError`` and leaves the state as it was.  Not a
        request: ``query_log`` is unchanged.
        """
        start, width, gate = self._checked_gate(start, gate)
        _apply_gate(self._chain, start, width, gate)
        del self._envs[start + 1 :]

    def reduced_density(self, sites: tuple[int, int]) -> np.ndarray:
        """Reduced density operator of the current state on the contiguous
        range of steps ``sites``; step 0 is the initial system leg.

        Site bounds that are not integers (bools included) or not an
        ordered range of steps raise ``ValidationError``; a window over the
        dense guard, or a sampled one of more than ``SAMPLED_QUBIT_GUARD``
        qubits, raises ``CapacityError``.  Counts as one request, unless it
        raises.
        """
        try:
            a, b = sites
        except (TypeError, ValueError):
            raise ValidationError(f"site range {sites!r} is not a pair of sites") from None
        if not (_is_integer(a) and _is_integer(b) and 0 <= a <= b <= self.n_steps):
            raise ValidationError(f"site range {sites} outside [0, {self.n_steps}]")
        a, b = int(a), int(b)
        legs = 2 * (b - a + 1) - (a == 0)  # physical legs in the window
        if self.d**legs > PROCESS_TENSOR_GUARD:
            raise CapacityError(f"window {sites} exceeds the dense guard")
        if self.shots is not None and legs > SAMPLED_QUBIT_GUARD:
            raise CapacityError(f"sampled window {sites} exceeds {SAMPLED_QUBIT_GUARD} qubits")
        self.query_log += 1
        unswept = self._chain[len(self._envs) - 1 : a]  # before the window, no kept env yet
        self._envs[-1:] = _left_envs(self._envs[-1], unswept, unswept)
        block = _contract_sites(self._chain[a : b + 1])  # (l, window, r)
        l, n_phys, r = block.shape
        # _envs[a][l', l] = sum over the left physical legs of conj(X[.., l']) X[.., l]
        x = (self._envs[a] @ block.reshape(l, -1)).reshape(l, n_phys, r).transpose(1, 0, 2)
        rho = x.reshape(n_phys, -1) @ block.transpose(1, 0, 2).reshape(n_phys, -1).conj().T
        rho = (rho + rho.conj().T) / 2.0
        if self.shots is None:
            return rho
        return _pauli_sampled_estimate(rho, self.shots, self._rng)

    def _checked_gate(self, start, gate) -> tuple[int, int, np.ndarray]:
        """Validate one gate: start site, fit on the chain, unitarity.

        Returns the start, the number of sites the gate spans (``_gate_width``)
        and a C-ordered copy of the gate, so the result of applying it does
        not depend on the layout of the caller's array.
        """
        if not _is_integer(start) or not 0 <= start <= self.n_steps:
            raise ValidationError(f"gate start {start!r} is not a site in [0, {self.n_steps}]")
        gate = np.array(gate, dtype=np.complex128, order="C")
        dim = gate.shape[0] if gate.ndim == 2 and gate.shape[0] == gate.shape[1] else 0
        width = _gate_width(self._chain, start, dim)
        if not width:
            raise ValidationError(
                f"gate of shape {gate.shape} spans no whole run of steps from step {start} "
                f"to step {self.n_steps} at most (d={self.d})"
            )
        # written so that a NaN deviation (non-finite entries) fails as well
        if not np.max(np.abs(gate.conj().T @ gate - np.eye(dim))) <= 1e-10:
            raise ValidationError(f"gate at site {start} is not unitary")
        return int(start), width, gate


def _gate_width(chain, start: int, dim: int) -> int:
    """Number of sites of ``chain`` from index ``start`` on whose fused
    physical indices a gate of dimension ``dim`` spans; 0 where it spans no
    whole number of them before the chain ends."""
    size = 1
    for width, t in enumerate(chain[start:], start=1):
        size *= t.shape[1] * t.shape[2]
        if size >= dim:
            return width if size == dim else 0
    return 0


def _apply_gate(
    chain: list, start: int, width: int, gate: np.ndarray, max_bond: int | None = None
) -> None:
    """Apply a window unitary to the ``width`` sites of ``chain`` from index ``start`` on.

    The sites are contracted into one block, the gate multiplies its fused
    physical index, and SVDs from the right split it back into sites of the
    same physical shapes (``split_block``: singular values above 1e-12
    relative, at most ``max_bond``).  A unitary keeps a right-canonical
    block right-canonical, so a right-canonical chain stays right-canonical.
    """
    sites = chain[start : start + width]
    block = gate @ _contract_sites(sites)
    shapes = [t.shape[1:3] for t in sites]
    chain[start : start + width] = split_block(block, shapes, max_bond=max_bond)


# -- sampled-mode estimator --------------------------------------------------

# R[s, k, a]: outcome k of setting s in X, Y, Z order
_R = np.stack([[[1, 1], [1, -1]], [[1, -1j], [1, 1j]], np.sqrt(2) * np.eye(2)]) / np.sqrt(2)
# per qubit, over (setting, outcome) and operator entries (a, b): the outcome
# probabilities P[s, k, a, b] = R_s[k, a] conj(R_s[k, b]) and the inverted frame
# Q[a, b, s, k] = 3 conj(R_s[k, a]) R_s[k, b] - delta_ab (X -> 3 X - tr(X) I folded in)
_OUTCOME_MAP = np.einsum("ska,skb->skab", _R, _R.conj())
_INVERSE_FRAME = 3.0 * np.einsum("ska,skb->absk", _R.conj(), _R) - np.eye(2)[..., None, None]


def _pauli_sampled_estimate(rho: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Linear-inversion estimate of ``rho`` from Pauli-product measurements.

    The shot budget is split evenly over the 3^n settings of the n qubits
    (``itertools.product("XYZ", repeat=n)`` order), whose counts one
    multinomial call draws.  The estimate sum_s R_s^dag diag(phat_s) R_s,
    with the frame inverted on every qubit, X -> 3 X - tr_q(X) (x) I_q,
    averages every Pauli expectation over its compatible settings.  Both
    maps are products of per-qubit tables: about 3.3 x 6^n complex entries.
    """
    n = int(round(np.log2(rho.shape[0])))
    per_setting = max(1, shots // 3**n)
    p = np.clip(_per_qubit(_OUTCOME_MAP, rho, n).real, 0.0, None)
    phat = rng.multinomial(per_setting, p / p.sum(axis=1, keepdims=True)) / per_setting
    est = _per_qubit(_INVERSE_FRAME, phat, n)
    est = (est + est.conj().T) / 2.0
    return est / np.trace(est).real


def _per_qubit(table: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """y[(u_1..u_n), (v_1..v_n)] = sum prod_q table[u_q, v_q, i_q, j_q]
    x[(i_1..i_n), (j_1..j_n)], for row and column indices that are products
    over n qubits, the first qubit most significant."""
    u, v, i, j = table.shape
    x = x.reshape((i,) * n + (j,) * n).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    for _ in range(n):  # maps the last unmapped qubit and moves it to the front
        x = (x.reshape(-1, i * j) @ table.reshape(u * v, i * j).T).T
    x = x.reshape((u, v) * n).transpose(np.arange(2 * n).reshape(n, 2).T.ravel())
    return x.reshape(u**n, v**n)


# -- reconstruction report ----------------------------------------------------


@dataclass
class ReconstructionReport:
    recovered_mps: PptMps
    recovered_model: OqeModel
    state_fidelity: float | None
    per_site_unitarity_residual: list[float]
    loss_trace: list[float] = field(default_factory=list)
    gauge_note: str = ""
    converged: bool = True
    queries: int = 0

    def to_json_dict(self) -> dict:
        return {
            "state_fidelity": self.state_fidelity,
            "per_site_unitarity_residual": self.per_site_unitarity_residual,
            "loss_trace": self.loss_trace,
            "gauge_note": self.gauge_note,
            "converged": self.converged,
            "queries": self.queries,
            "recovered_mps": self.recovered_mps.to_json_dict(),
            "recovered_model": self.recovered_model.to_json_dict(),
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())


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

    ``D_bound`` bounds the hidden environment size.  The windows of R
    steps walk the chain from step 1, or with ``entangled_initial`` from
    step 0 (the initial system leg), and the recovered ``PptMps`` then
    carries that leg as its ``leading_site``.  Exactly f + 1
    reduced-density requests are issued, one per window plus one for the
    trailing block, with f = N - R + 1 windows from step 1 and N - R + 2
    from step 0.  The oracle is reset first and holds the f window gates
    afterwards.
    """
    if not (_is_integer(N) and N == oracle.n_steps):
        raise ValidationError(f"oracle answers {oracle.n_steps} steps, not {N!r}")
    if not (_is_integer(D_bound) and D_bound >= 1):
        raise ValidationError(f"environment bound must be a positive integer, got {D_bound!r}")
    d = oracle.d
    first = 0 if entangled_initial else 1  # the step the windows start from
    R = window_size(d, int(D_bound))
    f = N - first - R + 2
    if f < 1:
        raise ValidationError(f"need at least R={R} steps for environment bound {D_bound}")
    limit = (d * d) ** (R - 1)
    notes: list[str] = []

    gates: list[tuple[int, np.ndarray]] = []
    queries_before = oracle.query_log
    oracle.reset()
    for j in range(first, first + f):
        rho_w = oracle.reduced_density((j, j + R - 1))
        evals, vecs = _eigh_descending(rho_w)
        n_support = int(np.count_nonzero(evals > SUPPORT_TOL))
        n_support = max(n_support, 1)
        if n_support > limit:
            if oracle.shots is None:
                raise BoundViolationError(
                    f"window {j}: support dimension {n_support} exceeds {limit}; "
                    "the environment bound is too small"
                )
            notes.append(
                f"window {j}: sampled support {n_support} truncated to the bound {limit}"
            )
            n_support = limit
        if _clusters(evals[:n_support], CLUSTER_TOL):
            notes.append(f"window {j}: near-degenerate support spectrum, basis pinned")
        basis = fill_unassigned_columns(vecs, np.arange(vecs.shape[1]) < n_support)
        gate = basis.conj().T
        gates.append((j, gate))
        oracle.apply_gate(j, gate)

    if R > 1:
        rho_tail = oracle.reduced_density((first + f, N))
        evals, vecs = _eigh_descending(rho_tail)
        keep = int(np.count_nonzero(evals > SUPPORT_TOL))
        keep = min(max(keep, 1), limit)
        lam = np.sqrt(np.clip(evals[:keep], 0.0, None))
        lam = lam / np.linalg.norm(lam)
        tail = vecs[:, :keep] * lam  # columns lam_s |a_s>
        env_dim = keep
        tail_sites = split_block(
            tail.reshape(1, -1, env_dim), [(d, d)] * (R - 1), max_bond=env_dim
        )
    else:
        # Single-site windows disentangle everything; the trailing query is a
        # consistency check on the last site.
        oracle.reduced_density((N, N))
        env_dim = 1
        tail_sites = []

    zero = np.zeros((1, d, d, 1), dtype=np.complex128)
    zero[0, 0, 0, 0] = 1.0
    chain = [zero] * f + tail_sites
    if entangled_initial:
        chain[0] = zero[:, :, :1]  # step 0 has no input leg
    for j, gate in reversed(gates):
        _apply_gate(chain, j - first, R, gate.conj().T, max_bond=env_dim)
    nrm = float(np.linalg.norm(chain[0]))  # below 1 where a sampled state was truncated
    if nrm < 1e-12:
        raise DegenerateStateError("reconstructed state has numerically zero norm")
    chain[0] = chain[0] / nrm

    mps = PptMps(runs=tuple((t, 1) for t in chain))
    model, residuals = mps_to_oqe(mps)
    fidelity = None
    if oracle.unsealed:
        truth = oracle.true_mps()
        fidelity = gauge_fidelity(mps, truth if entangled_initial else absorb_initial_leg(truth))
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
    """Descending eigendecomposition of an exactly Hermitian ``rho``, as
    ``MeasurementOracle.reduced_density`` returns it, in a pinned gauge:
    ``_cluster_rotation`` fixes the basis where support eigenvalues agree
    within ``CLUSTER_TOL``, and each eigenvector's largest entry is made real
    and positive (by ``np.hypot``: ``np.abs`` rounds differently)."""
    w, v = np.linalg.eigh(rho)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    k = int(np.count_nonzero(w > SUPPORT_TOL))
    clusters = _clusters(w[:k], CLUSTER_TOL)
    if clusters:
        v[:, :k] = v[:, :k] @ _cluster_rotation(clusters, v[:, :k])
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return w, v * (peak.conj() / np.hypot(peak.real, peak.imag))


# -- variational fitting -------------------------------------------------------


def _ansatz_sites(u, d: int, D: int, n_steps: int) -> list[np.ndarray]:
    site = site_tensor_from_unitary(u, d, D)  # one site array for every step
    return [site[0:1]] + [site] * (n_steps - 1)  # initial environment pinned to |0>


def _backward_envs(target_chain, ansatz_sites, of):
    """Right environments: envs[n] contracts sites n.. of target and ansatz with ``of``,
    the left sweep (``_left_envs``) of the two chains mirrored, read back to front."""
    bras, kets = ([t.transpose(3, 1, 2, 0) for t in c[::-1]] for c in (target_chain, ansatz_sites))
    return list(_left_envs(of, bras, kets))[::-1]


def _unitary_gradient(left, target_site, right):
    """Gradient of the (linear) overlap in the matrix M[(o, b), (i, a)] = sqrt(d) B[a, o, i, b]
    of one ansatz site B, from the environments on either side of it."""
    l, d, _, r = target_site.shape
    q, s = left.shape[1], right.shape[1]
    g = (left.T @ target_site.reshape(l, -1).conj()).reshape(-1, r) @ right  # (a, o, i, b)
    return _site_matrix(g.reshape(q, d, d, s)) / np.sqrt(d)


def _backward_grad(chain, sites, of, fwd, d, D):
    """Gradient of the overlap in the shared step unitary: the sum over steps."""
    grad = np.zeros((d * D, d * D), dtype=np.complex128)
    bwd = _backward_envs(chain[1:], sites[1:], of)
    for n, (tn, right) in enumerate(zip(chain, bwd)):
        # the boundary site's left bond is pinned to |0>: it feeds columns (i, alpha=0)
        grad[:, :: D if n == 0 else 1] += _unitary_gradient(fwd[n], tn, right)
    return grad


def _optimal_final_unitary(lmat: np.ndarray) -> tuple[np.ndarray, float]:
    """Final environment unitary maximising Re<target|ansatz>.

    The overlap is linear in the final unitary, Re sum Of[p,q] L[p,q], so
    the maximiser follows from the SVD and the attained value is the
    nuclear norm of L (an isometry where the two environments differ in size).
    """
    u_, s_, vh_ = np.linalg.svd(lmat.T, full_matrices=False)
    return (u_ @ vh_).conj().T, float(s_.sum())


def variational_fit(target: PptMps, seed=0) -> ReconstructionReport:
    """Fit one step unitary shared by every step (plus a final environment
    unitary) to a target PPT by gradient ascent on the overlap with polar
    retraction; the environment size is the target's ``env_dim``.

    The warm start is the polar mean of the reshaped target site matrices,
    with the environment gauge aligned so the ansatz initial state |0> is
    consistent.  ``FIT_RESTARTS`` restarts perturb the warm start or draw
    fresh unitaries from ``seed``; the best loss wins.  For a given seed the
    fit is deterministic; it may stall in a local minimum, in which case the
    report flags ``converged = False``.
    """
    if target.leading_site is not None:
        raise ValidationError("fit the absorbed form (absorb_initial_leg) of an exposed leg")
    target = to_right_canonical(target)
    d, D, n_steps = target.d, target.env_dim, target.n_steps
    rng = _as_rng(seed)
    u0, residuals = _warm_start(target, d, D)

    nt2 = target.norm() ** 2
    best = None
    for attempt in range(FIT_RESTARTS + 1):
        if attempt == 0:
            u = u0
        elif attempt <= (FIT_RESTARTS + 1) // 2:  # perturb the warm start
            u = u0 @ near_identity_unitary(d * D, 0.1 * attempt, rng)
        else:  # fresh random basins
            u = random_haar_unitary(d * D, rng)
        trace, u, of = _descend(target, u, d, D, nt2)
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], u, of, trace)
        if best[0] < FIT_SUCCESS_TOL:
            break

    loss, u, of, trace = best
    sites = _ansatz_sites(u, d, D, n_steps)
    sites[-1] = np.einsum("aoib,cb->aoic", sites[-1], of)  # the final unitary on the environment
    groups = itertools.groupby(sites, key=id)  # the shared step's sites are one run
    mps = PptMps(runs=tuple((t, 1 + len(more)) for _, (t, *more) in groups))
    model = OqeModel(d, D, [u], np.eye(d * D, dtype=np.complex128)[0])
    note = "ansatz initial state fixed to |0>; recovered unitaries carry an environment gauge"
    converged = loss < FIT_SUCCESS_TOL
    if not converged:
        note += f"; stalled at loss {loss:.3e} after {FIT_RESTARTS} restarts"
    return ReconstructionReport(
        recovered_mps=mps,
        recovered_model=model,
        state_fidelity=gauge_fidelity(mps, target),
        per_site_unitarity_residual=residuals,
        loss_trace=trace,
        gauge_note=note,
        converged=converged,
    )


def _descend(target, u, d, D, nt2) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Gradient descent on the shared step unitary with polar retraction.

    The final environment unitary enters the overlap linearly, so it is set
    to its exact maximiser at every evaluation; the step-unitary gradient
    taken at that point is the gradient of the envelope.  Returns the loss
    trace, the step unitary and the final unitary.
    """
    chain = target.chain()

    def evaluate(u):
        sites = _ansatz_sites(u, d, D, len(chain))
        fwd = list(_left_envs(np.ones((1, 1), dtype=np.complex128), chain, sites))
        of, nuclear = _optimal_final_unitary(fwd[-1])
        return nt2 + 1.0 - 2.0 * nuclear, of, sites, fwd

    loss, of, sites, fwd = evaluate(u)
    grad = None  # taken at the current point once a step from it is tried
    step = 0.2
    trace = [loss]
    for _ in range(FIT_MAX_ITER):
        if loss < 1e-14 or step < 1e-12:
            break
        if grad is None:
            grad = _backward_grad(chain, sites, of, fwd, d, D)
        cand = closest_isometry(u + step * grad.conj())
        cand_loss, cand_of, cand_sites, cand_fwd = evaluate(cand)
        if cand_loss < loss - 1e-16:
            u, loss, of, sites, fwd = cand, cand_loss, cand_of, cand_sites, cand_fwd
            trace.append(loss)
            grad = None
            step = min(step * 1.5, 2.0)
        else:
            step *= 0.5
    return trace, u, of


def _warm_start(target: PptMps, d: int, D: int):
    """Polar warm start from the reshaped sites of a target ready to measure
    (as ``to_right_canonical`` returns it), gauge aligned.

    The shared unitary is the polar mean of the bulk site matrices; the
    initial environment vector implied by the boundary site is rotated onto
    |0>.  Returns the warm-start unitary and the per-site projection
    residuals of ``mps_to_oqe``, whose unitaries it reads without a model.
    """
    unitaries, residuals = _read_unitaries(target)
    D_model = unitaries[0].shape[0] // d
    if D_model != D:
        raise DimensionError(f"target bond dimension {D_model} exceeds its environment leg {D}")
    if len(unitaries) >= 2:
        try:
            bulk = unitaries[1:]  # summed in order: np.mean(np.stack(bulk), axis=0) bit for bit
            u_shared = polar_unitary(sum(bulk[1:], bulk[0]) / len(bulk))
        except SingularityError:  # wildly inconsistent site gauges average to ~0
            u_shared = unitaries[1]
    else:
        u_shared = unitaries[0]
    # Initial environment vector in the shared gauge, read off the boundary
    # site's injection L[(o, b), i] = sqrt(d) B_1[0, o, i, b] (zero on the rows
    # b >= its right bond): U^dag L maps i to (i', beta) as delta_{i', i} psi_beta.
    site1 = target.runs[0][0]
    inj = np.zeros((d, D, d), dtype=np.complex128)
    inj[:, : site1.shape[3], :] = np.sqrt(d) * _site_matrix(site1).reshape(d, -1, d)
    uv = u_shared.conj().T @ inj.reshape(d * D, d)
    psi = np.trace(uv.reshape(d, D, d), axis1=0, axis2=2)
    nrm = np.linalg.norm(psi)
    if nrm < 1e-8:
        return u_shared, residuals
    first = np.arange(D) == 0
    w = fill_unassigned_columns(np.outer(psi / nrm, first), first)
    lifted = np.multiply.outer(np.eye(d), w).transpose(0, 2, 1, 3).reshape(d * D, d * D)  # I (x) w
    return lifted.conj().T @ u_shared @ lifted, residuals


def predict_future(report: ReconstructionReport, n_future: int) -> PptMps:
    """Extend a time-independent recovered model to ``n_future`` steps."""
    if not report.recovered_model.time_independent:
        raise UnsupportedPredictionError("prediction requires a time-independent model")
    return build_ppt(report.recovered_model, n_future)


# -- entangled initial states ---------------------------------------------------


def reconstruct_entangled_initial(
    oracle: MeasurementOracle,
    D_bound: int | None = None,
) -> tuple[SchmidtForm, OqeModel]:
    """Recover an entangled initial state together with the step unitaries.

    One ``disentangle_reconstruct`` sweep from step 0, the initial system
    leg, recovers the chain with that leg exposed, N - R + 3 requests in
    all; its model carries the initial joint state, and the returned form
    is that state's Schmidt decomposition cut to its rank.  ``D_bound``
    defaults to the hidden environment size, which an unsealed oracle
    reveals.
    """
    if D_bound is None:
        D_bound = oracle.true_model().D
    model = disentangle_reconstruct(
        oracle, oracle.n_steps, D_bound, entangled_initial=True
    ).recovered_model
    form = model.initial_schmidt()
    r = form.rank()
    return SchmidtForm(form.lambdas[:r], form.sys_basis[:, :r], form.env_basis[:, :r]), model
