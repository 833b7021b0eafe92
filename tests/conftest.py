"""Shared helpers and independent oracles for the test suite."""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

from pptlab import MultiTimeObservable, OqeModel, PptMps, memory, ppt, tomography
from pptlab.exceptions import ConvergenceError, DimensionError, ValidationError
from pptlab.memory import DEGENERACY_GAP, initial_env_density, validate_env_density
from pptlab.models import near_identity_unitary, random_haar_unitary, random_hermitian
from pptlab.ppt import site_tensor_from_unitary
from pptlab.tensor_ops import encode_complex


def random_observable(rng, d, n_steps, n_insertions=2):
    """Random Hermitian insertions at strictly increasing steps."""
    steps = sorted(rng.choice(np.arange(1, n_steps + 1), size=n_insertions, replace=False))
    return MultiTimeObservable(
        [(int(s), random_hermitian(d * d, rng)) for s in steps]
    )


def step_sites(mps: PptMps) -> list:
    """One site per step: the chain without the leading site."""
    chain = mps.chain()
    return chain[1:] if mps.leading_site is not None else chain


def dense_norm(mps: PptMps) -> float:
    """Norm of ``mps`` from its dense statevector, independent of every
    sweep; ``to_statevector`` raises ``CapacityError`` above
    ``DENSE_STATE_GUARD`` entries."""
    return float(np.linalg.norm(mps.to_statevector()))


def pair_leaf(arr) -> list:
    """A complex array as format-1 files stored it: row-major [re, im] pairs."""
    flat = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def version_1_ppt_doc(mps) -> dict:
    """The format-1 document of ``mps``, as the format-1 writer produced it."""
    return _per_step_ppt_doc(mps, 1, pair_leaf)


def version_2_ppt_doc(mps) -> dict:
    """The format-2 document of ``mps``, as the format-2 writer produced it:
    base64 leaves like format 3, but one site document per step."""
    return _per_step_ppt_doc(mps, 2, encode_complex)


def _per_step_ppt_doc(mps, version: int, leaf) -> dict:
    def tensor(t):
        return {"shape": list(t.shape), "data": leaf(t)}

    doc = {
        "format_version": version,
        "d": mps.d,
        "canonical": mps.canonical,
        "sites": [tensor(t) for t in step_sites(mps)],
    }
    if mps.leading_site is not None:
        doc["leading_site"] = tensor(mps.leading_site)
    return doc


def negated_zeros(t) -> np.ndarray:
    """A copy of ``t`` equal in value, with every zero real or imaginary part -0.0."""
    parts = np.array(t, dtype=np.complex128, order="C").view(np.float64)
    parts[parts == 0.0] = -0.0
    return parts.view(np.complex128)


def version_1_model_doc(model) -> dict:
    """The model document with [re, im] pair leaves, as format-1 files stored it."""
    return {
        "d": model.d,
        "D": model.D,
        "time_independent": model.time_independent,
        "unitaries": [pair_leaf(u) for u in model.unitaries],
        "initial_state": pair_leaf(model.initial_state),
    }


def perturbed(mps: PptMps, scale: float, rng) -> PptMps:
    """Add Gaussian noise of the given scale to every site tensor."""
    noisy = []
    for t in step_sites(mps):
        noise = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        noisy.append((t + scale * noise, 1))
    return replace(mps, runs=tuple(noisy))


def bond_gauged(mps: PptMps, gauges) -> PptMps:
    """The same state with the invertible gauge G_k on the bond after chain
    element k: that element times G_k, the next one G_k^-1 times it.  Each
    chain element becomes a run of its own."""
    chain = mps.chain()
    for k, g in enumerate(gauges):
        chain[k] = np.einsum("aoib,bc->aoic", chain[k], g)
        chain[k + 1] = np.einsum("ca,aoib->coib", np.linalg.inv(g), chain[k + 1])
    return PptMps(runs=tuple((t, 1) for t in chain))


def random_bond_gauges(mps: PptMps, rng, unitary: bool = False) -> list:
    """One gauge per inner bond of ``mps``: a Haar unitary Q, or Q diag(s) with
    singular values s uniform in [0.5, 2], invertible and (almost surely) not unitary."""
    gauges = []
    for t in mps.chain()[:-1]:
        q = random_haar_unitary(t.shape[3], rng)
        gauges.append(q if unitary else q * rng.uniform(0.5, 2.0, t.shape[3]))
    return gauges


def dense_transfer_matrix(site) -> np.ndarray:
    """E = sum conj(B) (x) B of one site, shape (l*l, r*r), by one einsum.

    With column-major vectorisation E is the matrix of the right action
    rho -> sum B rho B^dag and E^dag that of the left action.
    """
    site = np.asarray(site, dtype=np.complex128)
    l, _, _, r = site.shape
    return np.einsum("aoib,coid->acbd", site.conj(), site).reshape(l * l, r * r)


def dense_left_matrix(site):
    """Left-action matrix built by explicit loops."""
    l, d, _, r = site.shape
    out = np.zeros((r * r, l * l), dtype=np.complex128)
    for b in range(r):
        for bp in range(r):
            for a in range(l):
                for ap in range(l):
                    val = 0.0
                    for o in range(d):
                        for i in range(d):
                            val += np.conj(site[a, o, i, b]) * site[ap, o, i, bp]
                    out[b + bp * r, a + ap * l] = val
    return out


def fit_overlap_and_grad(target: PptMps, u, of, d, D):
    """Overlap <target|ansatz> of ``variational_fit``'s ansatz and its gradient
    in the shared step unitary, from the fit's own environment sweeps."""
    chain = target.chain()
    sites = tomography._ansatz_sites(u, d, D, len(chain))
    fwd = list(ppt._left_envs(np.ones((1, 1), dtype=np.complex128), chain, sites))
    overlap = complex(np.einsum("pq,pq", fwd[-1], of))
    return overlap, tomography._backward_grad(chain, sites, of, fwd, d, D)


def embed_environment(model: OqeModel, iso: np.ndarray) -> OqeModel:
    """Lift a model through an environment isometry S (columns orthonormal).

    The step unitaries become (I (x) S) U (I (x) S)^dag plus the identity on
    the orthogonal complement, and the initial state is mapped by I (x) S.
    All physical predictions are unchanged.
    """
    D_new = iso.shape[0]
    lift = np.kron(np.eye(model.d), iso)
    proj = lift @ lift.conj().T
    us = [
        lift @ u @ lift.conj().T + np.eye(model.d * D_new) - proj for u in model.unitaries
    ]
    psi = lift @ model.initial_state
    return OqeModel(model.d, D_new, us, psi)


def random_right_canonical_site(rng, d: int, D: int) -> np.ndarray:
    """A generic site with sum_{o,i} B B^dag = I: its left action preserves
    the trace but is not unital, so its fixed point is not I/D."""
    g = rng.standard_normal((d * d * D, D)) + 1j * rng.standard_normal((d * d * D, D))
    return np.linalg.qr(g)[0].T.reshape(D, d, d, D)


def random_env_isometry(rng, D_from: int, D_to: int) -> np.ndarray:
    """Haar-random isometry with D_from orthonormal columns in C^{D_to}."""
    z = rng.standard_normal((D_to, D_from)) + 1j * rng.standard_normal((D_to, D_from))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[np.newaxis, :]


def dense_ppt_vector(model: OqeModel, N: int) -> np.ndarray:
    """Statevector over (o_1, i_1, ..., o_N, i_N, env) by explicit circuit replay.

    Independent of the MPS construction: starts from the joint initial
    state, appends maximally entangled pairs and applies the step unitaries
    with plain tensordot calls.  For separable initial states the system
    factor is projected out (it never evolves), matching the split-off
    convention of the MPS route; entangled initial states keep the full
    joint space as the effective environment.
    """
    d, D = model.d, model.D
    pair = np.eye(d, dtype=np.complex128) / np.sqrt(d)
    if model.entangled:
        state = model.initial_state.reshape(d, D)  # (o0, env) kept jointly
        env_axes = (0, 1)
    else:
        form = model.initial_schmidt()
        state = form.env_basis[:, 0].reshape(D)
        env_axes = (0,)
    for n in range(1, N + 1):
        u = np.asarray(model.unitary_at(n)).reshape(d, D, d, D)
        state = np.tensordot(state, pair, axes=0)
        state = np.tensordot(state, u, axes=[[-3, -2], [3, 2]])
        state = np.moveaxis(state, -2, -3)
    # axes now: [o0 if entangled], o_1, i_1, ..., o_N, i_N, env; for the
    # entangled case fold (o0, env) into one trailing effective leg.
    if model.entangled:
        state = np.moveaxis(state, 0, -2)  # (..., o0, env)
        state = state.reshape(state.shape[:-2] + (d * D,))
    return state.reshape(-1)


def apply_window_dense(state: np.ndarray, gate: np.ndarray, start_axis: int):
    """Apply a window gate to a dense state with one axis per site, the
    (o, i) legs of a step fused.  The gate spans the fewest axes from
    ``start_axis`` on whose extents multiply to its dimension, so a gate from
    step 0 covers the d-dimensional initial leg and (d^2)-dimensional steps."""
    dims = [state.shape[start_axis]]
    while int(np.prod(dims)) < gate.shape[0]:
        dims.append(state.shape[start_axis + len(dims)])
    assert int(np.prod(dims)) == gate.shape[0]
    width = len(dims)
    g = gate.reshape(dims + dims)
    axes = list(range(start_axis, start_axis + width))
    out = np.tensordot(state, g, axes=[axes, list(range(width, 2 * width))])
    return np.moveaxis(out, list(range(-width, 0)), axes)


def dense_reduced_density(mps, sites, circuit=()) -> np.ndarray:
    """Reduced density operator on the range of steps ``sites`` after ``circuit``.

    Independent of the oracle's MPS route: expands ``mps`` into its dense
    statevector, applies each (start, gate) by ``tensordot`` and traces out
    everything but the window (the environment leg included).  Step 0 is
    the exposed initial leg (dimension d) of an ``mps`` that has one.
    """
    d2 = mps.d**2
    lead = int(mps.leading_site is not None)  # axis of step k is k - 1 + lead
    dims = (mps.d,) * lead + (d2,) * mps.n_steps
    state = mps.to_statevector().reshape(dims + (mps.env_dim,))
    for start, gate in circuit:
        state = apply_window_dense(state, gate, start - 1 + lead)
    a, b = sites
    axes = list(range(a - 1 + lead, b + lead))
    x = np.moveaxis(state, axes, list(range(len(axes))))
    x = x.reshape(int(np.prod([dims[k] for k in axes])), -1)
    rho = x @ x.conj().T
    return (rho + rho.conj().T) / 2.0


def pauli_sampled_estimate_loop(rho: np.ndarray, shots: int, rng) -> np.ndarray:
    """The sampled-mode estimator one setting at a time: each Pauli-product
    rotation built by a chain of ``np.kron``, its counts drawn by its own
    multinomial call and its term added to the running sum in setting order."""
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    settings = list(itertools.product(tomography._R, repeat=n))  # X, Y, Z per qubit
    per_setting = max(1, shots // len(settings))
    est = np.zeros((dim, dim), dtype=np.complex128)
    for setting in settings:
        rot = functools.reduce(np.kron, setting)
        p = np.real(np.sum((rot @ rho) * rot.conj(), axis=1))
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        phat = rng.multinomial(per_setting, p) / per_setting
        est += rot.conj().T @ (phat[:, np.newaxis] * rot)
    est = invert_pauli_frame(est, n)
    est = (est + est.conj().T) / 2.0
    return est / np.trace(est).real


def invert_pauli_frame(est: np.ndarray, n: int) -> np.ndarray:
    """X -> 3 X - tr_q(X) (x) I_q on every qubit q of an n-qubit operator."""
    dim = est.shape[0]
    eye = np.eye(2).reshape(2, 1, 1, 2, 1)
    for q in range(n):
        x = est.reshape(2**q, 2, 2 ** (n - q - 1), 2**q, 2, 2 ** (n - q - 1))
        partial = np.trace(x, axis1=1, axis2=4)[:, np.newaxis, :, :, np.newaxis, :]
        est = (3.0 * x - partial * eye).reshape(dim, dim)
    return est


def schmidt_spectra_dense(vec: np.ndarray, site_dims: list[int]) -> list[np.ndarray]:
    """Singular values across every cut of a dense state, by direct SVD."""
    spectra = []
    left = 1
    total = int(np.prod(site_dims))
    for dim in site_dims[:-1]:
        left *= dim
        mat = vec.reshape(left, total // left)
        spectra.append(np.linalg.svd(mat, compute_uv=False))
    return spectra


def _replay_branch(model: OqeModel, env_vec: np.ndarray, k: int) -> np.ndarray:
    """Replay k circuit steps from a pure (true-environment) branch vector.

    Returns the branch state as a matrix (physical configs, env).
    """
    d, D = model.d, model.D
    pair = np.eye(d, dtype=np.complex128) / np.sqrt(d)
    state = env_vec.reshape(D)
    for n in range(1, k + 1):
        u = np.asarray(model.unitary_at(n)).reshape(d, D, d, D)
        state = np.tensordot(state, pair, axes=0)
        state = np.tensordot(state, u, axes=[[-3, -2], [3, 2]])
        state = np.moveaxis(state, -2, -3)
    return state.reshape(-1, D)


def partial_process_tensor(model: OqeModel, rho_env: np.ndarray, k: int) -> np.ndarray:
    """Dense k-step process tensor given the current environment state.

    Decomposes rho_env into pure branches (on the effective environment:
    absorbed system factor first for entangled models), replays the circuit
    for each branch and sums the resulting process tensors.
    """
    d, D = model.d, model.D
    D_eff = rho_env.shape[0]
    evals, vecs = np.linalg.eigh((rho_env + rho_env.conj().T) / 2.0)
    out = np.zeros((d ** (2 * k), d ** (2 * k)), dtype=np.complex128)
    for w, v in zip(evals, vecs.T):
        if w < 1e-14:
            continue
        if D_eff == D:
            x = _replay_branch(model, v, k)
        else:  # effective environment (s_abs, env): evolve each s_abs slice
            branch = v.reshape(d, D)
            x = np.stack([_replay_branch(model, branch[s], k) for s in range(d)], axis=1)
            x = x.reshape(-1, d * D)
        out += w * (x @ x.conj().T)
    return out


def fig_s2_reference(d, D, eta, n_max, seeds, time_dependent=False, sample_points=None):
    """``fig_s2_experiment`` stepped one step at a time, the reference for its blocks.

    Draws one ``near_identity_unitary`` per seed per step (once for fixed H),
    builds the left matrix of each by ``dense_transfer_matrix``, reads the
    spectra with one ``eigvalsh`` per sample point and summarises each row
    with its own ``np.mean``/``np.median``/``np.quantile`` calls.
    """
    points = sorted(set(sample_points)) if sample_points is not None else list(range(n_max + 1))
    rho0 = np.zeros((D, D), dtype=np.complex128)
    rho0[0, 0] = 1.0
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rho_vecs = np.tile(rho0.reshape(-1, 1, order="F"), (len(seeds), 1, 1))
    lmats = None
    curves = np.empty((len(seeds), len(points)))
    done = 0
    for col, n in enumerate(points):
        for _ in range(done, n):
            if lmats is None or time_dependent:
                us = [near_identity_unitary(d * D, eta, rng) for rng in rngs]
                lmats = np.stack(
                    [dense_transfer_matrix(site_tensor_from_unitary(u, d, D)).conj().T for u in us]
                )
            rho_vecs = lmats @ rho_vecs
        done = n
        rhos = rho_vecs.reshape(-1, D, D).transpose(0, 2, 1)
        p = np.linalg.eigvalsh((rhos + rhos.conj().transpose(0, 2, 1)) / 2.0)
        curves[:, col] = 1.0 - np.sum(np.sqrt(np.clip(p, 0.0, None)), axis=1) ** 2 / D
    return [
        (n, float(np.mean(vals)), float(np.median(vals)),
         float(np.quantile(vals, 0.25)), float(np.quantile(vals, 0.75)))
        for n, vals in zip(points, curves.T)
    ]


def dense_stationary_state(model_or_site, rho0=None):
    """``stationary_state`` as one dense projection on the whole effective
    environment: the enlarged (dD)^2 x (dD)^2 left matrix for entangled
    models, never the base-site blocks or the Krylov solve.  Takes a
    time-independent model or a site array with ``rho0``.

    Eigendecomposes the left transfer matrix, solves for the eigen-coefficients
    of vec(rho0^T) (the (bra, ket) order of ``transfer_left``) and keeps
    those on eigenvalue 1, transposed back to a density matrix; raises
    ``ConvergenceError`` when no eigenvalue is 1 or when rho0 has a
    component on another unit-modulus eigenvalue.  Returns
    ``(rho_st, 0, degenerate)``.
    """
    if isinstance(model_or_site, OqeModel):
        model = model_or_site
        if not model.time_independent:
            raise ValidationError("stationary analysis requires a time-independent model")
        site = memory._model_site(model, 1)
        if rho0 is None:
            rho0 = initial_env_density(model)
    else:
        site = model_or_site
        if rho0 is None:
            raise ValidationError("rho0 is required when passing a site")
    dense = dense_transfer_matrix(site)
    if dense.shape[0] != dense.shape[1]:
        raise DimensionError("stationary analysis requires equal bond dimensions")
    dim = site.shape[0]
    rho0 = validate_env_density(rho0)
    if rho0.shape[0] != dim:
        raise DimensionError(
            f"rho0 dimension {rho0.shape[0]} does not match the transfer dimension {dim}"
        )

    vals, vecs = np.linalg.eig(dense.conj().T)
    coeffs = np.linalg.solve(vecs, rho0.T.reshape(-1, order="F"))
    mags = np.abs(vals)
    degenerate = bool(np.count_nonzero(mags > mags.max() - DEGENERACY_GAP) > 1)
    fixed = np.abs(vals - 1.0) < DEGENERACY_GAP
    if not fixed.any():
        raise ConvergenceError(
            "transfer map has no eigenvalue 1", residual=float(np.min(np.abs(vals - 1.0)))
        )
    rotating = ~fixed & (np.abs(mags - 1.0) < DEGENERACY_GAP)
    residual = float(np.linalg.norm(vecs[:, rotating] @ coeffs[rotating]))
    if residual > 1e-10:
        raise ConvergenceError(
            "rho0 has a non-decaying component on a unit-modulus eigenvalue other than 1",
            residual=residual,
        )
    rho = (vecs[:, fixed] @ coeffs[fixed]).reshape(dim, dim, order="F").T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real, 0, degenerate


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
