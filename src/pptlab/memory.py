"""Transfer-map analysis of purified process tensors.

The left action of a site B,

    rho -> sum_{o,i} (B^{o,i})^dag rho B^{o,i},

propagates the environment density operator one step.  It is trace
preserving and completely positive, and ``tensor_ops.transfer_left`` applies
it without forming its matrix.  The stationary environment state determines
the memory complexity of the process (the Renyi entropy, base 2, of that
state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DimensionError, ValidationError
from .models import OqeModel, _check_dimensions, _check_eta, near_identity_unitary
from .ppt import PptMps, enlarged_site_tensor, site_tensor_from_unitary
from .tensor_ops import _is_integer, transfer_left

DEGENERACY_GAP = 1e-8
DENSITY_TOL = 1e-10  # Hermiticity, positivity and trace error allowed in an environment state
THEOREM1_TOL = 1e-6  # bits by which theorem1_check lets the measured complexity miss
ONSET_MAX_ITER = 200_000  # steps stationarity_onset takes before giving up


# -- environment density operators -----------------------------------------


def validate_env_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace of an environment state."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"environment state must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
        raise ValidationError("environment state is not Hermitian")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if evals.min() < -DENSITY_TOL:
        raise ValidationError(f"environment state has negative eigenvalue {evals.min():.3e}")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL:
        raise ValidationError(f"environment state trace deviates from 1 by {abs(np.trace(rho) - 1.0):.3e}")
    return rho


def pure_env_density(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def initial_env_density(model: OqeModel) -> np.ndarray:
    """rho_0 on the effective environment: |psi_E><psi_E| for separable
    initial states, the full joint |psi_SE><psi_SE| for entangled ones."""
    if model.entangled:
        return pure_env_density(model.initial_state)
    form = model.initial_schmidt()
    return pure_env_density(form.env_basis[:, 0])


# -- transfer maps -----------------------------------------------------------


def _model_site(model: OqeModel, step: int) -> np.ndarray:
    """Site tensor of a model step on the effective environment."""
    b = site_tensor_from_unitary(model.unitary_at(step), model.d, model.D)
    return enlarged_site_tensor(b, model.d) if model.entangled else b


def _left_matrix(sites: np.ndarray) -> np.ndarray:
    """Matrices of the left actions of ``sites`` (shape (..., l, d, d, r)) on
    column-major vectorised operators: shape (..., r^2, l^2), C-contiguous.

    Builds E = sum conj(B) (x) B of every site and returns E^dag; only the
    small dense projection and the near-identity experiment need it.
    """
    *lead, l, _, _, r = sites.shape
    dense = np.einsum("...aoib,...coid->...acbd", sites.conj(), sites)
    dense = dense.reshape(*lead, l * l, r * r)
    return np.ascontiguousarray(dense.conj().swapaxes(-1, -2))


def evolve_env(rho0: np.ndarray, mps_or_model, n: int) -> np.ndarray:
    """Apply the first ``n`` left transfer actions to ``rho0``.

    For an MPS the step count is bounded by its length; a time-independent
    model supports any ``n >= 0``.
    """
    if not _is_integer(n):
        raise ValidationError(f"step count {n!r} is not an integer")
    rho = validate_env_density(rho0)
    if isinstance(mps_or_model, PptMps):
        sites = mps_or_model.chain()
        if not 0 <= n <= len(sites):
            raise ValidationError(f"step count {n} outside [0, {len(sites)}]")
        sites = sites[:n]
    else:
        model: OqeModel = mps_or_model
        if n < 0:
            raise ValidationError(f"step count {n} must be non-negative")
        if model.time_independent:
            sites = [_model_site(model, 1)] * n
        elif n > len(model.unitaries):
            raise ValidationError(f"time-dependent model stores only {len(model.unitaries)} steps")
        else:
            sites = [_model_site(model, k) for k in range(1, n + 1)]
    for site in sites:
        rho = transfer_left(rho, site, site)
    return rho


# -- fidelity ---------------------------------------------------------------


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """F(A, B) = (tr sqrt(sqrt(A) B sqrt(A)))^2 via eigendecomposition."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return _fidelity_from_root(_psd_sqrt(a), b)


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of the Hermitian part of ``a``, negative eigenvalues clipped to 0."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _fidelity_from_root(sqrt_a: np.ndarray, b: np.ndarray) -> float:
    """(tr sqrt(sqrt_a B sqrt_a))^2: one ``eigvalsh`` once sqrt(A) is known."""
    m = sqrt_a @ b @ sqrt_a
    wm = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(wm, 0.0, None))) ** 2)


def infidelity(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - uhlmann_fidelity(a, b)


# -- stationary analysis -----------------------------------------------------


def stationary_state(
    mps_or_model, rho0: np.ndarray | None = None
) -> tuple[np.ndarray, int, bool]:
    """Stationary environment state lim_n Phi^n(rho0) of a time-independent process.

    Everything is solved on the base site B with bond D: the last MPS site,
    or the model's step site.  An entangled model's enlarged site is
    I_d (x) B, so each D x D block (s, t) of ``rho0`` evolves under the base
    channel on its own, and the limit is the eigenvalue-1 projection P_1 of
    the base left action applied to every block.

    When D^2 exceeds ``_DENSE_MAX_ENTRIES`` the base fixed point sigma and
    the gap |lambda_2| come from Arnoldi iterations on ``transfer_left``
    (``_krylov_fixed_point``); if eigenvalue 1 is simple and alone on the
    unit circle, P_1(X) = sigma tr X and the limit is tr_E rho0 (x) sigma.
    Otherwise (small D, a degenerate peripheral spectrum, a dominant
    eigenvalue other than 1, or no Arnoldi convergence) the dense projection
    runs: one eigendecomposition L = V diag(lam) V^-1 of the base left
    matrix, one solve for the eigen-coefficients of every block, and the sum
    of c_k v_k over lam_k = 1.
    A component of ``rho0`` on another unit-modulus eigenvalue never decays,
    so the limit does not exist and ``ConvergenceError`` is raised with that
    component's norm as the residual; so is a map with no eigenvalue 1.
    Returns ``(rho_st, steps, degenerate)``; ``steps`` is always 0 (nothing
    is iterated) and ``degenerate`` flags a dominant eigenvalue magnitude
    shared within ``DEGENERACY_GAP``, which an entangled model's enlarged
    spectrum always has (it repeats every base eigenvalue d^2 times).
    """
    if isinstance(mps_or_model, PptMps):
        site = np.asarray(mps_or_model.sites[-1], dtype=np.complex128)
        blocks = 1
        if rho0 is None:
            raise ValidationError("rho0 is required when passing a bare MPS")
    else:
        model: OqeModel = mps_or_model
        if not model.time_independent:
            raise ValidationError("stationary analysis requires a time-independent model")
        site = site_tensor_from_unitary(model.unitary_at(1), model.d, model.D)
        blocks = model.d if model.entangled else 1
        if rho0 is None:
            rho0 = initial_env_density(model)
    if site.ndim != 4:
        raise DimensionError(f"site tensor must be rank 4, got rank {site.ndim}")
    D = site.shape[0]
    if site.shape[3] != D:
        raise DimensionError("stationary analysis requires equal bond dimensions")
    rho0 = validate_env_density(rho0)
    if rho0.shape[0] != blocks * D:
        raise DimensionError(
            f"rho0 dimension {rho0.shape[0]} does not match the transfer dimension {blocks * D}"
        )

    sigma = _krylov_fixed_point(site) if D * D > _DENSE_MAX_ENTRIES else None
    if sigma is not None:
        rho = np.kron(np.trace(rho0.reshape(blocks, D, blocks, D), axis1=1, axis2=3), sigma)
        degenerate = False
    else:
        # column s*blocks + t: the column-major vec of block (s, t), rows (c, a)
        cols = rho0.reshape(blocks, D, blocks, D).transpose(3, 1, 0, 2).reshape(D * D, -1)
        limit, degenerate = _dense_projection(site, cols)
        rho = limit.reshape(D, D, blocks, blocks).transpose(2, 1, 3, 0).reshape(blocks * D, -1)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real, 0, degenerate or blocks > 1


# D^2 above which stationary_state tries the Krylov solve before the dense one
_DENSE_MAX_ENTRIES = 64
_GAP_ESTIMATE_TOL = 1e-2  # ARPACK relative tolerance of the first |lambda_2| estimate
_GAP_RESOLVE_MARGIN = 1e-3  # an estimate this close to 1 is re-solved to machine precision


def _dense_projection(site: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, bool]:
    """Project the columns ``cols`` (column-major vectorised operators) onto
    the eigenvalue-1 eigenspace of the left transfer matrix of ``site``.

    Returns the projected columns and whether the dominant eigenvalue
    magnitude is shared within ``DEGENERACY_GAP``.
    """
    vals, vecs = np.linalg.eig(_left_matrix(site))
    coeffs = np.linalg.solve(vecs, cols)
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
    return vecs[:, fixed] @ coeffs[fixed], degenerate


def _krylov_fixed_point(site: np.ndarray) -> np.ndarray | None:
    """Unit-trace fixed point sigma of the left action of ``site``, or None
    when eigenvalue 1 is not simple and alone on the unit circle.

    Arnoldi (ARPACK ``eigs``, k=1) on a ``transfer_left`` matvec gives the
    dominant eigenpair to machine precision.  The largest remaining
    magnitude |lambda_2| is the dominant eigenvalue of the deflated map
    X -> Phi(X) - sigma tr X, which has Phi's spectrum with lambda_1 = 1
    replaced by 0 (Brauer); a loose estimate is re-solved to machine
    precision only when it lies within ``_GAP_RESOLVE_MARGIN`` of 1.  The
    loose tolerance costs accuracy only on a crowded bulk (|lambda| near 0.5
    for Haar channels, where a tight solve takes thousands of matvecs at
    D = 64): an eigenvalue near the unit circle and apart from the bulk is
    the Ritz value Arnoldi converges first.

    Every solve starts from one fixed generic vector, never I/D: that is an
    exact eigenvector of every unital channel and breaks the Arnoldi process
    down.  Each may restart at most D^2 times; a spectrum it cannot resolve
    in that (every eigenvalue on the unit circle, say) also gives None.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs  # ~30 ms import

    D = site.shape[0]
    n = D * D
    diag = np.arange(D) * (D + 1)  # positions of the diagonal in a column-major vec
    v0 = np.random.default_rng(0).standard_normal((2, n)).T @ np.array([1.0, 1.0j])

    def phi(v):
        x = transfer_left(v.reshape(D, D, order="F"), site, site)
        return x.reshape(-1, order="F")

    def dominant(matvec, tol, vectors=False):
        op = LinearOperator((n, n), matvec=matvec, dtype=np.complex128)
        return eigs(op, k=1, v0=v0, tol=tol, maxiter=n, return_eigenvectors=vectors)

    try:
        (lam,), vecs = dominant(phi, 0, vectors=True)
        trace = vecs[diag, 0].sum()
        # a state sigma has tr sigma >= ||sigma||_F, so a unit-norm fixed
        # vector with |trace| < 1/2 is no multiple of one: the fixed space is larger
        if abs(lam - 1.0) >= DEGENERACY_GAP or abs(trace) < 0.5:
            return None
        sigma = vecs[:, 0] / trace

        def deflated(v):
            return phi(v) - sigma * v[diag].sum()

        lam2 = abs(dominant(deflated, _GAP_ESTIMATE_TOL)[0])
        if lam2 > 1.0 - _GAP_RESOLVE_MARGIN:
            lam2 = abs(dominant(deflated, 0)[0])
    except ArpackNoConvergence:
        return None
    if lam2 > 1.0 - DEGENERACY_GAP:
        return None
    return sigma.reshape(D, D, order="F")


def renyi_complexity(rho: np.ndarray, alpha: float) -> float:
    """Renyi-alpha entropy of an environment state, in bits.

    alpha = 1 is the von Neumann limit; zero eigenvalues contribute zero.
    """
    if not (_is_real(alpha) and np.isfinite(alpha) and alpha > 0):
        raise ValidationError(f"alpha must be positive and finite, got {alpha!r}")
    rho = validate_env_density(rho)
    return _renyi_bits(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0), alpha)


def _is_real(x) -> bool:
    """Whether ``x`` is a Python or numpy real number, but not a bool."""
    return _is_integer(x) or isinstance(x, (float, np.floating))


def _renyi_bits(p: np.ndarray, alpha: float) -> float:
    """Renyi-alpha entropy in bits of a spectrum, renormalised over its
    entries above 1e-15."""
    p = np.clip(p, 0.0, None)
    p = p[p > 1e-15]
    p = p / p.sum()
    if abs(alpha - 1.0) < 1e-12:
        return float(-np.sum(p * np.log2(p)))
    return float(np.log2(np.sum(p**alpha)) / (1.0 - alpha))


@dataclass(frozen=True)
class ComplexityReport:
    alpha: float
    value_bits: float
    stationary: np.ndarray
    degenerate: bool
    steps_to_converge: int

    def to_json_dict(self, predicted_bits: float | None = None) -> dict:
        doc = {
            "alpha": self.alpha,
            "value_bits": self.value_bits,
            "degenerate": self.degenerate,
            "steps": self.steps_to_converge,
        }
        if predicted_bits is not None:
            doc["predicted_bits"] = predicted_bits
        return doc


def memory_complexity(model: OqeModel, alpha: float) -> ComplexityReport:
    rho, steps, degenerate = stationary_state(model)
    return ComplexityReport(
        alpha=float(alpha),
        value_bits=renyi_complexity(rho, alpha),
        stationary=rho,
        degenerate=degenerate,
        steps_to_converge=steps,
    )


@dataclass(frozen=True)
class Theorem1Result:
    report: ComplexityReport
    predicted: float
    passed: bool
    skipped: bool = False

    @property
    def measured(self) -> float:
        return self.report.value_bits


def theorem1_check(model: OqeModel, alpha: float) -> Theorem1Result:
    """Compare the measured complexity against its closed-form value.

    Separable initial states predict log2(D); entangled ones add the Renyi
    entropy of the reduced initial system state.  The separable branch is
    skipped (flagged) when the dominant transfer eigenvalue is degenerate,
    since the closed form assumes non-degeneracy.  The result carries the
    measured ``ComplexityReport``.
    """
    report = memory_complexity(model, alpha)
    predicted = float(np.log2(model.D))
    if model.entangled:
        predicted += _renyi_bits(model.initial_schmidt().lambdas ** 2, alpha)
    elif report.degenerate:
        return Theorem1Result(report=report, predicted=predicted, passed=False, skipped=True)
    return Theorem1Result(
        report=report,
        predicted=predicted,
        passed=bool(abs(report.value_bits - predicted) < THEOREM1_TOL),
    )


def stationarity_onset(model: OqeModel, tol: float = 1e-8) -> int:
    """Smallest n with fidelity(rho_n, rho_st) > 1 - tol, for a finite
    ``tol`` in (0, 1).

    The fidelity is symmetric, so sqrt(rho_st) is taken once and every step
    costs one ``eigvalsh`` of sqrt(rho_st) rho_n sqrt(rho_st).
    """
    if not model.time_independent:
        raise ValidationError("stationarity onset requires a time-independent model")
    if not (_is_real(tol) and np.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValidationError(f"tol must be finite and in (0, 1), got {tol!r}")
    rho_st, _, _ = stationary_state(model)
    sqrt_st = _psd_sqrt(np.asarray(rho_st, dtype=np.complex128))
    rho = initial_env_density(model)
    site = _model_site(model, 1)
    for n in range(ONSET_MAX_ITER + 1):
        if _fidelity_from_root(sqrt_st, rho) > 1.0 - tol:
            return n
        rho = transfer_left(rho, site, site)
    raise ConvergenceError(
        f"environment state did not reach the stationary state in {ONSET_MAX_ITER} steps",
        residual=infidelity(rho, rho_st),
    )


# -- near-identity convergence experiment ------------------------------------


def fig_s2_experiment(
    d: int,
    D: int,
    eta: float,
    n_max: int,
    seeds,
    time_dependent: bool = False,
    rho0: np.ndarray | None = None,
    sample_points: list[int] | None = None,
) -> list[tuple[int, float, float, float, float]]:
    """Convergence of the environment state to I/D under exp(i*eta*H) steps.

    For every seed a Hermitian H with standard-normal entries drives the
    evolution; ``time_dependent`` redraws H at every step instead of reusing
    a fixed one.  Each seed draws from its own ``default_rng(seed)`` and the
    ensemble steps together, one stacked matrix product per step.  Steps run
    in blocks of ``_block_steps`` (at least one): a block draws its Hermitians
    with one ``near_identity_unitary(..., size=k)`` call per seed, builds
    their left transfer matrices at once, and reads the spectra of the states
    it recorded with one batched ``eigvalsh``, so transient memory is bounded
    whatever ``n_max``.  Every number equals per-step drawing and stepping bit
    for bit.  Records the Uhlmann infidelity between rho_n and the maximally
    mixed state, which needs only the spectrum p of rho_n:
    F(rho, I/D) = (sum_k sqrt(p_k))^2 / D.  Returns rows
    ``(n, mean, median, q25, q75)`` over the seed ensemble, at every step by
    default or at the integer ``sample_points``.  ``seeds`` is a count (seeds
    0 .. seeds - 1) or a list of non-negative integer seeds.  ``rho0``
    (|0><0| by default) must be a D x D density operator.
    """
    _check_dimensions(d, D)
    _check_eta(eta)
    if not (_is_integer(n_max) and n_max >= 0):
        raise ValidationError(f"n_max must be a non-negative integer, got {n_max!r}")
    if _is_integer(seeds):
        seeds = range(seeds)
    seeds = list(seeds) if hasattr(seeds, "__iter__") else [seeds]
    if not all(_is_integer(s) and s >= 0 for s in seeds):
        raise ValidationError(f"seeds must be a count or non-negative integers, got {seeds}")
    if len(seeds) == 0:
        raise ValidationError("the seed ensemble is empty")
    if sample_points is not None and not all(_is_integer(n) for n in sample_points):
        raise ValidationError(f"sample points must be integers, got {sample_points}")
    points = sorted(set(sample_points)) if sample_points is not None else list(range(n_max + 1))
    if not points:
        return []
    if not 0 <= points[0] <= points[-1] <= n_max:
        raise ValidationError(f"sample points must lie in [0, {n_max}]")
    if rho0 is None:
        rho0 = np.zeros((D, D), dtype=np.complex128)
        rho0[0, 0] = 1.0
    rho0 = validate_env_density(rho0)
    if rho0.shape != (D, D):
        raise DimensionError(f"rho0 has shape {rho0.shape}, expected {(D, D)}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # column-major vec(rho) of every seed, one column each for the stacked matmul
    rho0_vec = rho0.reshape(-1, 1, order="F")
    rho_vecs = np.tile(rho0_vec, (len(seeds), 1, 1))
    curves = np.empty((len(points), len(seeds)))  # (points, seeds): one row per output row
    filled = 0
    if points[0] == 0:
        curves[0] = _infidelities_to_mixed(rho_vecs[np.newaxis], D)[0]
        filled = 1
    lmats = None if time_dependent else _left_matrices(rngs, d, D, eta, 1)
    block = _block_steps(len(seeds), d, D)
    for start in range(0, points[-1], block):
        stop = min(start + block, points[-1])
        if time_dependent:
            lmats = _left_matrices(rngs, d, D, eta, stop - start)
        recorded = []
        for j, n in enumerate(range(start + 1, stop + 1)):
            rho_vecs = lmats[j if time_dependent else 0] @ rho_vecs
            if n == points[filled + len(recorded)]:
                recorded.append(rho_vecs)
        if recorded:
            curves[filled : filled + len(recorded)] = _infidelities_to_mixed(np.stack(recorded), D)
            filled += len(recorded)
    stats = np.stack(
        [
            np.mean(curves, axis=1),
            np.median(curves, axis=1),
            np.quantile(curves, 0.25, axis=1),
            np.quantile(curves, 0.75, axis=1),
        ],
        axis=1,
    )
    return [(n, *row) for n, row in zip(points, stats.tolist())]


# complex entries one block of fig_s2_experiment may hold across its draws,
# left transfer matrices and recorded states
_BLOCK_ENTRIES = 2**16


def _block_steps(n_seeds: int, d: int, D: int) -> int:
    """Steps per block: the most that keep a block within ``_BLOCK_ENTRIES``
    (every step holds, per seed, a (dD)^2 draw, a D^2 x D^2 left matrix and
    a D^2 state), never fewer than one."""
    per_step = n_seeds * ((d * D) ** 2 + D**4 + D**2)
    return max(1, _BLOCK_ENTRIES // per_step)


def _left_matrices(rngs, d: int, D: int, eta: float, k: int) -> np.ndarray:
    """Left transfer matrices of the next ``k`` near-identity steps of every
    seed, shape (k, seeds, D^2, D^2), C-contiguous.

    Each slice equals ``_left_matrix(site_tensor_from_unitary(u, d, D))`` of
    that seed's next single draw ``u``, bit for bit.
    """
    us = np.stack([near_identity_unitary(d * D, eta, rng, size=k) for rng in rngs], axis=1)
    # site_tensor_from_unitary per slice: (o, b, i, a) -> (a, o, i, b), over sqrt(d)
    sites = us.reshape(k, len(rngs), d, D, d, D).transpose(0, 1, 5, 2, 4, 3) / np.sqrt(d)
    return _left_matrix(sites)


def _infidelities_to_mixed(rho_vecs: np.ndarray, D: int) -> np.ndarray:
    """1 - F(rho, I/D) for column-major vec(rho) stacks of shape (..., D^2, 1)."""
    rhos = np.swapaxes(rho_vecs.reshape(rho_vecs.shape[:-2] + (D, D)), -1, -2)
    p = np.linalg.eigvalsh((rhos + np.swapaxes(rhos.conj(), -1, -2)) / 2.0)
    return 1.0 - np.sum(np.sqrt(np.clip(p, 0.0, None)), axis=-1) ** 2 / D


def fig_s2_csv(rows) -> str:
    lines = ["n,mean_infidelity,median_infidelity,q25,q75"]
    for n, mean, median, q25, q75 in rows:
        lines.append(f"{n},{mean:.17g},{median:.17g},{q25:.17g},{q75:.17g}")
    return "\n".join(lines) + "\n"
