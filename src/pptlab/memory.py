"""Transfer-matrix analysis of purified process tensors.

The transfer matrix of a site, E = sum_{o,i} conj(B^{o,i}) (x) B^{o,i},
propagates the environment density operator one step.  Its left action

    rho -> sum_{o,i} (B^{o,i})^dag rho B^{o,i}

is trace preserving and completely positive; with column-major
vectorisation the left action matrix is E^dag and the right action matrix
is E itself.  The stationary environment state determines the memory
complexity of the process (the Renyi entropy, base 2, of that state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import ConvergenceError, DimensionError, ValidationError
from .models import OqeModel, near_identity_unitary, random_hermitian
from .ppt import PptMps, enlarged_site_tensor, site_tensor_from_unitary

DEGENERACY_GAP = 1e-8


# -- environment density operators -----------------------------------------


def validate_env_density(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace of an environment state."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"environment state must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValidationError("environment state is not Hermitian")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if evals.min() < -tol:
        raise ValidationError(f"environment state has negative eigenvalue {evals.min():.3e}")
    if abs(np.trace(rho).real - 1.0) > tol:
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


# -- transfer matrices ------------------------------------------------------


@dataclass(frozen=True)
class TransferMatrix:
    """Dense transfer matrix of one site together with its Kraus tensors."""

    dense: np.ndarray  # E = sum conj(B) (x) B, shape (l*l, r*r)
    site: np.ndarray
    site_index: int | str = "uniform"

    @property
    def dim(self) -> int:
        return self.site.shape[0]

    def apply_left(self, rho: np.ndarray) -> np.ndarray:
        """sum_{o,i} (B^{o,i})^dag rho B^{o,i} (trace preserving)."""
        return np.einsum("aoib,ac,coij->bj", self.site.conj(), rho, self.site)

    def apply_right(self, rho: np.ndarray) -> np.ndarray:
        """sum_{o,i} B^{o,i} rho (B^{o,i})^dag."""
        return np.einsum("aoib,bj,coij->ac", self.site, rho, self.site.conj())

    def left_matrix(self) -> np.ndarray:
        """Matrix of the left action on column-major vectorised states."""
        return self.dense.conj().T

    def spectral_radius(self) -> float:
        if self.dense.shape[0] != self.dense.shape[1]:
            raise DimensionError("spectral radius requires equal bond dimensions")
        return float(np.max(np.abs(np.linalg.eigvals(self.dense))))


def transfer_matrix(site: np.ndarray, site_index: int | str = "uniform") -> TransferMatrix:
    site = np.asarray(site, dtype=np.complex128)
    if site.ndim != 4:
        raise DimensionError(f"site tensor must be rank 4, got rank {site.ndim}")
    l, _, _, r = site.shape
    dense = np.einsum("aoib,coid->acbd", site.conj(), site).reshape(l * l, r * r)
    return TransferMatrix(dense=dense, site=site, site_index=site_index)


def model_transfer_matrix(model: OqeModel, step: int = 1) -> TransferMatrix:
    """Transfer matrix of a model step on the effective environment."""
    b = site_tensor_from_unitary(model.unitary_at(step), model.d, model.D)
    if model.entangled:
        b = enlarged_site_tensor(b, model.d)
    return transfer_matrix(b, site_index=step if not model.time_independent else "uniform")


def evolve_env(rho0: np.ndarray, mps_or_model, n: int) -> np.ndarray:
    """Apply the first ``n`` left transfer actions to ``rho0``.

    For an MPS the step count is bounded by its length; a time-independent
    model supports any ``n >= 0``.
    """
    rho = validate_env_density(rho0)
    if isinstance(mps_or_model, PptMps):
        chain = mps_or_model.chain()
        if not 0 <= n <= len(chain):
            raise ValidationError(f"step count {n} outside [0, {len(chain)}]")
        for t in chain[:n]:
            rho = transfer_matrix(t).apply_left(rho)
        return rho
    model: OqeModel = mps_or_model
    if n < 0:
        raise ValidationError(f"step count {n} must be non-negative")
    if model.time_independent:
        tm = model_transfer_matrix(model)
        for _ in range(n):
            rho = tm.apply_left(rho)
        return rho
    if n > len(model.unitaries):
        raise ValidationError(f"time-dependent model stores only {len(model.unitaries)} steps")
    for k in range(1, n + 1):
        rho = model_transfer_matrix(model, k).apply_left(rho)
    return rho


# -- fidelity ---------------------------------------------------------------


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """F(A, B) = (tr sqrt(sqrt(A) B sqrt(A)))^2 via eigendecomposition."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    wa, va = np.linalg.eigh((a + a.conj().T) / 2.0)
    sqrt_a = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
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

    The limit is the projection of ``rho0`` onto the eigenvalue-1
    eigenspace of the left transfer matrix: one dense eigendecomposition
    L = V diag(lam) V^-1, one solve for the eigen-coefficients c = V^-1
    vec(rho0), and the sum of c_k v_k over lam_k = 1.  When that eigenvalue
    is non-degenerate this is the unit-trace dominant eigenvector, whatever
    ``rho0``; for entangled initial states the peripheral spectrum is
    degenerate and the limit depends on ``rho0``.  A component of ``rho0``
    on another unit-modulus eigenvalue never decays, so the limit does not
    exist and ``ConvergenceError`` is raised with that component's norm as
    the residual.  Returns ``(rho_st, steps, degenerate)``; ``steps`` is
    always 0 (nothing is iterated) and ``degenerate`` flags a dominant
    eigenvalue magnitude shared within ``DEGENERACY_GAP``.
    """
    if isinstance(mps_or_model, PptMps):
        sites = mps_or_model.sites
        tm = transfer_matrix(sites[-1])
        if rho0 is None:
            raise ValidationError("rho0 is required when passing a bare MPS")
    else:
        model: OqeModel = mps_or_model
        if not model.time_independent:
            raise ValidationError("stationary analysis requires a time-independent model")
        tm = model_transfer_matrix(model)
        if rho0 is None:
            rho0 = initial_env_density(model)
    if tm.dense.shape[0] != tm.dense.shape[1]:
        raise DimensionError("stationary analysis requires equal bond dimensions")
    rho0 = validate_env_density(rho0)
    if rho0.shape[0] != tm.dim:
        raise DimensionError(
            f"rho0 dimension {rho0.shape[0]} does not match the transfer dimension {tm.dim}"
        )

    vals, vecs = np.linalg.eig(tm.left_matrix())
    coeffs = np.linalg.solve(vecs, rho0.reshape(-1, order="F"))
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
    rho = (vecs[:, fixed] @ coeffs[fixed]).reshape(tm.dim, tm.dim, order="F")
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real, 0, degenerate


def renyi_complexity(rho: np.ndarray, alpha: float) -> float:
    """Renyi-alpha entropy of an environment state, in bits.

    alpha = 1 is the von Neumann limit; zero eigenvalues contribute zero.
    """
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    rho = validate_env_density(rho)
    p = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0), 0.0, None)
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
    measured: float
    predicted: float
    passed: bool
    skipped: bool = False


def theorem1_check(model: OqeModel, alpha: float, tol: float = 1e-6) -> Theorem1Result:
    """Compare the measured complexity against its closed-form value.

    Separable initial states predict log2(D); entangled ones add the Renyi
    entropy of the reduced initial system state.  The separable branch is
    skipped (flagged) when the dominant transfer eigenvalue is degenerate,
    since the closed form assumes non-degeneracy.
    """
    report = memory_complexity(model, alpha)
    if model.entangled:
        lam2 = np.clip(model.initial_schmidt().lambdas ** 2, 0.0, None)
        lam2 = lam2[lam2 > 1e-15]
        if abs(alpha - 1.0) < 1e-12:
            c0 = float(-np.sum(lam2 * np.log2(lam2)))
        else:
            c0 = float(np.log2(np.sum(lam2**alpha)) / (1.0 - alpha))
        predicted = c0 + np.log2(model.D)
    else:
        if report.degenerate:
            return Theorem1Result(
                measured=report.value_bits,
                predicted=float(np.log2(model.D)),
                passed=False,
                skipped=True,
            )
        predicted = float(np.log2(model.D))
    return Theorem1Result(
        measured=report.value_bits,
        predicted=float(predicted),
        passed=bool(abs(report.value_bits - predicted) < tol),
    )


def stationarity_onset(
    model: OqeModel, tol: float = 1e-8, max_iter: int = 200_000
) -> int:
    """Smallest n with fidelity(rho_n, rho_st) > 1 - tol."""
    if not model.time_independent:
        raise ValidationError("stationarity onset requires a time-independent model")
    rho_st, _, _ = stationary_state(model)
    rho = initial_env_density(model)
    tm = model_transfer_matrix(model)
    for n in range(max_iter + 1):
        if uhlmann_fidelity(rho, rho_st) > 1.0 - tol:
            return n
        rho = tm.apply_left(rho)
    raise ConvergenceError(
        f"environment state did not reach the stationary state in {max_iter} steps",
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
    a fixed one.  Records the Uhlmann infidelity between rho_n and the
    maximally mixed state.  Returns rows
    ``(n, mean, median, q25, q75)`` over the seed ensemble, at every step by
    default or at ``sample_points``.
    """
    if eta <= 0:
        raise ValidationError(f"eta must be positive, got {eta}")
    if n_max < 0:
        raise ValidationError(f"n_max must be non-negative, got {n_max}")
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    if len(seeds) == 0:
        raise ValidationError("the seed ensemble is empty")
    points = sorted(set(sample_points)) if sample_points is not None else list(range(n_max + 1))
    if points and not 0 <= points[0] <= points[-1] <= n_max:
        raise ValidationError(f"sample points must lie in [0, {n_max}]")
    if rho0 is None:
        rho0 = np.zeros((D, D), dtype=np.complex128)
        rho0[0, 0] = 1.0
    target = np.eye(D) / D
    curves = np.empty((len(seeds), len(points)))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if not time_dependent:
            u = near_identity_unitary(d * D, eta, rng)
            lmat = _uniform_transfer(u, d, D).left_matrix()
        rho_vec = rho0.reshape(-1, order="F").astype(np.complex128)
        col = 0
        for n in range(n_max + 1):
            if col < len(points) and n == points[col]:
                rho = rho_vec.reshape(D, D, order="F")
                curves[row, col] = infidelity(rho, target)
                col += 1
            if n == n_max:
                break
            if time_dependent:
                u = scipy.linalg.expm(1j * eta * random_hermitian(d * D, rng))
                lmat = _uniform_transfer(u, d, D).left_matrix()
            rho_vec = lmat @ rho_vec
    rows = []
    for col, n in enumerate(points):
        vals = curves[:, col]
        rows.append(
            (
                n,
                float(np.mean(vals)),
                float(np.median(vals)),
                float(np.quantile(vals, 0.25)),
                float(np.quantile(vals, 0.75)),
            )
        )
    return rows


def _uniform_transfer(u: np.ndarray, d: int, D: int) -> TransferMatrix:
    return transfer_matrix(site_tensor_from_unitary(u, d, D))


def fig_s2_csv(rows) -> str:
    lines = ["n,mean_infidelity,median_infidelity,q25,q75"]
    for n, mean, median, q25, q75 in rows:
        lines.append(f"{n},{mean:.17g},{median:.17g},{q25:.17g},{q75:.17g}")
    return "\n".join(lines) + "\n"
