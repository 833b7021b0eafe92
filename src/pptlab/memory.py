"""Transfer-map analysis of purified process tensors.

The left action of a site B,

    rho -> sum_{o,i} (B^{o,i})^dag rho B^{o,i},

propagates the environment density operator one step.  It is trace
preserving and completely positive, and ``tensor_ops.transfer_left`` applies
it without forming its matrix.  The stationary environment state determines
the memory complexity of the process (the Renyi entropy, base 2, of that
state): ``memory_complexity`` solves for it once and reads every requested
Renyi order off its spectrum, beside the closed form of Theorem 1.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DimensionError, ValidationError
from .models import OqeModel, _check_dimensions, _check_eta, near_identity_unitary
from .ppt import (
    CANONICAL_TOL,
    PptMps,
    _gram_residual,
    _left_envs,
    _left_sweep,
    enlarged_site_tensor,
    site_tensor_from_unitary,
)
from .tensor_ops import _is_integer, _is_integer_type, _is_real, as_complex_array, transfer_left

DEGENERACY_GAP = 1e-8
DENSITY_TOL = 1e-10  # Hermiticity, positivity and trace error allowed in an environment state
THEOREM1_TOL = 1e-6  # bits by which a measured complexity may miss Theorem 1 and pass
ONSET_MAX_ITER = 200_000  # steps stationarity_onset takes before giving up


# -- environment density operators -----------------------------------------


def validate_env_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace of an environment state."""
    rho = np.asarray(rho, dtype=np.complex128)
    _checked_spectrum(rho)
    return rho


def _checked_spectrum(rho: np.ndarray) -> np.ndarray:
    """Spectrum of a complex128 environment state, checked as ``validate_env_density`` does."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"environment state must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
        raise ValidationError("environment state is not Hermitian")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if evals.min() < -DENSITY_TOL:
        raise ValidationError(f"environment state has negative eigenvalue {evals.min():.3e}")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL:
        raise ValidationError(f"environment state trace deviates from 1 by {abs(np.trace(rho) - 1.0):.3e}")
    return evals


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

    E^dag, the adjoint of E = sum conj(B) (x) B, comes from one einsum; only
    the small dense projection and the near-identity experiment need it.

    numpy's einsum loops over the axes in the operands' memory order, so the
    layout picks its inner loop.  As given, a stack's sites lie one after
    another and the inner loop runs over a bond, only l or r long.  A stack
    holding more sites than l r, with 1 < l r < ``_STACK_INNERMOST_MAX_BONDS``,
    is first copied with the stack axes innermost, so the inner loop runs
    over the whole stack (the figs2 blocks build 4x faster at l = r = 2,
    1.5x at l = r = 4), and the result is copied back to C order.  Single
    sites, short stacks, l r = 1 (nothing to gain, the copy costs more) and
    wide bonds (the D^4-entry output's copy costs more) keep the given
    layout.  Either way every entry is the same sum over (o, i), accumulated
    term by term into a zeroed output in the same order, so both layouts
    give the same bytes.
    """
    *lead, l, _, _, r = sites.shape
    if l * r < math.prod(lead) and 1 < l * r < _STACK_INNERMOST_MAX_BONDS:
        n = len(lead)
        inner = (*range(n, n + 4), *range(n))  # (l, d, d, r, ...) in memory
        sites = np.ascontiguousarray(sites.transpose(inner)).transpose(np.argsort(inner))
    dense = np.einsum("...aoib,...coid->...bdac", sites, sites.conj())
    return np.ascontiguousarray(dense.reshape(*lead, r * r, l * l))


# l r from which _left_matrix keeps a long stack's given layout: at D = 8 the
# stack-innermost build measured 1.3x slower for 64 and 256 sites
_STACK_INNERMOST_MAX_BONDS = 64


def evolve_env(rho0: np.ndarray, mps_or_model, n: int) -> np.ndarray:
    """The environment density matrix after the first ``n`` steps from the
    density matrix ``rho0``, by one left sweep over their sites.

    The sweep carries operators in (bra, ket) order, the transpose of a
    density matrix, so ``rho0`` (sized to the first left bond) is transposed
    once on the way in and the result once on the way out.  An MPS bounds
    the step count by its length, its steps plus an exposed step 0, and
    expands only its first n chain elements; a time-independent model takes
    any n >= 0.
    """
    if not _is_integer(n):
        raise ValidationError(f"step count {n!r} is not an integer")
    rho = validate_env_density(rho0).T
    if isinstance(mps_or_model, PptMps):
        length = mps_or_model.n_steps + (mps_or_model.leading_site is not None)
        if not 0 <= n <= length:
            raise ValidationError(f"step count {n} outside [0, {length}]")
        sites = mps_or_model.chain(n)
        bond = 1  # every chain opens on a left bond of 1, checked at construction
    else:
        model: OqeModel = mps_or_model
        bond = model.D * (model.d if model.entangled else 1)
        if n < 0:
            raise ValidationError(f"step count {n} must be non-negative")
        if model.time_independent:
            sites = [_model_site(model, 1)] * n
        elif n > len(model.unitaries):
            raise ValidationError(f"time-dependent model stores only {len(model.unitaries)} steps")
        else:
            sites = [_model_site(model, k) for k in range(1, n + 1)]
    if rho.shape[0] != bond:
        raise DimensionError(f"rho0 dimension {rho.shape[0]} does not match the first bond {bond}")
    return _left_sweep(rho, sites, sites).T


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
    model_or_site, rho0: np.ndarray | None = None
) -> tuple[np.ndarray, int, bool]:
    """Stationary environment state lim_n Phi^n(rho0) of a time-independent process.

    Like ``evolve_env``, this takes and returns density matrices and
    transposes once into ``transfer_left``'s (bra, ket) order and once out,
    so the result is the limit of ``evolve_env(rho0, model, n)``.  It takes
    a time-independent model, whose ``rho0`` defaults to
    ``initial_env_density(model)``, or a site array (rank 4, equal bonds) and ``rho0``.

    Everything is solved on the base site B with bond D: the given site, or
    the model's step site.  An entangled model's enlarged site is
    I_d (x) B, so each D x D block (s, t) of ``rho0`` evolves under the base
    channel on its own, and the limit is the eigenvalue-1 projection P_1 of
    the base left action applied to every block.

    When D^2 exceeds ``_DENSE_MAX_ENTRIES``, ``_krylov_fixed_point`` works
    matrix-free on ``transfer_left``, in numpy alone: deflating the base
    action Phi by its left eigenvector, the trace (X -> Phi(X) - (I/D) tr X,
    Brauer), leaves |lambda_2| as the dominant eigenvalue, and a restarted
    Arnoldi process checked at the relative tolerances
    ``_GAP_ESTIMATE_TOLS`` (loose first) bounds it by |theta| (1 + tol)
    from its dominant Ritz value theta.  Once a bound lies at least
    ``_GAP_HANDOVER_MARGIN`` below 1, eigenvalue 1 is simple and alone on
    the unit circle, the fixed point sigma is the GMRES solution of
    (1 - Phi + (I/D) tr) sigma = I/D, and P_1(X) = sigma tr X, so the limit
    is tr_E rho0 (x) sigma.
    Otherwise (small D, a site that is not trace preserving, no bound below
    the margin, or no Arnoldi or GMRES convergence) the dense
    projection runs: one eigendecomposition L = V diag(lam) V^-1 of the base
    left matrix, one solve for the eigen-coefficients of every block, and
    the sum of c_k v_k over lam_k = 1.
    A component of ``rho0`` on another unit-modulus eigenvalue never decays,
    so the limit does not exist and ``ConvergenceError`` is raised with that
    component's norm as the residual; so is a map with no eigenvalue 1.
    Returns ``(rho_st, steps, degenerate)``; ``steps`` is always 0 (nothing
    is iterated) and ``degenerate`` flags a dominant eigenvalue magnitude
    shared within ``DEGENERACY_GAP``, which an entangled model's enlarged
    spectrum always has (it repeats every base eigenvalue d^2 times).
    """
    if isinstance(model_or_site, OqeModel):
        model = model_or_site
        if not model.time_independent:
            raise ValidationError("stationary analysis requires a time-independent model")
        site = site_tensor_from_unitary(model.unitary_at(1), model.d, model.D)
        blocks = model.d if model.entangled else 1
        if rho0 is None:
            rho0 = initial_env_density(model)
    elif rho0 is None:
        raise ValidationError("rho0 is required when passing a site")
    elif isinstance(model_or_site, np.ndarray):
        site, blocks = as_complex_array(model_or_site), 1
    else:
        raise ValidationError(f"need a model or a site array, got {type(model_or_site).__name__}")
    if site.ndim != 4:
        raise DimensionError(f"site tensor must be rank 4, got rank {site.ndim}")
    D = site.shape[0]
    if site.shape[3] != D:
        raise DimensionError("stationary analysis requires equal bond dimensions")
    rho0 = validate_env_density(rho0).T
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
    rho = rho.T  # back from (bra, ket) order
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real, 0, degenerate or blocks > 1


# D^2 above which stationary_state tries the Krylov solve before the dense one
_DENSE_MAX_ENTRIES = 64
_GAP_ESTIMATE_TOLS = (0.2, 1e-2)  # relative residual tolerances of the Arnoldi checks, loose first
_GAP_HANDOVER_MARGIN = 0.1  # a bound on |lambda_2| this close to 1 cannot decide uniqueness


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
    """Unit-trace fixed point sigma of the left action Phi of ``site``, or
    None when the dense projection must decide.

    A right-canonical site's Phi preserves the trace, so the trace is a left
    eigenvector of Phi with eigenvalue 1, and by Brauer's theorem the map
    Phi'(X) = Phi(X) - (I/D) tr X has Phi's spectrum with that eigenvalue 1
    replaced by 0.  Its dominant eigenvalue is therefore |lambda_2|, with no
    need for sigma.  Only whether |lambda_2| <= 1 - ``_GAP_HANDOVER_MARGIN``
    matters, and ``_gap_decides`` bounds it by a restarted Arnoldi process
    on Phi' (a ``transfer_left`` matvec).  Then eigenvalue 1 of Phi is
    simple and alone on the unit circle, 1 - Phi' is invertible, and sigma
    is the unique solution of (1 - Phi') sigma = I/D, found by ``_gmres``
    from I/D.  A unital site (every model step site) has sigma = I/D, so
    GMRES returns its start after one residual matvec.

    None hands over to the dense projection when the site is not trace
    preserving (right-canonicality residual above ``CANONICAL_TOL``), when
    the gap is not bounded below the margin, or when GMRES does not
    converge.  Operators are vectorised in C order, so a vector is a view
    of its D x D matrix, and both solves share one basis of
    ``_KRYLOV_BASIS`` + 1 vectors: memory stays O(D^2) at every D, and
    everything runs in numpy's BLAS.
    """
    if _gram_residual(site) > CANONICAL_TOL:
        return None
    D = site.shape[0]
    n = D * D
    diag = slice(None, None, D + 1)  # the diagonal of a vectorised operator

    def deflated(v):
        x = transfer_left(v.reshape(D, D), site, site).reshape(-1)
        x[diag] -= v[diag].sum() / D
        return x

    m = min(_KRYLOV_BASIS, n)
    basis = np.empty((m + 1, n), dtype=np.complex128)
    hess = np.zeros((m + 1, m), dtype=np.complex128)
    # one fixed generic start (its entries column-major), never I/D: that is
    # an exact eigenvector of every unital channel (eigenvalue 0 under Phi')
    # and breaks the Arnoldi process down
    start = np.random.default_rng(0).standard_normal((2, n)).T @ np.array([1.0, 1.0j])
    if not _gap_decides(deflated, start.reshape(D, D).T.reshape(-1), basis, hess):
        return None
    mixed = np.zeros(n, dtype=np.complex128)
    mixed[diag] = 1.0 / D
    sigma = _gmres(deflated, mixed, basis, hess)
    return None if sigma is None else sigma.reshape(D, D)


_KRYLOV_BASIS = 20  # Arnoldi vectors between restarts, ARPACK's default for one eigenvalue
_RESTART_KEEP = 10  # leading Ritz vectors a restart keeps, ARPACK's choice for one eigenvalue
_BREAKDOWN = 1e-13  # share of a new vector left after orthogonalisation that counts as none


def _arnoldi(matvec, basis: np.ndarray, hess: np.ndarray, start: int):
    """Extend the Krylov decomposition A V_j = V_{j+1} H_j in place, one
    vector per step from size ``start``, and yield each size j reached.

    ``basis`` holds the orthonormal rows v_0 .. v_j, ``hess`` the
    (j+1) x j matrix H_j (entries below those written must be zero), and A
    is ``matvec``.  Each new vector is orthogonalised by classical
    Gram-Schmidt, two matrix-vector products over the basis, and once more
    when that took away more than half its squared norm (DGKS).  The
    extension stops when the basis is full or on breakdown (an invariant
    subspace: H_j's last row is zero).
    """
    for j in range(start, len(basis) - 1):
        w = matvec(basis[j])
        kept = basis[: j + 1]
        h = (w.conj() @ kept.T).conj()
        w -= h @ kept
        projected = math.sqrt(np.vdot(h, h).real)
        beta = math.sqrt(np.vdot(w, w).real)
        if beta < projected:
            again = (w.conj() @ kept.T).conj()
            w -= again @ kept
            h += again
            beta = math.sqrt(np.vdot(w, w).real)
        hess[: j + 1, j] = h
        if beta <= _BREAKDOWN * projected:
            yield j + 1
            return
        hess[j + 1, j] = beta
        np.multiply(w, 1.0 / beta, out=basis[j + 1])
        yield j + 1


def _gap_decides(deflated, start: np.ndarray, basis: np.ndarray, hess: np.ndarray) -> bool:
    """Whether a restarted Arnoldi process on Phi' bounds |lambda_2| at most
    ``_GAP_HANDOVER_MARGIN`` below 1.  It starts, as ARPACK does, from
    ``start`` taken once through Phi' into the operator's range.

    ARPACK's acceptance rule: the dominant Ritz value theta, with Ritz
    vector y of unit norm, is accepted at relative tolerance tol once its
    residual |h^T y| (h the last row of H) is at most tol |theta|, and then
    |theta| (1 + tol) bounds |lambda_2|.  Each full basis (or one that broke
    down, whose Ritz values are exact) is checked at the tolerances of
    ``_GAP_ESTIMATE_TOLS`` in turn, loose first: an accepted
    theta with |theta| (1 + tol) <= 1 - margin decides, one that does not
    moves on to the next tolerance for good, and an accepted theta above
    the margin at the last one hands over.  The loose tolerance decides a
    Haar channel, whose bulk crowds near |lambda| = 0.5 (resolving it takes
    thousands of matvecs at D = 64); the 1e-2 one decides a band channel
    with |lambda_2| near 0.87, and hands over near-identity channels, whose
    eigenvalues crowd near 1.

    A basis not yet accepted restarts (Krylov-Schur, Stewart 2001) from an
    orthonormal basis of its ``_RESTART_KEEP`` leading Ritz vectors, the
    subspace ARPACK's implicit restart keeps, so a pair lambda_2,
    conj(lambda_2) of equal moduli is kept whole and does not stall; with
    ARPACK's start, every check sees ARPACK's Krylov space.  After D^2
    restarts it hands over.
    """
    v = deflated(start)
    basis[0] = v / np.linalg.norm(v)
    n = basis.shape[1]
    tols = iter(_GAP_ESTIMATE_TOLS)
    tol = next(tols)
    size = 0
    for _ in range(n):
        for m in _arnoldi(deflated, basis, hess, size):
            pass
        vals, vecs = np.linalg.eig(hess[:m, :m])
        order = np.argsort(-np.abs(vals), kind="stable")
        theta = abs(vals[order[0]])
        residual = abs(hess[m, :m] @ vecs[:, order[0]])
        while residual <= tol * theta:
            if theta * (1.0 + tol) <= 1.0 - _GAP_HANDOVER_MARGIN:
                return True
            tol = next(tols, None)
            if tol is None:
                return False
        size = _RESTART_KEEP
        q = np.linalg.qr(vecs[:, order[:size]])[0]
        rayleigh = q.conj().T @ hess[:m, :m] @ q
        spike = hess[m, :m] @ q
        kept = q.T @ basis[:m]
        hess[:] = 0.0
        hess[:size, :size] = rayleigh
        hess[size, :size] = spike
        basis[size] = basis[m]
        basis[:size] = kept
    return False


def _gmres(deflated, b: np.ndarray, basis: np.ndarray, hess: np.ndarray) -> np.ndarray | None:
    """Solve (1 - Phi') x = b by GMRES (Saad and Schultz 1986) from x = b,
    restarted at the basis size; None after 10 D^2 restarts.

    The Arnoldi process runs on Phi' itself: it spans the Krylov spaces of
    1 - Phi', whose Hessenberg matrix is then [I; 0] - H.  Each restart
    takes one matvec for the true residual, which must reach
    max(1e-15, 1e-14 |b|), scipy's ``gmres`` target at rtol 1e-14 and atol
    1e-15.  Within a restart the least-squares residual beta / |z| is
    tracked through z, the null vector of that Hessenberg matrix's adjoint,
    and the restart ends at the first step where it reaches the target.
    """
    target = max(1e-15, 1e-14 * np.linalg.norm(b))
    x = b
    z = np.empty(len(hess), dtype=np.complex128)
    for _ in range(10 * len(b)):
        r = b - x + deflated(x)
        beta = np.linalg.norm(r)
        if beta <= target:
            return x
        hess[:] = 0.0
        np.multiply(r, 1.0 / beta, out=basis[0])
        z[0] = 1.0
        for m in _arnoldi(deflated, basis, hess, 0):
            col = -hess[: m + 1, m - 1]
            col[m - 1] += 1.0
            if col[m] == 0.0:  # breakdown: the least-squares solution is exact
                break
            z[m] = -np.vdot(col[:m], z[:m]) / np.conj(col[m])
            if beta <= target * np.linalg.norm(z[: m + 1]):
                break
        rhs = np.zeros(m + 1, dtype=np.complex128)
        rhs[0] = beta
        y = np.linalg.lstsq(np.eye(m + 1, m) - hess[: m + 1, :m], rhs, rcond=None)[0]
        x = x + y @ basis[:m]
    return None


def renyi_complexity(rho: np.ndarray, alpha: float) -> float:
    """Renyi-alpha entropy of an environment state, in bits.

    alpha = 1 is the von Neumann limit; zero eigenvalues contribute zero.
    """
    _check_alpha(alpha)
    return _renyi_bits(_checked_spectrum(np.asarray(rho, dtype=np.complex128)), alpha)


def _check_alpha(alpha) -> None:
    if not (_is_real(alpha) and np.isfinite(alpha) and alpha > 0):
        raise ValidationError(f"alpha must be positive and finite, got {alpha!r}")


def _renyi_bits(p: np.ndarray, alpha: float) -> float:
    """Renyi-alpha entropy in bits of a spectrum, renormalised over its
    entries above 1e-15."""
    p = np.clip(p, 0.0, None)
    p = p[p > 1e-15]
    p = p / p.sum()
    # + 0.0 turns a pure spectrum's -0.0 into 0.0 and keeps every other value's bits
    if abs(alpha - 1.0) < 1e-12:
        return float(-np.sum(p * np.log2(p))) + 0.0
    return float(np.log2(np.sum(p**alpha)) / (1.0 - alpha)) + 0.0


@dataclass(frozen=True, eq=False)
class ComplexityReport:
    """Memory complexity at one Renyi order beside Theorem 1's closed form."""

    alpha: float
    value_bits: float
    stationary: np.ndarray
    degenerate: bool
    steps_to_converge: int
    predicted_bits: float
    theorem_pass: bool
    theorem_skipped: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "value_bits": self.value_bits,
            "degenerate": self.degenerate,
            "steps": self.steps_to_converge,
            "predicted_bits": self.predicted_bits,
            "theorem_pass": self.theorem_pass,
            "theorem_skipped": self.theorem_skipped,
        }


def memory_complexity(model: OqeModel, alphas) -> list[ComplexityReport]:
    """One ``ComplexityReport`` per Renyi order in the sequence ``alphas``.

    Every order is checked before the one stationary solve, whose state is
    validated and diagonalised once.  Theorem 1 predicts log2(D) for a
    separable initial state and adds the Renyi entropy of the reduced
    initial system state for an entangled one; ``theorem_pass`` says the
    measured ``value_bits`` lies within ``THEOREM1_TOL`` of it.  A separable
    model with a degenerate dominant transfer eigenvalue is skipped
    (``theorem_skipped``, never passed): the closed form assumes
    non-degeneracy.
    """
    if not isinstance(alphas, Sequence) or len(alphas) == 0:
        raise ValidationError(f"alphas must be a non-empty sequence of orders, got {alphas!r}")
    for alpha in alphas:
        _check_alpha(alpha)
    rho, steps, degenerate = stationary_state(model)
    rho.flags.writeable = False  # one state, shared by every report
    spectrum = _checked_spectrum(rho)
    weights = model.initial_schmidt().lambdas ** 2 if model.entangled else None
    base = float(np.log2(model.D))
    skipped = degenerate and not model.entangled
    reports = []
    for alpha in alphas:
        value = _renyi_bits(spectrum, alpha)
        predicted = base + _renyi_bits(weights, alpha) if model.entangled else base
        reports.append(
            ComplexityReport(
                alpha=float(alpha),
                value_bits=value,
                stationary=rho,
                degenerate=degenerate,
                steps_to_converge=steps,
                predicted_bits=predicted,
                theorem_pass=not skipped and bool(abs(value - predicted) < THEOREM1_TOL),
                theorem_skipped=skipped,
            )
        )
    return reports


def stationarity_onset(model: OqeModel, tol: float = 1e-8) -> int:
    """Smallest n with fidelity(rho_n, rho_st) > 1 - tol, for a finite
    ``tol`` in (0, 1).

    The fidelity is symmetric, so sqrt(rho_st) is taken once; each rho_n^T
    the left sweep yields from rho_0^T (transposing both keeps the fidelity)
    costs one ``eigvalsh``, for ``rho_st = stationary_state(model)``.  No
    onset within ``ONSET_MAX_ITER`` steps raises ``ConvergenceError``.
    """
    if not model.time_independent:
        raise ValidationError("stationarity onset requires a time-independent model")
    if not (_is_real(tol) and np.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValidationError(f"tol must be finite and in (0, 1), got {tol!r}")
    rho_st = stationary_state(model)[0].T
    sqrt_st = _psd_sqrt(rho_st)
    site = _model_site(model, 1)
    envs = _left_envs(initial_env_density(model).T, itertools.repeat(site), itertools.repeat(site))
    for n, rho in zip(range(ONSET_MAX_ITER + 1), envs):  # range first: no step past a check
        if _fidelity_from_root(sqrt_st, rho) > 1.0 - tol:
            return n
    raise ConvergenceError(
        f"environment state did not reach the stationary state in {ONSET_MAX_ITER} steps",
        residual=infidelity(next(envs), rho_st),
    )


# -- near-identity convergence experiment ------------------------------------


def fig_s2_experiment(
    d: int,
    D: int,
    eta: float,
    n_max: int,
    seeds,
    time_dependent: bool = False,
    sample_points: list[int] | None = None,
) -> list[tuple[int, float, float, float, float]]:
    """Convergence of the environment state from |0><0| to I/D under
    exp(i*eta*H) steps.

    For every seed a Hermitian H with standard-normal entries drives the
    evolution; ``time_dependent`` redraws H at every step instead of reusing
    a fixed one.  Each seed draws from its own ``default_rng(seed)`` and the
    ensemble steps together, one stacked matrix product per step.  Steps run
    in blocks of ``_block_steps`` (at least one): a block draws its unitaries
    with one ``near_identity_unitary(..., size=k)`` call per seed (a few
    products over the whole stack of drawn Hermitians), builds their left
    transfer matrices at once, and reads the spectra of the states it
    recorded with one batched ``eigvalsh``, so transient memory is bounded
    whatever ``n_max``.  Every
    number equals per-step drawing and stepping bit for bit.  Records the
    Uhlmann infidelity between rho_n and the maximally mixed state, which
    needs only the spectrum p of rho_n:
    F(rho, I/D) = (sum_k sqrt(p_k))^2 / D.  Returns rows
    ``(n, mean, median, q25, q75)`` over the seed ensemble, at every step by
    default or at ``sample_points``, a sequence of integers.  ``seeds`` is a
    sequence of non-negative integers.
    """
    _check_dimensions(d, D)
    _check_eta(eta)
    if not (_is_integer(n_max) and n_max >= 0):
        raise ValidationError(f"n_max must be a non-negative integer, got {n_max!r}")
    if not (isinstance(seeds, Sequence) and all(_is_integer(s) and s >= 0 for s in seeds)):
        raise ValidationError(f"seeds must be a sequence of non-negative integers, got {seeds!r}")
    if len(seeds) == 0:
        raise ValidationError("the seed ensemble is empty")
    if sample_points is not None and not (  # each distinct element type is checked once
        isinstance(sample_points, Sequence)
        and all(_is_integer_type(t) for t in set(map(type, sample_points)))
    ):
        raise ValidationError(
            f"sample points must be a sequence of integers, got {sample_points!r}"
        )
    points = sorted(set(sample_points)) if sample_points is not None else list(range(n_max + 1))
    if not points:
        return []
    if not 0 <= points[0] <= points[-1] <= n_max:
        raise ValidationError(f"sample points must lie in [0, {n_max}]")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # column-major vec(|0><0|) of every seed, one column each for the stacked matmul
    rho_vecs = np.zeros((len(seeds), D * D, 1), dtype=np.complex128)
    rho_vecs[:, 0] = 1.0
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
    a D^2 state), never fewer than one.

    Building the left matrices briefly holds more, per step and seed.  The
    draw stack and its sites are each freed as soon as their next layout
    exists, so the given layout peaks at 2 (dD)^2 + D^4 entries (sites,
    conjugate, output) and the stack-innermost one at the larger of
    2 (dD)^2 + D^4 (the sites' copy, its conjugate, the output, and einsum's
    iteration buffers besides) and (dD)^2 + 2 D^4 (the copy, the output and
    its C-order copy).

    Before that, each seed's draw holds the Taylor kernel's temporaries
    per step (``models._expm_skew``), all freed before the next seed's
    draw: about a dozen (dD)^2 entries (X, its powers, the four
    Paterson-Stockmeyer blocks, the Horner products and, at dD <= 4, the
    result's C-order copy out of the stack-innermost layout) and, at
    dD <= 4, the (dD)^3 product terms.
    """
    per_step = n_seeds * ((d * D) ** 2 + D**4 + D**2)
    return max(1, _BLOCK_ENTRIES // per_step)


def _left_matrices(rngs, d: int, D: int, eta: float, k: int) -> np.ndarray:
    """Left transfer matrices of the next ``k`` near-identity steps of every
    seed, shape (k, seeds, D^2, D^2), C-contiguous.

    Each slice equals ``_left_matrix(site_tensor_from_unitary(u, d, D))`` of
    that seed's next single draw ``u``, bit for bit.
    """
    # as temporaries, the draw stack and its sites are each freed as soon as
    # their next layout exists (the sites from CPython 3.11 on, which moves a
    # call's arguments into the callee), so neither is held through the einsum
    draws = (near_identity_unitary(d * D, eta, rng, size=k) for rng in rngs)
    return _left_matrix(site_tensor_from_unitary(np.stack(list(draws), axis=1), d, D))


def _infidelities_to_mixed(rho_vecs: np.ndarray, D: int) -> np.ndarray:
    """1 - F(rho, I/D) for column-major vec(rho) stacks of shape (..., D^2, 1)."""
    rhos = np.swapaxes(rho_vecs.reshape(rho_vecs.shape[:-2] + (D, D)), -1, -2)
    p = np.linalg.eigvalsh((rhos + np.swapaxes(rhos.conj(), -1, -2)) / 2.0)
    return 1.0 - np.sum(np.sqrt(np.clip(p, 0.0, None)), axis=-1) ** 2 / D


def fig_s2_csv(rows) -> str:
    """CSV text of ``fig_s2_experiment`` rows, every float to 17 significant digits."""
    lines = ["n,mean_infidelity,median_infidelity,q25,q75"]
    lines.extend("%d,%.17g,%.17g,%.17g,%.17g" % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"
