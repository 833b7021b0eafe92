"""Hidden open-quantum-evolution models and the random ensembles used in tests.

An :class:`OqeModel` couples a d-dimensional system to a D-dimensional
environment through one joint unitary per step (a single stored unitary is
reused every step for time-independent models).  The joint Hilbert space is
ordered system (x) environment, so the basis index of ``|j, alpha>`` is
``j * D + alpha``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import ValidationError
from .tensor_ops import as_complex_array, complex_to_pairs, pairs_to_complex

SCHMIDT_TOL = 1e-8


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt decomposition of a joint system-environment vector.

    ``state = sum_s lambdas[s] * kron(sys_basis[:, s], env_basis[:, s])``
    with both bases orthonormal and the coefficients sorted descending.
    """

    lambdas: np.ndarray
    sys_basis: np.ndarray  # columns are |x_s>
    env_basis: np.ndarray  # columns are |y_s>

    def rank(self, tol: float = SCHMIDT_TOL) -> int:
        return int(np.count_nonzero(self.lambdas > tol))

    def assemble(self) -> np.ndarray:
        d = self.sys_basis.shape[0]
        D = self.env_basis.shape[0]
        out = np.zeros(d * D, dtype=np.complex128)
        for s, lam in enumerate(self.lambdas):
            out += lam * np.kron(self.sys_basis[:, s], self.env_basis[:, s])
        return out


@dataclass(frozen=True)
class OqeModel:
    """Dimensions, step unitaries and initial joint state of a hidden evolution.

    ``unitaries`` holds (d*D, d*D) matrices; a length-1 list marks the
    time-independent case and is reused for every step.  ``initial_state``
    is a unit vector of length d*D.
    """

    d: int
    D: int
    unitaries: tuple[np.ndarray, ...]
    initial_state: np.ndarray
    entangled: bool = field(default=False)

    @staticmethod
    def create(d, D, unitaries, initial_state) -> "OqeModel":
        us = tuple(as_complex_array(u, ndim=2) for u in unitaries)
        psi = as_complex_array(initial_state).reshape(-1)
        form = schmidt_decompose(psi, d, D)
        model = OqeModel(int(d), int(D), us, psi, entangled=form.rank() > 1)
        model.validate()
        return model

    @property
    def time_independent(self) -> bool:
        return len(self.unitaries) == 1

    @property
    def effective_env_dim(self) -> int:
        """Environment size felt by the process: d*D for entangled initial states."""
        return self.d * self.D if self.entangled else self.D

    def unitary_at(self, n: int) -> np.ndarray:
        """Step unitary for 1-based step ``n``."""
        if self.time_independent:
            return self.unitaries[0]
        if not 1 <= n <= len(self.unitaries):
            raise ValidationError(f"step {n} outside the stored {len(self.unitaries)} unitaries")
        return self.unitaries[n - 1]

    def initial_schmidt(self) -> SchmidtForm:
        return schmidt_decompose(self.initial_state, self.d, self.D)

    def validate(self, tol: float = 1e-10) -> None:
        if self.d < 2:
            raise ValidationError(f"system dimension must be >= 2, got {self.d}")
        if self.D < 1:
            raise ValidationError(f"environment dimension must be >= 1, got {self.D}")
        dim = self.d * self.D
        if not self.unitaries:
            raise ValidationError("model stores no unitaries")
        for n, u in enumerate(self.unitaries):
            if u.shape != (dim, dim):
                raise ValidationError(f"unitary {n} has shape {u.shape}, expected {(dim, dim)}")
            dev = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
            if dev > tol:
                raise ValidationError(f"unitary {n} deviates from unitarity by {dev:.3e}")
        if self.initial_state.shape != (dim,):
            raise ValidationError(
                f"initial state has length {self.initial_state.shape}, expected {dim}"
            )
        nrm = np.linalg.norm(self.initial_state)
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError(f"initial state norm deviates from 1 by {abs(nrm - 1.0):.3e}")

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "D": self.D,
            "time_independent": self.time_independent,
            "unitaries": [complex_to_pairs(u) for u in self.unitaries],
            "initial_state": complex_to_pairs(self.initial_state),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "OqeModel":
        d = int(doc["d"])
        D = int(doc["D"])
        dim = d * D
        us = [pairs_to_complex(u, (dim, dim)) for u in doc["unitaries"]]
        if doc.get("time_independent", len(us) == 1) and len(us) != 1:
            raise ValidationError("time_independent document must store exactly one unitary")
        psi = pairs_to_complex(doc["initial_state"], (dim,))
        return OqeModel.create(d, D, us, psi)

    @staticmethod
    def from_json(text: str) -> "OqeModel":
        return OqeModel.from_json_dict(json.loads(text))


# -- random ensembles ----------------------------------------------------


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The diagonal of R is phase-fixed so the distribution is exactly Haar and
    the output is deterministic for a given seed.
    """
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")
    rng = _as_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def near_identity_unitary(dim: int, eta: float, seed) -> np.ndarray:
    """exp(i * eta * H) with H drawn Hermitian from normal entries.

    H is (G + G^dag)/2 for G with independent standard-normal real and
    imaginary parts, so small eta gives a unitary close to the identity.
    """
    if eta <= 0:
        raise ValidationError(f"eta must be positive, got {eta}")
    h = random_hermitian(dim, seed)
    return scipy.linalg.expm(1j * eta * h)


def random_hermitian(dim: int, seed) -> np.ndarray:
    rng = _as_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_haar_state(dim: int, seed) -> np.ndarray:
    rng = _as_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_separable_model(d: int, D: int, seed, steps: int = 1) -> OqeModel:
    """Haar model with a product initial state |psi_S> (x) |psi_E>."""
    rng = _as_rng(seed)
    us = [random_haar_unitary(d * D, rng) for _ in range(steps)]
    psi = np.kron(random_haar_state(d, rng), random_haar_state(D, rng))
    return OqeModel.create(d, D, us, psi)


def random_entangled_model(d: int, D: int, seed, lambdas=None, steps: int = 1) -> OqeModel:
    """Haar model with an entangled initial state of given Schmidt spectrum.

    ``lambdas`` defaults to the maximally entangled spectrum over
    min(d, D) terms.  Schmidt bases are Haar random.
    """
    rng = _as_rng(seed)
    r = min(d, D)
    if lambdas is None:
        lam = np.full(r, 1.0 / np.sqrt(r))
    else:
        lam = np.asarray(lambdas, dtype=float)
        if lam.size > r:
            raise ValidationError(f"at most {r} Schmidt coefficients fit d={d}, D={D}")
        lam = lam / np.linalg.norm(lam)
    us = [random_haar_unitary(d * D, rng) for _ in range(steps)]
    xs = random_haar_unitary(d, rng)[:, : lam.size]
    ys = random_haar_unitary(D, rng)[:, : lam.size]
    psi = np.zeros(d * D, dtype=np.complex128)
    for s in range(lam.size):
        psi += lam[s] * np.kron(xs[:, s], ys[:, s])
    return OqeModel.create(d, D, us, psi)


def schmidt_decompose(state, d: int, D: int) -> SchmidtForm:
    """Schmidt decomposition of a unit vector on the d*D joint space."""
    psi = as_complex_array(state).reshape(-1)
    if psi.size != d * D:
        raise ValidationError(f"state length {psi.size} incompatible with d*D={d * D}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        raise ValidationError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")
    mat = psi.reshape(d, D)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtForm(lambdas=s, sys_basis=u, env_basis=vh.T)
