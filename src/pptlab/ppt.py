"""Purified process tensors as matrix product states.

A PPT of an N-step evolution is a pure state on the 2N physical legs
(o_1, i_1, ..., o_N, i_N) plus one final environment leg.  Site tensors use
the index layout ``(left bond, out, in, right bond)`` and are obtained from
the step unitary as

    B[a, o, i, b] = <o, b| U |i, a> / sqrt(d),

which is right-canonical (and, except at the boundary, left-canonical) by
unitarity.  For entangled initial states the environment is enlarged to the
joint system-environment space of dimension d*D and the site tensors act as
the identity on the absorbed system factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    CapacityError,
    ConversionError,
    DegenerateStateError,
    DimensionError,
    ValidationError,
)
from .models import OqeModel
from .tensor_ops import (
    as_complex_array,
    closest_isometry,
    complex_to_pairs,
    fill_unassigned_columns,
    pairs_to_complex,
    transfer_left,
)

DENSE_STATE_GUARD = 2**20  # max entries for dense statevector constructions
PROCESS_TENSOR_GUARD = 4096  # max physical dimension of the dense Choi state
SCHMIDT_RANK_TOL = 1e-8
CANONICAL_FORMS = ("none", "right", "mixed")


@dataclass(frozen=True)
class PptMps:
    """MPS form of a purified process tensor.

    ``sites[n]`` is the rank-4 tensor of step n+1.  ``leading_site``, when
    present, exposes the initial system state as an extra physical leg in
    front of step 1 (out dimension d, dummy in dimension 1).
    """

    sites: tuple[np.ndarray, ...]
    d: int
    canonical: str = "none"  # none | right | mixed
    leading_site: np.ndarray | None = None
    initial_vector: np.ndarray | None = None

    FORMAT_VERSION = 1

    @property
    def n_steps(self) -> int:
        return len(self.sites)

    @property
    def bond_dims(self) -> list[int]:
        """Right bond of every chain element, ending with the environment leg."""
        return [t.shape[3] for t in self.chain()]

    @property
    def env_dim(self) -> int:
        return self.sites[-1].shape[3]

    def chain(self) -> list[np.ndarray]:
        if self.leading_site is not None:
            return [self.leading_site, *self.sites]
        return list(self.sites)

    def boundary_vector(self) -> np.ndarray:
        """Coefficient vector contracted into the first left bond."""
        left = self.chain()[0].shape[0]
        if self.initial_vector is not None:
            nu = as_complex_array(self.initial_vector).reshape(-1)
            if nu.size != left:
                raise DimensionError(f"initial vector length {nu.size} != left bond {left}")
            return nu
        if left != 1:
            raise DimensionError("first left bond exceeds 1 but no initial vector is stored")
        return np.ones(1, dtype=np.complex128)

    def validate(self, tol: float = 1e-10) -> None:
        if self.canonical not in CANONICAL_FORMS:
            raise ValidationError(f"unknown canonical form {self.canonical!r}")
        if not self.sites:
            raise ValidationError("PPT stores no sites")
        prev = None
        for k, t in enumerate(self.chain()):
            if t.ndim != 4:
                raise ValidationError(f"chain element {k} is rank {t.ndim}, expected 4")
            if prev is not None and t.shape[0] != prev:
                raise ValidationError(f"bond mismatch entering chain element {k}")
            prev = t.shape[3]
        for k, t in enumerate(self.sites):
            if t.shape[1] != self.d or t.shape[2] != self.d:
                raise ValidationError(f"site {k + 1} physical extents {t.shape[1:3]} != d={self.d}")
        if self.canonical == "right":
            res = self.right_canonical_residual()
            if res > tol:
                raise ValidationError(f"right-canonicality residual {res:.3e} exceeds {tol}")
        nrm = self.norm()
        if abs(nrm - 1.0) > tol:
            raise ValidationError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")

    def right_canonical_residual(self) -> float:
        """max_n || sum_{o,i} B B^dag - I ||_max over all chain elements but the first."""
        worst = 0.0
        for t in self.chain()[1:]:
            g = np.einsum("aoib,coib->ac", t, t.conj())
            worst = max(worst, float(np.max(np.abs(g - np.eye(t.shape[0])))))
        return worst

    def norm(self) -> float:
        return float(np.sqrt(np.real(overlap(self, self))))

    def dense_size(self) -> int:
        n_phys = self.n_steps * 2 + (1 if self.leading_site is not None else 0)
        return self.d**n_phys * self.env_dim

    def to_statevector(self, guard: int = DENSE_STATE_GUARD) -> np.ndarray:
        """Dense coefficient vector over (o_1, i_1, ..., o_N, i_N, env).

        With an exposed initial leg the o_0 index comes first.  Index fusion
        is row major throughout.
        """
        if self.dense_size() > guard:
            raise CapacityError(f"dense statevector would hold {self.dense_size()} entries")
        vec = self.boundary_vector().reshape(1, -1)
        for t in self.chain():
            vec = np.einsum("pa,aoib->poib", vec, t)
            vec = vec.reshape(-1, t.shape[3])
        return vec.reshape(-1)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "format_version": self.FORMAT_VERSION,
            "d": self.d,
            "canonical": self.canonical,
            "sites": [_tensor_doc(t) for t in self.sites],
        }
        if self.leading_site is not None:
            doc["leading_site"] = _tensor_doc(self.leading_site)
        if self.initial_vector is not None:
            doc["initial_vector"] = complex_to_pairs(self.initial_vector)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "PptMps":
        """Decode and ``validate`` a PPT document (bonds, norm, canonical claim)."""
        if doc.get("format_version") != PptMps.FORMAT_VERSION:
            raise ValidationError(f"unsupported format version {doc.get('format_version')}")
        sites = tuple(_tensor_from_doc(s) for s in doc["sites"])
        leading = _tensor_from_doc(doc["leading_site"]) if "leading_site" in doc else None
        nu = pairs_to_complex(doc["initial_vector"]) if "initial_vector" in doc else None
        mps = PptMps(
            sites=sites,
            d=int(doc["d"]),
            canonical=doc.get("canonical", "none"),
            leading_site=leading,
            initial_vector=nu,
        )
        mps.validate()
        return mps

    @staticmethod
    def from_json(text: str) -> "PptMps":
        return PptMps.from_json_dict(json.loads(text))


def _tensor_doc(t: np.ndarray) -> dict:
    return {"shape": list(t.shape), "data": complex_to_pairs(t)}


def _tensor_from_doc(doc: dict) -> np.ndarray:
    return pairs_to_complex(doc["data"], doc["shape"])


# -- construction ---------------------------------------------------------


def site_tensor_from_unitary(u: np.ndarray, d: int, D: int) -> np.ndarray:
    """Site tensor B[a, o, i, b] = <o, b|U|i, a> / sqrt(d)."""
    u = as_complex_array(u, ndim=2)
    if u.shape != (d * D, d * D):
        raise DimensionError(f"unitary shape {u.shape} incompatible with d={d}, D={D}")
    u4 = u.reshape(d, D, d, D)  # (o, b, i, a)
    return u4.transpose(3, 0, 2, 1) / np.sqrt(d)


def enlarged_site_tensor(b: np.ndarray, d: int) -> np.ndarray:
    """Lift a site to the enlarged environment, acting as identity on the
    absorbed system factor: B'[(s,a), o, i, (s,b)] = B[a, o, i, b]."""
    D = b.shape[0]
    out = np.zeros((d * D, d, d, d * b.shape[3]), dtype=np.complex128)
    for s in range(d):
        out[s * D : (s + 1) * D, :, :, s * b.shape[3] : (s + 1) * b.shape[3]] = b
    return out


def build_ppt(model: OqeModel, N: int, expose_initial_leg: bool = False) -> PptMps:
    """Construct the PPT of ``model`` over N steps as a right-canonical MPS.

    Separable initial states split off the system factor and give bond
    dimension D.  Entangled initial states absorb the initial system leg
    into the environment, giving bond dimension d*D; with
    ``expose_initial_leg`` that leg is kept as an extra physical index
    instead of being summed into the boundary.
    """
    model.validate()
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if not model.time_independent and len(model.unitaries) < N:
        raise ValidationError(
            f"time-dependent model stores {len(model.unitaries)} unitaries but N={N}"
        )
    d, D = model.d, model.D
    plain = [site_tensor_from_unitary(model.unitary_at(n), d, D) for n in range(1, N + 1)]

    if expose_initial_leg:
        # o_0 split off as a physical leg: the chain bonds stay D-dimensional
        # and measuring o_0 collapses the environment branch.
        lead = model.initial_state.reshape(d, D)[np.newaxis, :, np.newaxis, :]
        return PptMps(sites=tuple(plain), d=d, canonical="right", leading_site=lead)

    if model.entangled:
        sites = [enlarged_site_tensor(b, d) for b in plain]
        first = np.einsum("a,aoib->oib", model.initial_state, sites[0])[np.newaxis]
        sites[0] = first
        return PptMps(sites=tuple(sites), d=d, canonical="right")

    form = model.initial_schmidt()
    psi_env = form.env_basis[:, 0] * np.sign(form.lambdas[0] or 1.0)
    sites = list(plain)
    sites[0] = np.einsum("a,aoib->oib", psi_env, sites[0])[np.newaxis]
    return PptMps(sites=tuple(sites), d=d, canonical="right")


def check_isometry(model: OqeModel) -> float:
    """max_n || T_n^dag T_n - I ||_max for the step isometries T_n.

    T maps the environment into (environment, out, in) by feeding one half
    of a fresh maximally entangled pair through the step unitary; it is an
    exact isometry precisely when the stored matrix is unitary.
    """
    d, D = model.d, model.D
    worst = 0.0
    for u in model.unitaries:
        u4 = np.asarray(u, dtype=np.complex128).reshape(d, D, d, D)  # (o, b, i, a)
        t = u4.transpose(1, 0, 2, 3).reshape(D * d * d, D) / np.sqrt(d)
        worst = max(worst, float(np.max(np.abs(t.conj().T @ t - np.eye(D)))))
    return worst


# -- canonical forms ------------------------------------------------------


def to_right_canonical(mps: PptMps, truncation_tol: float = 1e-13) -> PptMps:
    """Right-canonicalise by an SVD sweep from the last chain element.

    Singular values below ``truncation_tol`` (relative to the largest on
    each bond) are dropped, so exactly-degenerate bonds shrink.  The state
    is renormalised; a numerically zero norm raises.
    """
    chain = [t.astype(np.complex128, copy=True) for t in mps.chain()]
    boundary = mps.boundary_vector()
    for k in range(len(chain) - 1, 0, -1):
        t = chain[k]
        l, do, di, r = t.shape
        mat = t.reshape(l, do * di * r)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = int(np.count_nonzero(s > truncation_tol * (s[0] if s.size else 0.0)))
        keep = max(keep, 1)
        chain[k] = vh[:keep].reshape(keep, do, di, r)
        carry = u[:, :keep] * s[:keep]
        chain[k - 1] = np.einsum("aoib,bk->aoik", chain[k - 1], carry)
    head = np.einsum("a,aoib->oib", boundary, chain[0])[np.newaxis]
    nrm = float(np.linalg.norm(head))
    if nrm < 1e-12:
        raise DegenerateStateError("state has numerically zero norm")
    chain[0] = head / nrm
    if mps.leading_site is not None:
        return PptMps(
            sites=tuple(chain[1:]), d=mps.d, canonical="right", leading_site=chain[0]
        )
    return PptMps(sites=tuple(chain), d=mps.d, canonical="right")


def memory_size(mps: PptMps, tol: float = SCHMIDT_RANK_TOL) -> int:
    """Maximal Schmidt rank over all bipartition cuts of the PPT.

    This equals the environment size of the minimal evolution model that
    reproduces the same process.  Schmidt values are counted above ``tol``.
    """
    work = mps if mps.canonical == "right" else to_right_canonical(mps)
    carry = work.boundary_vector().reshape(1, -1)
    best = 1
    for t in work.chain():
        block = np.einsum("pa,aoib->poib", carry, t)
        mat = block.reshape(-1, t.shape[3])
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        best = max(best, int(np.count_nonzero(s > tol)))
        carry = s[:, np.newaxis] * vh  # mixed-canonical carry onto the next bond
    return best


def mps_to_oqe(mps: PptMps) -> tuple[OqeModel, list[float]]:
    """Read a (time-dependent) evolution model back off a right-canonical MPS.

    Each site is reshaped into M[(o, b), (i, a)]; sqrt(d) * M is projected
    onto the closest isometry and completed to a unitary on a common
    environment of size max(bond dims).  The boundary site fixes the
    recovered initial environment state to |0>.  Returns the model together
    with the per-site projection residuals ||sqrt(d) M - isometry||_F.
    The recovered model matches the hidden one only up to an environment
    basis change.
    """
    if mps.canonical != "right":
        raise ValidationError("mps_to_oqe requires a right-canonical MPS")
    if mps.leading_site is not None:
        raise ValidationError("convert the absorbed form (no exposed initial leg)")
    d = mps.d
    D_model = max(t.shape[3] for t in mps.sites)
    unitaries: list[np.ndarray] = []
    residuals: list[float] = []
    for n, t in enumerate(mps.sites, start=1):
        l, _, _, r = t.shape
        if n > 1 and l > r:
            raise ConversionError(f"site {n}: left bond {l} exceeds right bond {r}", site=n)
        w = np.sqrt(d) * t.transpose(1, 3, 2, 0).reshape(d * r, d * l)
        smin = np.linalg.svd(w, compute_uv=False)[-1]
        if smin < 1e-8:
            raise ConversionError(
                f"site {n}: reshaped site matrix is rank deficient (s_min={smin:.2e})", site=n
            )
        iso = closest_isometry(w)
        residuals.append(float(np.linalg.norm(w - iso)))
        unitaries.append(_embed_and_complete(iso, d, l, r, D_model))
    psi = np.zeros(d * D_model, dtype=np.complex128)
    psi[0] = 1.0
    model = OqeModel.create(d, D_model, unitaries, psi)
    return model, residuals


def _embed_and_complete(iso: np.ndarray, d: int, l: int, r: int, D: int) -> np.ndarray:
    """Embed an isometry (d*r, d*l) into a (d*D, d*D) unitary.

    Column (i, a) of the result reproduces the isometry column for a < l;
    the remaining columns are a deterministic Gram-Schmidt completion.
    """
    dim = d * D
    full = np.zeros((dim, dim), dtype=np.complex128)
    assigned = np.zeros(dim, dtype=bool)
    for i in range(d):
        for a in range(l):
            col = iso[:, i * l + a].reshape(d, r)
            full[:, i * D + a] = np.pad(col, ((0, 0), (0, D - r))).reshape(-1)
            assigned[i * D + a] = True
    return fill_unassigned_columns(full, assigned)


def ppt_to_process_tensor(mps: PptMps) -> np.ndarray:
    """Dense process tensor (Choi state) with the environment traced out.

    Returns a Hermitian, positive semidefinite, unit-trace matrix over the
    physical legs.  Guarded to physical dimension <= 4096.
    """
    n_phys = mps.n_steps * 2 + (1 if mps.leading_site is not None else 0)
    phys_dim = mps.d**n_phys
    if phys_dim > PROCESS_TENSOR_GUARD:
        raise CapacityError(f"process tensor dimension {phys_dim} exceeds guard")
    x = mps.to_statevector().reshape(phys_dim, mps.env_dim)
    return x @ x.conj().T


# -- overlaps and fidelities ----------------------------------------------


def overlap_matrix(a: PptMps, b: PptMps) -> np.ndarray:
    """Environment-leg overlap matrix M[p, q] = <a; env p | b; env q>.

    Contracts the physical legs of the two PPTs, leaving both environment
    legs open.
    """
    ca, cb = a.chain(), b.chain()
    if len(ca) != len(cb) or a.d != b.d:
        raise DimensionError("overlap requires PPTs of equal length and system dimension")
    env = np.outer(a.boundary_vector().conj(), b.boundary_vector())
    for ta, tb in zip(ca, cb):
        env = transfer_left(env, ta, tb)
    return env


def overlap(a: PptMps, b: PptMps) -> complex:
    """Full inner product <a|b>, environment legs contracted against each other."""
    m = overlap_matrix(a, b)
    if m.shape[0] != m.shape[1]:
        raise DimensionError("environment dimensions differ; use gauge_fidelity")
    return complex(np.trace(m))


def gauge_fidelity(a: PptMps, b: PptMps) -> float:
    """Uhlmann fidelity of the two process tensors, maximised over the
    environment gauge.

    Both PPTs purify their process tensors, so the fidelity is the squared
    nuclear norm of the environment-leg overlap matrix.
    """
    m = overlap_matrix(a, b)
    s = np.linalg.svd(m, compute_uv=False)
    na, nb = a.norm(), b.norm()
    return float((np.sum(s) / (na * nb)) ** 2)


def statevector_to_mps(
    vec: np.ndarray,
    d: int,
    N: int,
    env_dim: int,
    tol: float = 1e-12,
    max_bond: int | None = None,
) -> PptMps:
    """Right-canonical MPS from a dense vector over (o_1, i_1, ..., o_N, i_N, env).

    ``max_bond`` caps every internal bond, compressing noisy states back
    onto the manifold of the given environment dimension.
    """
    vec = as_complex_array(vec).reshape(-1)
    if vec.size != (d * d) ** N * env_dim:
        raise DimensionError(f"vector length {vec.size} incompatible with N={N}, env={env_dim}")
    sites: list[np.ndarray] = [None] * N
    work = vec
    bond = env_dim
    for n in range(N, 1, -1):
        mat = work.reshape(-1, d * d * bond)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = max(int(np.count_nonzero(s > tol * s[0])), 1) if s.size else 1
        if max_bond is not None:
            keep = min(keep, max_bond)
        sites[n - 1] = vh[:keep].reshape(keep, d, d, bond)
        work = (u[:, :keep] * s[:keep]).reshape(-1)
        bond = keep
    head = work.reshape(1, d, d, bond)
    nrm = float(np.linalg.norm(head))
    if nrm < 1e-12:
        raise DegenerateStateError("state has numerically zero norm")
    sites[0] = head / nrm
    return PptMps(sites=tuple(sites), d=d, canonical="right")


def perturbed(mps: PptMps, scale: float, seed) -> PptMps:
    """Add Gaussian noise of the given scale to every site tensor (testing aid)."""
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    noisy = []
    for t in mps.sites:
        noise = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        noisy.append(t + scale * noise)
    return replace(mps, sites=tuple(noisy), canonical="none")
