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
from dataclasses import dataclass

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
    decode_complex,
    encode_complex,
    fill_unassigned_columns,
    json_int,
    json_object,
    transfer_left,
)

DENSE_STATE_GUARD = 2**20  # max entries for dense statevector constructions
PROCESS_TENSOR_GUARD = 4096  # max physical dimension of the dense Choi state
SCHMIDT_RANK_TOL = 1e-8  # Schmidt values counted by memory_size
CANONICAL_TOL = 1e-10  # right-canonicality residual and norm deviation allowed by validate
TRUNCATION_TOL = 1e-13  # relative singular value dropped by to_right_canonical
SPLIT_TOL = 1e-12  # relative singular value dropped by split_block
CANONICAL_FORMS = ("none", "right")


@dataclass(frozen=True)
class PptMps:
    """MPS form of a purified process tensor.

    ``sites[n]`` is the rank-4 tensor of step n+1.  ``leading_site``, when
    present, exposes the initial system state as an extra physical leg in
    front of step 1 (out dimension d, dummy in dimension 1).  The initial
    state sits inside the first chain element, whose left bond is 1, so
    every sweep starts from the 1 x 1 environment [[1]].
    """

    sites: tuple[np.ndarray, ...]
    d: int
    canonical: str = "none"  # none | right
    leading_site: np.ndarray | None = None

    # Version 2 writes complex leaves as base64 complex128 (``encode_complex``);
    # version 1 wrote [re, im] pairs, which ``decode_complex`` still reads.
    FORMAT_VERSION = 2

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

    def validate(self) -> None:
        if self.canonical not in CANONICAL_FORMS:
            raise ValidationError(f"unknown canonical form {self.canonical!r}")
        if not self.sites:
            raise ValidationError("PPT stores no sites")
        prev = 1  # the first chain element opens on a left bond of 1
        for k, t in enumerate(self.chain()):
            if t.ndim != 4:
                raise ValidationError(f"chain element {k} is rank {t.ndim}, expected 4")
            if t.shape[0] != prev:
                raise ValidationError(
                    f"chain element {k} has left bond {t.shape[0]}, expected {prev}"
                )
            prev = t.shape[3]
        for k, t in enumerate(self.sites):
            if t.shape[1] != self.d or t.shape[2] != self.d:
                raise ValidationError(f"site {k + 1} physical extents {t.shape[1:3]} != d={self.d}")
        # Entries read from a file may be large enough to overflow these sums;
        # the inf or nan they give fails the comparisons below.
        with np.errstate(over="ignore", invalid="ignore"):
            res = self.right_canonical_residual() if self.canonical == "right" else 0.0
            nrm = self.norm()
        if not res <= CANONICAL_TOL:
            raise ValidationError(f"right-canonicality residual {res:.3e} exceeds {CANONICAL_TOL}")
        if not abs(nrm - 1.0) <= CANONICAL_TOL:
            raise ValidationError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")

    def right_canonical_residual(self) -> float:
        """max_n || sum_{o,i} B B^dag - I ||_max over all chain elements but the first."""
        residuals = [
            np.max(np.abs(np.einsum("aoib,coib->ac", t, t.conj()) - np.eye(t.shape[0])))
            for t in self.chain()[1:]
        ]
        return float(np.max(residuals, initial=0.0))  # np.max keeps a nan

    def norm(self) -> float:
        return float(np.sqrt(np.real(overlap(self, self))))

    def dense_size(self) -> int:
        n_phys = self.n_steps * 2 + (1 if self.leading_site is not None else 0)
        return self.d**n_phys * self.env_dim

    def to_statevector(self) -> np.ndarray:
        """Dense coefficient vector over (o_1, i_1, ..., o_N, i_N, env).

        With an exposed initial leg the o_0 index comes first.  Index fusion
        is row major throughout.
        """
        if self.dense_size() > DENSE_STATE_GUARD:
            raise CapacityError(f"dense statevector would hold {self.dense_size()} entries")
        vec = np.ones((1, 1), dtype=np.complex128)
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
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "PptMps":
        """Decode and ``validate`` a PPT document (bonds, norm, canonical claim).

        Reads format versions 1 and 2.  No version stores an initial vector,
        so a document with that key is rejected rather than read differently.
        """
        json_object(doc, "a PPT document")
        if doc.get("format_version") not in (1, PptMps.FORMAT_VERSION):
            raise ValidationError(f"unsupported format version {doc.get('format_version')}")
        if "initial_vector" in doc:
            raise ValidationError(
                "unsupported key 'initial_vector': a PPT opens on a left bond of 1"
            )
        if not isinstance(doc["sites"], list):
            raise ValidationError(f"'sites' must be a list, got {type(doc['sites']).__name__}")
        sites = tuple(_tensor_from_doc(s) for s in doc["sites"])
        leading = _tensor_from_doc(doc["leading_site"]) if "leading_site" in doc else None
        mps = PptMps(
            sites=sites,
            d=json_int(doc, "d"),
            canonical=doc.get("canonical", "none"),
            leading_site=leading,
        )
        mps.validate()
        return mps

    @staticmethod
    def from_json(text: str) -> "PptMps":
        return PptMps.from_json_dict(json.loads(text))


def _tensor_doc(t: np.ndarray) -> dict:
    return {"shape": list(t.shape), "data": encode_complex(t)}


def _tensor_from_doc(doc: dict) -> np.ndarray:
    json_object(doc, "a site")
    return decode_complex(doc["data"], doc["shape"])


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


def to_right_canonical(mps: PptMps) -> PptMps:
    """Right-canonicalise by an SVD sweep from the last chain element.

    Singular values below ``TRUNCATION_TOL`` (relative to the largest on
    each bond) are dropped, so exactly-degenerate bonds shrink.  The state
    is renormalised; a numerically zero norm raises.
    """
    chain = [t.astype(np.complex128, copy=True) for t in mps.chain()]
    for k in range(len(chain) - 1, 0, -1):
        t = chain[k]
        l, do, di, r = t.shape
        mat = t.reshape(l, do * di * r)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = int(np.count_nonzero(s > TRUNCATION_TOL * (s[0] if s.size else 0.0)))
        keep = max(keep, 1)
        chain[k] = vh[:keep].reshape(keep, do, di, r)
        carry = u[:, :keep] * s[:keep]
        chain[k - 1] = np.einsum("aoib,bk->aoik", chain[k - 1], carry)
    head = np.einsum("pa,aoib->poib", np.ones((1, 1), dtype=np.complex128), chain[0])
    nrm = float(np.linalg.norm(head))
    if nrm < 1e-12:
        raise DegenerateStateError("state has numerically zero norm")
    chain[0] = head / nrm
    if mps.leading_site is not None:
        return PptMps(
            sites=tuple(chain[1:]), d=mps.d, canonical="right", leading_site=chain[0]
        )
    return PptMps(sites=tuple(chain), d=mps.d, canonical="right")


def memory_size(mps: PptMps) -> int:
    """Maximal Schmidt rank over all bipartition cuts of the PPT.

    This equals the environment size of the minimal evolution model that
    reproduces the same process.  Schmidt values are counted above
    ``SCHMIDT_RANK_TOL``.
    """
    work = mps if mps.canonical == "right" else to_right_canonical(mps)
    carry = np.ones((1, 1), dtype=np.complex128)
    best = 1
    for t in work.chain():
        block = np.einsum("pa,aoib->poib", carry, t)
        mat = block.reshape(-1, t.shape[3])
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        best = max(best, int(np.count_nonzero(s > SCHMIDT_RANK_TOL)))
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
    full = np.zeros((d * D, d * D), dtype=np.complex128)
    full.reshape(d, D, d, D)[:, :r, :, :l] = iso.reshape(d, r, d, l)
    assigned = np.zeros((d, D), dtype=bool)
    assigned[:, :l] = True
    return fill_unassigned_columns(full, assigned.reshape(-1))


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
    env = np.ones((1, 1), dtype=np.complex128)
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


def split_block(
    block: np.ndarray, d: int, n_sites: int, max_bond: int | None = None
) -> list[np.ndarray]:
    """Split a block (left bond, (d^2)^n_sites, right bond) into ``n_sites``
    site tensors by SVDs from the right.

    Every site but the first is a row block of an SVD's V^dag and hence
    right-canonical; the first carries the singular values.  On each bond
    the singular values above ``SPLIT_TOL`` times the largest are kept, at most
    ``max_bond`` of them and at least one.
    """
    left, _, bond = block.shape
    sites: list[np.ndarray] = [None] * n_sites
    work = block
    for n in range(n_sites - 1, 0, -1):
        u, s, vh = np.linalg.svd(work.reshape(-1, d * d * bond), full_matrices=False)
        keep = max(int(np.count_nonzero(s > SPLIT_TOL * s[0])), 1)
        if max_bond is not None:
            keep = min(keep, max_bond)
        sites[n] = vh[:keep].reshape(keep, d, d, bond)
        work = u[:, :keep] * s[:keep]
        bond = keep
    sites[0] = work.reshape(left, d, d, bond)
    return sites
