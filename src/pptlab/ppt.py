"""Purified process tensors as matrix product states.

A PPT of an N-step evolution is a pure state on the 2N physical legs
(o_1, i_1, ..., o_N, i_N) plus one final environment leg.  Site tensors use
the index layout ``(left bond, out, in, right bond)`` and are obtained from
the step unitary as

    B[a, o, i, b] = <o, b| U |i, a> / sqrt(d),

which is right-canonical (and, except at the boundary, left-canonical) by
unitarity.  For entangled initial states the environment is enlarged to the
joint system-environment space of dimension d*D and the site tensors act as
the identity on the absorbed system factor.  Every walk of a chain, in
either direction, is ``_left_envs``, and every SVD split ``_split_step``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

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
    _STACK_CHUNK,
    _cluster_rotation,
    _clusters,
    _is_integer,
    as_complex_array,
    _decode_entries,
    encode_complex,
    fill_unassigned_columns,
    json_int,
    json_object,
    json_text,
    transfer_left,
)

DENSE_STATE_GUARD = 2**20  # max entries for dense statevector constructions
PROCESS_TENSOR_GUARD = 4096  # max physical dimension of the dense Choi state
SCHMIDT_RANK_TOL = 1e-8  # Schmidt values counted by memory_size
CANONICAL_TOL = 1e-10  # right-canonicality residual and norm deviation allowed by validate
SPLIT_TOL = 1e-12  # relative singular value dropped by every SVD split (_split_step)
CLUSTER_TOL = 1e-10  # gap below which kept values share a pinned basis (relative in _split_step)
MAX_STEPS = 10**6  # max steps build_ppt makes and a PPT document may expand to
CANONICAL_FORMS = ("none", "right")


@dataclass(frozen=True, eq=False)
class PptMps:
    """MPS form of a purified process tensor.

    ``runs`` holds (site, repeat) pairs in step order: one read-only, C-contiguous
    rank-4 complex128 copy per ``repeat`` >= 1 consecutive steps, which ``chain()``
    expands to one element per step.  A first run of one site with input
    extent 1 is step 0 (``leading_site``), the exposed initial system leg.
    The first chain element holds the initial state and opens on a left
    bond of 1.  ``d``, step 0 and ``canonical`` are measured, not set.
    Construction checks the shapes (``_check_shapes``); ``validate``, the norm.
    """

    runs: tuple[tuple[np.ndarray, int], ...]

    def __post_init__(self):
        runs = tuple(
            (np.array(t, dtype=np.complex128, order="C"), _checked_repeat(n)) for t, n in self.runs
        )
        for t, _ in runs:  # read-only copies: no caller can change a site once it is measured
            as_complex_array(t)  # rejects non-finite entries; a C-contiguous copy is not copied
            t.flags.writeable = False
        _check_shapes(runs)
        object.__setattr__(self, "runs", runs)

    # Version 3 writes each maximal run of identical consecutive sites once,
    # with its length as "repeat".  Version 2 wrote one site per step;
    # version 1 did too, with [re, im] pairs, which ``decode_complex`` still
    # reads, in place of base64 complex128 (``encode_complex``).
    FORMAT_VERSION = 3

    @property
    def leading_site(self) -> np.ndarray | None:
        """Step 0, the exposed initial system leg (out extent d, in extent 1), if any."""
        t, n = self.runs[0]  # measured as ``_check_shapes`` measures it
        return t if n == 1 and t.shape[2] == 1 else None

    @property
    def n_steps(self) -> int:
        return sum(n for _, n in self.runs) - (self.leading_site is not None)

    @property
    def d(self) -> int:
        """System dimension: the out extent of step N's site."""
        return self.runs[-1][0].shape[1]

    @property
    def bond_dims(self) -> list[int]:
        """Right bond of every chain element, ending with the environment leg."""
        return [t.shape[3] for t in self.chain()]

    @property
    def env_dim(self) -> int:
        return self.runs[-1][0].shape[3]

    def chain(self, stop: int | None = None) -> list[np.ndarray]:
        """One element per step, step 0 first if exposed; only the first ``stop``."""
        steps = itertools.chain.from_iterable(itertools.repeat(t, n) for t, n in self.runs)
        return list(itertools.islice(steps, stop))

    @cached_property
    def canonical(self) -> str:
        """"right" if all chain elements but the first are right-canonical, else "none"."""
        return "right" if all(r <= CANONICAL_TOL for r, _, _ in self._gram_residuals) else "none"

    def validate(self) -> None:
        """Check the unit norm: certified for a chain that measures right, else swept."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow's inf or nan fails below
            if self.canonical == "right" and self._norm_certified():
                return
            nrm = self.norm()
        if not abs(nrm - 1.0) <= CANONICAL_TOL:
            raise ValidationError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")

    def right_canonical_residual(self) -> float:
        """max_n || sum_{o,i} B B^dag - I ||_max over all chain elements but
        the first, evaluated once per run."""
        return float(np.max([r for r, _, _ in self._gram_residuals], initial=0.0))  # keeps a nan

    @cached_property  # measured once per object, on its own read-only sites
    def _gram_residuals(self) -> list[tuple[float, int, int]]:
        """(||sum_{o,i} B B^dag - I||_max, left bond, repeat) of each run B of
        the chain elements but the first; an overflow gives inf or nan."""
        with np.errstate(over="ignore", invalid="ignore"):
            return [(_gram_residual(t), t.shape[0], n) for t, n in _after_first_step(self.runs)]

    def _norm_certified(self) -> bool:
        """Whether the first chain element and the ``_gram_residuals`` of a
        right-canonical chain prove |norm - 1| <= ``CANONICAL_TOL``.

        The right environments obey R_{k-1} = Psi_k(R_k) from R_N = I, where
        Psi_k(X) = sum_{o,i} B X B^dag is completely positive, so its norm is
        ||Psi_k(I)|| <= 1 + delta_k with delta_k the left bond times the
        max-entry residual (Russo-Dye).  Hence ||R_0 - I|| <= prod_k
        (1 + delta_k) - 1 =: g, and the squared norm lies within h * g of
        h = ||chain[0]||_F^2.  False means only that this bound is too loose
        to decide; the ``norm`` sweep then does.
        """
        return _certifies(self._head_norm2, self._head_norm2 * self._gram_bound)

    def _certified_head_norm2(self) -> float | None:
        """h = ||chain[0]||_F^2 where the chain measures right and the bound of
        ``_norm_certified``, norm^2 within h (1 +- g), puts norm^2 / h within
        [(1 - ``CANONICAL_TOL``)^2, (1 + ``CANONICAL_TOL``)^2]; else None."""
        if self.canonical == "right" and _certifies(1.0, self._gram_bound):
            return self._head_norm2
        return None

    @property
    def _head_norm2(self) -> float:
        head = self.runs[0][0]
        return float(np.vdot(head, head).real)

    @cached_property
    def _gram_bound(self) -> float:
        """g = prod_k (1 + delta_k) - 1 of ``_norm_certified``, over the ``_gram_residuals``."""
        return math.expm1(sum(n * math.log1p(l * r) for r, l, n in self._gram_residuals))

    def norm(self) -> float:
        """The state norm, swept once per object (its sites are read-only)."""
        return self._swept_norm

    @cached_property
    def _swept_norm(self) -> float:
        return float(np.sqrt(np.real(overlap(self, self))))

    def dense_size(self) -> int:
        return math.prod((t.shape[1] * t.shape[2]) ** n for t, n in self.runs) * self.env_dim

    def to_statevector(self) -> np.ndarray:
        """Dense coefficient vector over (o_1, i_1, ..., o_N, i_N, env).

        With an exposed initial leg the o_0 index comes first.  Index fusion
        is row major throughout.
        """
        if self.dense_size() > DENSE_STATE_GUARD:
            raise CapacityError(f"dense statevector would hold {self.dense_size()} entries")
        return _contract_sites(self.chain()).reshape(-1)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        lead = self.leading_site is not None
        doc = {
            "format_version": self.FORMAT_VERSION,
            "d": self.d,
            "canonical": self.canonical,
            "sites": _site_run_docs(self.runs[lead:]),
        }
        if lead:
            doc["leading_site"] = _tensor_doc(self.leading_site)
        return doc

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    @staticmethod
    def from_json_dict(doc: dict) -> "PptMps":
        """Decode and ``validate`` a PPT document (bonds, canonical claim, norm).

        Reads format versions 1, 2 and 3.  Each site document becomes one
        run of its version-3 ``repeat`` (a JSON integer >= 1) steps, which
        total at most ``MAX_STEPS``, after step 0 if "leading_site" exposes
        it; "d" >= 2 must fit every site.  A key no version writes (an
        initial vector, a repeat before version 3 or on the leading site)
        is rejected, not read differently.
        """
        json_object(doc, "a PPT document")
        version = doc.get("format_version")
        if type(version) is not int or version not in (1, 2, PptMps.FORMAT_VERSION):
            raise ValidationError(f"unsupported format version {version}")
        if "initial_vector" in doc:
            raise ValidationError(
                "unsupported key 'initial_vector': a PPT opens on a left bond of 1"
            )
        if not isinstance(doc["sites"], list):
            raise ValidationError(f"'sites' must be a list, got {type(doc['sites']).__name__}")
        runs: list[tuple[np.ndarray, int]] = []
        steps = 0
        for site_doc in doc["sites"]:
            repeat = _site_repeat(site_doc, version)
            if repeat > MAX_STEPS - steps:
                raise ValidationError(f"PPT document holds more than MAX_STEPS={MAX_STEPS} steps")
            runs.append((_tensor_from_doc(site_doc), repeat))
            steps += repeat
        lead = "leading_site" in doc
        if lead:
            if "repeat" in json_object(doc["leading_site"], "a site"):
                raise ValidationError("the leading site is step 0 and cannot repeat")
            runs.insert(0, (_tensor_from_doc(doc["leading_site"]), 1))
        claim = doc.get("canonical", "none")
        if claim not in CANONICAL_FORMS:
            raise ValidationError(f"unknown canonical form {claim!r}")
        _check_shapes(runs, json_int(doc, "d"), lead)  # the document's claims, before measuring
        mps = PptMps(runs=tuple(runs))
        if claim == "right" and mps.canonical == "none":
            res = mps.right_canonical_residual()
            raise ValidationError(f"right-canonicality residual {res:.3e} exceeds {CANONICAL_TOL}")
        mps.validate()
        return mps

    @staticmethod
    def from_json(text: str) -> "PptMps":
        return PptMps.from_json_dict(json.loads(text))


def _tensor_doc(t: np.ndarray) -> dict:
    return {"shape": list(t.shape), "data": encode_complex(t)}


def _tensor_from_doc(doc: dict) -> np.ndarray:
    json_object(doc, "a site")
    return _decode_entries(doc["data"], doc["shape"])  # copied and checked once, by PptMps


def _check_shapes(runs, d: int | None = None, lead: bool | None = None) -> None:
    """Raise ``ValidationError`` unless ``runs`` chain as a PPT: rank-4 sites with no empty
    extent, a first left bond of 1, bonds that chain, (d, d) physical legs and (d, 1) at an
    exposed step 0.  ``d`` >= 2 and step 0 are measured unless given, as a document states them."""
    k = 0
    for t, n in runs:  # every rank before d and step 0 are read off the sites
        if t.ndim != 4:
            raise ValidationError(f"chain element {k} is rank {t.ndim}, expected 4")
        if 0 in t.shape:
            raise ValidationError(f"chain element {k} has an empty extent: shape {t.shape}")
        k += n
    lead = k > 0 and runs[0][1] == 1 and runs[0][0].shape[2] == 1 if lead is None else lead
    if k <= lead:
        raise ValidationError("PPT stores no sites")
    d = runs[-1][0].shape[1] if d is None else d
    if d < 2:
        raise ValidationError(f"need d >= 2, got d={d}")
    prev, k = 1, 0  # the first chain element opens on a left bond of 1
    for t, n in runs:  # k: chain index of the run's first element
        if t.shape[0] != prev:
            raise ValidationError(f"chain element {k} has left bond {t.shape[0]}, expected {prev}")
        if n > 1 and t.shape[0] != t.shape[3]:  # the run's next element opens on t's right bond
            raise ValidationError(
                f"chain element {k + 1} has left bond {t.shape[0]}, expected {t.shape[3]}"
            )
        step = k + 1 - lead  # 0 for an exposed step 0, whose in extent is 1
        if t.shape[1:3] != ((d, d) if step else (d, 1)):
            where = f"site {step}" if step else "leading site"
            want = f"d={d}" if step else f"(d={d}, 1)"
            raise ValidationError(f"{where} physical extents {t.shape[1:3]} != {want}")
        prev, k = t.shape[3], k + n


def _site_run_docs(runs) -> list[dict]:
    """One site document per maximal run of consecutive sites that encode
    alike (equal shape and complex128 bytes, so signed zeros differ), with
    the run's length as "repeat" where it exceeds 1.  Each of ``runs`` is
    encoded once, and neighbouring runs that encode alike are merged."""
    merged: list[list] = []  # [site document, run length]
    for t, n in runs:
        doc = _tensor_doc(t)
        if merged and doc == merged[-1][0]:
            merged[-1][1] += n
        else:
            merged.append([doc, n])
    return [doc if n == 1 else {**doc, "repeat": n} for doc, n in merged]


def _site_repeat(doc, version: int) -> int:
    """The ``repeat`` of a site document: 1 when absent, else a JSON
    integer >= 1, which only format 3 writes."""
    json_object(doc, "a site")
    if "repeat" not in doc:
        return 1
    if version < 3:
        raise ValidationError(f"format version {version} sites cannot repeat")
    return _checked_repeat(doc["repeat"])


def _checked_repeat(n) -> int:
    if not (_is_integer(n) and n >= 1):
        raise ValidationError(f"'repeat' must be an integer >= 1, got {n!r}")
    return int(n)


def _gram_residual(t: np.ndarray) -> float:
    """||sum_{o,i} B B^dag - I||_max of one site B, as an (l, d^2 r) matrix."""
    m = t.reshape(t.shape[0], -1)
    gram = m @ m.conj().T
    gram.ravel()[:: t.shape[0] + 1] -= 1  # minus the identity, in place on the diagonal
    return float(np.abs(gram).max())


def _certifies(h: float, bound: float) -> bool:
    """Whether every squared norm within ``bound`` of ``h`` is within ``CANONICAL_TOL`` of 1."""
    return (1.0 - CANONICAL_TOL) ** 2 <= h - bound and h + bound <= (1.0 + CANONICAL_TOL) ** 2


def _after_first_step(runs) -> tuple:
    """The runs of steps 2..N, for a chain whose first step is replaced or skipped."""
    (t, n), *rest = runs
    return ((t, n - 1), *rest) if n > 1 else tuple(rest)


# -- construction ---------------------------------------------------------


def site_tensor_from_unitary(u: np.ndarray, d: int, D: int) -> np.ndarray:
    """Site tensor B[a, o, i, b] = <o, b|U|i, a> / sqrt(d); a stack (..., dD, dD) of
    unitaries gives the stack (..., D, d, d, D) of their sites, each its own call's."""
    u = as_complex_array(u)
    if u.shape[-2:] != (d * D, d * D):
        raise DimensionError(f"unitary shape {u.shape} incompatible with d={d}, D={D}")
    n = u.ndim - 2  # leading stack axes
    u4 = u.reshape(u.shape[:n] + (d, D, d, D))  # (..., o, b, i, a)
    return u4.transpose(*range(n), n + 3, n, n + 2, n + 1) / np.sqrt(d)


def _site_matrix(t: np.ndarray) -> np.ndarray:
    """The inverse layout of ``site_tensor_from_unitary``, without its scale:
    M[(o, b), (i, a)] = B[a, o, i, b], shape (d r, d l) for a site (l, d, d, r)."""
    l, do, di, r = t.shape
    return t.transpose(1, 3, 2, 0).reshape(do * r, di * l)


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

    With ``expose_initial_leg`` the initial system leg is an extra physical
    index in front of step 1, bonds stay D-dimensional and measuring it
    collapses the environment branch.  Otherwise entangled initial states
    absorb that leg into the environment (bond dimension d*D) and separable
    ones split off the system factor (bond dimension D).  Consecutive steps
    that share a stored unitary object form one run (a time-independent
    model's N, or N - 1 after a first step of its own unless exposed).
    """
    if not (_is_integer(N) and 1 <= N <= MAX_STEPS):
        raise ValidationError(f"N must be an integer in 1..MAX_STEPS={MAX_STEPS}, got {N!r}")
    if not model.time_independent and len(model.unitaries) < N:
        raise ValidationError(
            f"time-dependent model stores {len(model.unitaries)} unitaries but N={N}"
        )
    d, D = model.d, model.D
    runs = tuple(  # OqeModel stores a unitary that repeats as one shared object
        (site_tensor_from_unitary(u, d, D), int(N) if model.time_independent else 1 + len(more))
        for _, (u, *more) in itertools.groupby(model.unitaries[:N], key=id)
    )

    if expose_initial_leg or model.entangled:
        lead = model.initial_state.reshape(d, D)[np.newaxis, :, np.newaxis, :]
        exposed = PptMps(runs=((lead, 1), *runs))
        return exposed if expose_initial_leg else absorb_initial_leg(exposed)

    psi_env = model.initial_schmidt().env_basis[:, 0]
    first = np.einsum("a,aoib->oib", psi_env, runs[0][0])[np.newaxis]
    return PptMps(runs=((first, 1), *_after_first_step(runs)))


def absorb_initial_leg(mps: PptMps) -> PptMps:
    """Move an exposed initial system leg into the environment: the leading
    site (step 0) becomes the initial vector of the enlarged d*D environment.
    Each later run's site is enlarged once, and step 1 leaves its run."""
    (lead, _), *steps = mps.runs
    runs = [(enlarged_site_tensor(b, mps.d), n) for b, n in steps]
    first = np.einsum("a,aoib->oib", lead.reshape(-1), runs[0][0])[np.newaxis]
    return PptMps(runs=((first, 1), *_after_first_step(runs)))


def check_isometry(model: OqeModel) -> float:
    """max_n || T_n^dag T_n - I ||_max for the step isometries T_n.

    T maps the environment into (environment, out, in) by feeding one half
    of a fresh maximally entangled pair through the step unitary; it is an
    exact isometry precisely when the stored matrix is unitary, and T^dag T
    is the (conjugated) Gram matrix of the step's site tensor.
    """
    d, D = model.d, model.D
    return max(_gram_residual(site_tensor_from_unitary(u, d, D)) for u in model.unitaries)


# -- canonical forms ------------------------------------------------------


def to_right_canonical(mps: PptMps) -> PptMps:
    """``mps`` itself where it is ``_ready_to_measure``; where it measures right with a
    first element off unit norm, its runs with that element divided by its norm, in the
    gauge it came in; else its renormalised right-canonical form by ``_split_step`` from
    the last chain element, which depends only on the state, not on a unitary gauge of
    its inner bonds.  A numerically zero norm raises."""
    if _ready_to_measure(mps):
        return mps
    if mps.canonical == "right":  # the later sites already contract to the identity
        chain, kept = [mps.runs[0][0]], _after_first_step(mps.runs)
    else:
        chain, kept = mps.chain(), ()  # read-only sites, replaced, never written
    for k in range(len(chain) - 1, 0, -1):
        carry, rows = _split_step(chain[k].reshape(chain[k].shape[0], -1))
        chain[k] = rows.reshape(len(rows), *chain[k].shape[1:])
        chain[k - 1] = np.tensordot(chain[k - 1], carry, axes=1)
    nrm = float(np.linalg.norm(chain[0]))
    if nrm < 1e-12:
        raise DegenerateStateError("state has numerically zero norm")
    chain[0] = chain[0] / nrm
    return PptMps(runs=(*((t, 1) for t in chain), *kept))


def _ready_to_measure(mps: PptMps) -> bool:
    """Whether ``mps`` measures right with a first element of squared norm within
    ``CANONICAL_TOL`` of 1: its later elements contract to the identity, its norm is 1."""
    return mps.canonical == "right" and abs(mps._head_norm2 - 1.0) <= CANONICAL_TOL


def memory_size(mps: PptMps) -> int:
    """Maximal Schmidt rank over all bipartition cuts of the PPT.

    This equals the environment size of the minimal evolution model that
    reproduces the same process.  Schmidt values are counted above
    ``SCHMIDT_RANK_TOL``.
    """
    carry = np.ones((1, 1), dtype=np.complex128)
    best = 1
    for t in to_right_canonical(mps).chain():
        block = np.tensordot(carry, t, axes=1).reshape(-1, t.shape[3])  # ((p, o, i), b)
        _, s, vh = np.linalg.svd(block, full_matrices=False)
        best = max(best, int(np.count_nonzero(s > SCHMIDT_RANK_TOL)))
        carry = s[:, np.newaxis] * vh  # mixed-canonical carry onto the next bond
    return best


def mps_to_oqe(mps: PptMps) -> tuple[OqeModel, list[float]]:
    """Read a (time-dependent) evolution model back off an MPS, read as
    ``to_right_canonical`` returns it.

    Each site is reshaped into M[(o, b), (i, a)] (``_site_matrix``);
    sqrt(d) * M is projected onto the closest isometry and completed to a
    unitary on a common environment of size max(bond dims).  Without an
    exposed initial leg the boundary site fixes the recovered initial state
    to |0>|0>; an exposed leg (bond r_0) is read into the initial joint
    state, whose environment components r_0 and up are zero.  Returns the
    model together with the per-site projection residuals
    ||sqrt(d) M - isometry||_F.  Each run is read once, so the steps of a
    run share one unitary and one residual, and the runs of one site shape
    by one stacked SVD per 64 runs (each slice is the 2-D call's bytes).  A run whose
    left bond exceeds its right or whose matrix is rank deficient raises
    ``ConversionError`` naming the first such step.  The recovered model
    matches the hidden one only up to an environment basis change.
    """
    mps = to_right_canonical(mps)
    unitaries, residuals = _read_unitaries(mps)
    d, lead = mps.d, mps.leading_site
    D_model = unitaries[0].shape[0] // d
    psi = np.zeros((d, D_model), dtype=np.complex128)
    if lead is None:
        psi[0, 0] = 1.0
    else:
        psi[:, : lead.shape[3]] = lead.reshape(d, -1)
    return OqeModel(d, D_model, unitaries, psi.reshape(-1)), residuals


def _read_unitaries(mps: PptMps) -> tuple[list[np.ndarray], list[float]]:
    """The step unitaries, on an environment of size max(bond dims), and the residuals of
    ``mps_to_oqe`` of a PPT ``_ready_to_measure``, without a model to check them."""
    d, runs = mps.d, mps.runs[mps.leading_site is not None :]
    D_model = max(t.shape[3] for t, _ in mps.runs)
    unitaries: list[np.ndarray] = []
    residuals: list[float] = []
    for a in range(0, len(runs), _STACK_CHUNK):
        chunk = runs[a : a + _STACK_CHUNK]
        for (t, repeat), read in zip(chunk, _stacked_svds(chunk, d)):
            n = len(unitaries) + 1  # the run's first step
            l, _, _, r = t.shape
            if l > r:
                raise ConversionError(f"site {n}: left bond {l} exceeds right bond {r}", site=n)
            w, u, s, vh = read
            if s[-1] < 1e-8:
                raise ConversionError(
                    f"site {n}: reshaped site matrix is rank deficient (s_min={s[-1]:.2e})", site=n
                )
            iso = u @ vh  # the closest isometry
            unitaries += [_embed_and_complete(iso, d, l, r, D_model)] * repeat
            residuals += [float(np.linalg.norm(w - iso))] * repeat
    return unitaries, residuals


def _stacked_svds(runs, d: int) -> list:
    """(w, u, s, vh) of each run's matrix w = sqrt(d) ``_site_matrix``, by one stacked
    SVD per site shape (each slice the 2-D call's bytes); None for a run whose left
    bond exceeds its right."""
    by_shape: dict[tuple, list[int]] = {}  # site shape -> its runs, in step order
    for k, (t, _) in enumerate(runs):
        if t.shape[0] <= t.shape[3]:
            by_shape.setdefault(t.shape, []).append(k)
    reads: list = [None] * len(runs)
    for ks in by_shape.values():
        w = np.sqrt(d) * np.stack([_site_matrix(runs[k][0]) for k in ks])
        for k, read in zip(ks, zip(w, *np.linalg.svd(w, full_matrices=False))):
            reads[k] = read
    return reads


def _embed_and_complete(iso: np.ndarray, d: int, l: int, r: int, D: int) -> np.ndarray:
    """Embed an isometry (d*r, d*l) into a (d*D, d*D) unitary.

    Column (i, a) of the result reproduces the isometry column for a < l;
    the remaining columns are the deterministic QR completion
    (``fill_unassigned_columns``).
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
    phys_dim = mps.dense_size() // mps.env_dim
    if phys_dim > PROCESS_TENSOR_GUARD:
        raise CapacityError(f"process tensor dimension {phys_dim} exceeds guard")
    x = mps.to_statevector().reshape(phys_dim, mps.env_dim)
    return x @ x.conj().T


# -- the left sweep and overlaps ------------------------------------------


def _left_envs(env: np.ndarray, bras, kets, ops=None):
    """Yield ``env``, then ``env`` carried by ``transfer_left`` across each next site pair of
    the per-step iterables ``bras`` and ``kets``, with the insertion ``ops[k]`` in pair k.

    A stack of environments (..., l, l) is carried as it is, through ``transfer_left``'s
    batch axis, each ``ops[k]`` then shared by the stack or stacked itself."""
    yield env
    for k, (bra, ket) in enumerate(zip(bras, kets)):
        env = transfer_left(env, bra, ket, ops.get(k) if ops else None)
        yield env


def _left_sweep(env: np.ndarray, bras, kets, ops=None) -> np.ndarray:
    """The last environment ``_left_envs`` yields: ``env`` carried across every pair."""
    for env in _left_envs(env, bras, kets, ops):
        pass
    return env


def overlap_matrix(a: PptMps, b: PptMps) -> np.ndarray:
    """Environment-leg overlap matrix M[p, q] = <a; env p | b; env q>.

    One left sweep contracts the physical legs of the two PPTs, leaving both
    environment legs open; PPTs that differ in step count, d or an exposed
    step 0 raise ``DimensionError``.
    """
    if (a.n_steps, a.d, a.leading_site is None) != (b.n_steps, b.d, b.leading_site is None):
        raise DimensionError("overlap requires PPTs of equal steps, d and exposed initial leg")
    return _left_sweep(np.ones((1, 1), dtype=np.complex128), a.chain(), b.chain())


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


def _contract_sites(sites) -> np.ndarray:
    """Block (left bond, fused physical index, right bond) of consecutive sites:
    the inverse of ``split_block``."""
    block = sites[0]
    for t in sites[1:]:  # the 2-D product np.tensordot(block, t, axes=1) makes
        block = block.reshape(-1, t.shape[0]) @ t.reshape(t.shape[0], -1)
    return block.reshape(sites[0].shape[0], -1, sites[-1].shape[3])


def split_block(block: np.ndarray, shapes, max_bond: int | None = None) -> list[np.ndarray]:
    """Split a block (left bond, fused physical index, right bond) into one
    site tensor per physical shape (out, in) of ``shapes`` by ``_split_step``
    from the right, keeping at most ``max_bond`` values on each bond.

    Every site but the first is a row block of a pinned V^dag and hence
    right-canonical; the first carries the singular values.
    """
    left, _, bond = block.shape
    sites: list[np.ndarray] = [None] * len(shapes)
    work = block
    for n in range(len(shapes) - 1, 0, -1):
        out, inn = shapes[n]
        work, rows = _split_step(work.reshape(-1, out * inn * bond), max_bond)
        sites[n] = rows.reshape(len(rows), *shapes[n], bond)
        bond = len(rows)
    sites[0] = work.reshape(left, *shapes[0], bond)
    return sites


def _split_step(mat: np.ndarray, max_bond: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one SVD split, ``mat`` = carry @ rows with orthonormal rows: the singular
    values above ``SPLIT_TOL`` times the largest are kept, at most ``max_bond`` and
    at least one, in a pinned gauge that does not depend on LAPACK's bases and
    phases: ``_cluster_rotation`` fixes the V^dag rows where kept values agree
    within ``CLUSTER_TOL`` of the largest, and each row's largest-magnitude entry
    is made real and positive, the conjugate phase moved into the carry U S."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    keep = max(int(np.count_nonzero(s > SPLIT_TOL * s[0])), 1)
    if max_bond is not None:
        keep = min(keep, max_bond)
    carry, scale, vh = u[:, :keep], s[:keep], vh[:keep]
    clusters = _clusters(scale, CLUSTER_TOL * s[0])
    if clusters:  # rotating U S, not U, keeps U S V^dag exact
        rot = _cluster_rotation(clusters, vh.conj().T)
        carry, scale, vh = (carry * scale) @ rot, 1.0, rot.conj().T @ vh
    peak = vh[np.arange(keep), np.argmax(np.abs(vh), axis=1)]  # nonzero: rows have unit norm
    phase = peak / np.abs(peak)
    return carry * (phase * scale), vh * phase.conj()[:, np.newaxis]
