"""Hidden open-quantum-evolution models and the random ensembles used in tests.

An :class:`OqeModel` couples a d-dimensional system to a D-dimensional
environment through one joint unitary per step (a single stored unitary is
reused every step for time-independent models).  The joint Hilbert space is
ordered system (x) environment, so the basis index of ``|j, alpha>`` is
``j * D + alpha``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError
from .tensor_ops import (
    _decode_entries,
    _is_integer,
    _is_real,
    as_complex_array,
    encode_complex,
    json_int,
    json_object,
    json_text,
)

SCHMIDT_TOL = 1e-8  # Schmidt coefficients counted by SchmidtForm.rank
UNITARITY_TOL = 1e-10  # max |U^dag U - I| entry allowed by OqeModel


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt decomposition of a joint system-environment vector.

    ``state = sum_s lambdas[s] * kron(sys_basis[:, s], env_basis[:, s])``
    with both bases orthonormal and the coefficients sorted descending.
    """

    lambdas: np.ndarray
    sys_basis: np.ndarray  # columns are |x_s>
    env_basis: np.ndarray  # columns are |y_s>

    def rank(self) -> int:
        return int(np.count_nonzero(self.lambdas > SCHMIDT_TOL))

    def assemble(self) -> np.ndarray:
        d = self.sys_basis.shape[0]
        D = self.env_basis.shape[0]
        out = np.zeros(d * D, dtype=np.complex128)
        for s, lam in enumerate(self.lambdas):
            out += lam * np.kron(self.sys_basis[:, s], self.env_basis[:, s])
        return out


@dataclass(frozen=True, eq=False)
class OqeModel:
    """Dimensions, step unitaries and initial joint state of a hidden evolution.

    ``unitaries`` holds (d*D, d*D) matrices; a length-1 list marks the
    time-independent case and is reused for every step.  ``initial_state``
    is a unit vector of length d*D.  Construction checks all of this, stores
    read-only complex128 copies of the arrays (one per distinct unitary
    object, shared where the input repeats it), decomposes the initial state
    once (its Schmidt arrays are kept read-only) and derives ``entangled``
    (Schmidt rank > 1), so every instance is valid and self-consistent.
    """

    d: int
    D: int
    unitaries: tuple[np.ndarray, ...]
    initial_state: np.ndarray
    entangled: bool = field(init=False)
    _schmidt: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        _check_dimensions(self.d, self.D)
        store = functools.partial(object.__setattr__, self)
        store("d", int(self.d))
        store("D", int(self.D))
        dim = self.d * self.D
        given = tuple(self.unitaries)  # holds every object, so no id is reused
        if not given:
            raise ValidationError("model stores no unitaries")
        copies: dict[int, np.ndarray] = {}  # one checked read-only copy per distinct object
        for n, u in enumerate(given):
            if id(u) in copies:
                continue
            copies[id(u)] = u = _read_only(u, ndim=2)
            if u.shape != (dim, dim):
                raise ValidationError(f"unitary {n} has shape {u.shape}, expected {(dim, dim)}")
            with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf/nan
                dev = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
            if not dev <= UNITARITY_TOL:
                raise ValidationError(f"unitary {n} deviates from unitarity by {dev:.3e}")
        store("unitaries", tuple(copies[id(u)] for u in given))
        store("initial_state", _read_only(self.initial_state).reshape(-1))
        if self.initial_state.shape != (dim,):
            raise ValidationError(
                f"initial state has length {self.initial_state.shape}, expected {dim}"
            )
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(self.initial_state)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValidationError(f"initial state norm deviates from 1 by {abs(nrm - 1.0):.3e}")
        form = _schmidt_form(self.initial_state.reshape(self.d, self.D))  # checked above
        parts = (form.lambdas, form.sys_basis, form.env_basis)
        for arr in parts:
            arr.flags.writeable = False
        store("_schmidt", parts)
        store("entangled", form.rank() > 1)

    @property
    def time_independent(self) -> bool:
        return len(self.unitaries) == 1

    def unitary_at(self, n: int) -> np.ndarray:
        """Step unitary for 1-based step ``n``; a step that is not an integer
        (bools included), below 1 or, for a time-dependent model, past the
        stored unitaries raises ``ValidationError``."""
        if not (_is_integer(n) and n >= 1):
            raise ValidationError(f"step must be an integer >= 1, got {n!r}")
        if self.time_independent:
            return self.unitaries[0]
        if n > len(self.unitaries):
            raise ValidationError(f"step {n} outside the stored {len(self.unitaries)} unitaries")
        return self.unitaries[n - 1]

    def initial_schmidt(self) -> SchmidtForm:
        """Schmidt form of the initial state, a new form over the read-only
        arrays of the one decomposition made at construction."""
        return SchmidtForm(*self._schmidt)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "D": self.D,
            "time_independent": self.time_independent,
            "unitaries": [encode_complex(u) for u in self.unitaries],
            "initial_state": encode_complex(self.initial_state),
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    @staticmethod
    def from_json_dict(doc: dict) -> "OqeModel":
        json_object(doc, "a model document")
        d = json_int(doc, "d")
        D = json_int(doc, "D")
        _check_dimensions(d, D)
        dim = d * D
        if not isinstance(doc["unitaries"], list):
            kind = type(doc["unitaries"]).__name__
            raise ValidationError(f"'unitaries' must be a list, got {kind}")
        us = [_decode_entries(u, (dim, dim)) for u in doc["unitaries"]]  # checked by OqeModel
        time_independent = doc.get("time_independent", len(us) == 1)
        if not isinstance(time_independent, bool):
            raise ValidationError(
                f"'time_independent' must be true or false, got {time_independent!r}"
            )
        if time_independent != (len(us) == 1):
            raise ValidationError(
                f"'time_independent' is {json_text(time_independent)}, but the document "
                f"stores {len(us)} unitaries (a time-independent model stores exactly one)"
            )
        psi = _decode_entries(doc["initial_state"], (dim,))
        return OqeModel(d, D, us, psi)

    @staticmethod
    def from_json(text: str) -> "OqeModel":
        return OqeModel.from_json_dict(json.loads(text))


# -- random ensembles ----------------------------------------------------


def _read_only(data, ndim: int | None = None) -> np.ndarray:
    """Read-only complex128 copy of ``data`` (finite, of rank ``ndim`` if given)."""
    arr = as_complex_array(data, ndim).copy()
    arr.flags.writeable = False
    return arr


def _as_rng(seed) -> np.random.Generator:
    """The generator itself, or a new one seeded by None or a non-negative
    integer; anything else (bools included) raises ``ValidationError``."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not (seed is None or (_is_integer(seed) and seed >= 0)):
        raise ValidationError(f"seed must be a Generator, None or an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def random_haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The diagonal of R is phase-fixed so the distribution is exactly Haar and
    the output is deterministic for a given seed.
    """
    _check_count(dim, "dimension")
    rng = _as_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def near_identity_unitary(dim: int, eta: float, seed, size=None) -> np.ndarray:
    """exp(i * eta * H) with H drawn Hermitian from normal entries.

    H is (G + G^dag)/2 for G with independent standard-normal real and
    imaginary parts, so small eta gives a unitary close to the identity.
    The exponential is taken by scaling and squaring a truncated Taylor
    series (``_expm_skew``), a few products over every draw at once: up to
    dim 4 with the stack innermost (a broadcast multiply and a sum per
    product), above it as stacked matmuls.  ``size`` (None or an integer
    >= 0) draws a stack of that many unitaries, shape ``(size, dim, dim)``;
    the draws come from the generator's stream in the same order as that
    many single calls, and each slice equals the single call's result bit
    for bit.  That is why the layout is read off the dimension alone: the
    two layouts round differently, so one chosen by the stack size would
    give a batch other bytes than its single draws.

    A draw whose exponential needs more than ``_TAYLOR_MAX_SQUARINGS`` = 17
    squarings, ||eta H||_1 >= 0.33 * 2^17 (eta of a few thousand at dim 4),
    could come out further than ``UNITARITY_TOL`` from unitary, so the call
    raises ``ValidationError`` naming eta instead, before any squaring.
    """
    _check_count(dim, "dimension")
    _check_eta(eta)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan from a huge eta fail the bound
        x = (1j * eta) * _hermitians(dim, _as_rng(seed), _batch_shape(size))
        scaled = np.maximum.reduce(np.add.reduce(np.abs(x), axis=-2), axis=-1) / _TAYLOR_THETA
    if not (scaled < 2.0**_TAYLOR_MAX_SQUARINGS).all():
        raise ValidationError(
            f"eta={eta!r} is too large for dimension {dim}: a draw's exponential needs more "
            f"than {_TAYLOR_MAX_SQUARINGS} squarings, which could leave it further than "
            f"{UNITARITY_TOL:g} from unitary"
        )
    return _expm_skew(x, scaled)


# Scaling threshold of _expm_skew.  For ||X||_1 <= theta the terms the
# degree-12 Taylor polynomial drops sum to at most
#     sum_{k>=13} theta^k / k!  <=  theta^13 / 13! / (1 - theta / 14)
# (each further term is at most theta/14 times the one before), which is at
# most the unit roundoff 2^-53 for theta <= 0.3352; e^X is unitary, so that
# absolute bound is also relative.  Rounded down.
_TAYLOR_THETA = 0.33
# Most squarings _expm_skew may take.  If U^dag U = I + E, squaring gives
# (U^2)^dag U^2 = I + E + U^dag E U + O(u), so each squaring at most doubles
# the unitarity defect and adds a few units u = 2^-53 of roundoff: after s
# squarings the largest entry of |U^dag U - I| is c 2^s u.  Over dims 1..16
# and 5 * 10^4 draws at s = 17 and 18 the measured c stayed below 3; at
# s = 17, c 2^s u < UNITARITY_TOL = 1e-10 holds for any c < 6.8, while s = 19
# fails from c = 1.7 on.
_TAYLOR_MAX_SQUARINGS = 17
# Paterson-Stockmeyer blocks of the degree-12 Taylor polynomial: row j holds
# 1/k! for k = 3j, 3j + 1, 3j + 2, the weights of I, X and X^2 in block j.
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(3 * j + i) for i in range(3)] for j in range(4)])
# Largest dimension whose Taylor products _expm_skew runs with the stack
# innermost.  On 455-draw stacks (one BLAS thread, 2-core x86-64 with
# AVX-512) that layout measured 5.2x faster than stacked matmul at n = 2,
# 1.7x at n = 3 and 1.4x at n = 4, but only 1.08x at n = 5, and 0.73x at
# n = 6 and 0.51x at n = 8.
_INNERMOST_MAX_DIM = 4


def _expm_skew(x: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """exp(X) of every square slice X of a stack of skew-Hermitian matrices,
    given ||X||_1 / ``_TAYLOR_THETA`` of every slice (shape ``x.shape[:-2]``).

    Scaling and squaring with a truncated Taylor series (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009)): each slice is divided by
    2^s, for the least s >= 0 that brings its 1-norm below
    ``_TAYLOR_THETA``, its degree-12 Taylor polynomial is evaluated by the
    Paterson-Stockmeyer scheme (SIAM J. Comput. 2, 60 (1973)),

        T(X) = B0 + X^3 (B1 + X^3 (B2 + X^3 (B3 + X^3 / 12!))),
        Bj = I / (3j)! + X / (3j+1)! + X^2 / (3j+2)!,

    and the result is squared s times.

    The layout of the products is read off the dimension n alone.  Up to
    ``_INNERMOST_MAX_DIM`` = 4 the stack goes innermost, shape (n, n, k), and
    each product is one broadcast multiply and one sum over the inner index
    (``_innermost_product``): stacked ``matmul`` would call BLAS once per
    tiny slice.  Larger slices keep the given layout, (k, n, n), and
    ``matmul``, which is the faster there.  The two layouts round
    differently, so a rule that also read the stack size k would give a
    slice different bytes in a batch than in a single draw.  Within a
    layout all arithmetic is per slice, so a slice's result does not depend
    on the rest of the stack.
    """
    shape, n = x.shape, x.shape[-1]
    x = x.reshape(-1, n, n)
    # the least s >= 0 with ||X||_1 / 2^s < theta is frexp's exponent, clipped at 0
    _, s = np.frexp(scaled.reshape(-1))
    s = np.maximum(s, 0)
    innermost = n <= _INNERMOST_MAX_DIM
    if innermost:  # slices along the last axis
        x, scale = x.transpose(1, 2, 0), np.exp2(s)
        terms = np.empty((n, n, n, s.size), dtype=np.complex128)
        product = functools.partial(_innermost_product, terms=terms)
    else:
        scale, product = np.exp2(s)[:, np.newaxis, np.newaxis], np.matmul
    powers = np.empty((3,) + x.shape, dtype=np.complex128)  # I, X, X^2
    powers[0] = np.eye(n)[:, :, np.newaxis] if innermost else np.eye(n)
    np.divide(x, scale, out=powers[1])  # exact: a power of 2
    product(powers[1], powers[1], out=powers[2])
    cube = product(powers[1], powers[2])
    # the four blocks at once, as one real product over the (re, im) pairs
    blocks = (_TAYLOR_BLOCKS @ powers.view(np.float64).reshape(3, -1)).view(np.complex128)
    b3, b2, b1, b0 = blocks.reshape((4,) + x.shape)[::-1]
    u = b3 + cube / math.factorial(12)
    for block in (b2, b1, b0):
        u = block + product(cube, u)
    for r in range(int(s.max(initial=0))):  # slice by slice, each its own s times
        sel = s > r
        if sel.all():  # the whole stack, as always for a single draw
            u = product(u, u)
        else:
            sel = (..., sel) if innermost else sel
            v = u[sel]
            u[sel] = product(v, v)
    if innermost:
        u = np.ascontiguousarray(u.transpose(2, 0, 1))
    return u.reshape(shape)


def _innermost_product(a: np.ndarray, b: np.ndarray, terms: np.ndarray, out=None) -> np.ndarray:
    """Slice-wise a @ b of two (n, n, m) stacks with the stack innermost:
    the n^3 m terms a[i, j] b[j, l] go into ``terms``, an (n, n, n, k >= m)
    buffer reused by every product, and are summed over j in order."""
    terms = terms[..., : a.shape[-1]]
    np.multiply(a[:, :, np.newaxis], b[np.newaxis], out=terms)
    return np.add.reduce(terms, axis=1, out=out)


def random_hermitian(dim: int, seed) -> np.ndarray:
    _check_count(dim, "dimension")
    return _hermitians(dim, _as_rng(seed), ())


def _batch_shape(size) -> tuple:
    """The stack shape ``size`` names: () for None, (n,) for an integer n >= 0."""
    if size is None:
        return ()
    if not (_is_integer(size) and size >= 0):
        raise ValidationError(f"size must be None or an integer >= 0, got {size!r}")
    return (int(size),)


def _hermitians(dim: int, rng: np.random.Generator, batch: tuple) -> np.ndarray:
    """(G + G^dag)/2 per batch entry; each G takes a real then an imaginary
    (dim, dim) block of standard normals from ``rng``."""
    z = rng.standard_normal(batch + (2, dim, dim))
    x, y = z[..., 0, :, :], z[..., 1, :, :]
    h = np.empty(batch + (dim, dim), dtype=np.complex128)
    h.real = (x + np.swapaxes(x, -1, -2)) / 2.0
    h.imag = (y - np.swapaxes(y, -1, -2)) / 2.0
    return h


def _check_eta(eta: float) -> None:
    if not (_is_real(eta) and np.isfinite(eta) and eta > 0):
        raise ValidationError(f"eta must be a finite positive number, got {eta!r}")


def _check_count(n: int, what: str) -> None:
    """Raise ``ValidationError`` naming ``what`` unless ``n`` is an integer >= 1."""
    if not (_is_integer(n) and n >= 1):
        raise ValidationError(f"{what} must be an integer >= 1, got {n!r}")


def _check_dimensions(d: int, D: int) -> None:
    if not (_is_integer(d) and _is_integer(D) and d >= 2 and D >= 1):
        raise ValidationError(f"need d >= 2 and D >= 1, both integers, got d={d}, D={D}")


def random_haar_state(dim: int, seed) -> np.ndarray:
    _check_count(dim, "dimension")
    rng = _as_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_separable_model(d: int, D: int, seed, steps: int = 1) -> OqeModel:
    """Haar model with a product initial state |psi_S> (x) |psi_E>."""
    _check_dimensions(d, D)
    _check_count(steps, "steps")
    rng = _as_rng(seed)
    us = [random_haar_unitary(d * D, rng) for _ in range(steps)]
    psi = np.kron(random_haar_state(d, rng), random_haar_state(D, rng))
    return OqeModel(d, D, us, psi)


def random_entangled_model(d: int, D: int, seed, lambdas=None, steps: int = 1) -> OqeModel:
    """Haar model with an entangled initial state of given Schmidt spectrum.

    ``lambdas`` defaults to the maximally entangled spectrum over
    min(d, D) terms; given, it is renormalised and must be a list of
    finite, non-negative numbers, not all zero.  Schmidt bases are Haar
    random.
    """
    _check_dimensions(d, D)
    _check_count(steps, "steps")
    rng = _as_rng(seed)
    r = min(d, D)
    if lambdas is None:
        lam = np.full(r, 1.0 / np.sqrt(r))
    else:
        lam = _schmidt_weights(lambdas)
        if lam.size > r:
            raise ValidationError(f"at most {r} Schmidt coefficients fit d={d}, D={D}")
        lam = lam / np.linalg.norm(lam)
    us = [random_haar_unitary(d * D, rng) for _ in range(steps)]
    xs = random_haar_unitary(d, rng)[:, : lam.size]
    ys = random_haar_unitary(D, rng)[:, : lam.size]
    return OqeModel(d, D, us, SchmidtForm(lam, xs, ys).assemble())


def _schmidt_weights(lambdas) -> np.ndarray:
    """``lambdas`` as a float array, if it is a list of finite, non-negative
    numbers, not all zero; anything else raises ``ValidationError``."""
    message = f"Schmidt coefficients must be finite, non-negative and not all zero: {lambdas!r}"
    try:
        lam = np.asarray(lambdas, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(message) from None
    if not (lam.ndim == 1 and np.all(np.isfinite(lam)) and np.all(lam >= 0) and np.any(lam > 0)):
        raise ValidationError(message)
    return lam


def schmidt_decompose(state, d: int, D: int) -> SchmidtForm:
    """Schmidt decomposition of a unit vector on the d*D joint space."""
    psi = as_complex_array(state).reshape(-1)
    if psi.size != d * D:
        raise ValidationError(f"state length {psi.size} incompatible with d*D={d * D}")
    with np.errstate(over="ignore"):  # a huge entry gives an inf norm, rejected below
        nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-8:
        raise ValidationError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")
    return _schmidt_form(psi.reshape(d, D))


def _schmidt_form(mat: np.ndarray) -> SchmidtForm:
    """Schmidt form of the joint vector whose (d, D) coefficient matrix is ``mat``."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtForm(lambdas=s, sys_basis=u, env_basis=vh.T)
