"""Dense complex tensor algebra underlying every other module.

All routines operate on plain ``numpy.ndarray`` objects in complex double
precision and are pure functions of their inputs: input coercion, the JSON
codec for complex arrays, the two transfer contractions every MPS sweep is
built from, polar and isometric projections by SVD, and deterministic
Gram-Schmidt completion of orthonormal columns to a unitary.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionError, SingularityError, ValidationError


def as_complex_array(data, ndim: int | None = None) -> np.ndarray:
    """Coerce to a C-contiguous complex128 array, optionally checking rank."""
    arr = np.ascontiguousarray(data, dtype=np.complex128)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"expected a rank-{ndim} tensor, got rank {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError("tensor contains non-finite entries")
    return arr


def complex_to_pairs(arr) -> list:
    """JSON form of a complex array: its entries in row-major order as [re, im] pairs."""
    flat = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def pairs_to_complex(pairs, shape=None) -> np.ndarray:
    """Inverse of ``complex_to_pairs``: a complex128 array of ``shape`` (1-D if None).

    Each pair is read as the two float64 halves of one complex128, so the
    round trip is bit exact (signed zeros included).  Anything but a list of
    numeric [re, im] pairs, an entry count that does not fill ``shape``, or
    a non-finite entry raises ``ValidationError``.
    """
    try:
        arr = np.array(pairs)
        malformed = arr.dtype.kind not in "iuf" or arr.ndim != 2 or arr.shape[1] != 2
    except ValueError:  # ragged nesting
        malformed = True
    if malformed:
        raise ValidationError("complex data must be a list of numeric [re, im] pairs")
    flat = arr.astype(np.float64).view(np.complex128).reshape(-1)
    shape = flat.shape if shape is None else shape
    fits = isinstance(shape, (list, tuple)) and all(isinstance(n, int) and n >= 0 for n in shape)
    if not fits or flat.size != math.prod(shape):
        raise ValidationError(f"{flat.size} complex entries do not fill shape {shape!r}")
    return as_complex_array(flat.reshape(shape))


def transfer_left(
    env: np.ndarray, bra: np.ndarray, ket: np.ndarray, op: np.ndarray | None = None
) -> np.ndarray:
    """Carry a left environment across one site pair.

    Returns E'[b, j] = sum conj(bra[a, o, i, b]) env[a, c] ket[c, o, i, j]
    over a, c and the fused physical index (o, i).  ``op``, a d^2 x d^2
    matrix on that fused index, is inserted between bra and ket when given.
    Two matrix products (three with ``op``), O(D^3 d^2) for bond D.
    """
    l, do, di, r = ket.shape
    x = env @ ket.reshape(l, -1)  # (a, (o, i, j))
    if op is not None:
        x = op @ x.reshape(env.shape[0], do * di, r)
    return bra.reshape(-1, bra.shape[3]).conj().T @ x.reshape(-1, r)


def transfer_right(env: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Mirror of ``transfer_left``: carry a right environment across one site pair.

    Returns E'[a, c] = sum conj(bra[a, o, i, b]) env[b, j] ket[c, o, i, j]
    over b, j and the fused physical index (o, i).
    """
    x = ket.reshape(-1, ket.shape[3]) @ env.T  # ((c, o, i), b)
    return bra.reshape(bra.shape[0], -1).conj() @ x.reshape(ket.shape[0], -1).T


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition, m = U * sqrt(m^dag m).

    This is the unitary matrix closest to ``m`` in Frobenius norm.  Requires
    a square, full-rank input.
    """
    m = as_complex_array(m, ndim=2)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"polar_unitary needs a square matrix, got {m.shape}")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= 1e-14 * s[0]:
        raise SingularityError("matrix is numerically rank deficient")
    return u @ vh


def closest_isometry(m: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal columns (tall or square input)."""
    m = as_complex_array(m, ndim=2)
    if m.shape[0] < m.shape[1]:
        raise DimensionError(f"closest_isometry needs rows >= cols, got {m.shape}")
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def fill_unassigned_columns(full: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """Fill the unassigned columns of ``full`` with a Gram-Schmidt completion.

    ``assigned`` is a boolean mask over columns; assigned columns must
    already be orthonormal.  Completion candidates are canonical basis
    vectors in index order, so the result is deterministic.
    """
    full = np.array(full, dtype=np.complex128)
    cols = [full[:, j] for j in np.nonzero(assigned)[0]]
    candidates = iter(np.eye(full.shape[0], dtype=np.complex128))
    for j in np.nonzero(~assigned)[0]:
        for cand in candidates:
            for c in cols:
                cand = cand - c * np.vdot(c, cand)
            nrm = np.linalg.norm(cand)
            if nrm > 1e-7:
                full[:, j] = cand / nrm
                cols.append(full[:, j])
                break
        else:
            raise SingularityError("could not complete columns to a unitary basis")
    return full
