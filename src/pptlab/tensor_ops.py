"""Dense complex tensor algebra underlying every other module.

All routines operate on plain ``numpy.ndarray`` objects in complex double
precision and are pure functions of their inputs: input coercion, polar
and isometric projections by SVD, and deterministic Gram-Schmidt
completion of orthonormal columns to a unitary.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, SingularityError


def as_complex_array(data, ndim: int | None = None) -> np.ndarray:
    """Coerce to a C-contiguous complex128 array, optionally checking rank."""
    arr = np.ascontiguousarray(data, dtype=np.complex128)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"expected a rank-{ndim} tensor, got rank {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError("tensor contains non-finite entries")
    return arr


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


def complete_columns(v: np.ndarray, total: int | None = None) -> np.ndarray:
    """Extend orthonormal columns ``v`` to a full unitary.

    Completion columns are obtained by Gram-Schmidt of the canonical basis
    vectors, taken in index order, against the existing columns; the result
    is deterministic for a given input.
    """
    v = as_complex_array(v, ndim=2)
    n = v.shape[0] if total is None else total
    cols = [v[:, k] for k in range(v.shape[1])]
    for idx in range(n):
        if len(cols) == n:
            break
        cand = np.zeros(n, dtype=np.complex128)
        cand[idx] = 1.0
        for c in cols:
            cand -= c * np.vdot(c, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-7:
            cols.append(cand / nrm)
    if len(cols) != n:
        raise SingularityError("could not complete columns to a unitary basis")
    return np.column_stack(cols)


def fill_unassigned_columns(full: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """Fill the unassigned columns of ``full`` with a Gram-Schmidt completion.

    ``assigned`` is a boolean mask over columns; assigned columns must
    already be orthonormal.  Completion candidates are canonical basis
    vectors in index order, so the result is deterministic.
    """
    full = np.array(full, dtype=np.complex128)
    dim = full.shape[0]
    cols = [full[:, j] for j in np.nonzero(assigned)[0]]
    basis_idx = 0
    for j in np.nonzero(~assigned)[0]:
        while True:
            if basis_idx >= dim:
                raise SingularityError("could not complete columns to a unitary basis")
            cand = np.zeros(dim, dtype=np.complex128)
            cand[basis_idx] = 1.0
            basis_idx += 1
            for c in cols:
                cand -= c * np.vdot(c, cand)
            nrm = np.linalg.norm(cand)
            if nrm > 1e-7:
                full[:, j] = cand / nrm
                cols.append(full[:, j])
                break
    return full
