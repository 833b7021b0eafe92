"""Dense complex tensor algebra underlying every other module.

All routines operate on plain ``numpy.ndarray`` objects in complex double
precision and are pure functions of their inputs: input coercion, the one
JSON text writer and the codec for complex arrays, objects and integer keys,
the one transfer contraction of every MPS sweep and its mirror, polar and
isometric projections by SVD, deterministic QR completion of orthonormal
columns to a unitary, and a fixed basis inside near-degenerate eigenspaces.
"""

from __future__ import annotations

import base64
import functools
import json
import math

import numpy as np

from .exceptions import DimensionError, SingularityError, ValidationError


def as_complex_array(data, ndim: int | None = None) -> np.ndarray:
    """Coerce to a C-contiguous complex128 array, optionally checking rank."""
    arr = np.ascontiguousarray(data, dtype=np.complex128)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"expected a rank-{ndim} tensor, got rank {arr.ndim}")
    if not np.isfinite(arr).all():
        raise DimensionError("tensor contains non-finite entries")
    return arr


def encode_complex(arr) -> str:
    """JSON form of a complex array: base64 of its row-major entries as
    little-endian complex128 bytes (``"<c16"``), 16 bytes per entry."""
    flat = np.ascontiguousarray(arr, dtype="<c16")
    return base64.b64encode(flat.tobytes()).decode("ascii")


def decode_complex(data, shape=None) -> np.ndarray:
    """Inverse of ``encode_complex``: a complex128 array of ``shape`` (1-D if None).

    ``data`` is either the base64 string ``encode_complex`` writes or a list
    of numeric [re, im] pairs, the form hand-written files use; the JSON
    type of the leaf decides which.  Either way the entries are read as the
    raw float64 halves of each complex128, so the round trip is bit exact
    (signed zeros included).  Text that is not strict base64, a byte count
    that is not a whole number of entries, anything but numeric [re, im]
    pairs in a list, an entry count that does not fill ``shape``, or a
    non-finite entry raises ``ValidationError``.
    """
    return as_complex_array(_decode_entries(data, shape)).copy()  # writable, unlike a view


def _decode_entries(data, shape=None) -> np.ndarray:
    """``decode_complex`` without its final check and copy: a native
    complex128 array of ``shape``, read-only where it views the base64 bytes,
    whose entries may be non-finite, for a caller that checks them itself."""
    flat = _base64_entries(data) if isinstance(data, str) else _pair_entries(data)
    shape = flat.shape if shape is None else shape
    # type(n) is int: a JSON true is a bool, which isinstance would take for 1
    fits = isinstance(shape, (list, tuple)) and all(type(n) is int and n >= 0 for n in shape)
    if not fits or flat.size != math.prod(shape):
        raise ValidationError(f"{flat.size} complex entries do not fill shape {shape!r}")
    return flat.reshape(shape)


def _base64_entries(text: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or non-ASCII text
        raise ValidationError(f"complex data is not valid base64 ({err})") from None
    if len(raw) % 16:
        raise ValidationError(
            f"complex data holds {len(raw)} bytes, not a multiple of 16 (complex128)"
        )
    # a read-only view of the bytes, copied only where complex128 is not little-endian
    return np.frombuffer(raw, dtype="<c16").astype(np.complex128, copy=False)


def _pair_entries(pairs) -> np.ndarray:
    try:
        arr = np.array(pairs)
        malformed = arr.dtype.kind not in "iuf" or arr.ndim != 2 or arr.shape[1] != 2
    except ValueError:  # ragged nesting
        malformed = True
    if malformed:
        raise ValidationError(
            "complex data must be base64 text or a list of numeric [re, im] pairs"
        )
    return arr.astype(np.float64).view(np.complex128).reshape(-1)


def json_text(doc) -> str:
    """The one JSON text form of every document pptlab writes: sorted keys,
    compact separators, and floats as ``repr`` writes them, so equal
    documents give equal bytes.  A NaN or infinite number raises
    ``ValidationError``: JSON has no such value."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:  # NaN or infinity: a document is a tree, so no circular reference
        raise ValidationError("the document holds a number that is not finite") from None


def json_object(value, what: str) -> dict:
    """``value`` when it is a JSON object; anything else (a number, a list,
    text) raises ``ValidationError`` naming ``what``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {type(value).__name__}")
    return value


def json_int(doc: dict, key: str) -> int:
    """``doc[key]`` when it is a JSON integer; anything else (a JSON ``true``
    included, which Python reads as a bool) raises ``ValidationError``."""
    value = doc[key]
    if type(value) is not int:
        raise ValidationError(f"{key!r} must be an integer, got {value!r}")
    return value


def _is_integer(x) -> bool:
    """Whether ``x`` can name a step or site: a Python or numpy integer, but
    not a bool."""
    return _is_integer_type(type(x))


def _is_integer_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool  # the type of an _is_integer value


def _is_real(x) -> bool:
    """Whether ``x`` is a Python or numpy real number, but not a bool."""
    return _is_integer(x) or isinstance(x, (float, np.floating))


def transfer_left(
    env: np.ndarray, bra: np.ndarray, ket: np.ndarray, op: np.ndarray | None = None
) -> np.ndarray:
    """Carry a left environment across one site pair.

    Returns E'[b, j] = sum conj(bra[a, o, i, b]) env[a, c] ket[c, o, i, j]
    over a, c and the fused physical index (o, i).  ``op``, a d^2 x d^2
    matrix on that fused index, is inserted between bra and ket when given.
    Two matrix products (three with ``op``), O(D^3 d^2) for bond D.

    ``env`` may carry leading batch axes, shape (..., l, l), and ``op`` then
    is one (d^2, d^2) matrix shared by every slice or a stack (..., d^2, d^2)
    of one per slice; either broadcasts over each slice's left bond.  Each
    slice of the result is bit for bit the 2-D call on that slice.
    """
    l, do, di, r = ket.shape
    x = env @ ket.reshape(l, -1)  # (..., a, (o, i, j))
    if op is not None:
        x = op[..., None, :, :] @ x.reshape(env.shape[:-1] + (do * di, r))
    return bra.reshape(-1, bra.shape[3]).conj().T @ x.reshape(env.shape[:-2] + (-1, r))


def transfer_right(env: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Mirror of ``transfer_left``: carry a right environment across one site pair.

    Returns E'[a, c] = sum conj(bra[a, o, i, b]) env[b, j] ket[c, o, i, j]
    over b, j and the fused physical index (o, i): ``transfer_left`` of the
    sites with their bonds swapped.
    """
    return transfer_left(env, bra.transpose(3, 1, 2, 0), ket.transpose(3, 1, 2, 0))


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
    """Complete the assigned columns of ``full`` to a unitary by one QR.

    ``assigned`` is a boolean mask over the columns of the square ``full``;
    assigned columns must already be orthonormal and are never written.
    With k of them, columns k.. of the Q factor of [assigned columns | I]
    span their orthogonal complement and fill the unassigned columns in
    index order, so the result is deterministic.
    """
    full = np.array(full, dtype=np.complex128)
    k = int(np.count_nonzero(assigned))
    if k < full.shape[1]:
        q = np.linalg.qr(np.hstack([full[:, assigned], np.eye(full.shape[0])]))[0]
        full[:, ~assigned] = q[:, k:]
    return full


def _cluster_rotation(values: np.ndarray, vecs: np.ndarray, tol: float) -> np.ndarray | None:
    """Block-diagonal unitary W that fixes the basis ``vecs @ W``, up to column
    phases, inside each run of consecutive sorted ``values`` closer than
    ``tol``: it diagonalises one fixed generic Hermitian compressed to the
    run's columns.  None when no two values are that close."""
    close = np.abs(np.diff(values)) < tol
    if not close.any():
        return None
    h = _generic_hermitian(vecs.shape[0])
    w = np.eye(len(values), dtype=np.complex128)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], close, [0]))))
    for a, b in zip(edges[::2], edges[1::2] + 1):  # values a..b-1 form one run
        w[a:b, a:b] = np.linalg.eigh(vecs[:, a:b].conj().T @ h @ vecs[:, a:b])[1]
    return w


@functools.cache
def _generic_hermitian(n: int) -> np.ndarray:
    """A fixed n x n Hermitian with Gaussian entries, drawn from seed 0."""
    re, im = np.random.default_rng(0).standard_normal((2, n, n))
    h = (re + re.T) + 1j * (im - im.T)
    h.flags.writeable = False
    return h
