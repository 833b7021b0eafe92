import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptlab import SingularityError, ValidationError
from pptlab.ppt import _embed_and_complete
from pptlab.tensor_ops import (
    decode_complex,
    encode_complex,
    fill_unassigned_columns,
    json_text,
    polar_unitary,
    transfer_left,
)
from pptlab.models import random_haar_unitary

from conftest import pair_leaf


def b64(arr) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<c16").tobytes()).decode("ascii")


class TestComplexCodec:
    def test_signed_zeros_and_extremes_survive(self):
        arr = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1.7e308)])
        back = decode_complex(json.loads(json.dumps(encode_complex(arr))), [3])
        assert back.tobytes() == arr.tobytes()
        assert back.tobytes() == decode_complex(pair_leaf(arr), [3]).tobytes()

    def test_writes_base64_little_endian_complex128(self):
        arr = np.array([[1.5 - 2j, -0.0], [3e-310, 1j]])
        text = encode_complex(arr)
        assert isinstance(text, str)
        assert base64.b64decode(text, validate=True) == arr.astype("<c16").tobytes()

    def test_decoded_array_is_native_and_writable(self):
        back = decode_complex(encode_complex(np.arange(6) * (1 - 1j)), [2, 3])
        assert back.dtype == np.complex128 and back.dtype.isnative
        assert back.flags.writeable and back.flags.c_contiguous
        back[0, 0] = 7.0

    @pytest.mark.parametrize(
        "pairs",
        [[[1.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0], [2.0]], [["1", "0"]], [[None, 0.0]], "ab", 3, []],
    )
    def test_malformed_pairs(self, pairs):
        with pytest.raises(ValidationError):
            decode_complex(pairs)

    @pytest.mark.parametrize(
        "text, message",
        [
            (b64([1, 2])[:-1] + "\u00e9", "not valid base64"),
            (b64([1, 2]).replace("A", "!", 1), "not valid base64"),
            (b64([1, 2]).replace("A", "-", 1), "not valid base64"),
            (b64([1, 2]) + "\n", "not valid base64"),
            (b64([1, 2, 3])[:-1], "not valid base64"),
            (b64([1, 2]) + "AA==", "not valid base64"),
            (base64.b64encode(bytes(16 * 2 + 8)).decode(), "not a multiple of 16"),
            (base64.b64encode(bytes(8)).decode(), "not a multiple of 16"),
            (None, "base64 text or a list"),
            ({"re": 1.0, "im": 0.0}, "base64 text or a list"),
            (True, "base64 text or a list"),
        ],
        ids=["non_ascii", "bang", "urlsafe_char", "newline", "bad_padding", "excess_after_padding",
             "16k_plus_8_bytes", "8_bytes", "null", "dict", "bool"],
    )
    def test_malformed_base64(self, text, message):
        with pytest.raises(ValidationError, match=message):
            decode_complex(text)

    @pytest.mark.parametrize("shape", [[2, 2], [4], ["3"], 3, [True, 3]])
    def test_count_must_fill_shape(self, shape):
        for leaf in (pair_leaf(np.ones(3)), encode_complex(np.ones(3))):
            with pytest.raises(ValidationError):
                decode_complex(leaf, shape)

    def test_non_finite_entries(self):
        for bad in (complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf)):
            for form in (pair_leaf, encode_complex):
                with pytest.raises(ValidationError, match="non-finite"):
                    decode_complex(form(np.array([1.0, bad])))


class TestJsonText:
    def test_sorted_compact_text(self):
        doc = {"b": [1.0, -0.0, 0.1], "a": {"d": True, "c": None}}
        assert json_text(doc) == '{"a":{"c":null,"d":true},"b":[1.0,-0.0,0.1]}'

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_numbers_are_refused(self, bad):
        for doc in (bad, [1.0, bad], {"a": {"b": bad}}):
            with pytest.raises(ValidationError, match="not finite"):
                json_text(doc)


class TestStackedTransferLeft:
    """A stack of environments is carried slice by slice, bit for bit as the
    2-D call on each slice would carry it."""

    @pytest.mark.parametrize("bonds", [(1, 3), (4, 4), (6, 2)])
    @pytest.mark.parametrize("op_kind", ["none", "shared", "stacked"])
    def test_each_slice_is_its_2d_call(self, rng, bonds, op_kind):
        (l, r), d, batch = bonds, 3, (2, 5)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        bra, ket = gaussian(l, d, d, r), gaussian(l, d, d, r)
        envs = gaussian(*batch, l, l)
        op = {"none": None, "shared": gaussian(d * d, d * d),
              "stacked": gaussian(*batch, d * d, d * d)}[op_kind]
        got = transfer_left(envs, bra, ket, op)
        assert got.shape == (*batch, r, r)
        for idx in np.ndindex(*batch):
            slice_op = op[idx] if op_kind == "stacked" else op
            assert got[idx].tobytes() == transfer_left(envs[idx], bra, ket, slice_op).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bonds", [(1, 3), (4, 4), (6, 2)])
    @pytest.mark.parametrize("case", ["2d_env_2d_op", "stacked_env_shared_op",
                                      "stacked_env_stacked_ops"])
    def test_insertion_is_the_2d_formula(self, rng, d, bonds, case):
        """Every slice of an insertion is bit for bit the 2-D formula, written
        out here on its own: the one expression ``transfer_left`` keeps for a
        2-D and a stacked ``op`` gives the values a separate 2-D branch gave."""
        l, r = bonds

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def reference(env, op):  # env (l, l), op (d^2, d^2)
            x = env @ ket.reshape(l, -1)
            x = op @ x.reshape(-1, d * d, r)
            return bra.reshape(-1, r).conj().T @ x.reshape(-1, r)

        bra, ket = gaussian(l, d, d, r), gaussian(l, d, d, r)
        batch = () if case == "2d_env_2d_op" else (2, 3)
        envs = gaussian(*batch, l, l)
        op = gaussian(*(batch if case == "stacked_env_stacked_ops" else ()), d * d, d * d)
        got = transfer_left(envs, bra, ket, op)
        assert got.shape == (*batch, r, r)
        for idx in np.ndindex(*batch):  # the one index () for a 2-D env
            slice_op = op[idx] if op.ndim > 2 else op
            assert got[idx].tobytes() == reference(envs[idx], slice_op).tobytes()


class TestPolarUnitary:
    def test_unitary_fixed_point(self, rng):
        u = random_haar_unitary(4, rng)
        assert np.max(np.abs(polar_unitary(u) - u)) < 1e-12

    def test_positive_scaling(self):
        assert np.allclose(polar_unitary(1.7 * np.eye(3)), np.eye(3))

    def test_unitarity_and_minimality(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = polar_unitary(m)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
        dist = np.linalg.norm(u - m)
        for _ in range(100):
            w = random_haar_unitary(4, rng)
            assert dist <= np.linalg.norm(w - m) + 1e-12

    def test_rank_deficient(self):
        m = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SingularityError):
            polar_unitary(m)

    def test_unitary_for_many_inputs(self, rng):
        for _ in range(20):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u = polar_unitary(m)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10


def check_completion(full, assigned):
    """The completion is unitary, writes no assigned column and is
    deterministic to the byte."""
    u = fill_unassigned_columns(full, assigned)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12
    assert u[:, assigned].tobytes() == np.asarray(full, dtype=np.complex128)[:, assigned].tobytes()
    assert u.tobytes() == fill_unassigned_columns(full, assigned).tobytes()
    return u


class TestFillUnassignedColumns:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 16),
        masks=st.sampled_from(["none", "all", "random"]),
        coordinate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_completion_of_orthonormal_columns(self, n, masks, coordinate, seed):
        """Assigned columns are Haar columns or coordinate vectors (which put
        identity candidates inside their span); the unassigned ones hold
        noise that the completion overwrites."""
        rng = np.random.default_rng(seed)
        assigned = {"none": np.zeros(n, bool), "all": np.ones(n, bool)}.get(masks)
        if assigned is None:
            assigned = rng.random(n) < 0.5
        k = int(np.count_nonzero(assigned))
        full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if coordinate:
            full[:, assigned] = np.eye(n)[:, rng.permutation(n)[:k]]
        else:
            full[:, assigned] = random_haar_unitary(n, rng)[:, :k]
        check_completion(full, assigned)

    @pytest.mark.parametrize(
        "d, D, l", [(2, 2, 1), (2, 4, 1), (2, 4, 3), (2, 8, 5), (3, 3, 2), (3, 5, 4)]
    )
    def test_embedded_isometry_pattern(self, rng, d, D, l):
        """Columns (i, a < l) of a zero-padded isometry with l = r < D, as
        ``mps_to_oqe`` embeds a site."""
        iso = random_haar_unitary(d * l, rng)
        full = np.zeros((d * D, d * D), dtype=np.complex128)
        full.reshape(d, D, d, D)[:, :l, :, :l] = iso.reshape(d, l, d, l)
        assigned = (np.arange(D) < l)[np.newaxis].repeat(d, axis=0).reshape(-1)
        u = check_completion(full, assigned)
        assert u.tobytes() == _embed_and_complete(iso, d, l, l, D).tobytes()
