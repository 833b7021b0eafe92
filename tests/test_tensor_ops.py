import json

import numpy as np
import pytest

from pptlab import SingularityError, ValidationError
from pptlab.tensor_ops import complex_to_pairs, pairs_to_complex, polar_unitary
from pptlab.models import random_haar_unitary


class TestComplexCodec:
    def test_signed_zeros_and_extremes_survive(self):
        arr = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1.7e308)])
        back = pairs_to_complex(json.loads(json.dumps(complex_to_pairs(arr))), [3])
        assert back.tobytes() == arr.tobytes()

    @pytest.mark.parametrize(
        "pairs",
        [[[1.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0], [2.0]], [["1", "0"]], [[None, 0.0]], "ab", 3, []],
    )
    def test_malformed_pairs(self, pairs):
        with pytest.raises(ValidationError):
            pairs_to_complex(pairs)

    @pytest.mark.parametrize("shape", [[2, 2], [4], ["3"], 3])
    def test_count_must_fill_shape(self, shape):
        with pytest.raises(ValidationError):
            pairs_to_complex([[1.0, 0.0]] * 3, shape)

    def test_non_finite_entries(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                pairs_to_complex([[1.0, 0.0], [0.0, bad]])


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
