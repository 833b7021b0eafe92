import numpy as np
import pytest

from pptlab import SingularityError
from pptlab.tensor_ops import polar_unitary
from pptlab.models import random_haar_unitary


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
