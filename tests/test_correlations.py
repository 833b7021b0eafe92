import tracemalloc

import numpy as np
import pytest

from pptlab import (
    DimensionError,
    MultiTimeObservable,
    OqeModel,
    PptMps,
    ValidationError,
    build_ppt,
    dense_expectation,
    expectation,
    expectations,
    pair_operator,
    random_entangled_model,
    random_separable_model,
)
from pptlab.models import random_hermitian
from pptlab.ppt import MAX_STEPS

from conftest import random_observable


class TestExpectation:
    def test_identity_insertions_give_norm(self, rng):
        mps = build_ppt(random_separable_model(2, 2, rng), 4)
        obs = MultiTimeObservable([(2, np.eye(4)), (4, np.eye(4))])
        assert abs(expectation(mps, obs) - 1.0) < 1e-12

    def test_projector_completeness(self, rng):
        mps = build_ppt(random_separable_model(2, 2, rng), 4)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        total = 0.0
        for k in range(4):
            proj = np.outer(u[:, k], u[:, k].conj())
            total += expectation(mps, MultiTimeObservable([(3, proj)]))
        assert abs(total - 1.0) < 1e-10

    def test_matches_dense_oracle(self, rng):
        model = random_separable_model(2, 2, rng)
        mps = build_ppt(model, 5)
        obs = MultiTimeObservable(
            [(2, random_hermitian(4, rng)), (4, random_hermitian(4, rng))]
        )
        assert abs(expectation(mps, obs) - dense_expectation(model, 5, obs)) < 1e-10

    def test_step_out_of_range(self, rng):
        mps = build_ppt(random_separable_model(2, 2, rng), 3)
        with pytest.raises(ValidationError):
            expectation(mps, MultiTimeObservable([(4, np.eye(4))]))

    def test_linearity_in_insertion(self, rng):
        mps = build_ppt(random_separable_model(2, 2, rng), 4)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        alpha = 0.6 - 0.2j
        combo = MultiTimeObservable([(2, alpha * a + b)])
        parts = alpha * expectation(
            mps, MultiTimeObservable([(2, a)])
        ) + expectation(mps, MultiTimeObservable([(2, b)]))
        assert abs(expectation(mps, combo) - parts) < 1e-12

    def test_identity_insertion_removable(self, rng):
        mps = build_ppt(random_separable_model(2, 2, rng), 5)
        m = random_hermitian(4, rng)
        with_id = MultiTimeObservable([(2, m), (4, np.eye(4))])
        without = MultiTimeObservable([(2, m)])
        assert abs(expectation(mps, with_id) - expectation(mps, without)) < 1e-12

    def test_right_canonicalises_other_input(self, rng):
        # a gauge G on the bond after step 2 leaves the state unchanged, but
        # the contraction must not stop at step 2 on sites that are not
        # right-canonical
        mps = build_ppt(random_separable_model(2, 3, rng), 4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sites = mps.chain()
        sites[1] = np.einsum("aoib,bc->aoic", sites[1], g)
        sites[2] = np.einsum("cb,boid->coid", np.linalg.inv(g), sites[2])
        twin = PptMps(runs=tuple((t, 1) for t in sites))
        assert twin.canonical == "none"
        obs = MultiTimeObservable([(2, random_hermitian(4, rng))])
        assert abs(expectation(twin, obs) - expectation(mps, obs)) < 1e-12

    def test_causality(self, rng):
        """Operators at steps <= m are blind to later unitaries."""
        base = random_separable_model(2, 2, rng, steps=5)
        altered_us = list(base.unitaries[:3]) + [
            np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            for _ in range(2)
        ]
        altered = OqeModel(2, 2, altered_us, base.initial_state)
        obs = MultiTimeObservable(
            [(1, random_hermitian(4, rng)), (3, random_hermitian(4, rng))]
        )
        v1 = expectation(build_ppt(base, 5), obs)
        v2 = expectation(build_ppt(altered, 5), obs)
        assert abs(v1 - v2) < 1e-12


def uniform_gauge_twin(model, N, rng) -> PptMps:
    """``build_ppt(model, N)`` of a separable time-independent model with a
    gauge G on every bond after step 1: three runs whose repeated site
    G^-1 B G is not right-canonical, and the same state."""
    (first, _), (site, n) = build_ppt(model, N).runs
    D = site.shape[0]
    g = np.eye(D) + 0.3 * (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
    gi = np.linalg.inv(g)
    runs = (
        (np.einsum("aoib,bc->aoic", first, g), 1),
        (np.einsum("ca,aoib,bd->coid", gi, site, g), n - 1),
        (np.einsum("ca,aoib->coib", gi, site), 1),
    )
    return PptMps(runs=runs)


def peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExpectationMemory:
    """``expectation`` copies no step: a right-canonical PPT is read up to its
    last insertion, and any other is swept in place and divided by its norm."""

    def test_non_canonical_ppt_is_swept_without_a_copy(self, rng):
        N = 10**4
        model = random_separable_model(2, 4, rng)
        twin = uniform_gauge_twin(model, N, rng)
        assert twin.canonical == "none" and len(twin.runs) == 3
        obs = MultiTimeObservable([(2, random_hermitian(4, rng)), (N, random_hermitian(4, rng))])
        # a right-canonical copy holds 10^4 sites of 1 KB each
        assert peak_traced_bytes(lambda: expectation(twin, obs)) < 1_000_000
        # each side carries about N rounding errors of 1e-16
        assert abs(expectation(twin, obs) - expectation(build_ppt(model, N), obs)) < 1e-10

    def test_an_early_insertion_reads_only_its_prefix(self, rng):
        model = random_separable_model(2, 2, rng)
        mps = build_ppt(model, MAX_STEPS)
        assert mps.canonical == "right"  # measured once, before the trace
        obs = MultiTimeObservable([(1, random_hermitian(4, rng))])
        # the per-step list of MAX_STEPS elements alone takes 8 MB
        assert peak_traced_bytes(lambda: expectation(mps, obs)) < 100_000
        assert expectation(mps, obs) == expectation(build_ppt(model, 1), obs)


class TestExpectations:
    """``expectations`` validates every observable before it sweeps, and
    raises what ``expectation`` raises for the same observable."""

    def test_empty_list_gives_an_empty_array(self, rng):
        for expose in (False, True):
            mps = build_ppt(random_entangled_model(2, 2, rng), 3, expose_initial_leg=expose)
            got = expectations(mps, [])
            assert got.shape == (0,) and got.dtype == np.complex128

    @pytest.mark.parametrize(
        "bad, error",
        [(MultiTimeObservable([(4, np.eye(4))]), ValidationError),
         (MultiTimeObservable([(2, np.eye(9))]), DimensionError)],
        ids=["step_out_of_range", "wrong_operator_shape"],
    )
    def test_a_bad_observable_raises_what_expectation_raises(self, rng, bad, error):
        mps = build_ppt(random_separable_model(2, 2, rng), 3)
        with pytest.raises(error) as single:
            expectation(mps, bad)
        with pytest.raises(error) as batched:
            expectations(mps, [random_observable(rng, 2, 3), bad])
        assert str(batched.value) == str(single.value)

    def test_a_generator_of_observables_is_read_once(self, rng):
        mps = build_ppt(random_separable_model(2, 2, rng), 4)
        obs_list = [random_observable(rng, 2, 4) for _ in range(3)]
        got = expectations(mps, (obs for obs in obs_list))
        assert got.tolist() == [expectation(mps, obs) for obs in obs_list]


class TestDenseExpectation:
    def test_identity(self, rng):
        model = random_separable_model(2, 2, rng)
        obs = MultiTimeObservable([(1, np.eye(4))])
        assert abs(dense_expectation(model, 3, obs) - 1.0) < 1e-12

    def test_single_step_trivial_unitary(self, rng):
        """With U = I and no environment, the PPT is the maximally entangled pair."""
        psi = np.zeros(2)
        psi[0] = 1.0
        model = OqeModel(2, 1, [np.eye(2)], psi)
        m = random_hermitian(4, rng)
        pair = np.eye(2).reshape(-1) / np.sqrt(2)
        ref = pair.conj() @ m @ pair
        got = dense_expectation(model, 1, MultiTimeObservable([(1, m)]))
        assert abs(got - ref) < 1e-12

    def test_matches_mps_on_random_cases(self, rng):
        for D in (1, 2, 4):
            for _ in range(8):
                entangled = D > 1 and rng.random() < 0.4
                model = (
                    random_entangled_model(2, D, rng)
                    if entangled
                    else random_separable_model(2, D, rng)
                )
                n_steps = int(rng.integers(2, 6))
                mps = build_ppt(model, n_steps)
                obs = random_observable(rng, 2, n_steps, min(2, n_steps))
                a = expectation(mps, obs)
                b = dense_expectation(model, n_steps, obs)
                assert abs(a - b) < 1e-10

    def test_matches_mps_for_qutrit_system(self, rng):
        model = random_separable_model(3, 2, rng)
        mps = build_ppt(model, 3)
        obs = random_observable(rng, 3, 3, 2)
        assert abs(expectation(mps, obs) - dense_expectation(model, 3, obs)) < 1e-10


class TestObservableType:
    def test_steps_strictly_increasing(self):
        for steps in ((2, 2), (3, 1), (0,)):
            with pytest.raises(ValidationError):
                MultiTimeObservable(tuple((step, np.eye(4)) for step in steps))

    def test_direct_unordered_insertions_cannot_skip_a_step(self, rng):
        """Built directly, insertions at steps (3, 1) once made ``expectation``
        stop after step 1 and silently drop the step-3 operator, and duplicate
        steps gave a value far from ``dense_expectation``'s; both are now
        refused where the observable is made."""
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        for insertions in (((3, b), (1, a)), ((2, a), (2, b))):
            with pytest.raises(ValidationError, match="strictly increasing"):
                MultiTimeObservable(insertions=insertions)
        direct = MultiTimeObservable(insertions=((1, a), (3, b)))
        model = random_separable_model(2, 2, rng)
        got = expectation(build_ppt(model, 3), direct)
        assert abs(got - dense_expectation(model, 3, direct)) < 1e-12

    @pytest.mark.parametrize(
        "step", [1.5, 2.0, True, "2", None, np.float64(2.0)], ids=repr
    )
    def test_rejects_steps_that_are_not_integers(self, step):
        with pytest.raises(ValidationError, match="integer"):
            MultiTimeObservable(((step, np.eye(4)),))

    @pytest.mark.parametrize("step", [2, np.int64(2), np.uint8(2)], ids=repr)
    def test_accepts_python_and_numpy_integer_steps(self, step):
        obs = MultiTimeObservable([(step, np.eye(4))])
        assert obs.insertions[0][0] == 2 and type(obs.insertions[0][0]) is int

    @pytest.mark.parametrize(
        "insertions",
        [((1, np.full((4, 4), np.nan)),), ((1, np.ones(3)),), ((1, np.ones((4, 2))),),
         ((1, np.eye(4)), (2, np.eye(16)))],
        ids=["nan", "rank_one", "not_square", "two_shapes"],
    )
    def test_rejects_malformed_operators(self, rng, insertions):
        """A NaN operator used to give ``expectation`` a value of nan+nanj and
        a rank-1 one to fail only when evaluated; both are refused where the
        observable is made."""
        with pytest.raises(ValidationError):
            MultiTimeObservable(insertions)

    def test_pair_operator(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        assert np.array_equal(pair_operator(a, b), np.kron(a, b))

    def test_json_roundtrip(self, rng):
        obs = MultiTimeObservable(
            [(1, random_hermitian(4, rng)), (3, random_hermitian(4, rng))]
        )
        back = MultiTimeObservable.from_json(obs.to_json())
        assert [s for s, _ in back.insertions] == [1, 3]
        for (_, a), (_, b) in zip(obs.insertions, back.insertions):
            assert np.max(np.abs(a - b)) < 1e-15
