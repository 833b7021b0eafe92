import base64
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pptlab
from pptlab import (
    OqeModel,
    ValidationError,
    build_ppt,
    memory_complexity,
    near_identity_unitary,
    random_entangled_model,
    random_haar_unitary,
    random_separable_model,
    schmidt_decompose,
)
from pptlab import models, tensor_ops
from pptlab.models import _TAYLOR_THETA, random_haar_state, random_hermitian


class TestRandomHaarUnitary:
    def test_dim_one_is_phase(self):
        u = random_haar_unitary(1, 5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_haar_unitary(4, 11), random_haar_unitary(4, 11))

    def test_unitary(self):
        u = random_haar_unitary(4, 3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


class TestNearIdentityUnitary:
    def test_small_eta_limit(self):
        eta = 1e-6
        u = near_identity_unitary(4, eta, 7)
        h = random_hermitian(4, 7)
        assert np.linalg.norm(u - np.eye(4)) < 10 * eta * np.linalg.norm(h)

    def test_deterministic(self):
        assert np.array_equal(
            near_identity_unitary(4, 0.01, 2), near_identity_unitary(4, 0.01, 2)
        )

    def test_eigenvalues_on_unit_circle(self):
        u = near_identity_unitary(4, 0.01, 9)
        assert np.max(np.abs(np.abs(np.linalg.eigvals(u)) - 1.0)) < 1e-10

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValidationError):
            near_identity_unitary(3, 0.0, 1)

    @pytest.mark.parametrize("eta", [-0.1, float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_or_negative_eta(self, eta):
        with pytest.raises(ValidationError, match="eta"):
            near_identity_unitary(3, eta, 1)

    # dims 1 to 6, and k = 455, the figs2 --D 2 block size
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 127, 300, 455])
    def test_batched_draw_preserves_the_stream(self, dim, k):
        batch_rng, single_rng = np.random.default_rng(dim * k), np.random.default_rng(dim * k)
        batch = near_identity_unitary(dim, 0.3, batch_rng, size=k)
        singles = np.stack([near_identity_unitary(dim, 0.3, single_rng) for _ in range(k)])
        assert batch.shape == (k, dim, dim)
        assert batch.tobytes() == singles.tobytes()  # array_equal takes -0.0 for 0.0
        # both generators are left in the same state
        assert np.array_equal(
            near_identity_unitary(dim, 0.3, batch_rng), near_identity_unitary(dim, 0.3, single_rng)
        )

    def test_batched_draw_is_per_slice_across_scaling_exponents(self):
        # at eta = 0.12 a dim-4 stack mixes slices the kernel takes unscaled
        # (s = 0) with slices it squares once or twice
        eta, k = 0.12, 64
        batch_rng, single_rng = np.random.default_rng(11), np.random.default_rng(11)
        probe = np.random.default_rng(11)
        hs = np.stack([random_hermitian(4, probe) for _ in range(k)])
        norms = eta * np.max(np.sum(np.abs(hs), axis=-2), axis=-1)
        s = np.maximum(np.frexp(norms / _TAYLOR_THETA)[1], 0)
        assert {0, 1, 2} <= set(s.tolist())
        batch = near_identity_unitary(4, eta, batch_rng, size=k)
        singles = np.stack([near_identity_unitary(4, eta, single_rng) for _ in range(k)])
        assert np.array_equal(batch, singles)
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state

    def test_matches_expm_to_roundoff_at_the_figs2_size(self):
        # dim 4, eta = 0.01 is every figs2 --D 2 step: 20 seeds x 7 draws
        # within a unit or two of roundoff
        import scipy.linalg

        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            hs = np.stack([random_hermitian(4, rng) for _ in range(7)])
            u = near_identity_unitary(4, 0.01, seed, size=7)
            worst = max(worst, np.max(np.abs(u - scipy.linalg.expm(1j * 0.01 * hs))))
        assert worst < 1e-15

    def test_figs2_and_complexity_run_without_scipy(self):
        # the exponential is numpy matrix products and the matrix-free
        # stationary solve a numpy Arnoldi process, so neither the draws, nor
        # either figs2 mode, nor complexity on its Krylov (D = 16) or dense
        # entangled (D = 4) route may load any part of scipy
        src = str(Path(pptlab.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        probe = (
            "import contextlib, io, sys, pptlab.cli\n"
            "pptlab.near_identity_unitary(4, 0.1, 0, size=3)\n"
            "argv = ['figs2', '--D', '2', '--eta', '0.05', '--nmax', '20', '--seeds', '2']\n"
            "krylov = ['complexity', '--D', '16', '--seed', '0']\n"
            "dense = ['complexity', '--D', '4', '--entangled', '--seed', '0']\n"
            "runs = [argv, argv + ['--time-dependent'], krylov, dense]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [pptlab.cli.run(run) for run in runs]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[0, 0, 0, 0] []\n"

    def test_size_takes_a_shape(self):
        single = near_identity_unitary(2, 0.1, 4, size=None)
        assert single.shape == (2, 2)
        batch = near_identity_unitary(2, 0.1, 4, size=np.int64(6))
        assert batch.shape == (6, 2, 2) and np.array_equal(batch[0], single)
        assert near_identity_unitary(2, 0.1, 4, size=0).shape == (0, 2, 2)
        with pytest.raises(ValidationError, match="size must be None or an integer"):
            near_identity_unitary(2, 0.1, 4, size=(3, 2))


class TestRandomModelDimensions:
    @pytest.mark.parametrize("make", [random_separable_model, random_entangled_model])
    @pytest.mark.parametrize(
        "d, D", [(1, 2), (0, 2), (2, 0), (2, -1), (-3, 2), (2.5, 2), (2, 2.0), (True, 2), (2, True)]
    )
    def test_rejects_small_dimensions_before_drawing(self, make, d, D):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=f"d={d}, D={D}"):
            make(d, D, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("make", [random_separable_model, random_entangled_model])
    def test_numpy_integer_dimensions_accepted(self, make):
        assert make(np.int64(2), np.int32(3), 0).to_json() == make(2, 3, 0).to_json()

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: random_haar_unitary(2.5, rng),
            lambda rng: random_haar_unitary(True, rng),
            lambda rng: random_haar_state(2.5, rng),
            lambda rng: random_haar_state(0, rng),
            lambda rng: near_identity_unitary(4, "x", rng),
            lambda rng: near_identity_unitary(4, True, rng),
            lambda rng: near_identity_unitary(2.5, 0.1, rng),
            lambda rng: random_separable_model(2, 2, rng, steps=1.5),
            lambda rng: random_separable_model(2, 2, rng, steps=True),
            lambda rng: random_entangled_model(2, 2, rng, steps=0),
            lambda rng: random_entangled_model(2, 2, rng, lambdas=[-1, 0.5]),
            lambda rng: random_entangled_model(2, 2, rng, lambdas=[0, 0]),
            lambda rng: random_entangled_model(2, 2, rng, lambdas=[np.nan, 0.5]),
            lambda rng: random_entangled_model(2, 2, rng, lambdas=["x"]),
            lambda rng: random_entangled_model(2, 2, rng, lambdas=0.7),
            lambda rng: random_entangled_model(2, 2, rng, lambdas=[[0.5, 0.5]]),
            lambda rng: near_identity_unitary(2, 0.1, rng, size=2.5),
            lambda rng: near_identity_unitary(2, 0.1, rng, size=True),
            lambda rng: near_identity_unitary(2, 0.1, rng, size="3"),
            lambda rng: near_identity_unitary(2, 0.1, rng, size=-1),
            lambda rng: near_identity_unitary(2, 0.1, rng, size=(2, -1)),
            lambda rng: near_identity_unitary(2, 0.1, rng, size=(2, 1.0)),
            lambda rng: near_identity_unitary(2, 0.1, rng, size=[2, 3]),
            lambda rng: random_hermitian(2.5, rng),
            lambda rng: random_hermitian(0, rng),
            lambda rng: random_hermitian(True, rng),
        ],
        ids=["unitary_float_dim", "unitary_bool_dim", "state_float_dim", "state_zero_dim",
             "text_eta", "bool_eta", "near_identity_float_dim", "float_steps", "bool_steps",
             "zero_steps", "negative_lambda", "zero_lambdas", "nan_lambda", "text_lambda",
             "scalar_lambdas", "nested_lambdas", "float_size", "bool_size", "text_size",
             "negative_size", "negative_in_shape", "float_in_shape", "list_shape",
             "hermitian_float_dim", "hermitian_zero_dim", "hermitian_bool_dim"],
    )
    def test_ensembles_reject_malformed_arguments(self, draw):
        # each once ended in a bare TypeError or ValueError, a warning, an
        # empty array or a silently converted value; none may draw from the
        # generator
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError):
            draw(rng)
        assert rng.bit_generator.state == state


ENSEMBLES = {
    "separable_model": lambda seed: random_separable_model(2, 2, seed),
    "entangled_model": lambda seed: random_entangled_model(2, 2, seed),
    "haar_unitary": lambda seed: random_haar_unitary(3, seed),
    "haar_state": lambda seed: random_haar_state(3, seed),
    "hermitian": lambda seed: random_hermitian(3, seed),
    "near_identity": lambda seed: near_identity_unitary(3, 0.1, seed),
}


class TestSeeds:
    @pytest.mark.parametrize("make", ENSEMBLES.values(), ids=ENSEMBLES.keys())
    @pytest.mark.parametrize(
        "seed", [1.5, -1, True, np.bool_(False), "1", [1, 2]],
        ids=["float", "negative", "bool", "numpy_bool", "text", "list"],
    )
    def test_rejects_seeds_that_are_not_non_negative_integers(self, make, seed):
        with pytest.raises(ValidationError, match="seed"):
            make(seed)

    @pytest.mark.parametrize("make", ENSEMBLES.values(), ids=ENSEMBLES.keys())
    def test_accepts_integers_generators_and_none(self, make):
        ref = make(7)
        same = [make(np.int64(7)), make(np.uint8(7)), make(np.random.default_rng(7))]
        for got in same:
            got_bytes = got.to_json() if isinstance(got, OqeModel) else got.tobytes()
            assert got_bytes == (ref.to_json() if isinstance(ref, OqeModel) else ref.tobytes())
        make(None)


class TestSchmidtDecompose:
    def test_product_state(self):
        state = np.kron([1.0, 0.0], [0.0, 1.0, 0.0])
        form = schmidt_decompose(state, 2, 3)
        assert abs(form.lambdas[0] - 1.0) < 1e-12
        assert form.rank() == 1

    def test_maximally_entangled(self):
        state = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        form = schmidt_decompose(state, 2, 2)
        assert np.allclose(form.lambdas, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_random_state_reconstructs(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        form = schmidt_decompose(v, 2, 2)
        assert abs(np.sum(form.lambdas**2) - 1.0) < 1e-10
        assert np.linalg.norm(form.assemble() - v) < 1e-12
        for basis in (form.sys_basis, form.env_basis):
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-10

    def test_separable_has_single_schmidt_value(self, rng):
        for _ in range(10):
            model = random_separable_model(2, 3, rng)
            lam = model.initial_schmidt().lambdas
            assert np.all(lam[1:] < 1e-12)

    def test_norm_validation(self):
        with pytest.raises(ValidationError):
            schmidt_decompose(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)


class TestOqeModel:
    def test_generated_models_validate(self, rng):
        # construction validates, so rebuilding a model from its fields re-checks it
        for _ in range(10):
            for model in (random_separable_model(2, 2, rng), random_entangled_model(2, 2, rng)):
                again = dataclasses.replace(model)
                assert again.to_json() == model.to_json() and again.entangled == model.entangled

    @pytest.mark.parametrize(
        "d, D", [(2.0, 2), (2, 2.0), (True, 2), (2, True), (np.float64(2.0), 1)],
        ids=["float_d", "float_D", "bool_d", "bool_D", "numpy_float_d"],
    )
    def test_constructor_rejects_non_integer_dimensions(self, d, D):
        dim = int(d) * int(D)
        with pytest.raises(ValidationError, match="integers"):
            OqeModel(d, D, [np.eye(dim)], np.eye(dim)[0])

    @pytest.mark.parametrize(
        "psi", [np.ones(3) / np.sqrt(3), np.ones(5) / np.sqrt(5), np.ones(4), np.zeros(4)],
        ids=["short", "long", "unnormalised", "zero"],
    )
    def test_constructor_rejects_bad_states(self, psi):
        with pytest.raises(ValidationError):
            OqeModel(2, 2, [random_haar_unitary(4, 0)], psi)

    def test_direct_entangled_model_keeps_its_schmidt_branches(self):
        """Built directly, an entangled model once kept ``entangled=False``:
        ``build_ppt`` dropped the Schmidt branches (bonds [2, 2, 2]) and the
        memory complexity read 1.0 bit instead of 2.0."""
        ref = random_entangled_model(2, 2, 0)
        direct = OqeModel(ref.d, ref.D, ref.unitaries, ref.initial_state)
        assert direct.entangled
        assert build_ppt(direct, 3).bond_dims == build_ppt(ref, 3).bond_dims == [4, 4, 4]
        (got,), (want,) = memory_complexity(direct, [2]), memory_complexity(ref, [2])
        assert abs(got.value_bits - 2.0) < 1e-9
        assert got.value_bits == want.value_bits

    def test_rejects_nonunitary(self):
        good, bad = random_haar_unitary(4, 0), 1.1 * random_haar_unitary(4, 1)
        for us in ([good, bad], [good, bad, bad], [bad, good, bad]):
            # a shared copy is checked once, and named by its first step
            first = next(n for n, u in enumerate(us) if u is bad)
            with pytest.raises(ValidationError, match=f"unitary {first} deviates"):
                OqeModel(2, 2, us, np.eye(4)[0])

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ("good bad wide", "unitary 1 deviates"),
            ("good wide bad", "unitary 1 has shape"),
            ("bad nan", "unitary 0 deviates"),
            ("good nan bad", "non-finite"),
            ("good bad text", "unitary 1 deviates"),
        ],
    )
    def test_names_the_first_failing_unitary_in_step_order(self, kinds, message):
        # the distinct unitaries are checked by one stacked product once they are
        # copied and their shapes checked; the error names the first failure in step order
        arrays = {
            "good": random_haar_unitary(4, 0),
            "bad": 1.1 * random_haar_unitary(4, 1),
            "wide": np.eye(6),
            "nan": np.full((4, 4), np.nan),
            "text": "not a matrix",
        }
        with pytest.raises(ValidationError, match=message):
            OqeModel(2, 2, [arrays[k] for k in kinds.split()], np.eye(4)[0])

    def test_distinct_unitaries_are_checked_in_bounded_stacks(self):
        # 600 distinct 32 x 32 unitaries: one stack of all of them, with its
        # product, would hold 4.5 times their copies at the peak
        u = random_haar_unitary(32, 0)
        us = [u.copy() for _ in range(600)]
        tracemalloc.start()
        try:
            OqeModel(2, 16, us, np.eye(32)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(us) * u.nbytes

    def test_shared_unitary_copied_once(self):
        u = random_haar_unitary(4, 0)
        model = OqeModel(2, 2, [u, u.copy(), u], np.eye(4)[0])
        first, second, third = model.unitaries
        assert first is third and first is not second and first is not u
        assert not first.flags.writeable and np.array_equal(first, second)
        # a generator's fresh objects are freed as it goes, so their ids recur
        us = [random_haar_unitary(4, k) for k in range(3)]
        fresh = OqeModel(2, 2, (v.copy() for v in us), np.eye(4)[0])
        assert all(np.array_equal(a, b) for a, b in zip(fresh.unitaries, us, strict=True))

    def test_rejects_small_system(self):
        with pytest.raises(ValidationError):
            OqeModel(1, 2, [random_haar_unitary(2, 0)], np.array([1.0, 0.0]))

    def test_entangled_flag(self, rng):
        assert not random_separable_model(2, 2, rng).entangled
        assert random_entangled_model(2, 2, rng).entangled

    def test_json_roundtrip(self, rng):
        model = random_entangled_model(2, 2, rng, lambdas=np.sqrt([0.8, 0.2]))
        back = OqeModel.from_json(model.to_json())
        assert back.d == model.d and back.D == model.D
        assert back.time_independent
        assert np.max(np.abs(back.unitaries[0] - model.unitaries[0])) < 1e-15
        assert np.max(np.abs(back.initial_state - model.initial_state)) < 1e-15
        assert back.entangled

    def test_json_schema_fields(self, rng):
        model = random_separable_model(2, 2, rng)
        doc = model.to_json_dict()
        assert set(doc) == {"d", "D", "time_independent", "unitaries", "initial_state"}
        assert doc["time_independent"] is True
        # complex leaves are base64 text of the row-major little-endian complex128 entries
        unitary = base64.b64decode(doc["unitaries"][0], validate=True)
        state = base64.b64decode(doc["initial_state"], validate=True)
        assert len(unitary) == 16 * 16 and unitary == model.unitaries[0].astype("<c16").tobytes()
        assert len(state) == 4 * 16 and state == model.initial_state.astype("<c16").tobytes()

    @pytest.mark.parametrize("steps, claim", [(1, False), (3, True)],
                             ids=["one_unitary_claimed_dependent", "three_claimed_independent"])
    def test_json_rejects_a_wrong_time_independent_claim(self, steps, claim):
        # a false claim on one unitary was once ignored: the model came back
        # time-independent and built any number of steps
        doc = random_separable_model(2, 2, 0, steps=steps).to_json_dict()
        doc["time_independent"] = claim
        with pytest.raises(ValidationError, match="time_independent"):
            OqeModel.from_json_dict(doc)

    def test_each_array_is_decoded_and_checked_once(self, monkeypatch):
        # the reader once checked and copied every unitary and the initial
        # state twice: in decode_complex and again at construction
        doc = random_entangled_model(2, 2, 0, steps=2).to_json_dict()
        checks = []
        check = tensor_ops.as_complex_array

        def counting(*args, **kwargs):
            checks.append(args[0].shape)
            return check(*args, **kwargs)

        monkeypatch.setattr(tensor_ops, "as_complex_array", counting)
        monkeypatch.setattr(models, "as_complex_array", counting)
        back = OqeModel.from_json_dict(doc)
        assert checks == [(4, 4), (4, 4), (4,)]  # one finiteness check per array
        assert back.to_json_dict() == doc

    def test_time_dependent_unitary_lookup(self, rng):
        model = random_separable_model(2, 2, rng, steps=3)
        assert not model.time_independent
        assert model.unitary_at(2) is model.unitaries[1]
        with pytest.raises(ValidationError):
            model.unitary_at(4)

    @pytest.mark.parametrize("steps", [1, 3], ids=["time_independent", "time_dependent"])
    @pytest.mark.parametrize("n", [0, -5, True, np.bool_(True), 1.5, 2.0, "1", None], ids=repr)
    def test_unitary_at_rejects_what_is_no_step(self, rng, steps, n):
        # 0, -5 and True used to return a unitary and 1.5 a bare TypeError
        model = random_separable_model(2, 2, rng, steps=steps)
        with pytest.raises(ValidationError, match="step"):
            model.unitary_at(n)
        assert model.unitary_at(np.int64(1)) is model.unitaries[0]
