"""Norm, duality-map, and sampling behavior of the p-norm spaces."""

import math

import numpy as np
import pytest

from hologen.spaces import NormedSpace, space_from_dict, space_to_dict

ALL_P = (1.0, 1.5, 2.0, 3.0, math.inf)


def seeded_vectors(space, count, seed, scale=True):
    rng = np.random.default_rng([seed, 9001])
    raw = rng.standard_normal((count, space.dim)) + 1j * rng.standard_normal((count, space.dim))
    if scale:
        raw = raw * rng.uniform(0.1, 3.0, count)[:, None]
    return raw


class TestValidation:
    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            NormedSpace(0, 2.0)
        with pytest.raises(ValueError):
            NormedSpace(17, 2.0)
        with pytest.raises(ValueError):
            NormedSpace(True, 2.0)
        with pytest.raises(ValueError):
            NormedSpace(2.5, 2.0)
        assert NormedSpace(16, 2.0).dim == 16

    def test_p_window(self):
        for bad in (0.5, 1.05, 10.5, -1.0, 0.0):
            with pytest.raises(ValueError):
                NormedSpace(2, bad)
        for ok in (1.0, 1.1, 2.0, 3.7, 10.0, math.inf):
            assert NormedSpace(2, ok).p == ok


    def test_negative_infinity_rejected(self):
        with pytest.raises(ValueError, match="p must be"):
            NormedSpace(2, -math.inf)


class TestNorms:
    def test_frozen_values(self):
        v = np.array([3.0, 4.0])
        assert NormedSpace(2, 1.0).norm(v) == 7.0
        assert NormedSpace(2, 2.0).norm(v) == 5.0
        assert NormedSpace(2, math.inf).norm(v) == 4.0
        ones = np.array([1.0, 1.0])
        assert NormedSpace(2, 3.0).norm(ones) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_batch_matches_scalar(self):
        for p in ALL_P:
            space = NormedSpace(3, p)
            Z = seeded_vectors(space, 20, seed=3)
            batch = space.norm_batch(Z)
            for i in range(20):
                assert batch[i] == pytest.approx(space.norm(Z[i]), rel=1e-15)

    def test_shape_errors(self):
        space = NormedSpace(2, 2.0)
        with pytest.raises(ValueError):
            space.norm(np.zeros(3))
        with pytest.raises(ValueError):
            space.norm_batch(np.zeros((4, 3)))

    def test_conjugate_exponent(self):
        assert NormedSpace(2, 2.0).conjugate_exponent() == 2.0
        assert NormedSpace(2, 1.0).conjugate_exponent() == math.inf
        assert NormedSpace(2, math.inf).conjugate_exponent() == 1.0
        assert NormedSpace(2, 3.0).conjugate_exponent() == pytest.approx(1.5, rel=1e-15)
        assert NormedSpace(2, 1.5).conjugate_exponent() == pytest.approx(3.0, rel=1e-15)

    def test_dual_norm_is_conjugate_norm(self):
        w = np.array([3.0, 4.0])
        assert NormedSpace(2, 1.0).dual_norm(w) == 4.0
        assert NormedSpace(2, math.inf).dual_norm(w) == 7.0
        assert NormedSpace(2, 2.0).dual_norm(w) == 5.0


class TestSupportFunctional:
    def test_defining_identities(self):
        # Re<v, v*> = ||v||^2, Im<v, v*> = 0, dual norm of v* = ||v||.
        for p in ALL_P:
            space = NormedSpace(4, p)
            Z = seeded_vectors(space, 30, seed=11)
            for v in Z:
                pair = space.support_functional(v)
                val = NormedSpace.pairing(pair.v, pair.vstar)
                nrm = space.norm(v)
                assert pair.norm_value == pytest.approx(nrm, rel=1e-12)
                assert val.real == pytest.approx(nrm * nrm, rel=1e-12)
                assert abs(val.imag) <= 1e-12 * nrm * nrm
                assert space.dual_norm(pair.vstar) == pytest.approx(nrm, rel=1e-12)

    def test_frozen_p1_example(self):
        space = NormedSpace(2, 1.0)
        pair = space.support_functional(np.array([0.5, 0.5j]))
        assert pair.norm_value == 1.0
        np.testing.assert_allclose(pair.vstar, np.array([1.0, -1.0j]), atol=1e-15)

    def test_p2_is_entrywise_conjugate(self):
        space = NormedSpace(3, 2.0)
        v = np.array([1.0 + 2.0j, -0.5, 0.25j])
        pair = space.support_functional(v)
        np.testing.assert_array_equal(pair.vstar, np.conj(v))

    def test_pinf_concentrates_on_max_entry(self):
        space = NormedSpace(2, math.inf)
        pair = space.support_functional(np.array([0.3, -0.7]))
        np.testing.assert_allclose(pair.vstar, np.array([0.0, -0.7]), atol=1e-15)

    def test_alt_selection_is_also_valid(self):
        # Ties for p = inf and zero coordinates for p = 1 admit a second
        # selection; both must satisfy the defining identities.
        inf_space = NormedSpace(2, math.inf)
        v = np.array([1.0, 1.0])
        first = inf_space.support_functional(v, alt=False)
        second = inf_space.support_functional(v, alt=True)
        assert first.vstar[0] == 1.0 and first.vstar[1] == 0.0
        assert second.vstar[0] == 0.0 and second.vstar[1] == 1.0
        for pair in (first, second):
            val = NormedSpace.pairing(v, pair.vstar)
            assert val == pytest.approx(1.0, rel=1e-15)
            assert inf_space.dual_norm(pair.vstar) == pytest.approx(1.0, rel=1e-15)

        one_space = NormedSpace(2, 1.0)
        w = np.array([2.0, 0.0])
        base = one_space.support_functional(w, alt=False)
        alt = one_space.support_functional(w, alt=True)
        assert base.vstar[1] == 0.0
        assert alt.vstar[1] == 2.0
        for pair in (base, alt):
            val = NormedSpace.pairing(w, pair.vstar)
            assert val == pytest.approx(4.0, rel=1e-15)
            assert one_space.dual_norm(pair.vstar) == pytest.approx(2.0, rel=1e-15)

    def test_zero_vector_rejected(self):
        space = NormedSpace(2, 2.0)
        with pytest.raises(ValueError):
            space.support_functional(np.zeros(2))
        with pytest.raises(ValueError):
            space.support_batch(np.zeros((3, 2)))

    def test_batch_matches_single(self):
        for p in (1.0, 2.0, 3.0, math.inf):
            space = NormedSpace(3, p)
            Z = seeded_vectors(space, 10, seed=5)
            W = space.support_batch(Z)
            for i in range(10):
                np.testing.assert_allclose(
                    W[i], space.support_functional(Z[i]).vstar, rtol=1e-13, atol=1e-13)


class TestPairing:
    def test_bilinear_no_hidden_conjugation(self):
        u = np.array([1.0 + 1.0j, 2.0])
        w = np.array([1.0j, -1.0])
        assert NormedSpace.pairing(u, w) == pytest.approx((1.0 + 1.0j) * 1.0j - 2.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        U = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        W = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        vals = NormedSpace.pairing_batch(U, W)
        for i in range(6):
            assert vals[i] == pytest.approx(NormedSpace.pairing(U[i], W[i]))


class TestSphereSample:
    def test_coordinate_prefix(self):
        for p in ALL_P:
            space = NormedSpace(3, p)
            pts = space.sphere_sample(12, seed=0)
            expected = np.zeros((6, 3), dtype=np.complex128)
            for k in range(3):
                expected[2 * k, k] = 1.0
                expected[2 * k + 1, k] = -1.0
            np.testing.assert_array_equal(pts[:6], expected)

    def test_unit_norms(self):
        for p in ALL_P:
            space = NormedSpace(4, p)
            pts = space.sphere_sample(50, seed=2)
            np.testing.assert_allclose(space.norm_batch(pts), 1.0, atol=1e-12)

    def test_prefix_stability(self):
        space = NormedSpace(2, 2.0)
        small = space.sphere_sample(20, seed=9)
        large = space.sphere_sample(40, seed=9)
        np.testing.assert_array_equal(large[:20], small)

    def test_seed_determinism(self):
        space = NormedSpace(2, 2.0)
        a = space.sphere_sample(16, seed=4)
        b = space.sphere_sample(16, seed=4)
        c = space.sphere_sample(16, seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            NormedSpace(2, 2.0).sphere_sample(0, seed=0)


class TestSerialization:
    def test_roundtrip(self):
        for p in (1.0, 2.0, 1.5, math.inf):
            space = NormedSpace(3, p)
            again = space_from_dict(space_to_dict(space))
            assert again == space

    def test_inf_spelled_out(self):
        assert space_to_dict(NormedSpace(2, math.inf))["p"] == "inf"
        assert space_to_dict(NormedSpace(2, 2.0))["p"] == 2

    def test_malformed_descriptors(self):
        with pytest.raises(ValueError, match="dim"):
            space_from_dict({"p": 2})
        with pytest.raises(ValueError, match="p"):
            space_from_dict({"dim": 2})
        with pytest.raises(ValueError, match="'p'"):
            space_from_dict({"dim": 2, "p": "infinity"})
        with pytest.raises(ValueError, match="'dim'"):
            space_from_dict({"dim": True, "p": 2})
        with pytest.raises(ValueError):
            space_from_dict([2, 2])

    def test_boolean_p_rejected(self):
        with pytest.raises(ValueError, match="'p'"):
            space_from_dict({"dim": 2, "p": True})
