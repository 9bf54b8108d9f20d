"""Polynomial ball maps, disc functions, coefficient extraction, sampling."""

import math

import numpy as np
import pytest

from hologen.polymaps import (
    CallableMap,
    DiscFunction,
    HomogeneousPoly,
    PolyMap,
    disc_generator_from,
    fejer_truncate,
    herglotz_sample,
    lift_to_ball,
    map_from_dict,
    map_to_dict,
    sample_generator,
    taylor_coefficients,
    unitary_conjugate,
)
from hologen.spaces import NormedSpace

from conftest import make_linear_map


def ball_points(space, count, seed, rmax=0.9):
    rng = np.random.default_rng([seed, 77])
    V = space.sphere_sample(count, seed)
    return V * rng.uniform(0.05, rmax, count)[:, None]


class TestHomogeneousPoly:
    def test_homogeneity(self):
        P = HomogeneousPoly(3, np.array([[2, 1], [0, 3]]),
                            np.array([[1.0, -2.0j], [0.5, 0.0]]))
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        t = 0.37 - 0.2j
        lhs = P.eval_batch(t * Z)
        rhs = t ** 3 * P.eval_batch(Z)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_frozen_evaluation(self):
        # P(z) = (z2^2, 0)
        P = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        out = P(np.array([0.5, 0.25j]))
        np.testing.assert_allclose(out, np.array([-0.0625, 0.0]), atol=1e-15)

    def test_empty_part_is_zero(self):
        P = HomogeneousPoly(2, np.zeros((0, 2), dtype=np.int64),
                            np.zeros((0, 2), dtype=np.complex128))
        out = P.eval_batch(np.ones((3, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            HomogeneousPoly(0, np.array([[0, 0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(33, np.array([[33, 0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(2, np.array([[1, 2]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(2, np.array([[3, -1]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(2, np.array([[1, 1], [2, 0]]), np.array([[1.0, 0.0]]))


class TestPolyMap:
    def test_evaluation_composition(self, l2_2d):
        P = HomogeneousPoly(2, np.array([[2, 0]]), np.array([[0.0, 1.0]]))
        F = PolyMap(space=l2_2d, constant=np.array([0.1, 0.0]),
                    linear=np.array([[0.0, 1.0], [-1.0, 0.0]]), higher=(P,))
        z = np.array([0.2, 0.3j])
        expected = np.array([0.1 + 0.3j, -0.2 + 0.04])
        np.testing.assert_allclose(F(z), expected, atol=1e-15)

    def test_ball_check_only_on_evaluate(self, l2_2d):
        F = make_linear_map(l2_2d, np.eye(2))
        with pytest.raises(ValueError):
            F(np.array([1.0, 0.0]))
        out = F.eval_batch(np.array([[2.0, 0.0]]))
        np.testing.assert_array_equal(out[0], np.array([2.0, 0.0]))

    def test_degree_and_parts(self, l2_2d):
        lin = make_linear_map(l2_2d, np.eye(2))
        assert lin.degree == 1
        assert lin.part_of_degree(2) is None
        P = HomogeneousPoly(4, np.array([[2, 2]]), np.array([[1.0, 0.0]]))
        F = PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.eye(2), higher=(P,))
        assert F.degree == 4
        assert F.part_of_degree(4) is P

    def test_distinct_degrees_required(self, l2_2d):
        P1 = HomogeneousPoly(2, np.array([[2, 0]]), np.array([[1.0, 0.0]]))
        P2 = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.eye(2), higher=(P1, P2))

    def test_shape_validation(self, l2_2d):
        with pytest.raises(ValueError):
            PolyMap(space=l2_2d, constant=np.zeros(3), linear=np.eye(2), higher=())
        with pytest.raises(ValueError):
            PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.eye(3), higher=())

    def test_restrict_frozen_example(self, l2_2d):
        # F(z) = (z2^2, 0) restricted to the diagonal direction picks up
        # the factor <F(v), v*> = 2^(-3/2) on the zeta^2 coefficient.
        P = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        F = PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.zeros((2, 2)), higher=(P,))
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        g = F.restrict(v)
        assert g.kind == "polynomial"
        assert g.coefficient(2) == pytest.approx(2.0 ** -1.5, rel=1e-12)
        assert g.coefficient(0) == 0.0 and g.coefficient(1) == 0.0

    def test_restrict_matches_direct_slice(self, l2_2d):
        F = sample_generator(l2_2d, seed=5, degree=4)
        v = l2_2d.sphere_sample(8, seed=1)[6]
        g = F.restrict(v)
        w = l2_2d.support_functional(v).vstar
        for zeta in (0.3, -0.5j, 0.2 + 0.6j):
            direct = NormedSpace.pairing(F.eval_batch(zeta * v[None, :])[0], w)
            assert g(zeta) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_line_coefficients_match_direct_slices(self, p, n):
        # a dense map with parts of degrees 2 and 4 only, so column 3 must
        # read 0; the ±e_k rows, a row with zero coordinates and a row of
        # tied moduli are where the p = 1 and p = inf selections matter
        space = NormedSpace(n, p)
        rng = np.random.default_rng([n, int(10 * min(p, 9.0))])

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        parts = []
        for j in (2, 4):
            powers = np.zeros((3, n), dtype=np.int64)
            for t in range(3):
                np.add.at(powers[t], rng.integers(0, n, j), 1)
            parts.append(HomogeneousPoly(j, powers, cplx(3, n)))
        F = PolyMap(space, cplx(n), cplx(n, n), tuple(parts))
        special = np.zeros((2, n), dtype=np.complex128)
        special[0, 0] = 1.0
        special[0, n - 1] += 1.0j
        special[1] = [(1.0, -1.0j, 1.0j, -1.0)[k] for k in range(n)]
        special /= space.norm_batch(special)[:, None]
        V = np.vstack([space.sphere_sample(2 * n + 3, seed=n), special])
        C = F.line_coefficients(V)
        assert C.shape == (V.shape[0], 5)
        np.testing.assert_array_equal(C[:, 3], 0.0)
        zetas = np.array([0.3, -0.5j, 0.2 + 0.6j, 0.9])
        for v, row in zip(V, C):
            w = space.support_functional(v).vstar
            direct = space.pairing_batch(F.eval_batch(zetas[:, None] * v[None, :]), w[None, :])
            recovered = np.polynomial.polynomial.polyval(zetas, row)
            np.testing.assert_allclose(recovered, direct, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(F.restrict(v).coefficients, row, rtol=1e-13, atol=1e-14)

    def test_line_coefficients_of_degree_one_map(self):
        space = NormedSpace(2, 1.0)
        A = np.array([[-1.0, 0.5j], [0.25, -2.0 + 1.0j]])
        F = PolyMap(space, np.array([0.1, -0.2j]), A, ())
        V = np.array([[1.0, 0.0], [0.0, -1.0j], [0.5, 0.5j]])
        C = F.line_coefficients(V)
        assert C.shape == (3, 2)
        W = space.support_batch(V)
        np.testing.assert_allclose(C[:, 0], W @ F.constant, rtol=1e-15)
        np.testing.assert_allclose(C[:, 1], np.sum((V @ A.T) * W, axis=1), rtol=1e-15)
        assert F.restrict(V[2]).coefficients.size == 2

    def test_restrict_requires_unit_direction(self, l2_2d):
        F = make_linear_map(l2_2d, np.eye(2))
        with pytest.raises(ValueError):
            F.restrict(np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="unit vector"):
            F.restrict(np.array([math.nan, 0.0]))

    def test_evaluate_rejects_nan_point(self, l2_2d):
        with pytest.raises(ValueError, match="open unit ball"):
            make_linear_map(l2_2d, np.eye(2)).evaluate(np.array([math.nan, 0.0]))

    def test_shifted_pointwise_identity(self, l2_2d):
        F = sample_generator(l2_2d, seed=2, degree=3)
        theta, a = 1.1, -0.7
        G = F.shifted(theta, a)
        Z = ball_points(l2_2d, 12, seed=4)
        phase = complex(math.cos(theta), math.sin(theta))
        np.testing.assert_allclose(
            G.eval_batch(Z), phase * F.eval_batch(Z) - a * Z, rtol=1e-13, atol=1e-13)


class TestCallableMap:
    def test_wraps_batch_evaluator(self, l2_2d):
        F = CallableMap(l2_2d, lambda Z: Z * 2.0)
        np.testing.assert_array_equal(F(np.array([0.1, 0.2])), np.array([0.2, 0.4]))
        np.testing.assert_allclose(F.constant, np.zeros(2))
        with pytest.raises(ValueError):
            F(np.array([1.0, 0.0]))

    def test_output_shape_enforced(self, l2_2d):
        bad = CallableMap(l2_2d, lambda Z: Z[:, :1])
        with pytest.raises(ValueError):
            bad.eval_batch(np.zeros((2, 2)))

    def test_shifted_and_restrict(self, l2_2d):
        F = CallableMap(l2_2d, lambda Z: Z ** 2)
        G = F.shifted(math.pi, 0.5)
        z = np.array([0.2, 0.1])
        np.testing.assert_allclose(
            G(z), complex(math.cos(math.pi), math.sin(math.pi)) * z ** 2 - 0.5 * z,
            atol=1e-15)
        v = np.array([1.0, 0.0])
        g = F.restrict(v)
        assert g.kind == "blackbox"
        assert g(0.3) == pytest.approx(0.09, rel=1e-12)
        np.testing.assert_allclose(g(np.array([[0.3, -0.5j]])), [[0.09, -0.25]], rtol=1e-12)

    def test_nan_point_and_direction_rejected(self, l2_2d):
        F = CallableMap(l2_2d, lambda Z: Z ** 2)
        with pytest.raises(ValueError, match="open unit ball"):
            F(np.array([math.nan, 0.0]))
        with pytest.raises(ValueError, match="unit vector"):
            F.restrict(np.array([math.nan, 0.0]))


class TestDiscFunction:
    def test_polynomial_evaluation_and_coefficients(self):
        f = DiscFunction.polynomial([1.0, 0.0, -2.0j])
        assert f(0.5) == pytest.approx(1.0 - 0.5j)
        assert f.coefficient(2) == -2.0j
        assert f.coefficient(7) == 0.0
        assert f.polynomial_degree() == 2
        with pytest.raises(ValueError):
            f.coefficient(-1)

    def test_herglotz_atom_formulas(self):
        # One unit atom at angle 0: f = (1 + zeta)/(1 - zeta).
        f = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        assert f(0.5) == pytest.approx(3.0, rel=1e-14)
        assert f.coefficient(0) == pytest.approx(1.0)
        for k in (1, 2, 5):
            assert f.coefficient(k) == pytest.approx(2.0)

    def test_herglotz_coefficients_match_quadrature(self):
        f = herglotz_sample(seed=12, atoms=3)
        # small radius keeps the boundary poles far from the circle
        quad = taylor_coefficients(f, order=6, radius=0.3)
        exact = np.array([f.coefficient(k) for k in range(7)])
        np.testing.assert_allclose(quad, exact, atol=1e-12)

    def test_herglotz_real_part_nonnegative(self):
        f = herglotz_sample(seed=3, atoms=2)
        rng = np.random.default_rng(0)
        zeta = rng.uniform(0, 0.999, 400) * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
        assert float(np.min(f(zeta).real)) >= -1e-12

    def test_herglotz_validation(self):
        with pytest.raises(ValueError):
            DiscFunction.herglotz(beta=0.0, weights=[-1.0], angles=[0.0])
        with pytest.raises(ValueError):
            DiscFunction.herglotz(beta=0.0, weights=[1.0, 2.0], angles=[0.0])
        with pytest.raises(ValueError):
            herglotz_sample(seed=0, atoms=0)

    def test_generator_form_coefficients(self):
        g0 = 0.3 + 0.2j
        q = DiscFunction.polynomial([0.5, 0.1])
        g = DiscFunction.generator_form(g0, q)
        assert g.coefficient(0) == pytest.approx(g0)
        assert g.coefficient(1) == pytest.approx(-0.5)
        assert g.coefficient(2) == pytest.approx(-np.conj(g0) - 0.1)
        assert g.coefficient(3) == 0.0
        assert g.polynomial_degree() == 2
        zeta = 0.4 - 0.3j
        assert g(zeta) == pytest.approx(g0 - np.conj(g0) * zeta ** 2 - zeta * q(zeta))

    def test_blackbox_has_no_exact_coefficients(self):
        f = DiscFunction.blackbox(lambda z: z ** 2)
        with pytest.raises(ValueError):
            f.coefficient(2)
        assert f.polynomial_degree() is None
        quad = taylor_coefficients(f, order=3, radius=0.5)
        np.testing.assert_allclose(quad, [0, 0, 1, 0], atol=1e-13)


class TestTaylorCoefficients:
    def test_polynomial_recovered_exactly(self):
        f = DiscFunction.polynomial([0.0, 0.0, 1.0])
        c = taylor_coefficients(f, order=4, radius=0.7)
        np.testing.assert_allclose(c, [0, 0, 1, 0, 0], atol=1e-14)

    def test_geometric_series_default_nodes(self):
        # 20 nodes on radius 0.5 alias with error 0.5^20/(1 - 0.5^20).
        c = taylor_coefficients(lambda z: 1.0 / (1.0 - z), order=4, radius=0.5)
        np.testing.assert_allclose(c, np.ones(5), atol=5e-6)
        assert float(np.max(np.abs(c - 1.0))) > 1e-9

    def test_node_override_buys_accuracy(self):
        c = taylor_coefficients(lambda z: 1.0 / (1.0 - z), order=4, radius=0.5, nodes=64)
        np.testing.assert_allclose(c, np.ones(5), atol=1e-13)

    def test_validation(self):
        f = DiscFunction.polynomial([1.0])
        with pytest.raises(ValueError):
            taylor_coefficients(f, order=0)
        with pytest.raises(ValueError):
            taylor_coefficients(f, order=513)
        with pytest.raises(ValueError):
            taylor_coefficients(f, order=2, radius=1.0)
        with pytest.raises(ValueError):
            taylor_coefficients(f, order=4, radius=0.5, nodes=4)
        with pytest.raises(ValueError):
            taylor_coefficients(lambda z: np.full(z.shape, np.nan), order=2)


class TestFejerTruncate:
    def test_plain_truncation_loses_positivity(self):
        # (1 + zeta)/(1 - zeta) cut at degree 1 gives 1 + 2 zeta, negative
        # at zeta = -0.9; the Cesaro cut gives 1 + zeta, which stays >= 0.
        f = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        plain = np.polynomial.polynomial.polyval(-0.9, [f.coefficient(0), f.coefficient(1)])
        assert plain.real < 0.0
        cut = fejer_truncate(f, 1)
        np.testing.assert_allclose(cut.coefficients, [1.0, 1.0], atol=1e-14)
        assert cut(-0.9).real == pytest.approx(0.1, abs=1e-12)

    def test_positivity_on_dense_grid(self):
        f = herglotz_sample(seed=7, atoms=2)
        cut = fejer_truncate(f, 8)
        rng = np.random.default_rng(1)
        zeta = rng.uniform(0, 0.9999, 500) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        assert float(np.min(cut(zeta).real)) >= -1e-12

    def test_weights_shrink_linearly(self):
        f = DiscFunction.polynomial([1.0, 1.0, 1.0, 1.0])
        cut = fejer_truncate(f, 3)
        np.testing.assert_allclose(cut.coefficients, [1.0, 0.75, 0.5, 0.25], atol=1e-15)

    def test_degree_validation(self):
        f = DiscFunction.polynomial([1.0])
        with pytest.raises(ValueError):
            fejer_truncate(f, 0)
        with pytest.raises(ValueError):
            fejer_truncate(f, 33)


class TestDiscGeneratorFrom:
    def test_accepts_positive_real_part(self):
        q = DiscFunction.herglotz(beta=0.1, weights=[0.5], angles=[1.0])
        g = disc_generator_from(0.2j, q)
        assert g.kind == "generator"
        assert g.g0 == 0.2j

    def test_rejects_negative_real_part(self):
        with pytest.raises(ValueError, match="dissipation"):
            disc_generator_from(0.0, DiscFunction.polynomial([-1.0]))


class TestLiftToBall:
    def test_frozen_two_coordinate_example(self, l2_2d):
        g1 = DiscFunction.polynomial([1.0, 0.0, -1.0])
        g2 = DiscFunction.polynomial([0.0, -1.0])
        F = lift_to_ball(l2_2d, [g1, g2])
        np.testing.assert_array_equal(F.constant, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(F.linear, np.array([[0.0, 0.0], [0.0, -1.0]]))
        assert F.degree == 2
        z = np.array([0.3, 0.4j])
        np.testing.assert_allclose(F(z), np.array([1.0 - 0.09, -0.4j]), atol=1e-15)

    def test_axis_restriction_reproduces_inputs(self, l2_2d):
        g1 = DiscFunction.polynomial([1.0, 0.0, -1.0])
        g2 = DiscFunction.polynomial([0.0, -1.0])
        F = lift_to_ball(l2_2d, [g1, g2])
        r1 = F.restrict(np.array([1.0, 0.0]))
        np.testing.assert_allclose(r1.coefficients, [1.0, 0.0, -1.0], atol=1e-15)
        r2 = F.restrict(np.array([0.0, 1.0]))
        np.testing.assert_allclose(r2.coefficients, [0.0, -1.0, 0.0], atol=1e-15)

    def test_validation(self, l2_2d):
        g = DiscFunction.polynomial([0.0, -1.0])
        with pytest.raises(ValueError):
            lift_to_ball(l2_2d, [g])
        herg = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        with pytest.raises(ValueError):
            lift_to_ball(l2_2d, [g, herg])
        too_high = DiscFunction.polynomial([0.0] * 33 + [1.0])
        with pytest.raises(ValueError):
            lift_to_ball(l2_2d, [g, too_high])


class TestSampleGenerator:
    def test_determinism_and_degree(self, l2_2d):
        a = sample_generator(l2_2d, seed=11, degree=5)
        b = sample_generator(l2_2d, seed=11, degree=5)
        assert map_to_dict(a) == map_to_dict(b)
        assert a.degree == 5
        c = sample_generator(l2_2d, seed=12, degree=5)
        assert map_to_dict(a) != map_to_dict(c)

    def test_nonzero_center(self):
        for p in (1.0, 2.0, math.inf):
            space = NormedSpace(3, p)
            G = sample_generator(space, seed=4, degree=3)
            assert space.norm(G.constant) > 0.0

    def test_degree_validation(self, l2_2d):
        with pytest.raises(ValueError):
            sample_generator(l2_2d, seed=0, degree=1)
        with pytest.raises(ValueError):
            sample_generator(l2_2d, seed=0, degree=33)


class TestUnitaryConjugate:
    def test_pointwise_identity(self, l2_2d):
        F = sample_generator(l2_2d, seed=9, degree=4)
        rng = np.random.default_rng(3)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U, _ = np.linalg.qr(M)
        G = unitary_conjugate(F, U)
        Z = ball_points(l2_2d, 10, seed=8)
        np.testing.assert_allclose(
            G.eval_batch(Z), (F.eval_batch(Z @ U.T)) @ np.conj(U), rtol=1e-11, atol=1e-11)

    def test_requires_p2_and_unitarity(self):
        F = sample_generator(NormedSpace(2, 1.0), seed=0, degree=2)
        with pytest.raises(ValueError):
            unitary_conjugate(F, np.eye(2))
        F2 = sample_generator(NormedSpace(2, 2.0), seed=0, degree=2)
        with pytest.raises(ValueError):
            unitary_conjugate(F2, 2.0 * np.eye(2))


class TestMapSerialization:
    def test_roundtrip_exact(self):
        for p in (1.0, 2.0, math.inf):
            space = NormedSpace(2, p)
            F = sample_generator(space, seed=6, degree=4)
            again = map_from_dict(map_to_dict(F))
            assert again.space == F.space
            np.testing.assert_array_equal(again.constant, F.constant)
            np.testing.assert_array_equal(again.linear, F.linear)
            assert len(again.higher) == len(F.higher)
            for pa, pb in zip(again.higher, F.higher):
                assert pa.degree == pb.degree
                np.testing.assert_array_equal(pa.powers, pb.powers)
                np.testing.assert_array_equal(pa.coeffs, pb.coeffs)

    def test_layout_keys(self, l2_2d):
        F = sample_generator(l2_2d, seed=1, degree=3)
        data = map_to_dict(F)
        assert set(data) == {"space", "constant", "linear", "terms"}
        assert all(set(t) == {"degree", "monomial", "coeff"} for t in data["terms"])

    def test_malformed_fields_are_named(self, l2_2d):
        good = map_to_dict(sample_generator(l2_2d, seed=1, degree=3))

        with pytest.raises(ValueError, match="'space'"):
            map_from_dict({k: v for k, v in good.items() if k != "space"})

        bad = {**good, "constant": [[0.0, 0.0]]}
        with pytest.raises(ValueError, match="constant"):
            map_from_dict(bad)

        bad = {**good, "linear": [[[0.0, 0.0], "x"], good["linear"][1]]}
        with pytest.raises(ValueError, match=r"linear\[0\]\[1\]"):
            map_from_dict(bad)

        bad = {**good, "terms": [{**good["terms"][0], "monomial": [1, 0]}]}
        with pytest.raises(ValueError, match="monomial"):
            map_from_dict(bad)

        bad = {**good, "terms": [{**good["terms"][0], "degree": True}]}
        with pytest.raises(ValueError, match="degree"):
            map_from_dict(bad)

        bad = {**good, "terms": "nope"}
        with pytest.raises(ValueError, match="'terms'"):
            map_from_dict(bad)

    def test_boolean_pair_rejected(self, l2_2d):
        good = map_to_dict(sample_generator(l2_2d, seed=1, degree=3))
        bad = {**good, "constant": [[True, False], good["constant"][1]]}
        with pytest.raises(ValueError, match=r"constant\[0\]"):
            map_from_dict(bad)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            map_from_dict([1, 2, 3])
