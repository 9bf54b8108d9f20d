"""Numerical-range searches against closed-form and eigenvalue oracles."""

import math

import numpy as np
import pytest

from hologen import numrange
from hologen.numrange import (
    OracleMismatchError,
    RangeEstimate,
    SearchBudget,
    harris_check,
    harris_constant,
    hilbert_radius_oracle,
    hilbert_range_inf_oracle,
    numerical_radius,
    numerical_range_inf,
    operator_norm,
    polynomial_numerical_radius,
    sup_norm_on_sphere,
)
from hologen.polymaps import HomogeneousPoly, sample_generator
from hologen.spaces import NormedSpace

from conftest import serial_spread_starts

L2 = NormedSpace(2, 2.0)
FAST = SearchBudget(samples=512, refine_iters=60, starts=2)


class TestRangeInf:
    def test_diagonal_frozen(self):
        est = numerical_range_inf(L2, np.diag([1.0, -2.0]), FAST)
        assert est.value == pytest.approx(-2.0, abs=1e-9)
        assert est.oracle == -2.0

    def test_nilpotent_frozen(self):
        est = numerical_range_inf(L2, np.array([[0.0, 1.0], [0.0, 0.0]]), FAST)
        assert est.value == pytest.approx(-0.5, abs=1e-7)
        assert est.oracle == pytest.approx(-0.5, abs=1e-15)

    def test_maximizer_reproduces_value(self):
        A = np.array([[1.0, 2.0j], [0.5, -1.0]])
        est = numerical_range_inf(L2, A, FAST)
        v = est.maximizer
        w = L2.support_functional(v).vstar
        again = float(np.real(NormedSpace.pairing(A @ v, w)))
        assert again == pytest.approx(est.value, abs=1e-12)

    def test_shift_equivariance_exact(self):
        A = np.array([[0.3, -1.0j], [0.7, 0.1]])
        base = numerical_range_inf(L2, A, FAST).value
        shifted = numerical_range_inf(L2, A - 0.75 * np.eye(2), FAST).value
        assert shifted == pytest.approx(base - 0.75, abs=1e-12)

    def test_positive_scaling_exact(self):
        A = np.array([[0.3, -1.0j], [0.7, 0.1]])
        base = numerical_range_inf(L2, A, FAST).value
        doubled = numerical_range_inf(L2, 2.0 * A, FAST).value
        assert doubled == pytest.approx(2.0 * base, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            numerical_range_inf(L2, np.eye(3), FAST)


class TestRadius:
    def test_diagonal_frozen(self):
        est = numerical_radius(L2, np.diag([1.0, -2.0]), FAST)
        assert est.value == pytest.approx(2.0, abs=1e-6)
        est2 = numerical_radius(L2, np.diag([2.0, -3.0]), FAST)
        assert est2.value == pytest.approx(3.0, abs=1e-6)

    def test_nilpotent_half(self):
        est = numerical_radius(L2, np.array([[0.0, 1.0], [0.0, 0.0]]), FAST)
        assert est.value == pytest.approx(0.5, abs=1e-6)
        assert est.oracle == pytest.approx(0.5, abs=1e-10)

    def test_p1_diagonal(self):
        # For a diagonal matrix the pairing is a convex combination of the
        # entries for every p, so the radius is max |d_k|.
        space = NormedSpace(2, 1.0)
        est = numerical_radius(space, np.diag([1.5, -0.5]), FAST)
        assert est.value == pytest.approx(1.5, abs=1e-9)

    def test_pinf_diagonal(self):
        space = NormedSpace(2, math.inf)
        est = numerical_radius(space, np.diag([0.25, -1.25]), FAST)
        assert est.value == pytest.approx(1.25, abs=1e-9)

    def test_random_matrices_match_eigen_oracle(self):
        # default budget: the p = 2 guards inside the searches enforce the
        # oracle agreement, so reduced budgets would turn misses into raises
        rng = np.random.default_rng(2024)
        space = NormedSpace(4, 2.0)
        for _ in range(20):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            est = numerical_radius(space, A)
            assert est.oracle is not None
            assert abs(est.value - est.oracle) <= 1e-4
            inf_est = numerical_range_inf(space, A)
            exact = float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])
            assert abs(inf_est.value - exact) <= 1e-6


class TestPolynomialRadius:
    def test_frozen_quadratic(self):
        # sup |v2^2 conj(v1)| on the 2-sphere is 2/(3 sqrt 3).
        P = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        est = polynomial_numerical_radius(L2, P, SearchBudget(samples=2048, refine_iters=200))
        assert est.value == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), abs=1e-6)

    def test_diagonal_cubic_attains_max_coefficient(self):
        # Coordinatewise z -> (c1 z1^3, c2 z2^3): the forced basis vectors
        # attain max |c_k| exactly for every p.
        for p in (1.0, 2.0, math.inf):
            space = NormedSpace(2, p)
            P = HomogeneousPoly(3, np.array([[3, 0], [0, 3]]),
                                np.array([[0.7, 0.0], [0.0, -1.2]]))
            est = polynomial_numerical_radius(space, P, FAST)
            assert est.value == pytest.approx(1.2, abs=1e-12)

    def test_dimension_check(self):
        P = HomogeneousPoly(2, np.array([[2, 0, 0]]), np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            polynomial_numerical_radius(L2, P, FAST)


class TestSupAndOperatorNorm:
    def test_identity_sup(self):
        val, vmax = sup_norm_on_sphere(L2, lambda V: V, FAST)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert L2.norm(vmax) == pytest.approx(1.0, abs=1e-12)

    def test_operator_norm_closed_forms(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert operator_norm(NormedSpace(2, 1.0), A) == 6.0
        assert operator_norm(NormedSpace(2, math.inf), A) == 7.0
        spectral = math.sqrt(15.0 + math.sqrt(221.0))
        assert operator_norm(NormedSpace(2, 2.0), A) == pytest.approx(spectral, rel=1e-12)

    def test_general_p_search_between_bounds(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        val = operator_norm(NormedSpace(2, 3.0), A,
                            SearchBudget(samples=2048, refine_iters=150))
        # Riesz-Thorin interpolation pins the 3-norm between the 2- and
        # inf-norm values; the search is a lower estimate of the true norm.
        assert val <= 7.0 + 1e-9
        assert val >= 5.4


class TestHilbertOracles:
    def test_radius_oracle_diagonal(self):
        assert hilbert_radius_oracle(np.diag([1.0, -2.0])) == pytest.approx(2.0, abs=1e-10)

    def test_range_inf_oracle_witness(self):
        est = hilbert_range_inf_oracle(np.diag([1.0, -2.0]))
        assert est.value == -2.0
        np.testing.assert_allclose(np.abs(est.maximizer), [0.0, 1.0], atol=1e-12)


class TestHarris:
    def test_constants_frozen(self):
        assert harris_constant(1) == math.e
        assert harris_constant(2) == 4.0
        assert abs(harris_constant(3) - 3.0 ** 1.5) <= 1e-15 * 3.0 ** 1.5
        assert harris_constant(3) == pytest.approx(5.196152422706632, rel=1e-15)

    def test_constant_validation(self):
        for bad in (0, -1, True, 2.5):
            with pytest.raises(ValueError):
                harris_constant(bad)

    def test_check_linear(self):
        report = harris_check(L2, np.array([[0.0, 1.0], [0.0, 0.0]]), FAST)
        assert report["degree"] == 1
        assert report["constant"] == math.e
        # sup norm 1 versus e * 1/2 for the nilpotent shift
        assert report["sup_norm"] == pytest.approx(1.0, abs=1e-6)
        assert report["bound"] == pytest.approx(math.e / 2.0, abs=1e-4)
        assert report["passed"]

    def test_check_quadratic(self):
        P = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        report = harris_check(L2, P, SearchBudget(samples=2048, refine_iters=200))
        assert report["degree"] == 2
        assert report["sup_norm"] == pytest.approx(1.0, abs=1e-6)
        assert report["radius"] == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), abs=1e-4)
        assert report["slack"] >= -1e-6
        assert report["passed"]


class TestSearchBehavior:
    def test_determinism(self):
        A = np.array([[0.2, 1.1j], [0.4, -0.8]])
        a = numerical_radius(L2, A, FAST)
        b = numerical_radius(L2, A, FAST)
        assert a.value == b.value
        np.testing.assert_array_equal(a.maximizer, b.maximizer)

    def test_budget_growth_never_loses_much(self):
        A = np.array([[0.2, 1.1j], [0.4, -0.8]])
        small = numerical_radius(L2, A, SearchBudget(samples=256, refine_iters=40)).value
        big = numerical_radius(L2, A, SearchBudget(samples=1024, refine_iters=160)).value
        assert big >= small - 1e-9

    def test_estimate_fields(self):
        est = numerical_radius(L2, np.eye(2), FAST)
        assert isinstance(est, RangeEstimate)
        assert est.method == "sphere-search"
        assert est.samples == FAST.samples
        assert est.refinement_iters == FAST.refine_iters


def serial_climb(space, objective, pts, vals, starts, budget, salt):
    """The refinement loop before batching: one start at a time, one
    (proposals, 2n) draw per iteration. Returns (value, maximizer)."""
    rng = np.random.default_rng([budget.seed, 404, salt])
    n = space.dim
    best_v, best_f = pts[starts[0]], vals[starts[0]]
    for s in starts:
        v, f, sigma = pts[s].copy(), float(vals[s]), 0.25
        for _ in range(budget.refine_iters):
            raw = rng.standard_normal((numrange._PROPOSALS, 2 * n))
            props = v[None, :] + sigma * (raw[:, :n] + 1j * raw[:, n:])
            nrm = space.norm_batch(props)
            degenerate = nrm < 1e-12
            props[degenerate] = v
            nrm[degenerate] = 1.0
            props = props / nrm[:, None]
            pv = objective(props)
            j = int(np.argmax(pv))
            if pv[j] > f:
                v, f, sigma = props[j], float(pv[j]), min(sigma * 1.5, 0.5)
            else:
                sigma = max(sigma * 0.8, 1e-9)
        if f > best_f:
            best_v, best_f = v, f
    return best_f, best_v


REPLAY = SearchBudget(samples=512, refine_iters=200, starts=4, seed=5)


@pytest.mark.parametrize("dim", (1, 2, 4))
@pytest.mark.parametrize("p", (1.0, 2.0, math.inf))
class TestSerialReplay:
    """The batched engine gives bit-identical results to the serial climb."""

    def setup_method(self, method):
        self.rng = np.random.default_rng(11)

    def matrix(self, n):
        return self.rng.standard_normal((n, n)) + 1j * self.rng.standard_normal((n, n))

    def replay(self, space, objective, starts_of, salt):
        pts = space.sphere_sample(REPLAY.samples, REPLAY.seed)
        vals = objective(pts)
        starts = starts_of(pts, vals)
        return serial_climb(space, objective, pts, vals, starts, REPLAY, salt)

    @staticmethod
    def ranked(pts, vals):
        return serial_spread_starts(pts, np.argsort(vals)[::-1], REPLAY.starts)

    def test_min_mode(self, dim, p):
        space = NormedSpace(dim, p)
        A = self.matrix(dim)

        def neg(V):
            return -np.real(np.sum((V @ A.T) * space.support_batch(V), axis=1))

        f, v = self.replay(space, neg, self.ranked, salt=1)
        est = numerical_range_inf(space, A, REPLAY)
        assert est.value == -f
        np.testing.assert_array_equal(est.maximizer, v)

    def test_max_mode(self, dim, p):
        space = NormedSpace(dim, p)
        G = sample_generator(space, seed=dim, degree=4)

        def evaluator(V):
            return G.eval_batch(0.8 * V)

        f, v = self.replay(space, lambda V: space.norm_batch(evaluator(V)),
                           self.ranked, salt=9)
        value, vmax = sup_norm_on_sphere(space, evaluator, REPLAY, salt=9)
        assert value == f
        np.testing.assert_array_equal(vmax, v)

    def test_radius_mode(self, dim, p):
        space = NormedSpace(dim, p)
        A = self.matrix(dim)

        def pairing(V):
            return np.sum((V @ A.T) * space.support_batch(V), axis=1)

        def phase_sweep(pts, vals):
            omega = pairing(pts)
            cand = [int(np.argmax(vals))]
            for ph in np.exp(-2j * np.pi * np.arange(16) / 16.0):
                idx = int(np.argmax((omega * ph).real))
                if idx not in cand:
                    cand.append(idx)
            return cand

        f, v = self.replay(space, lambda V: np.abs(pairing(V)), phase_sweep, salt=2)
        est = numerical_radius(space, A, REPLAY)
        assert est.value == f
        np.testing.assert_array_equal(est.maximizer, v)
