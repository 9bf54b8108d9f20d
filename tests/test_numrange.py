"""Numerical-range reads and searches against closed forms and eigenvalue oracles."""

import math

import numpy as np
import pytest

from hologen import numrange
from hologen.numrange import (
    RangeEstimate,
    SearchBudget,
    harris_check,
    harris_constant,
    hilbert_radius_oracle,
    numerical_radius,
    numerical_range_inf,
    operator_norm,
    polynomial_numerical_radius,
    sup_norm_on_sphere,
)
from hologen.polymaps import HomogeneousPoly, sample_generator
from hologen.spaces import NormedSpace

from conftest import coupled_generator, lift_coefficients, pairing, serial_spread_starts

L2 = NormedSpace(2, 2.0)
L3 = NormedSpace(2, 3.0)
FAST = SearchBudget(samples=512, refine_iters=60, starts=2)

# verify-suite seeds whose p = 2 map (dim 2 or 4) has a diagonal A with two
# entries within 2e-3 in modulus and 0.2 in phase: two close peaks of the
# rotated eigenvalue curve
CLOSE_PEAK_SEEDS = (331259, 6826, 28094, 31045)


def battery_map(seed):
    """The generator `hologen verify-suite` checks at seed."""
    space = NormedSpace((1, 2, 4)[seed % 3], (1.0, 2.0, math.inf)[(seed // 3) % 3])
    return sample_generator(space, seed, 2 + seed % 7)


class TestRangeInf:
    def test_diagonal_frozen(self):
        est = numerical_range_inf(L2, np.diag([1.0, -2.0]), FAST)
        assert est.value == -2.0
        assert est.method == "closed-form"

    def test_nilpotent_frozen(self):
        est = numerical_range_inf(L2, np.array([[0.0, 1.0], [0.0, 0.0]]), FAST)
        assert est.value == pytest.approx(-0.5, abs=1e-15)

    def test_maximizer_reproduces_value(self):
        A = np.array([[1.0, 2.0j], [0.5, -1.0]])
        est = numerical_range_inf(L2, A, FAST)
        v = est.maximizer
        W = L2.support_batch(v[None, :])
        again = float(np.real(pairing((A @ v)[None, :], W)[0]))
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
        assert est.value == pytest.approx(0.5, abs=1e-15)

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
        # the public reads are the oracles; the default-budget sphere search
        # of the same groups, which no public call runs at p = 2, reaches
        # them within 1e-4 (radius) and 1e-6 (infimum)
        rng = np.random.default_rng(2024)
        space = NormedSpace(4, 2.0)
        for _ in range(20):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            est = numerical_radius(space, A)
            assert est.value == hilbert_radius_oracle(A)[0]
            inf_est = numerical_range_inf(space, A)
            exact = float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])
            assert abs(inf_est.value - exact) <= 1e-15 * max(1.0, abs(exact))
            groups = [numrange._range_inf_group(A), numrange._radius_group(A)]
            (neg_inf, _), (radius, _) = numrange._sphere_search(space, groups,
                                                                numrange.DEFAULT_BUDGET)
            assert abs(radius - est.value) <= 1e-4
            assert abs(-neg_inf - exact) <= 1e-6

    @pytest.mark.parametrize("seed", CLOSE_PEAK_SEEDS)
    def test_close_peaks_pass_the_cross_check(self, seed):
        # the verify-suite budget; the rotated eigenvalue curve has two
        # close peaks, and the radius read must be the higher one
        G = battery_map(seed)
        budget = SearchBudget(samples=768, refine_iters=40, starts=2, seed=seed)
        est = numerical_radius(G.space, G.linear, budget)
        assert est.method == "closed-form"
        assert est.value == pytest.approx(float(np.abs(np.diag(G.linear)).max()), abs=1e-12)


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
        # the radius of a diagonal matrix is its largest entry modulus
        cases = [np.diag([1.0, -2.0])] + [battery_map(s).linear for s in CLOSE_PEAK_SEEDS]
        for A in cases:
            assert np.array_equal(A, np.diag(np.diag(A)))
            exact = float(np.abs(np.diag(A)).max())
            value, phi = hilbert_radius_oracle(A)
            assert value == pytest.approx(exact, abs=1e-12)
            # at its angle the rotated diagonal's largest real part is the value
            rotated = float(np.max((np.exp(1j * phi) * np.diag(A)).real))
            assert rotated == pytest.approx(value, abs=1e-12)

    def test_radius_oracle_reaches_the_dense_grid(self):
        # criterion 2's matrices against a 3600-angle stacked sweep, which
        # lies below the radius, so the oracle may not fall under it
        rng = np.random.default_rng(20240)
        phis = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
        for _ in range(100):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            H = 0.5 * (np.exp(1j * phis)[:, None, None] * A[None]
                       + np.exp(-1j * phis)[:, None, None] * A.conj().T[None])
            grid = float(np.linalg.eigvalsh(H)[:, -1].max())
            assert hilbert_radius_oracle(A)[0] >= grid - 1e-12

    def test_range_inf_oracle_witness(self):
        # the least eigenvalue of the Hermitian part, read with its
        # eigenvector: e_2 up to a phase
        est = numerical_range_inf(L2, np.diag([1.0, -2.0]), FAST)
        assert est.value == -2.0
        assert np.abs(est.maximizer).tolist() == [0.0, 1.0]


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


class TestSearchBudget:
    @pytest.mark.parametrize("field, value", [
        ("samples", 0), ("starts", 0), ("refine_iters", -1), ("samples", math.nan)])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            SearchBudget(**{field: value})


class TestSearchBehavior:
    # p = 3: a matrix range at p in {1, 2, inf} is read, not searched

    def test_determinism(self):
        A = np.array([[0.2, 1.1j], [0.4, -0.8]])
        a = numerical_radius(L3, A, FAST)
        b = numerical_radius(L3, A, FAST)
        assert a.value == b.value
        np.testing.assert_array_equal(a.maximizer, b.maximizer)

    def test_budget_growth_never_loses_much(self):
        A = np.array([[0.2, 1.1j], [0.4, -0.8]])
        small = numerical_radius(L3, A, SearchBudget(samples=256, refine_iters=40)).value
        big = numerical_radius(L3, A, SearchBudget(samples=1024, refine_iters=160)).value
        assert big >= small - 1e-9

    def test_estimate_fields(self):
        est = numerical_radius(L3, np.eye(2), FAST)
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
    """The batched engine gives bit-identical results to the serial climb.

    The public range searches read closed forms at dim 1 and, for matrices,
    at p in {1, 2, inf}, so the range modes run `_sphere_search` itself."""

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
        [(value, vmax)] = numrange._sphere_search(space, [numrange._range_inf_group(A)], REPLAY)
        assert value == f
        np.testing.assert_array_equal(vmax, v)

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
        [(value, vmax)] = numrange._sphere_search(space, [numrange._radius_group(A)], REPLAY)
        assert value == f
        np.testing.assert_array_equal(vmax, v)


@pytest.mark.parametrize("dim", (1, 2, 4))
@pytest.mark.parametrize("p", (1.0, 2.0, math.inf))
def test_batched_groups_match_searches_alone(dim, p):
    # one climb of five groups at the default budget gives, group by group,
    # the value and maximizer of each group searched alone; the public range
    # searches read closed forms at dim 1 and, for matrices, at p in
    # {1, 2, inf}, so each group runs through `_sphere_search` alone
    space = NormedSpace(dim, p)
    rng = np.random.default_rng(dim)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    G = sample_generator(space, seed=dim, degree=4)
    P2, P4 = G.part_of_degree(2), G.part_of_degree(4)

    def shell(V):
        return G.eval_batch(0.8 * V)

    groups = [numrange._range_inf_group(A), numrange._radius_group(A),
              numrange._radius_group(P2), numrange._radius_group(P4),
              numrange._Group("norm", 9, shell)]
    found = numrange._sphere_search(space, groups, numrange.DEFAULT_BUDGET)
    for grp, (value, vmax) in zip(groups, found):
        [(alone, amax)] = numrange._sphere_search(space, [grp], numrange.DEFAULT_BUDGET)
        assert value == alone
        np.testing.assert_array_equal(vmax, amax)
    value, vmax = sup_norm_on_sphere(space, shell, salt=9)
    assert found[4][0] == value
    np.testing.assert_array_equal(found[4][1], vmax)


def closed_scale(space, A):
    """max(1, s), s the operator norm of A on the space: its largest absolute
    row sum (p = inf), column sum (p = 1) or singular value (p = 2)."""
    return max(1.0, operator_norm(space, A))


def reevaluated(space, f, v):
    """<f(v), v*> at one maximizer, through support_batch, as a 1-array."""
    image = f.eval_batch(v[None, :]) if isinstance(f, HomogeneousPoly) else (v @ f.T)[None, :]
    return pairing(image, space.support_batch(v[None, :]))


class TestClosedForms:
    """Closed-form range values: every range quantity on a dim-1 space, and
    a matrix's infimum and radius at p in {1, inf} (ROADMAP item 3) and at
    p = 2, from the eigenvalues of Hermitian parts (item 17)."""

    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    @pytest.mark.parametrize("p", (1.0, math.inf))
    def test_search_never_beats_the_closed_form(self, dim, p):
        space = NormedSpace(dim, p)
        rng = np.random.default_rng([dim, 31])
        for _ in range(8):
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            groups = [numrange._range_inf_group(A), numrange._radius_group(A)]
            (neg_inf, _), (radius, _) = numrange._sphere_search(space, groups, FAST)
            inf_est, radius_est = numrange._estimates(space, groups)
            tol = 1e-12 * closed_scale(space, A)
            assert -neg_inf >= inf_est.value - tol
            assert radius <= radius_est.value + tol

    @pytest.mark.parametrize("dim", (2, 3, 4))
    def test_p2_search_never_beats_the_read(self, dim):
        # criterion 2's rng 20240 family at the default budget, which the
        # growth inputs searched with before they read the oracles
        space = NormedSpace(dim, 2.0)
        rng = np.random.default_rng(20240)
        for _ in range(8):
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            groups = [numrange._range_inf_group(A), numrange._radius_group(A)]
            (neg_inf, _), (radius, _) = numrange._sphere_search(space, groups,
                                                                numrange.DEFAULT_BUDGET)
            inf_est, radius_est = numrange._estimates(space, groups)
            assert (inf_est.method, radius_est.method) == ("closed-form", "closed-form")
            assert inf_est.value <= -neg_inf + 1e-14 * max(1.0, abs(inf_est.value))
            assert radius_est.value >= radius - 1e-14 * max(1.0, abs(radius_est.value))

    def test_p2_nilpotent_reads_the_oracles(self):
        # README's example, where a sphere search reads V = 0.5000000000000003
        # and m = -0.4999999999999999
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert numerical_range_inf(L2, A).value == -0.5
        assert numerical_radius(L2, A).value == 0.5000000000000001

    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    @pytest.mark.parametrize("p", (1.0, 2.0, math.inf))
    def test_matrix_witnesses_reevaluate(self, dim, p):
        space = NormedSpace(dim, p)
        rng = np.random.default_rng([dim, 32])
        mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(20)]
        # zero entries, a zero diagonal and a row of ties
        mats += [np.triu(mats[0]), mats[1] - np.diag(np.diag(mats[1])), np.ones((dim, dim))]
        for A in mats:
            tol = 1e-12 * closed_scale(space, A)
            inf_est = numerical_range_inf(space, A)
            radius_est = numerical_radius(space, A)
            for est in (inf_est, radius_est):
                assert est.method == "closed-form"
                assert (est.samples, est.refinement_iters) == (0, 0)
                # a p = 2 witness is a unit eigenvector, unit up to rounding
                assert space.norm(est.maximizer) == pytest.approx(
                    1.0, abs=4e-16 * dim if p == 2.0 else 0.0)
            assert abs(reevaluated(space, A, inf_est.maximizer)[0].real - inf_est.value) <= tol
            assert abs(np.abs(reevaluated(space, A, radius_est.maximizer))[0]
                       - radius_est.value) <= tol
            if p != 2.0:
                M = A if math.isinf(p) else A.T
                off = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
                assert inf_est.value == pytest.approx(float(np.min(np.diag(M).real - off)),
                                                      abs=1e-14 * closed_scale(space, A))
                assert radius_est.value == operator_norm(space, A)
            elif dim > 1:
                H = (A + A.conj().T) / 2.0
                assert inf_est.value == np.linalg.eigh(H.astype(complex))[0][0]
                assert radius_est.value == hilbert_radius_oracle(A)[0]

    @pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0, math.inf))
    def test_dim_1_values_are_exact(self, p):
        space = NormedSpace(1, p)
        a = np.array([[0.3 - 1.7j]])
        for est, value in ((numerical_range_inf(space, a), 0.3),
                           (numerical_radius(space, a), float(np.abs([0.3 - 1.7j])[0]))):
            assert est.method == "closed-form"
            assert est.value == value
            assert np.array_equal(est.maximizer, [1.0])
        assert reevaluated(space, a, np.ones(1))[0] == 0.3 - 1.7j
        P = HomogeneousPoly(4, np.array([[4]]), np.array([[0.6 + 0.8j]]))
        est = polynomial_numerical_radius(space, P)
        assert est.method == "closed-form"
        assert est.value == np.abs(reevaluated(space, P, est.maximizer))[0]
        assert est.value == pytest.approx(1.0, abs=1e-15)

    def test_dim_1_cancelling_monomials_read_the_summed_coefficient(self):
        # three copies of zeta^3: the radius is |sum c_t| = 1e-3, not the
        # sum of moduli 2.501
        space = NormedSpace(1, 2.0)
        P = HomogeneousPoly(3, np.array([[3], [3], [3]]),
                            np.array([[1.0 + 0.5j], [-0.5 - 0.5j], [-0.499 + 0.0j]]))
        est = polynomial_numerical_radius(space, P)
        assert est.method == "closed-form"
        assert est.value == pytest.approx(1e-3, abs=1e-15)
        # the circle's samples all read the same modulus
        pts = space.sphere_sample(64, 0)
        values = np.abs(pairing(P.eval_batch(pts), space.support_batch(pts)))
        assert np.allclose(values, est.value, rtol=1e-9)

    # at p = inf a part is read on the torus while its grid fits the
    # samples: a degree-3 part at dim 4 has 24^3 > 512 grid points
    @pytest.mark.parametrize("space, f", [
        (NormedSpace(2, 3.0), np.array([[1.0, 2.0j], [0.5, -1.0]])),
        (NormedSpace(2, 1.0), HomogeneousPoly(2, np.array([[1, 1]]), np.array([[1.0, 0.5]]))),
        (NormedSpace(4, math.inf), HomogeneousPoly(3, np.array([[2, 0, 1, 0]]),
                                                   np.array([[0.0, 1.0, 0.0, 0.5j]])))])
    def test_other_spaces_keep_their_search(self, space, f):
        est = (polynomial_numerical_radius(space, f, FAST) if isinstance(f, HomogeneousPoly)
               else numerical_radius(space, f, FAST))
        assert est.method == "sphere-search"
        assert est.samples == FAST.samples

    def test_nothing_left_makes_no_climb(self, count_calls):
        climbs = count_calls(numrange, "_sphere_search")
        numerical_radius(NormedSpace(4, math.inf), np.eye(4))
        numerical_range_inf(NormedSpace(3, 2.0), np.ones((3, 3)))
        polynomial_numerical_radius(NormedSpace(1, 3.0), HomogeneousPoly(
            2, np.array([[2]]), np.array([[1.0]])))
        harris_check(NormedSpace(3, 1.0), np.eye(3), FAST)
        # harris_check climbs its sup norm only
        assert [len(args[1]) for args, _ in climbs] == [1]
        assert climbs[0][0][1][0].kind == "norm"


def torus_witness_gap(space, P, est):
    """|<P(w), w*>| at the witness w through support_batch, minus the value."""
    return float(np.abs(reevaluated(space, P, est.maximizer))[0]) - est.value


class TestTorusReads:
    """At p = inf a part's radius is max_k |P_k| over the faces v_k = 1 of
    the torus, read on a grid and polished, while the grid fits the
    budget's samples (ROADMAP item 18)."""

    @pytest.mark.parametrize("dim, p", [(1, 1.0), (1, 2.0), (1, math.inf), (2, math.inf)])
    @pytest.mark.parametrize("seed", (0, 5))
    def test_lift_radii_are_the_largest_coefficient(self, dim, p, seed):
        space = NormedSpace(dim, p)
        G = sample_generator(space, seed=seed, degree=8)
        C = lift_coefficients(G)
        for part in G.higher:
            est = polynomial_numerical_radius(space, part)
            assert est.method == ("closed-form" if dim == 1 else "torus")
            exact = float(np.max(np.abs(C[:, part.degree])))
            assert abs(est.value - exact) <= 1e-15 * exact
            assert abs(torus_witness_gap(space, part, est)) <= 1e-12 * max(1.0, est.value)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_coupled_radii_reach_the_torus_sample(self, n):
        # item 14's family; at n = 4 only the degree-2 grid, 16^3 points,
        # fits the default 4096 samples, and the others climb
        space = NormedSpace(n, math.inf)
        for seed in range(10):
            G = coupled_generator(n, seed)
            rng = np.random.default_rng([seed, 78])
            T = np.exp(2j * np.pi * rng.random((20_000, n)))
            for part in G.higher:
                est = polynomial_numerical_radius(space, part)
                if n == 4 and part.degree > 2:
                    assert est.method == "sphere-search"
                    continue
                assert est.method == "torus"
                grid = max(16, 8 * part.degree) ** (n - 1)
                assert grid < est.samples
                assert est.value >= np.max(np.abs(part.eval_batch(T)))
                # the witness's largest coordinate is 1, the others inside
                k = int(np.argmax(np.abs(est.maximizer)))
                assert est.maximizer[k] == 1.0
                assert np.max(np.abs(np.delete(est.maximizer, k))) < 1.0
                assert abs(torus_witness_gap(space, part, est)) <= 1e-12 * max(1.0, est.value)

    @pytest.mark.parametrize("samples, method", [(16, "torus"), (15, "sphere-search")])
    def test_a_grid_of_the_samples_is_read(self, samples, method):
        # a degree-2 part at dim 2 has a 16-point grid on the face angle
        P = HomogeneousPoly(2, np.array([[2, 0], [1, 1]]), np.array([[0.5, 1.0j], [-1.0, 0.25]]))
        est = polynomial_numerical_radius(NormedSpace(2, math.inf), P,
                                          SearchBudget(samples=samples, refine_iters=20))
        assert est.method == method
        if method == "torus":
            assert est.value == pytest.approx(1.5, abs=1e-15)

    def test_torus_read_ignores_the_search_knobs(self):
        space = NormedSpace(3, math.inf)
        P = coupled_generator(3, 2).higher[1]
        reads = [polynomial_numerical_radius(space, P, SearchBudget(seed=seed, starts=starts,
                                                                    refine_iters=iters))
                 for seed, starts, iters in ((0, 4, 200), (9, 1, 0))]
        assert reads[0].value == reads[1].value
        assert np.array_equal(reads[0].maximizer, reads[1].maximizer)
        assert reads[0].samples == reads[1].samples

    @pytest.mark.parametrize("dim, p", [(1, 2.0), (2, math.inf), (3, math.inf)])
    def test_harris_check_reads_its_sup_norm(self, count_calls, dim, p):
        # at p = inf ||P||_inf on the torus is the radius itself, and on a
        # dim-1 space both read |P(1)|, so the slack is (k_m - 1) times it
        space = NormedSpace(dim, p)
        P = coupled_generator(dim, 1, p).higher[0] if dim > 1 else HomogeneousPoly(
            3, np.array([[3], [3]]), np.array([[1.0 + 0.5j], [-0.25]]))
        climbs = count_calls(numrange, "_sphere_search")
        report = harris_check(space, P)
        assert not climbs
        assert report["sup_norm"] == report["radius"]
        assert report["slack"] == pytest.approx((report["constant"] - 1.0) * report["radius"],
                                                rel=1e-15)
