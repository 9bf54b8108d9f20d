"""Generator certification, pseudo-dissipativity certificates, disc checks."""

import math

import numpy as np
import pytest

from hologen.certify import (
    CertifyBudget,
    GeneratorVerdict,
    NotCertifiedError,
    _convex_hull,
    caratheodory_check,
    certificate_to_dict,
    certify_disc_generator,
    certify_generator,
    certify_pseudo_dissipative,
    generator_slack,
    inverse_shift,
    linear_dissipation_check,
    restriction_agreement,
    shift_to_generator,
    validate_certificate,
    verdict_to_dict,
)
from hologen.polymaps import (
    CallableMap,
    DiscFunction,
    HomogeneousPoly,
    PolyMap,
    disc_generator_from,
    lift_to_ball,
    sample_generator,
    unitary_conjugate,
)
from hologen.spaces import NormedSpace

from conftest import identity_map, make_linear_map, minus_identity

QUICK = CertifyBudget(sphere=64, refine_points=8, refine_iters=20)


def slack_probe(G, seed=0, count=64):
    """Worst certification slack over a few shells of sphere samples."""
    space = G.space
    V = space.sphere_sample(count, seed)
    worst = math.inf
    for r in (0.3, 0.7, 0.95):
        worst = min(worst, float(np.min(generator_slack(G, r * V))))
    return worst


class TestCertifyGenerator:
    def test_contraction_drift_certified(self, l2_2d):
        verdict = certify_generator(minus_identity(l2_2d))
        assert verdict.verdict == "certified"
        assert verdict.worst_slack >= -1e-9
        assert verdict.samples > 0

    def test_expansion_drift_refuted_with_witness(self, l2_2d):
        verdict = certify_generator(identity_map(l2_2d))
        assert verdict.verdict == "refuted"
        assert verdict.witness is not None
        again = float(generator_slack(identity_map(l2_2d), verdict.witness[None, :])[0])
        assert again < -1e-9
        assert again == pytest.approx(verdict.worst_slack, rel=1e-9, abs=1e-12)

    def test_lifted_example_certified(self, l2_2d):
        g1 = DiscFunction.polynomial([1.0, 0.0, -1.0])
        g2 = DiscFunction.polynomial([0.0, -1.0])
        F = lift_to_ball(l2_2d, [g1, g2])
        assert certify_generator(F).verdict == "certified"

    def test_sampled_generators_certify_everywhere(self):
        for n, p, seed in ((1, 2.0, 0), (2, 1.0, 1), (4, math.inf, 2), (2, 2.0, 3)):
            space = NormedSpace(n, p)
            G = sample_generator(space, seed=seed, degree=4)
            assert slack_probe(G, seed) >= -1e-9
            assert certify_generator(G, QUICK).verdict == "certified"

    def test_alt_support_agrees(self):
        for p in (1.0, math.inf):
            space = NormedSpace(2, p)
            G = sample_generator(space, seed=5, degree=3)
            base = certify_generator(G, QUICK, alt_support=False)
            alt = certify_generator(G, QUICK, alt_support=True)
            assert base.verdict == alt.verdict == "certified"

    def test_exhausted_budget_is_inconclusive(self, l2_2d):
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=30)
        verdict = certify_generator(minus_identity(l2_2d), small)
        assert verdict.verdict == "inconclusive"

    def test_cap_between_grid_and_full_refinement(self, l2_2d):
        # 152 grid points, then 2 of the 40 iterations fit under the cap
        capped = CertifyBudget(sphere=8, refine_points=2, refine_iters=40, max_evals=200)
        verdict = certify_generator(minus_identity(l2_2d), capped)
        assert verdict.verdict == "inconclusive"
        assert verdict.samples == 186

    def test_determinism(self, l2_2d):
        G = sample_generator(l2_2d, seed=8, degree=4)
        a = certify_generator(G, QUICK)
        b = certify_generator(G, QUICK)
        assert a.verdict == b.verdict
        assert a.worst_slack == b.worst_slack

    def test_verdict_serialization_keys(self, l2_2d):
        verdict = certify_generator(minus_identity(l2_2d), QUICK)
        data = verdict_to_dict(verdict)
        assert set(data) == {"verdict", "tolerance", "worst_slack", "witness", "samples"}
        assert data["witness"] is None or isinstance(data["witness"], list)

    def test_equality_case_sits_on_the_boundary(self):
        # g(zeta) = 1 - zeta^2 has slack identically zero on the disc.
        space = NormedSpace(1, 2.0)
        F = lift_to_ball(space, [DiscFunction.polynomial([1.0, 0.0, -1.0])])
        verdict = certify_generator(F)
        assert verdict.verdict == "certified"
        assert abs(verdict.worst_slack) <= 1e-12


class TestCertifyDiscGenerator:
    def test_polynomial_disc(self):
        g = DiscFunction.polynomial([1.0, 0.0, -1.0])
        assert certify_disc_generator(g, QUICK).verdict == "certified"

    def test_blackbox_disc(self):
        g = DiscFunction.blackbox(lambda z: -z)
        assert certify_disc_generator(g, QUICK).verdict == "certified"

    def test_refuted_disc(self):
        g = DiscFunction.polynomial([0.0, 1.0])
        assert certify_disc_generator(g, QUICK).verdict == "refuted"


class TestPseudoDissipative:
    def test_identity_map_certificate(self, l2_2d):
        cert = certify_pseudo_dissipative(identity_map(l2_2d))
        assert cert.verdict == "certified"
        assert abs(cert.theta - math.pi) <= 1e-3
        assert cert.a == pytest.approx(-1.0, abs=1e-6)
        assert 0.0 <= cert.b <= 1e-9
        report = validate_certificate(identity_map(l2_2d), cert.theta, cert.a,
                                      cert.b, cert.epsilon)
        assert report["passed"]
        assert report["min_slack"] >= -1e-9

    def test_certificate_serialization_keys(self, l2_2d):
        cert = certify_pseudo_dissipative(identity_map(l2_2d))
        data = certificate_to_dict(cert)
        assert set(data) == {"verdict", "theta", "a", "b", "epsilon", "witness", "samples"}

    def test_epsilon_validation(self, l2_2d):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                certify_pseudo_dissipative(identity_map(l2_2d), epsilon=bad)

    def test_boundary_blowup_refuted(self):
        # exp((1 + z)/(1 - z)) spirals through every pairing direction with
        # unbounded modulus near z = 1, so no rotation/shift can tame it.
        space = NormedSpace(1, 2.0)

        def spiral(Z):
            z = Z[:, 0]
            w = (1.0 + z) / (1.0 - z)
            w = np.minimum(w.real, 500.0) + 1j * w.imag
            return np.exp(w)[:, None]

        cert = certify_pseudo_dissipative(CallableMap(space, spiral))
        assert cert.verdict == "refuted"
        assert cert.witness is not None
        assert cert.hull_vertices.shape[0] >= 3

    def test_refutation_hull_is_convex(self):
        space = NormedSpace(1, 2.0)

        def spiral(Z):
            z = Z[:, 0]
            w = (1.0 + z) / (1.0 - z)
            w = np.minimum(w.real, 500.0) + 1j * w.imag
            return np.exp(w)[:, None]

        cert = certify_pseudo_dissipative(CallableMap(space, spiral))
        hull = cert.hull_vertices / float(np.max(np.abs(cert.hull_vertices)))
        k = hull.shape[0]
        for i in range(k):
            a, b, c = hull[i], hull[(i + 1) % k], hull[(i + 2) % k]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert cross >= -1e-9

    def test_round_trip_through_shift(self):
        rng = np.random.default_rng(42)
        for seed, (n, p) in enumerate(((1, 2.0), (2, 1.0), (2, math.inf))):
            space = NormedSpace(n, p)
            G = sample_generator(space, seed=seed, degree=3)
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            a = float(rng.uniform(-2.0, 2.0))
            F = inverse_shift(G, theta, a)
            cert = certify_pseudo_dissipative(F)
            assert cert.verdict == "certified"
            recovered = shift_to_generator(F, cert.theta, cert.a)
            assert certify_generator(recovered).verdict == "certified"

    def test_validate_rejects_wrong_shift(self, l2_2d):
        report = validate_certificate(identity_map(l2_2d), 0.0, -2.0, 0.0, 0.1)
        assert not report["passed"]
        assert report["min_slack"] < -1e-9

    @pytest.mark.parametrize("epsilon", [1.5, 1.0, 0.0, math.nan])
    def test_validate_rejects_bad_epsilon(self, epsilon):
        G = sample_generator(NormedSpace(2, 2.0), 1, 3)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            validate_certificate(G, 0.0, 0.0, 1.0, epsilon)

    def test_determinism(self, l2_2d):
        a = certify_pseudo_dissipative(identity_map(l2_2d))
        b = certify_pseudo_dissipative(identity_map(l2_2d))
        assert (a.theta, a.a, a.b) == (b.theta, b.a, b.b)

    def test_retries_on_halved_annulus(self, l2_2d):
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=30)
        cert = certify_pseudo_dissipative(minus_identity(l2_2d), budget=small)
        assert cert.verdict == "inconclusive"
        assert cert.epsilon == 0.025


class TestShifts:
    def test_round_trip_pointwise(self, l2_2d):
        F = sample_generator(l2_2d, seed=7, degree=4)
        theta, a = 0.9, -1.3
        back = inverse_shift(shift_to_generator(F, theta, a), theta, a)
        Z = l2_2d.sphere_sample(10, seed=2) * 0.5
        np.testing.assert_allclose(back.eval_batch(Z), F.eval_batch(Z),
                                   rtol=1e-13, atol=1e-13)

    def test_shift_matches_formula(self, l2_2d):
        F = sample_generator(l2_2d, seed=7, degree=3)
        theta, a = 2.1, 0.4
        G = shift_to_generator(F, theta, a)
        Z = l2_2d.sphere_sample(6, seed=3) * 0.4
        phase = complex(math.cos(theta), math.sin(theta))
        np.testing.assert_allclose(G.eval_batch(Z),
                                   phase * F.eval_batch(Z) - a * Z,
                                   rtol=1e-13, atol=1e-13)


class TestLinearDissipation:
    def test_requires_certified_generator(self, l2_2d):
        with pytest.raises(NotCertifiedError, match="^map is refuted, not certified$"):
            linear_dissipation_check(identity_map(l2_2d))

    def test_sampled_generator_passes(self, l2_2d):
        G = sample_generator(l2_2d, seed=1, degree=4)
        report = linear_dissipation_check(G, v_count=128, budget=QUICK)
        assert report["passed"]
        assert report["max_linear_dissipation"] <= 1e-9
        assert report["max_quadratic_identity_error"] <= 1e-8
        assert report["max_higher_coefficient"] <= 1e-8

    def test_degenerate_directions_equality(self):
        # g(zeta) = i + i zeta^2 - 0.7 i zeta: Re<Tv, v*> = 0 everywhere, so
        # every direction is degenerate and the second coefficient must equal
        # the reflected center exactly.
        space = NormedSpace(1, 2.0)
        q = DiscFunction.polynomial([0.7j])
        g = disc_generator_from(1.0j, q)
        F = lift_to_ball(space, [g])
        report = linear_dissipation_check(F, v_count=64)
        assert report["passed"]
        assert report["degenerate_directions"] == 64
        assert report["max_quadratic_identity_error"] <= 1e-12

    def test_higher_term_at_degenerate_directions_fails(self, l2_2d):
        # T = i id dissipates nothing, so the cubic term 0.1 z_1^3 e_1 must
        # vanish on every direction; at e_1 it reaches 0.1
        cubic = HomogeneousPoly(3, np.array([[3, 0]]), np.array([[0.1, 0.0]]))
        G = PolyMap(l2_2d, np.zeros(2), 1j * np.eye(2), (cubic,))
        report = linear_dissipation_check(
            G, verdict=GeneratorVerdict("certified", 1e-9, 0.0, None, 0))
        assert report["max_higher_coefficient"] == 0.1
        assert not report["passed"]


class TestCaratheodory:
    def test_extremal_function_equality(self):
        q = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        report = caratheodory_check(q, order=16)
        assert report["passed"]
        assert report["violations"] == 0
        assert report["bound"] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(report["coefficient_magnitudes"],
                                   np.full(16, 2.0), atol=1e-8)
        assert abs(report["max_excess"]) <= 1e-8

    def test_sampled_functions_pass(self):
        from hologen.polymaps import herglotz_sample
        for seed in range(8):
            report = caratheodory_check(herglotz_sample(seed), order=16)
            assert report["passed"], f"seed {seed}"

    def test_high_degree_violation_detected(self):
        # 1 + 2.2 zeta^16 is positive on the spot-check grid (the sampled
        # angles all satisfy zeta^16 > 0) yet breaks the coefficient bound.
        q = DiscFunction.polynomial([1.0] + [0.0] * 15 + [2.2])
        report = caratheodory_check(q, order=16)
        assert not report["passed"]
        assert report["violations"] == 1
        assert report["max_excess"] == pytest.approx(0.2, abs=1e-3)

    def test_negative_real_part_rejected(self):
        with pytest.raises(ValueError):
            caratheodory_check(DiscFunction.polynomial([1.0, 3.0]), order=4)


class TestRestrictionAgreement:
    def test_certified_generator_agrees(self, l2_2d):
        G = sample_generator(l2_2d, seed=0, degree=3)
        report = restriction_agreement(G, v_count=6, budget=QUICK, disc_budget=QUICK)
        assert report["agree"]
        assert report["ball_verdict"] == "certified"
        assert all(v == "certified" for v in report["disc_verdicts"])

    def test_refuted_generator_agrees_via_witness_direction(self, l2_2d):
        G = sample_generator(l2_2d, seed=0, degree=3)
        kappa = (max(0.0, slack_probe(G)) + 1.0) / 0.25
        bad = shift_to_generator(G, 0.0, -kappa)
        report = restriction_agreement(bad, v_count=6, budget=QUICK, disc_budget=QUICK)
        assert report["ball_verdict"] == "refuted"
        assert report["agree"]
        assert any(v == "refuted" for v in report["disc_verdicts"])

    def test_inconclusive_ball_verdict_agrees(self, l2_2d):
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=30)
        report = restriction_agreement(minus_identity(l2_2d), v_count=2, budget=small,
                                       disc_budget=small)
        assert report["ball_verdict"] == "inconclusive"
        assert report["agree"]


class TestUnitaryInvariance:
    def test_conjugated_generator_still_certifies(self, l2_2d):
        G = sample_generator(l2_2d, seed=3, degree=3)
        rng = np.random.default_rng(0)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U, _ = np.linalg.qr(M)
        GU = unitary_conjugate(G, U)
        assert certify_generator(GU, QUICK).verdict == "certified"


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [0.5, 0.5], [0.25, 0.75]])
        hull = _convex_hull(pts)
        assert hull.shape[0] == 4
        assert {tuple(p) for p in hull} == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_short_inputs_pass_through(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(_convex_hull(pts), pts)
