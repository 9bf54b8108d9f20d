"""Generator certification, pseudo-dissipativity certificates, disc checks."""

import math

import numpy as np
import pytest

from hologen import certify
from hologen.certify import (
    CertifyBudget,
    GeneratorVerdict,
    NotCertifiedError,
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


class TestCertifyBudget:
    @pytest.mark.parametrize("field, value", [
        ("sphere", 0), ("refine_points", 0), ("refine_points", -3),
        ("refine_iters", -1), ("max_evals", -5), ("sphere", math.nan)])
    def test_out_of_range_value_names_its_field(self, field, value):
        # refine_points = 0 used to crash certify_generator on an empty
        # argmin, refine_iters = -1 on a negative noise shape, and
        # max_evals = -5 to report "inconclusive" without a word
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            CertifyBudget(**{field: value})

    def test_least_values_are_accepted(self, l2_2d):
        least = CertifyBudget(sphere=1, refine_points=1, refine_iters=0, max_evals=0)
        assert certify_generator(minus_identity(l2_2d), least).verdict == "inconclusive"
        assert CertifyBudget(max_evals=None).max_evals is None


def evaluated_rows(calls) -> int:
    """Rows passed to the wrapped PolyMap.eval_batch, from count_calls."""
    return sum(args[1].shape[0] for args, _ in calls)


class TestEvaluationCounts:
    """samples is the number of rows a certifier evaluates."""

    @pytest.mark.parametrize("budget", [QUICK, CertifyBudget(max_evals=3000)])
    def test_generator_samples_are_the_rows_evaluated(self, count_calls, l2_2d, budget):
        G = sample_generator(l2_2d, seed=2, degree=3)
        calls = count_calls(PolyMap, "eval_batch")
        assert certify_generator(G, budget).samples == evaluated_rows(calls)

    def test_pseudo_dissipative_samples_are_the_rows_evaluated(self, count_calls):
        # every row the certifier evaluates is counted: the annulus grids, the
        # descents of the validation rounds and the whole-ball guard
        F = inverse_shift(sample_generator(NormedSpace(2, 1.0), seed=1, degree=3), 1.1, 0.5)
        calls = count_calls(PolyMap, "eval_batch")
        cert = certify_pseudo_dissipative(F, budget=QUICK)
        assert cert.verdict == "certified"
        assert cert.samples == evaluated_rows(calls)

    def test_pseudo_dissipative_evaluates_each_row_once(self, count_calls):
        # a validation round used to evaluate its descended rows again for
        # the final re-fit of b; it now reads their pairings off their slack
        F = inverse_shift(sample_generator(NormedSpace(2, 1.0), seed=1, degree=3), 1.1, 0.5)
        calls = count_calls(PolyMap, "eval_batch")
        assert certify_pseudo_dissipative(F, budget=QUICK).verdict == "certified"
        # every grid shares a few fixed directions, but no call may repeat
        # only rows evaluated before
        seen = set()
        for args, _ in calls:
            if args[0] is F:
                rows = {row.tobytes() for row in args[1]}
                assert not rows <= seen
                seen |= rows


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
        # 152 grid points, then 3 of the 40 iterations of 2 * 8 rows fit
        capped = CertifyBudget(sphere=8, refine_points=2, refine_iters=40, max_evals=200)
        verdict = certify_generator(minus_identity(l2_2d), capped)
        assert verdict.verdict == "inconclusive"
        assert verdict.samples == 200

    @pytest.mark.parametrize("cap", [2432, 2440, 2463])
    def test_samples_stay_within_a_cap_above_the_grid(self, cap):
        # 19 shells of 128 directions are 2432 grid rows; the 32 refined
        # points used to be evaluated again, giving 2464 samples at any of
        # these caps
        G = sample_generator(NormedSpace(2, 2.0), 1, 3)
        verdict = certify_generator(G, CertifyBudget(max_evals=cap))
        assert verdict.verdict == "inconclusive"
        assert verdict.samples == 2432

    def test_one_slack_call_per_stage(self, count_calls, l2_2d):
        # the grid, then one call per climb iteration; the refined points
        # start from their grid slack and are not evaluated again
        calls = count_calls(certify, "generator_slack")
        certify_generator(sample_generator(l2_2d, seed=2, degree=3), QUICK)
        assert len(calls) == 1 + QUICK.refine_iters

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

    @pytest.mark.parametrize("tolerance, expected", [(1e-9, "refuted"), (1e-6, "certified")])
    def test_tolerance_decides_a_small_violation(self, tolerance, expected):
        # g(zeta) = 1e-7 zeta has slack -1e-7 |zeta|^2, least at the outer
        # shell: below -1e-9 but above -1e-6
        verdict = certify_disc_generator(lambda z: 1e-7 * z, tolerance=tolerance)
        assert verdict.verdict == expected
        assert -1e-7 < verdict.worst_slack < -9.9e-8

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_positive(self, l2_2d, tolerance):
        # a NaN tolerance compares false against every slack, so it used to
        # certify the expanding identity
        with pytest.raises(ValueError, match="tolerance must be positive"):
            certify_generator(identity_map(l2_2d), tolerance=tolerance)


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

    def test_center_is_evaluated_once(self):
        center_reads = []

        def g(zeta):
            if zeta.shape == (1,) and zeta[0] == 0.0:
                center_reads.append(zeta)
            return -zeta

        assert certify_disc_generator(g, QUICK).verdict == "certified"
        assert len(center_reads) == 1


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

    @pytest.mark.parametrize("p,c", [(2.0, 1e4), (1.0, 1e6)])
    def test_steep_polynomial_is_certified(self, p, c):
        # c z_1^32 e_1 pairs far beyond its 90 % quantile, in every direction,
        # only near the boundary; a polynomial map is bounded on the closed
        # ball, so a finite a fits it and a refutation would be wrong
        powers = np.zeros((1, 4), dtype=np.int64)
        powers[0, 0] = 32
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 0] = c
        F = PolyMap(NormedSpace(4, p), np.zeros(4), np.zeros((4, 4)),
                    (HomogeneousPoly(32, powers, coeffs),))
        cert = certify_pseudo_dissipative(F)
        assert cert.verdict == "certified"
        assert validate_certificate(F, cert.theta, cert.a, cert.b, cert.epsilon)["passed"]

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

    def test_validation_directions_are_not_the_fitted_ones(self, count_calls, l2_2d):
        # at the same seed, validate_certificate used to draw the certifier's
        # own first grid, over which b is fitted, and so passed by design
        draws = count_calls(NormedSpace, "sphere_sample")
        cert = certify_pseudo_dissipative(identity_map(l2_2d))
        fitted = {args[2] for args, _ in draws}
        draws.clear()
        validate_certificate(identity_map(l2_2d), cert.theta, cert.a, cert.b, cert.epsilon)
        assert len(draws) == 1
        assert draws[0][0][2] not in fitted

    # validate_certificate's min_slack at criterion 3's certificates for
    # seeds 0-8, from the certifier that still evaluated its descended rows
    # twice; recovering their pairings from the slack moves at most rounding
    CRITERION_3_MIN_SLACK = (
        0.0007607978355765876, 0.4078595602652577, 0.4150947569175035,
        0.0013612452617765558, 0.05277925669289374, 0.13809136268368172,
        0.0017114033622185332, 0.0009166757179559504, 0.002861593042592203)

    @pytest.mark.parametrize("seed", range(9))
    def test_criterion_3_certificates_validate_as_before(self, seed):
        space = NormedSpace((1, 2, 4)[seed % 3], (1.0, 2.0, math.inf)[(seed // 3) % 3])
        rng = np.random.default_rng([seed, 1311])
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        a = float(rng.uniform(-2.0, 2.0))
        F = inverse_shift(sample_generator(space, seed=seed, degree=2 + seed % 7), theta, a)
        cert = certify_pseudo_dissipative(F)
        report = validate_certificate(F, cert.theta, cert.a, cert.b, cert.epsilon)
        assert report["passed"]
        assert report["min_slack"] == pytest.approx(self.CRITERION_3_MIN_SLACK[seed],
                                                    rel=0.0, abs=1e-12)

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

    def test_capped_budget_is_inconclusive_after_one_attempt(self, l2_2d):
        # the cap stops the whole-ball guard's generator certifier before any
        # refinement, so the guard ends without a witness; there is no retry
        # on a narrower annulus
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=30)
        cert = certify_pseudo_dissipative(minus_identity(l2_2d), epsilon=0.1, budget=small)
        assert cert.verdict == "inconclusive"
        assert cert.epsilon == 0.1
        assert cert.witness is None

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_positive(self, l2_2d, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            certify_pseudo_dissipative(identity_map(l2_2d), tolerance=tolerance)


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
        report = linear_dissipation_check(G, v_count=128, verdict=certify_generator(G, QUICK))
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
        report = restriction_agreement(G, v_count=6, verdict=certify_generator(G, QUICK),
                                       disc_budget=QUICK)
        assert report["agree"]
        assert report["ball_verdict"] == "certified"
        assert all(v == "certified" for v in report["disc_verdicts"])

    def test_refuted_generator_agrees_via_witness_direction(self, l2_2d):
        G = sample_generator(l2_2d, seed=0, degree=3)
        kappa = (max(0.0, slack_probe(G)) + 1.0) / 0.25
        bad = shift_to_generator(G, 0.0, -kappa)
        report = restriction_agreement(bad, v_count=6, verdict=certify_generator(bad, QUICK),
                                       disc_budget=QUICK)
        assert report["ball_verdict"] == "refuted"
        assert report["agree"]
        assert any(v == "refuted" for v in report["disc_verdicts"])

    def test_inconclusive_ball_verdict_agrees(self, l2_2d):
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=30)
        G = minus_identity(l2_2d)
        report = restriction_agreement(G, v_count=2, verdict=certify_generator(G, small),
                                       disc_budget=small)
        assert report["ball_verdict"] == "inconclusive"
        assert report["agree"]

    def test_given_verdict_is_the_ball_verdict(self, l2_2d):
        # a refuted verdict handed in is not re-derived: the contraction's
        # certified slices then disagree with it
        refuted = GeneratorVerdict("refuted", 1e-9, -1.0, None, 0)
        report = restriction_agreement(minus_identity(l2_2d), v_count=2, verdict=refuted,
                                       disc_budget=QUICK)
        assert report["ball_verdict"] == "refuted"
        assert report["disc_verdicts"] == ["certified", "certified"]
        assert not report["agree"]


def _bits(v: GeneratorVerdict) -> tuple:
    """Every field of a verdict, floats and witness by their bits."""
    witness = None if v.witness is None else v.witness.tobytes()
    return v.verdict, v.tolerance.hex(), v.worst_slack.hex(), witness, v.samples


def _nine_slots():
    return [sample_generator(NormedSpace(n, p), seed=3 * i + j, degree=2 + (3 * i + j) % 7)
            for i, n in enumerate((1, 2, 4)) for j, p in enumerate((1.0, 2.0, math.inf))]


class TestBatchedSlices:
    """restriction_agreement certifies its slices in one batch, each as if alone."""

    def _batch_and_alone(self, monkeypatch, G, verdict, budget=None):
        batches = []
        real = certify._certify_discs

        def record(fns, *args):
            out = real(fns, *args)
            batches.append((fns, out))
            return out

        monkeypatch.setattr(certify, "_certify_discs", record)
        report = restriction_agreement(G, verdict=verdict, disc_budget=budget)
        monkeypatch.undo()
        (slices, batch), = batches
        assert report["disc_verdicts"] == [v.verdict for v in batch]
        alone = [certify_disc_generator(g, budget, verdict.tolerance) for g in slices]
        assert [_bits(v) for v in batch] == [_bits(v) for v in alone]
        return batch

    @pytest.mark.parametrize("slot", range(9))
    def test_clean_slices_match_alone(self, monkeypatch, slot):
        G = _nine_slots()[slot]
        batch = self._batch_and_alone(monkeypatch, G, certify_generator(G))
        assert len(batch) == 12
        assert all(v.verdict == "certified" for v in batch)

    @pytest.mark.parametrize("slot", range(9))
    def test_refuted_slices_match_alone(self, monkeypatch, slot):
        G = _nine_slots()[slot]
        bad = shift_to_generator(G, 0.0, -(max(0.0, slack_probe(G)) + 1.0) / 0.25)
        batch = self._batch_and_alone(monkeypatch, bad, certify_generator(bad))
        assert len(batch) == 13
        assert any(v.verdict == "refuted" and v.witness is not None for v in batch)

    @pytest.mark.parametrize("slot", [0, 4, 8])
    def test_black_box_slices_match_alone(self, monkeypatch, slot):
        G = _nine_slots()[slot]
        bad = shift_to_generator(G, 0.0, -(max(0.0, slack_probe(G)) + 1.0) / 0.25)
        for M in (G, bad):
            box = CallableMap(M.space, M.eval_batch)
            batch = self._batch_and_alone(monkeypatch, box, certify_generator(M), QUICK)
            assert batch

    def test_capped_slices_are_each_inconclusive(self, monkeypatch):
        # 304 grid points leave 3 of the 10 iterations of 4 * 8 rows per slice
        capped = CertifyBudget(sphere=16, refine_points=4, refine_iters=10, max_evals=400)
        G = _nine_slots()[4]
        batch = self._batch_and_alone(monkeypatch, G, certify_generator(G), capped)
        assert [v.verdict for v in batch] == ["inconclusive"] * 12
        assert all(v.samples == 304 + 3 * 4 * 8 for v in batch)

    def test_one_climb_for_all_slices(self, count_calls):
        G = _nine_slots()[5]
        verdict = certify_generator(G, QUICK)
        climbs = count_calls(certify, "_climb")
        report = restriction_agreement(G, v_count=6, verdict=verdict, disc_budget=QUICK)
        assert report["directions"] == 6
        assert len(climbs) == 1
        seeds = climbs[0][0][2]
        assert seeds.shape == (6 * QUICK.refine_points, 1)


class TestUnitaryInvariance:
    def test_conjugated_generator_still_certifies(self, l2_2d):
        G = sample_generator(l2_2d, seed=3, degree=3)
        rng = np.random.default_rng(0)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U, _ = np.linalg.qr(M)
        GU = unitary_conjugate(G, U)
        assert certify_generator(GU, QUICK).verdict == "certified"

