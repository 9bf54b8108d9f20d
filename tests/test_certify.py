"""Generator certification, pseudo-dissipativity certificates, disc checks."""

import math

import numpy as np
import pytest

from hologen import certify
from hologen.certify import (
    CertifyBudget,
    GeneratorVerdict,
    NotCertifiedError,
    PseudoDissipativityCertificate,
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
    verdict_to_dict,
)
from hologen.numrange import _climb
from hologen.polymaps import (
    DiscFunction,
    HomogeneousPoly,
    PolyMap,
    disc_generator_from,
    lift_to_ball,
    sample_generator,
    unitary_conjugate,
)
from hologen.spaces import NormedSpace

from conftest import BlackBox, fejer_dip, identity_map, make_linear_map, minus_identity

QUICK = CertifyBudget(sphere=64, refine_points=8, refine_iters=20)


def criterion_3_map(seed):
    """Acceptance criterion 3's round-trip input: a lifted generator G with
    e^(i theta) F - a id = G for a seeded theta and a."""
    space = NormedSpace((1, 2, 4)[seed % 3], (1.0, 2.0, math.inf)[(seed // 3) % 3])
    rng = np.random.default_rng([seed, 1311])
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    a = float(rng.uniform(-2.0, 2.0))
    return inverse_shift(sample_generator(space, seed=seed, degree=2 + seed % 7), theta, a)


def line_excess(F, cert, dirs=2048, seed=99, phases=1024, starts=16, iters=20):
    """Largest -Re q_v on |zeta| = 1 of e^(i theta) F - a id over sampled lines.

    -Re q_v(zeta) = Re(conj(c_0) zeta + sum_{k >= 1} c_k zeta^(k - 1)) for the
    line coefficients c_k of v, read on `phases` phases at the rows of
    sphere_sample(dirs, seed); the best `starts` lines then climb. A value
    above 0 is a point of the ball where the certified shift fails.
    """
    G = F.shifted(cert.theta, cert.a)
    zeta = np.exp(2j * np.pi * np.arange(phases) / phases)

    def excess(V, groups=None):
        C = G.line_coefficients(V)
        total = np.conj(C[:, :1]) * zeta
        for k in range(1, C.shape[1]):
            total = total + C[:, k:k + 1] * zeta ** (k - 1)
        return total.real.max(axis=1)

    V = G.space.sphere_sample(dirs, seed)
    values = excess(V)
    order = np.argsort(-values)[:starts]
    noise = np.random.default_rng(seed).standard_normal((iters, starts, 8, 2 * G.space.dim))
    _, climbed = _climb(G.space, excess, V[order], values[order], noise, np.zeros(starts, int))
    return float(climbed.max())


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
    """Rows passed to a wrapped PolyMap method, from count_calls."""
    return sum(args[1].shape[0] for args, _ in calls)


class TestEvaluationCounts:
    """samples is the number of rows a certifier evaluates."""

    @pytest.mark.parametrize("budget", [QUICK, CertifyBudget(max_evals=3000)])
    def test_generator_samples_are_the_rows_evaluated(self, count_calls, l2_2d, budget):
        # every line the certifier reads goes through PolyMap.line_vectors:
        # the direction grid and the climb
        G = sample_generator(l2_2d, seed=2, degree=3)
        calls = count_calls(PolyMap, "line_vectors")
        assert certify_generator(G, budget).samples == evaluated_rows(calls)

    def test_pseudo_dissipative_samples_are_the_rows_evaluated(self, count_calls):
        # every line the fit evaluates goes through PolyMap.line_vectors,
        # which line_coefficients reads too: the direction grid and the climb
        F = inverse_shift(sample_generator(NormedSpace(2, 1.0), seed=1, degree=3), 1.1, 0.5)
        calls = count_calls(PolyMap, "line_vectors")
        cert = certify_pseudo_dissipative(F, budget=QUICK)
        assert cert.verdict == "certified"
        assert cert.samples == evaluated_rows(calls)

    @pytest.mark.parametrize("cap, verdict", [
        (16, "inconclusive"), (47, "inconclusive"), (100, "inconclusive"),
        (176, "certified"), (10 ** 6, "certified")])
    def test_capped_fit_stays_within_the_cap(self, count_calls, cap, verdict):
        # 16 grid lines, then 4 starts of 8 proposals for up to 5 iterations:
        # 2 iterations fit under a cap of 100 and all 5 under 176
        budget = CertifyBudget(sphere=16, refine_points=4, refine_iters=5, max_evals=cap)
        F = inverse_shift(sample_generator(NormedSpace(2, 2.0), seed=3, degree=3), 0.4, -0.3)
        calls = count_calls(PolyMap, "line_vectors")
        cert = certify_pseudo_dissipative(F, budget)
        assert cert.verdict == verdict
        assert cert.samples == evaluated_rows(calls) <= cap
        assert cert.samples == 16 + 32 * min(5, (cap - 16) // 32)

    def test_pseudo_dissipative_evaluates_each_row_once(self, count_calls):
        # the climb keeps each start's best line for the final every-phase
        # maximization instead of evaluating it again
        F = inverse_shift(sample_generator(NormedSpace(2, 1.0), seed=1, degree=3), 1.1, 0.5)
        calls = count_calls(PolyMap, "line_vectors")
        assert certify_pseudo_dissipative(F, budget=QUICK).verdict == "certified"
        seen = set()
        for args, _ in calls:
            rows = {row.tobytes() for row in args[1]}
            assert not rows & seen
            seen |= rows


class TestCertifyGenerator:
    def test_contraction_drift_certified(self, l2_2d):
        verdict = certify_generator(minus_identity(l2_2d))
        assert verdict.verdict == "certified"
        assert verdict.worst_slack >= -1e-9
        assert verdict.samples > 0

    def test_expansion_drift_refuted_with_witness(self, l2_2d):
        # every line of the identity has q_v = -<v, v*> = -1, read off its
        # coefficients up to the rounding of the sampled unit directions
        verdict = certify_generator(identity_map(l2_2d))
        assert verdict.verdict == "refuted"
        assert verdict.worst_slack == pytest.approx(-1.0, rel=0.0, abs=1e-15)
        assert verdict.witness is not None
        again = float(generator_slack(identity_map(l2_2d), verdict.witness[None, :])[0])
        assert again < -verdict.tolerance

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

    def test_exhausted_budget_is_inconclusive(self, l2_2d):
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=30)
        verdict = certify_generator(minus_identity(l2_2d), small)
        assert verdict.verdict == "inconclusive"

    def test_cap_between_grid_and_full_refinement(self, l2_2d):
        # 8 grid lines, then 2 starts of 8 proposals: 12 of the 40 climb
        # iterations fit under the cap, reading 8 + 12 * 16 = 200 lines
        capped = CertifyBudget(sphere=8, refine_points=2, refine_iters=40, max_evals=200)
        verdict = certify_generator(minus_identity(l2_2d), capped)
        assert verdict.verdict == "inconclusive"
        assert verdict.samples == 200

    @pytest.mark.parametrize("cap", [2432, 2440, 2463])
    def test_samples_stay_within_a_cap_above_the_grid(self, cap):
        # 128 grid lines, then 32 starts of 8 proposals: 9 of the 40 climb
        # iterations fit under each of these caps, reading 128 + 9 * 256 =
        # 2432 lines; the kept lines are decided without being read again
        G = sample_generator(NormedSpace(2, 2.0), 1, 3)
        verdict = certify_generator(G, CertifyBudget(max_evals=cap))
        assert verdict.verdict == "inconclusive"
        assert verdict.samples == 2432

    def test_one_line_read_per_stage(self, count_calls, l2_2d):
        # the grid, then one read per climb iteration; the kept lines are
        # decided from the rows already read
        calls = count_calls(PolyMap, "line_vectors")
        certify_generator(sample_generator(l2_2d, seed=2, degree=3), QUICK)
        assert len(calls) == 1 + QUICK.refine_iters

    def test_grid_refutation_stops_before_the_climb(self, count_calls, l2_2d):
        # a refutation witnessed on the best grid line cannot be undone by
        # the climb, which only finds lower Re q
        calls = count_calls(PolyMap, "line_vectors")
        verdict = certify_generator(identity_map(l2_2d))
        assert verdict.verdict == "refuted"
        assert len(calls) == 1
        assert verdict.samples == CertifyBudget().sphere

    def test_callable_map_is_rejected(self, l2_2d):
        # the certifier reads exact line coefficients, which a black box lacks
        with pytest.raises(ValueError, match="PolyMap"):
            certify_generator(BlackBox(l2_2d, lambda Z: -Z))

    @pytest.mark.parametrize("k, delta, alpha", [
        (2, 1e-3, 0.0), (7, 1e-6, 1.3), (15, 1e-3, 2.9), (31, 1e-6, 5.1), (31, 1e-3, 4.0)])
    def test_dim_1_boundary_only_violation_is_refuted(self, k, delta, alpha):
        # the lift of g(zeta) = -(1 - delta) zeta + e^(i alpha) zeta^(k + 1)
        # to the 1-dimensional ball has one line, so its verdict is the
        # disc's: slack -delta next to |z| = 1, where shells that stop at
        # 0.99 and a descent clipped at 0.9995 used to certify it
        c = np.zeros(k + 2, dtype=np.complex128)
        c[1], c[k + 1] = -(1.0 - delta), complex(math.cos(alpha), math.sin(alpha))
        G = lift_to_ball(NormedSpace(1, 2.0), [DiscFunction.polynomial(c)])
        verdict = certify_generator(G)
        assert verdict.verdict == "refuted"
        assert verdict.worst_slack == pytest.approx(-delta, abs=1e-9)
        assert verdict.samples == 1
        assert G.space.norm(verdict.witness) < 1.0
        assert generator_slack(G, verdict.witness[None, :])[0] < -verdict.tolerance
        assert restriction_agreement(G, verdict=verdict)["agree"]

    @pytest.mark.parametrize("seed", [2, 11, 20])
    def test_violation_next_to_the_l1_axes_is_refuted(self, monkeypatch, seed):
        # a fit that reads only the lines through sampled directions, without
        # face handling, leaves slack down to -0.22 at points
        # r e^(i phi) e_j + r eps u with phase-aligned u; the certifier's
        # lines next to the axes pair the free entries the same way
        F = criterion_3_map(seed)
        monkeypatch.setattr(certify, "_FACE_SNAP", 0.0)
        cert = certify_pseudo_dissipative(F)
        monkeypatch.undo()
        G = F.shifted(cert.theta, cert.a)
        verdict = certify_generator(G)
        assert verdict.verdict == "refuted"
        assert verdict.worst_slack < -0.1
        assert G.space.norm(verdict.witness) < 1.0
        assert generator_slack(G, verdict.witness[None, :])[0] < -verdict.tolerance

    @pytest.mark.parametrize("seed", range(9))
    def test_smaller_shift_is_refuted(self, seed):
        # the fitted a touches its best line, so a - 1e-3 takes that line's
        # least Re q_v down to about -1e-3
        F = criterion_3_map(seed)
        cert = certify_pseudo_dissipative(F)
        G = F.shifted(cert.theta, cert.a - 1e-3)
        verdict = certify_generator(G)
        assert verdict.verdict == "refuted"
        assert G.space.norm(verdict.witness) < 1.0
        assert generator_slack(G, verdict.witness[None, :])[0] < -verdict.tolerance

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
        # g(zeta) = 1e-7 zeta has slack -1e-7 |zeta|^2, whose least value on
        # the closed disc, -1e-7, is read off the coefficients exactly:
        # below -1e-9 but above -1e-6
        verdict = certify_disc_generator(DiscFunction.polynomial([0.0, 1e-7]), tolerance)
        assert verdict.verdict == expected
        assert verdict.worst_slack == -1e-7

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_positive(self, l2_2d, tolerance):
        # a NaN tolerance compares false against every slack, so it used to
        # certify the expanding identity
        with pytest.raises(ValueError, match="tolerance must be positive"):
            certify_generator(identity_map(l2_2d), tolerance=tolerance)


def disc_slack(g, zeta) -> float:
    """Re<g(0), zeta*>(1 - |zeta|^2) - Re<g(zeta), zeta*>, zeta* = conj(zeta)."""
    return float((g(0.0) * np.conj(zeta)).real * (1.0 - abs(zeta) ** 2)
                 - (g(zeta) * np.conj(zeta)).real)


class TestCertifyDiscGenerator:
    def test_polynomial_disc(self):
        g = DiscFunction.polynomial([1.0, 0.0, -1.0])
        verdict = certify_disc_generator(g)
        assert verdict.verdict == "certified"
        assert abs(verdict.worst_slack) <= 1e-15
        assert verdict.samples == 1

    def test_refuted_disc(self):
        g = DiscFunction.polynomial([0.0, 1.0])
        verdict = certify_disc_generator(g)
        assert verdict.verdict == "refuted"
        assert verdict.worst_slack == -1.0
        assert disc_slack(g, verdict.witness[0]) < -1e-9

    def test_non_polynomial_disc_is_rejected(self):
        # the verdict reads exact coefficients: a Herglotz-backed generator
        # form and a plain callable carry none and must be truncated first
        q = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        with pytest.raises(ValueError, match="truncate it first"):
            certify_disc_generator(disc_generator_from(0.3, q))
        with pytest.raises(ValueError, match="truncate it first"):
            certify_disc_generator(lambda z: -z)

    @pytest.mark.parametrize("k, delta, alpha", [
        (2, 1e-3, 0.0), (7, 1e-6, 1.3), (15, 1e-3, 2.9), (31, 1e-6, 5.1), (31, 1e-3, 4.0)])
    def test_boundary_only_violation_is_refuted(self, k, delta, alpha):
        # g(zeta) = -(1 - delta) zeta + e^(i alpha) zeta^(k + 1) has
        # Re q = 1 - delta - Re e^(i alpha) zeta^k: least -delta on |zeta| = 1,
        # >= 0 where |zeta|^k <= 1 - delta. The violation hugs the boundary,
        # where shells that stop at 0.99 and a climb clipped at 0.9995 used
        # to certify it
        c = np.zeros(k + 2, dtype=np.complex128)
        c[1], c[k + 1] = -(1.0 - delta), complex(math.cos(alpha), math.sin(alpha))
        g = DiscFunction.polynomial(c)
        verdict = certify_disc_generator(g)
        assert verdict.verdict == "refuted"
        assert verdict.worst_slack == pytest.approx(-delta, abs=1e-9)
        zeta = verdict.witness[0]
        assert abs(zeta) < 1.0
        assert disc_slack(g, zeta) < -verdict.tolerance
        report = restriction_agreement(lift_to_ball(NormedSpace(1, 2.0), [g]))
        assert report["disc_verdicts"] == ["refuted"] * report["directions"]


class TestPseudoDissipative:
    def test_identity_map_certificate(self, l2_2d):
        cert = certify_pseudo_dissipative(identity_map(l2_2d))
        assert cert.verdict == "certified"
        assert abs(cert.theta - math.pi) <= 1e-3
        assert cert.a == pytest.approx(-1.0, abs=1e-6)
        assert cert.b == 0.0
        assert line_excess(identity_map(l2_2d), cert) <= 1e-9

    def test_certificate_serialization_keys(self, l2_2d):
        cert = certify_pseudo_dissipative(identity_map(l2_2d))
        data = certificate_to_dict(cert)
        assert set(data) == {"verdict", "theta", "a", "b", "samples"}

    def test_callable_map_is_rejected(self, l2_2d):
        # the fit reads exact line coefficients, which a black box lacks
        with pytest.raises(ValueError, match="PolyMap"):
            certify_pseudo_dissipative(BlackBox(l2_2d, lambda Z: -Z))

    @pytest.mark.parametrize("p,c", [(2.0, 1e4), (1.0, 1e6)])
    def test_steep_polynomial_is_certified(self, p, c):
        # c z_1^32 e_1 pairs far beyond its bulk only next to the boundary;
        # a polynomial map is bounded on the closed ball, so a finite a fits
        powers = np.zeros((1, 4), dtype=np.int64)
        powers[0, 0] = 32
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 0] = c
        F = PolyMap(NormedSpace(4, p), np.zeros(4), np.zeros((4, 4)),
                    (HomogeneousPoly(32, powers, coeffs),))
        cert = certify_pseudo_dissipative(F)
        assert cert.verdict == "certified"
        assert cert.a == pytest.approx(c, rel=1e-9)
        assert line_excess(F, cert) <= 1e-9 * c

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

    @pytest.mark.parametrize("seed", range(9))
    def test_criterion_3_certificates_hold_on_sampled_lines(self, seed):
        # 2,048 lines the fit never draws, each read on 1,024 phases, then
        # climbed; seed 2 is the benchmark's slot 2 (dim 4, p = 1)
        F = criterion_3_map(seed)
        cert = certify_pseudo_dissipative(F)
        assert cert.verdict == "certified"
        assert cert.b == F.space.norm(F.constant)
        assert line_excess(F, cert) <= 1e-9

    def test_line_check_refutes_a_smaller_shift(self):
        # the fitted a touches its best line, so any less fails somewhere
        F = criterion_3_map(4)
        cert = certify_pseudo_dissipative(F)
        smaller = PseudoDissipativityCertificate(
            cert.verdict, cert.theta, cert.a - 1e-3, cert.b, cert.samples, 0.0)
        assert line_excess(F, smaller) > 1e-4

    @pytest.mark.parametrize("seed", [1, 2, 11, 20])
    def test_l1_certificate_holds_next_to_the_coordinate_axes(self, seed):
        # at p = 1 a point r e^(i phi) e_j + r eps u, with u_m of modulus 1
        # off j, pairs each G_m with the phase of u_m; aligning u_m with G_m
        # adds |G_m| to the pairing. Lines through such points approach the
        # axis with any phases, and a fit that reads only the lines through
        # the axes themselves leaves slack down to -0.22 here (seeds 2, 11, 20)
        F = criterion_3_map(seed)
        cert = certify_pseudo_dissipative(F)
        G = F.shifted(cert.theta, cert.a)
        n, r, eps = G.space.dim, 0.9995, 1e-7
        phis = np.exp(2j * np.pi * np.arange(256) / 256)
        worst = math.inf
        for j in range(n):
            Z = np.zeros((256, n), dtype=np.complex128)
            Z[:, j] = r * phis
            values = G.eval_batch(Z)
            mag = np.abs(values)
            off = np.arange(n) != j
            Z[:, off] = r * eps * np.where(mag > 0.0, values / np.where(mag > 0.0, mag, 1.0),
                                            1.0)[:, off]
            worst = min(worst, float(np.min(generator_slack(G, Z))))
        assert worst >= -1e-9

    def test_determinism(self, l2_2d):
        a = certify_pseudo_dissipative(identity_map(l2_2d))
        b = certify_pseudo_dissipative(identity_map(l2_2d))
        assert (a.theta, a.a, a.b, a.samples) == (b.theta, b.a, b.b, b.samples)

    def test_capped_budget_is_inconclusive_after_one_attempt(self, l2_2d):
        # the cap leaves room for the 8 grid lines and no climb iteration of
        # 2 starts with 8 proposals each; the fit does not retry
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=20)
        cert = certify_pseudo_dissipative(minus_identity(l2_2d), budget=small)
        assert cert.verdict == "inconclusive"
        assert cert.samples == 8


def dim_1_map(p, degree):
    """A dim-1 fit input: inverse_shift of a sampled generator by a seeded
    theta and a, its seed 10 * degree plus p's place in (1, 2, inf)."""
    seed = 10 * degree + (1.0, 2.0, math.inf).index(p)
    rng = np.random.default_rng([seed, 1311])
    G = sample_generator(NormedSpace(1, p), seed=seed, degree=degree)
    return inverse_shift(G, float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(-2.0, 2.0)))


# (p, degree, theta, a) of the fit that climbed its 32 best lines on dim 1
DIM_1_FITS = [
    (1.0, 2, 2.9076539292399093, -1.1059452053917525),
    (1.0, 5, 1.614653251552135, 0.8749152255880757),
    (1.0, 8, 5.205418903546751, -2.8614793872660402),
    (2.0, 2, 2.4675105571120763, -0.8696742513173261),
    (2.0, 5, 4.453891389266003, -0.5186218620249307),
    (2.0, 8, 5.775188845248456, -0.13871282044027217),
    (math.inf, 2, 6.209355290855913, -1.4884403642842883),
    (math.inf, 5, 4.943991939341317, -0.5139035024049727),
    (math.inf, 8, 1.3491486897251002, -0.31988533058755153),
]


@pytest.fixture
def no_climb(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dim-1 fit climbs no line")

    monkeypatch.setattr(certify, "_climb_lines", refuse)


class TestDim1Fit:
    """A dim-1 ball is one line up to phase: the fit reads its grid lines only."""

    @pytest.mark.parametrize("p, degree, theta, a", DIM_1_FITS,
                             ids=[f"p={p:g}-degree={d}" for p, d, _, _ in DIM_1_FITS])
    def test_grid_lines_decide_the_fit(self, no_climb, p, degree, theta, a):
        F = dim_1_map(p, degree)
        cert = certify_pseudo_dissipative(F)
        assert cert.verdict == "certified"
        assert cert.samples == 192
        assert cert.theta == theta
        assert abs(cert.a - a) <= 1e-14 * max(1.0, abs(a))
        assert certify_generator(shift_to_generator(F, cert.theta, cert.a)).verdict == "certified"

    def test_samples_are_the_budget_sphere(self, no_climb, count_calls):
        budget = CertifyBudget(sphere=40, refine_points=3, refine_iters=9)
        calls = count_calls(PolyMap, "line_vectors")
        cert = certify_pseudo_dissipative(dim_1_map(2.0, 5), budget)
        assert cert.samples == budget.sphere == evaluated_rows(calls)

    @pytest.mark.parametrize("cap, verdict", [
        (0, "inconclusive"), (191, "inconclusive"), (192, "certified"), (193, "certified")])
    def test_only_a_cap_below_the_grid_is_inconclusive(self, no_climb, cap, verdict):
        cert = certify_pseudo_dissipative(dim_1_map(math.inf, 8), CertifyBudget(
            sphere=192, max_evals=cap))
        assert (cert.verdict, cert.samples) == (verdict, 192)


def stepwise_phase_max(C, every=False):
    """`certify._phase_max` with each Newton pass forming every column
    e^(i (k - 1) phi), k - 1 = -1 and 0 included, as one unnamed exponential."""
    j = np.arange(C.shape[1]) - 1.0
    P = (C @ certify._phase_grid(C.shape[1])).real
    phases = certify._PHASES
    if every:
        C, phi, best = np.repeat(C, phases, axis=0), np.tile(certify._PHI, len(P)), P.ravel()
    else:
        i = np.argmax(P, axis=1)
        phi, best = certify._PHI[i], P[np.arange(len(P)), i]
    J = np.stack([np.ones_like(j), j, j * j], axis=1)
    cap = np.pi / phases
    at = phi
    for _ in range(certify._NEWTON + 1):
        S = (C * np.exp(np.multiply.outer(phi, 1j * j))) @ J
        at = np.where(S[:, 0].real > best, phi, at)
        best = np.maximum(best, S[:, 0].real)
        phi = phi - np.clip(S[:, 1].imag / np.maximum(np.abs(S[:, 2].real), 1e-12), -cap, cap)
    best, at = best.reshape(len(P), -1), at.reshape(len(P), -1)
    i = np.argmax(best, axis=1)
    rows = np.arange(len(P))
    return best[rows, i], at[rows, i]


class TestPhaseKernel:
    """_phase_max keeps the bits of forming every exponential column."""

    @pytest.mark.parametrize("every", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 32, 256])
    def test_bytes_match_every_column_exponentials(self, rows, every):
        # 2 terms (c_0, c_1) is a degree-1 map; with every=True, 32 rows and
        # 22 or more terms, C times the exponential is a 256 KiB temporary,
        # which numpy multiplies in place with its operands swapped
        rng = np.random.default_rng([rows, every])
        for terms in range(2, 34):
            C = rng.standard_normal((rows, terms)) + 1j * rng.standard_normal((rows, terms))
            C[0, rng.integers(terms)] = 0.0
            if rows > 1:
                C[1] = 0.0
                C[1, 1] = -0.5
            for got, want in zip(certify._phase_max(C, every), stepwise_phase_max(C, every)):
                assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_grid_values_handed_over_keep_the_bits(self, p):
        # the fit's lines pass _phase_max the grid values _line_grid made
        F = criterion_3_map({1.0: 1, 2.0: 4, math.inf: 7}[p])
        X, W, free = certify._lines(F, F.space.sphere_sample(192, 0))
        rot = complex(math.cos(0.7), math.sin(0.7))
        values, C = certify._line_values(X, W, free, rot)
        assert values.tobytes() == stepwise_phase_max(C)[0].tobytes()


def blocked_scan(re, im, radius):
    """The fit's theta index by the full scan: h at all 720 grid angles over
    every cloud point, in blocks of 90 angles, then the first least."""
    thetas, h = 2.0 * np.pi * np.arange(720) / 720, np.empty(720)
    for i in range(0, 720, 90):
        block = np.multiply.outer(np.cos(thetas[i:i + 90]), re) + radius
        block -= np.multiply.outer(np.sin(thetas[i:i + 90]), im)
        h[i:i + 90] = block.max(axis=1)
    return int(np.argmin(h))


@pytest.fixture
def scans(monkeypatch):
    """Record the (re, im, radius) cloud and the (index, angles read) result
    of each certify._least_angle call."""
    calls, real = [], certify._least_angle

    def run(re, im, radius):
        result = real(re, im, radius)
        calls.append(((re, im, radius), result))
        return result

    monkeypatch.setattr(certify, "_least_angle", run)
    return calls


class TestThetaScan:
    """The bounded theta scan returns the full scan's index."""

    @pytest.mark.parametrize("seed", range(9))
    def test_criterion_3_maps(self, scans, seed):
        # the fit reads the whole cloud at 30 coarse angles and at fewer
        # than the 720 grid angles after them
        certify_pseudo_dissipative(criterion_3_map(seed))
        (cloud, (index, read)), = scans
        assert index == blocked_scan(*cloud)
        assert read < 720

    @pytest.mark.parametrize("seed", range(3))
    def test_l1_clouds_with_free_terms(self, scans, seed):
        # criterion-3 seeds 1 and 2 are dims 2 and 4 at p = 1; a shifted copy
        # moves the angle, and both clouds carry free-term radii
        F = criterion_3_map(1 + seed % 2).shifted(1.3 * seed, 0.4)
        certify_pseudo_dissipative(F, CertifyBudget(sphere=192, seed=seed))
        (cloud, (index, _)), = scans
        assert np.any(cloud[2] > 0.0)
        assert index == blocked_scan(*cloud)

    def test_identity_map_repeats_one_point(self, scans, l2_2d):
        # every line of the identity pairs to 1, so h(t) = cos t is least at pi
        certify_pseudo_dissipative(identity_map(l2_2d))
        (cloud, (index, _)), = scans
        assert index == blocked_scan(*cloud) == 360

    def test_duplicated_points(self):
        rng = np.random.default_rng(5)
        re, im, radius = rng.standard_normal((3, 500))
        radius = np.abs(radius)
        cloud = [np.concatenate((x, x[::-1])) for x in (re, im, radius)]
        assert certify._least_angle(*cloud)[0] == blocked_scan(*cloud)

    def test_ties_at_every_angle_take_the_first(self):
        # points at the origin with equal radii: h is that radius everywhere
        zeros, radius = np.zeros(64), np.full(64, 0.25)
        assert certify._least_angle(zeros, zeros, radius) == (0, 720)
        assert blocked_scan(zeros, zeros, radius) == 0

    def test_non_finite_cloud_reads_every_angle(self):
        re, im, radius = np.array([1.0, np.nan]), np.zeros(2), np.zeros(2)
        assert certify._least_angle(re, im, radius) == (blocked_scan(re, im, radius), 720)


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
        # the exact coefficients of (1 + zeta)/(1 - zeta) are 2, bit for bit
        assert report["bound"] == 2.0
        assert report["coefficient_magnitudes"] == [2.0] * 16
        assert report["max_excess"] == 0.0

    def test_sampled_functions_pass(self):
        from hologen.polymaps import herglotz_sample
        for seed in range(8):
            report = caratheodory_check(herglotz_sample(seed), order=16)
            assert report["passed"], f"seed {seed}"

    def test_high_degree_violation_detected(self):
        # Re (1 + 2.2 zeta^16) = -1.2 where zeta^16 = -1, though zeta^16 > 0
        # at the 16 angles 2 pi j/16 of a spot check: the exact check rejects
        # it before the coefficient bound is read
        q = DiscFunction.polynomial([1.0] + [0.0] * 15 + [2.2])
        with pytest.raises(ValueError, match="nonnegative-real-part"):
            caratheodory_check(q, order=16)

    def test_dip_between_sample_angles_rejected(self):
        with pytest.raises(ValueError, match="nonnegative-real-part"):
            caratheodory_check(fejer_dip(), order=16)

    def test_negative_real_part_rejected(self):
        with pytest.raises(ValueError):
            caratheodory_check(DiscFunction.polynomial([1.0, 3.0]), order=4)

    def test_data_without_exact_coefficients_rejected(self):
        herglotz = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        for q in (lambda z: 1.0 + z, DiscFunction.generator_form(0.0, herglotz)):
            with pytest.raises(ValueError, match="truncate it first"):
                caratheodory_check(q)

    def test_order_validation(self):
        q = DiscFunction.polynomial([1.0])
        for order in (0, 513):
            with pytest.raises(ValueError, match="order"):
                caratheodory_check(q, order=order)
        assert len(caratheodory_check(q, order=512)["coefficient_magnitudes"]) == 512


class TestRestrictionAgreement:
    def test_certified_generator_agrees(self, l2_2d):
        G = sample_generator(l2_2d, seed=0, degree=3)
        report = restriction_agreement(G, v_count=6, verdict=certify_generator(G, QUICK))
        assert report["agree"]
        assert report["ball_verdict"] == "certified"
        assert all(v == "certified" for v in report["disc_verdicts"])

    def test_refuted_generator_agrees_via_witness_direction(self, l2_2d):
        G = sample_generator(l2_2d, seed=0, degree=3)
        kappa = (max(0.0, slack_probe(G)) + 1.0) / 0.25
        bad = shift_to_generator(G, 0.0, -kappa)
        report = restriction_agreement(bad, v_count=6, verdict=certify_generator(bad, QUICK))
        assert report["ball_verdict"] == "refuted"
        assert report["agree"]
        assert any(v == "refuted" for v in report["disc_verdicts"])

    def test_inconclusive_ball_verdict_agrees(self, l2_2d):
        small = CertifyBudget(sphere=8, refine_points=2, refine_iters=2, max_evals=30)
        G = minus_identity(l2_2d)
        report = restriction_agreement(G, v_count=2, verdict=certify_generator(G, small))
        assert report["ball_verdict"] == "inconclusive"
        assert report["agree"]

    def test_given_verdict_is_the_ball_verdict(self, l2_2d):
        # a refuted verdict handed in is not re-derived: the contraction's
        # certified slices then disagree with it
        refuted = GeneratorVerdict("refuted", 1e-9, -1.0, None, 0)
        report = restriction_agreement(minus_identity(l2_2d), v_count=2, verdict=refuted)
        assert report["ball_verdict"] == "refuted"
        assert report["disc_verdicts"] == ["certified", "certified"]
        assert not report["agree"]


def _nine_slots():
    return [sample_generator(NormedSpace(n, p), seed=3 * i + j, degree=2 + (3 * i + j) % 7)
            for i, n in enumerate((1, 2, 4)) for j, p in enumerate((1.0, 2.0, math.inf))]


class TestBatchedSlices:
    """restriction_agreement decides its slices in one batch, each as if alone."""

    def _batch_and_alone(self, monkeypatch, G, verdict):
        batches = []
        real = certify._disc_verdicts

        def record(C, tolerance):
            out = real(C, tolerance)
            batches.append(out)
            return out

        monkeypatch.setattr(certify, "_disc_verdicts", record)
        report = restriction_agreement(G, verdict=verdict)
        monkeypatch.undo()
        (batch,) = batches
        assert report["disc_verdicts"] == [v.verdict for v in batch]
        directions = list(G.space.sphere_sample(12, 0))
        if verdict.verdict == "refuted":
            directions.append(verdict.witness / G.space.norm(verdict.witness))
        for v, d in zip(batch, directions, strict=True):
            alone = certify_disc_generator(G.restrict(d), verdict.tolerance)
            assert v.verdict == alone.verdict
            assert v.worst_slack == pytest.approx(alone.worst_slack, rel=1e-12, abs=1e-12)
            assert (v.witness is None) == (alone.witness is None)
        return batch

    @pytest.mark.parametrize("slot", range(9))
    def test_clean_slices_match_alone(self, monkeypatch, slot):
        G = _nine_slots()[slot]
        batch = self._batch_and_alone(monkeypatch, G, certify_generator(G))
        assert len(batch) == 12
        assert all(v.verdict == "certified" and v.samples == 1 for v in batch)

    @pytest.mark.parametrize("slot", range(9))
    def test_refuted_slices_match_alone(self, monkeypatch, slot):
        G = _nine_slots()[slot]
        bad = shift_to_generator(G, 0.0, -(max(0.0, slack_probe(G)) + 1.0) / 0.25)
        batch = self._batch_and_alone(monkeypatch, bad, certify_generator(bad))
        assert len(batch) == 13
        assert any(v.verdict == "refuted" and v.witness is not None for v in batch)

    @pytest.mark.parametrize("slot", [0, 4, 8])
    def test_black_box_slices_match_alone(self, slot):
        # slices are read off exact line coefficients, which a black box
        # lacks: the batch refuses it, as each slice alone refuses a callable
        G = _nine_slots()[slot]
        bad = shift_to_generator(G, 0.0, -(max(0.0, slack_probe(G)) + 1.0) / 0.25)
        d = next(iter(G.space.sphere_sample(1, 0)))
        for M in (G, bad):
            box = BlackBox(M.space, M.eval_batch)
            with pytest.raises(ValueError, match="PolyMap"):
                restriction_agreement(box, verdict=certify_generator(M))
            with pytest.raises(ValueError, match="truncate it first"):
                certify_disc_generator(lambda z, box=box: box.eval_batch(z * d[None, :])[0])

    def test_one_phase_max_for_all_slices(self, count_calls):
        G = _nine_slots()[5]
        verdict = certify_generator(G, QUICK)
        calls = count_calls(certify, "_phase_max")
        report = restriction_agreement(G, v_count=6, verdict=verdict)
        assert report["directions"] == 6
        (args, kwargs), = calls
        assert args[0].shape == (6, G.degree + 1) and kwargs == {"every": True}


class TestUnitaryInvariance:
    def test_conjugated_generator_still_certifies(self, l2_2d):
        G = sample_generator(l2_2d, seed=3, degree=3)
        rng = np.random.default_rng(0)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U, _ = np.linalg.qr(M)
        GU = unitary_conjugate(G, U)
        assert certify_generator(GU, QUICK).verdict == "certified"

