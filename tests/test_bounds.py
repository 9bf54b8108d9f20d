"""Growth envelopes: the universal constants, both radial bounds, and the
stagewise inequality chain between measured suprema and the envelopes."""

import math

import numpy as np
import pytest

from hologen.bounds import (ALPHA, BETA, GrowthInputs, alpha_beta,
                            generator_certificate, growth_inputs_from,
                            majorant_line, rhs_coarse, rhs_sharp,
                            verify_growth_bound, verify_intermediate_chain)
from hologen.certify import (NotCertifiedError, PseudoDissipativityCertificate,
                             certify_generator, certify_pseudo_dissipative,
                             inverse_shift)
from hologen.numrange import (SearchBudget, _spread_starts, harris_constant,
                              sup_norm_on_sphere)
from hologen.polymaps import CallableMap, PolyMap, sample_generator
from hologen.spaces import NormedSpace

from conftest import identity_map, minus_identity, serial_spread_starts

E = math.e
LN2 = math.log(2.0)

STAGE_LABELS = ("shell_supremum", "triangle_split", "degree_aggregation",
                "coefficient_bounds", "affine_majorant", "series_envelope")


def manual_certificate(theta, a, b=0.0, epsilon=0.1):
    return PseudoDissipativityCertificate(
        "certified", theta, a, b, epsilon, np.zeros((0, 2)), 0, 0.0, None)


class TestUniversalConstants:
    def test_frozen_values(self):
        assert ALPHA == pytest.approx(3.7617244463516095, rel=1e-15)
        assert BETA == pytest.approx(3.2994145246747255, rel=1e-15)
        assert alpha_beta() == (ALPHA, BETA)

    def test_quadratic_vertex_forms_agree(self):
        # each coupling function is a downward parabola in r, so its maximum
        # has a second closed form through the vertex; both must coincide
        beta_vertex = E + (8.0 - 2.0 * E) ** 2 / (4.0 * (8.0 * LN2 - E))
        alpha_vertex = (1.0 + E) + (6.0 - 2.0 * E) ** 2 / (4.0 * (8.0 * LN2 - E - 1.0))
        assert BETA == pytest.approx(beta_vertex, rel=1e-14)
        assert ALPHA == pytest.approx(alpha_vertex, rel=1e-14)

    def test_dense_grid_maxima(self):
        # a half-million-point grid undershoots a parabola's peak by at most
        # curvature * step^2 / 8, which is far below the asserted window
        r = np.linspace(0.0, 1.0, 500_001)[1:-1]
        coupling = E * (1.0 - r) ** 2 + 8.0 * r * (1.0 - r * LN2)
        assert abs(float(np.max(coupling)) - BETA) < 1e-11
        assert abs(float(np.max(coupling + (1.0 - r) ** 2)) - ALPHA) < 1e-11

    def test_ordering(self):
        assert 1.0 < BETA < ALPHA < 4.0


class TestMajorantLine:
    def test_touches_degree_two_exactly(self):
        assert majorant_line(2) == 4.0
        assert harris_constant(2) == 4.0

    def test_dominates_degree_constants(self):
        js = np.arange(2, 33)
        gaps = majorant_line(js) - np.array([harris_constant(int(j)) for j in js])
        assert gaps[0] == 0.0
        assert np.all(gaps >= -1e-12)

    def test_scalar_and_array_forms(self):
        assert isinstance(majorant_line(3), float)
        out = majorant_line(np.array([2, 3, 4]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0.0)

    def test_slope_value(self):
        assert majorant_line(3) - majorant_line(2) == pytest.approx(
            4.0 * (1.0 - LN2), abs=1e-15)


class TestRhsSharp:
    def test_zero_radius(self):
        inp = GrowthInputs(0.3, 1.2, 0.7, 2.0, 1.5, -0.4)
        assert rhs_sharp(inp, 0.0) == 0.0

    def test_pure_linear_is_e_times_r(self):
        inp = GrowthInputs(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        for r in (0.1, 0.37, 0.5, 0.9):
            assert rhs_sharp(inp, r) == r * E

    def test_frozen_dissipative_identity_value(self):
        # vanishing center, unit radius, unit dissipation depth at r = 1/2
        inp = GrowthInputs(0.0, 0.0, 0.0, 1.0, 1.0, -1.0)
        assert rhs_sharp(inp, 0.5) == pytest.approx(6.586552191989741, abs=1e-14)
        assert rhs_sharp(inp, 0.5) == pytest.approx(E / 2.0 + 8.0 - 4.0 * LN2,
                                                    abs=1e-14)

    def test_positive_infimum_clamps_depth(self):
        expanding = GrowthInputs(0.0, 0.5, 0.3, 1.0, 1.0, 0.25)
        flat = GrowthInputs(0.0, 0.5, 0.3, 1.0, 1.0, 0.0)
        r = np.linspace(0.05, 0.95, 19)
        assert np.array_equal(rhs_sharp(expanding, r), rhs_sharp(flat, r))

    def test_monotone_in_radius(self):
        inp = GrowthInputs(1.0, -0.8, 0.4, 1.3, 1.9, -0.6)
        vals = rhs_sharp(inp, np.linspace(0.0, 0.99, 100))
        assert np.all(np.diff(vals) > 0.0)

    def test_domain_validation(self):
        inp = GrowthInputs(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="radii"):
            rhs_sharp(inp, 1.0)
        with pytest.raises(ValueError, match="radii"):
            rhs_sharp(inp, [-0.2, 0.5])

    def test_array_in_float_out(self):
        inp = GrowthInputs(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        assert isinstance(rhs_sharp(inp, 0.5), float)
        assert rhs_sharp(inp, np.array([0.1, 0.2])).shape == (2,)


class TestRhsCoarse:
    def test_frozen_unit_radius_value(self):
        inp = GrowthInputs(0.0, 0.0, 0.0, 1.0, 1.0, -1.0)
        assert rhs_coarse(inp, 0.5) == 2.0 * BETA
        assert rhs_coarse(inp, 0.5) == pytest.approx(6.598829049349451, abs=1e-14)

    def test_zero_radius(self):
        inp = GrowthInputs(0.0, 1.0, 1.0, 1.0, 1.0, -1.0)
        assert rhs_coarse(inp, 0.0) == 0.0

    def test_shift_enters_through_alpha(self):
        base = GrowthInputs(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        shifted = GrowthInputs(0.0, 2.0, 0.0, 1.0, 1.0, 0.0)
        r = 0.3
        assert rhs_coarse(shifted, r) - rhs_coarse(base, r) == pytest.approx(
            2.0 * ALPHA * r / (1.0 - r) ** 2, rel=1e-12)

    def test_domain_validation(self):
        inp = GrowthInputs(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="radii"):
            rhs_coarse(inp, 0.999999 + 1e-5)


class TestSharpBelowCoarse:
    def test_thousand_operator_consistent_inputs(self):
        # inputs measured from actual matrices satisfy V_A >= V_T - |a| and
        # depth <= V_T; under the stronger filtered hypotheses V_A >= V_T and
        # V_A >= -m_T the coarse envelope dominates the sharp one for every
        # radius, by the defining maximality of the two constants
        rng = np.random.default_rng(12345)
        B = 1000
        A = rng.standard_normal((B, 4, 4)) + 1j * rng.standard_normal((B, 4, 4))
        th = rng.uniform(0.0, 2.0 * math.pi, B)
        av = rng.uniform(-2.0, 2.0, B)
        th[::4] = 0.0
        av[::4] = 0.0
        cs = rng.uniform(0.0, 3.0, B)
        angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)

        def grid_radius(M):
            out = np.empty(M.shape[0])
            for s in range(0, M.shape[0], 100):
                blk = M[s:s + 100]
                ph = np.exp(1j * angles)[None, :, None, None]
                H = 0.5 * (ph * blk[:, None]
                           + np.conj(ph * blk[:, None]).swapaxes(-1, -2))
                out[s:s + 100] = np.linalg.eigvalsh(H)[..., -1].max(axis=1)
            return out

        VA = grid_radius(A)
        T = np.exp(1j * th)[:, None, None] * A - av[:, None, None] * np.eye(4)[None]
        VT = grid_radius(T)
        mT = np.linalg.eigvalsh(0.5 * (T + np.conj(T).swapaxes(-1, -2)))[:, 0]
        keep = (VA >= VT) & (VA >= -mT)
        # the i = 0 mod 4 rows have T = A, so they always survive the filter
        assert int(keep.sum()) >= 250
        rs = np.linspace(0.01, 0.99, 99)
        worst = math.inf
        for i in np.flatnonzero(keep):
            inp = GrowthInputs(float(th[i]), float(av[i]), float(cs[i]),
                               float(VA[i]), float(VT[i]), float(mT[i]))
            worst = min(worst, float(np.min(rhs_coarse(inp, rs) - rhs_sharp(inp, rs))))
        assert worst >= -1e-9


class TestGrowthInputsFrom:
    def test_contraction_canonical_inputs(self, l2_2d):
        G = minus_identity(l2_2d)
        cert = generator_certificate(G)
        inp = growth_inputs_from(G, cert)
        assert inp.theta == 0.0
        assert inp.a == 0.0
        assert inp.center_norm == 0.0
        assert inp.linear_radius == pytest.approx(1.0, abs=1e-12)
        assert inp.shifted_radius == pytest.approx(1.0, abs=1e-12)
        assert inp.shifted_range_inf == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_uncertified_certificate(self, l2_2d):
        G = minus_identity(l2_2d)
        bad = PseudoDissipativityCertificate(
            "refuted", 0.0, 0.0, 0.0, 0.1, np.zeros((0, 2)), 0, -1.0, None)
        with pytest.raises(NotCertifiedError, match="refuted"):
            growth_inputs_from(G, bad)

    def test_rejects_blackbox_map(self, l2_2d):
        F = CallableMap(l2_2d, lambda Z: -Z)
        with pytest.raises(ValueError, match="linear part"):
            growth_inputs_from(F, manual_certificate(0.0, 0.0))

    def test_shifted_part_of_certified_map_is_dissipative(self):
        # the rotated and shifted linear part inherits the generator's
        # non-expansion, so the measured infimum never clears zero
        for seed in range(5):
            n = (1, 2, 4)[seed % 3]
            p = (1.0, 2.0, math.inf)[(seed // 3) % 3]
            space = NormedSpace(n, p)
            G = sample_generator(space, seed=seed, degree=3)
            rng = np.random.default_rng([seed, 99])
            F = inverse_shift(G, float(rng.uniform(0.0, 2.0 * math.pi)),
                              float(rng.uniform(-2.0, 2.0)))
            cert = certify_pseudo_dissipative(F)
            assert cert.verdict == "certified"
            inp = growth_inputs_from(F, cert)
            assert inp.shifted_range_inf <= 1e-6
            assert inp.theta == cert.theta
            assert inp.a == cert.a


class TestGeneratorCertificate:
    def test_contraction(self, l2_2d):
        cert = generator_certificate(minus_identity(l2_2d))
        assert cert.verdict == "certified"
        assert cert.theta == 0.0
        assert cert.a == 0.0
        assert cert.b == 0.0
        assert cert.worst_slack >= 0.0

    def test_center_norm_is_the_budget(self):
        space = NormedSpace(2, 2.0)
        G = sample_generator(space, seed=7, degree=3)
        cert = generator_certificate(G)
        assert cert.b == pytest.approx(space.norm(G.constant), abs=1e-15)
        assert cert.worst_slack >= -1e-9

    def test_expansion_raises(self, l2_2d):
        with pytest.raises(NotCertifiedError, match="refuted"):
            generator_certificate(identity_map(l2_2d))


class TestVerifyGrowthBound:
    def test_contraction_report(self, l2_2d):
        rep = verify_growth_bound(minus_identity(l2_2d))
        assert not rep.violated
        assert np.array_equal(rep.lhs, rep.radii)
        assert rep.min_slack == pytest.approx(0.26374771686506604, abs=1e-9)
        assert np.all(rep.slack >= -1e-9)
        assert np.array_equal(rep.sharp, np.asarray(rhs_sharp(rep.inputs, rep.radii)))
        assert np.array_equal(rep.coarse, np.asarray(rhs_coarse(rep.inputs, rep.radii)))

    def test_centering_ignores_added_constant(self, l2_2d):
        rep0 = verify_growth_bound(minus_identity(l2_2d))
        Gc = PolyMap(l2_2d, constant=np.array([0.3, -0.4j]), linear=-np.eye(2),
                     higher=())
        repc = verify_growth_bound(Gc)
        assert np.allclose(repc.lhs, rep0.lhs, atol=1e-12)
        assert repc.inputs.center_norm == pytest.approx(0.5, abs=1e-15)
        assert not repc.violated

    def test_envelope_equality_case_sits_on_zero(self, l2_2d):
        # rotating the identity by pi and shifting by -1 yields the zero
        # generator, so the measured supremum equals |a| r exactly and the
        # slack collapses to roundoff
        rep = verify_growth_bound(identity_map(l2_2d),
                                  manual_certificate(math.pi, -1.0))
        assert not rep.violated
        assert -1e-12 <= rep.min_slack <= 1e-10

    def test_uncertifiable_map_raises_without_certificate(self, l2_2d):
        with pytest.raises(NotCertifiedError):
            verify_growth_bound(identity_map(l2_2d))

    def test_sampled_generators_stay_below_envelopes(self):
        for n, p, seed in ((1, 2.0, 3), (2, 1.0, 4), (2, math.inf, 5)):
            space = NormedSpace(n, p)
            G = sample_generator(space, seed=seed, degree=4)
            rep = verify_growth_bound(G)
            assert not rep.violated
            assert rep.min_slack >= -1e-9

    def test_pseudo_dissipative_map_with_its_certificate(self):
        space = NormedSpace(2, 2.0)
        G = sample_generator(space, seed=11, degree=3)
        F = inverse_shift(G, 1.1, 0.7)
        cert = certify_pseudo_dissipative(F)
        assert cert.verdict == "certified"
        rep = verify_growth_bound(F, cert)
        assert not rep.violated

    def test_radius_grid_validation(self, l2_2d):
        G = minus_identity(l2_2d)
        with pytest.raises(ValueError, match="radii"):
            verify_growth_bound(G, radii=[0.5, 1.0])
        with pytest.raises(ValueError, match="radii"):
            verify_growth_bound(G, radii=[-0.1])

    def test_nan_radius_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="radii"):
            verify_growth_bound(minus_identity(l2_2d), radii=[0.5, math.nan])

    def test_custom_radius_grid(self, l2_2d):
        rep = verify_growth_bound(minus_identity(l2_2d), radii=[0.25, 0.5])
        assert rep.radii.shape == (2,)
        assert rep.lhs == pytest.approx([0.25, 0.5], abs=1e-12)


class TestBatchedShells:
    """verify_growth_bound climbs every shell at once; each shell must match
    its own sup_norm_on_sphere search on stream salt 11 + i."""

    @pytest.mark.parametrize("dim, p", [(2, 1.0), (4, math.inf)])
    def test_lhs_matches_shell_by_shell_searches(self, dim, p):
        space = NormedSpace(dim, p)
        G = sample_generator(space, seed=3, degree=5)
        budget = SearchBudget(samples=512, refine_iters=80, starts=3, seed=2)
        radii = np.array([0.2, 0.45, 0.7, 0.95])
        rep = verify_growth_bound(G, radii=radii, budget=budget)
        F0 = G.constant
        for i, r in enumerate(radii):
            val, vmax = sup_norm_on_sphere(
                space, lambda V, _r=r: G.eval_batch(_r * V) - F0[None, :],
                budget, salt=11 + i)
            z = r * vmax
            lhs = space.norm(G.eval_batch(z[None, :])[0] - F0)
            assert rep.lhs[i] == (val if lhs < val - 1e-12 else lhs)
            assert rep.radii[i] == (r if lhs < val - 1e-12 else space.norm(z))

    @pytest.mark.parametrize("dim", (1, 2, 4))
    def test_vectorized_start_choice_matches_serial_loop(self, dim):
        # on dim 1 every point is within the phase gap of the leader, so the
        # serial loop compares all 4096 points before filling from the order
        space = NormedSpace(dim, 2.0)
        G = sample_generator(space, seed=6, degree=8)
        pts = space.sphere_sample(4096, 0)
        order = np.argsort(space.norm_batch(G.eval_batch(0.7 * pts)))[::-1]
        for count in (1, 4, 9):
            assert _spread_starts(pts, order, count) == serial_spread_starts(pts, order, count)


class TestIntermediateChain:
    def test_contraction_chain(self, l2_2d):
        rep = verify_intermediate_chain(minus_identity(l2_2d))
        assert rep.passed
        assert tuple(label for label, _ in rep.stages) == STAGE_LABELS
        assert np.all(rep.stage_margins >= -1e-9)
        # the coefficient-bounds and affine-majorant stages coincide for a
        # pure linear map: both reduce to e r V_T + 8 r^2 depth
        assert rep.stage_margins[3] == pytest.approx(0.0, abs=1e-13)
        # triangle split to aggregation gains r (e - 1) V_T, smallest at r = 0.1
        assert rep.stage_margins[1] == pytest.approx(0.1 * (E - 1.0), abs=1e-9)
        assert rep.coefficient_margins["linear_dissipation"] == pytest.approx(
            1.0, abs=1e-12)
        assert rep.coefficient_margins["linear_radius"] == pytest.approx(
            E - 1.0, abs=1e-9)
        assert rep.concavity_margins[0] == 0.0
        assert np.all(rep.concavity_margins >= 0.0)

    def test_stages_share_the_radius_grid(self, l2_2d):
        rep = verify_intermediate_chain(minus_identity(l2_2d), radii=[0.2, 0.4])
        assert np.array_equal(rep.radii, [0.2, 0.4])
        for _, values in rep.stages:
            assert values.shape == (2,)

    def test_sampled_generator_chains(self):
        for n, p, seed in ((1, 2.0, 0), (2, 1.0, 1), (2, math.inf, 2), (4, 2.0, 3)):
            space = NormedSpace(n, p)
            G = sample_generator(space, seed=seed, degree=5)
            rep = verify_intermediate_chain(G)
            assert rep.passed, (n, p, seed, rep.stage_margins,
                                rep.coefficient_margins)
            assert np.all(rep.stage_margins >= -1e-9)
            for key, margin in rep.coefficient_margins.items():
                assert margin >= -1e-8, (key, margin)

    def test_precomputed_verdict_is_accepted(self, l2_2d):
        G = minus_identity(l2_2d)
        rep = verify_intermediate_chain(G, verdict=certify_generator(G))
        assert rep.passed

    def test_uncertified_map_raises(self, l2_2d):
        with pytest.raises(NotCertifiedError, match="refuted"):
            verify_intermediate_chain(identity_map(l2_2d))

    def test_blackbox_map_raises(self, l2_2d):
        F = CallableMap(l2_2d, lambda Z: -Z)
        with pytest.raises(ValueError, match="polynomial"):
            verify_intermediate_chain(F)

    def test_nan_radius_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="radii"):
            verify_intermediate_chain(minus_identity(l2_2d), radii=[math.nan])
