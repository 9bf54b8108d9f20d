"""Acceptance gate: the eight primary criteria, each printing one line.

Every test checks its stated tolerances and its runtime cap, and prints a
single PASS or FAIL line naming the criterion.
"""

import math
import time

import numpy as np
import pytest

from hologen.bounds import alpha_beta, verify_growth_bound, verify_intermediate_chain
from hologen.certify import (NotCertifiedError, caratheodory_check,
                             certify_generator, certify_pseudo_dissipative,
                             generator_slack, inverse_shift,
                             linear_dissipation_check, restriction_agreement,
                             shift_to_generator)
from hologen.flows import check_semigroup, flow_endpoint, invariance_sweep
from hologen.numrange import harris_constant, numerical_radius, numerical_range_inf
from hologen.polymaps import (DiscFunction, HomogeneousPoly, PolyMap,
                              herglotz_sample, sample_generator)
from hologen.spaces import NormedSpace

from conftest import identity_map, minus_identity

DIMS = (1, 2, 4)
PS = (1.0, 2.0, math.inf)


def standard_generator(seed):
    space = NormedSpace(DIMS[seed % 3], PS[(seed // 3) % 3])
    return sample_generator(space, seed=seed, degree=2 + seed % 7)


def report(num, name, failures, detail, elapsed, cap):
    ok = not failures
    status = "PASS" if ok else "FAIL"
    line = (f"criterion {num} ({name}): {status} - {detail} "
            f"[{elapsed:.1f}s of {cap:.0f}s cap]")
    print(line, flush=True)
    assert ok, f"{line}; failures: {failures[:5]}"
    assert elapsed < cap, line


@pytest.mark.acceptance
class TestAcceptance:
    def test_criterion_1_universal_constants(self):
        t0 = time.monotonic()
        failures = []
        alpha, beta = alpha_beta()
        if not 3.76 < alpha < 3.8:
            failures.append(f"alpha {alpha}")
        if not 3.29 < beta < 3.3:
            failures.append(f"beta {beta}")
        for m, expected in ((1, math.e), (2, 4.0), (3, 3.0 ** 1.5)):
            got = harris_constant(m)
            if abs(got - expected) > 1e-15 * expected:
                failures.append(f"degree-{m} constant {got} vs {expected}")
        report(1, "universal constants", failures,
               f"alpha={alpha:.6f} beta={beta:.6f}", time.monotonic() - t0, 5.0)

    def test_criterion_2_oracle_equivalence(self):
        t0 = time.monotonic()
        failures = []
        space = NormedSpace(4, 2.0)
        rng = np.random.default_rng(20240)
        phis = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
        worst_m = 0.0
        worst_v = 0.0
        for k in range(100):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m_exact = float(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0])
            H = 0.5 * (np.exp(1j * phis)[:, None, None] * A[None]
                       + np.exp(-1j * phis)[:, None, None] * A.conj().T[None])
            v_grid = float(np.linalg.eigvalsh(H)[:, -1].max())
            m_got = numerical_range_inf(space, A).value
            v_got = numerical_radius(space, A).value
            worst_m = max(worst_m, abs(m_got - m_exact))
            worst_v = max(worst_v, abs(v_got - v_grid))
            if abs(m_got - m_exact) > 1e-6:
                failures.append(f"matrix {k}: infimum off by {abs(m_got - m_exact):.2e}")
            if abs(v_got - v_grid) > 1e-4:
                failures.append(f"matrix {k}: radius off by {abs(v_got - v_grid):.2e}")
        report(2, "range oracles on 100 matrices", failures,
               f"worst infimum gap {worst_m:.2e}, worst radius gap {worst_v:.2e}",
               time.monotonic() - t0, 30.0)

    def test_criterion_3_certificate_round_trip(self):
        t0 = time.monotonic()
        failures = []
        refutations = 0
        for seed in range(100):
            G = standard_generator(seed)
            rng = np.random.default_rng([seed, 1311])
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            a = float(rng.uniform(-2.0, 2.0))
            F = inverse_shift(G, theta, a)
            cert = certify_pseudo_dissipative(F)
            if cert.verdict != "certified":
                failures.append(f"seed {seed}: {cert.verdict}")
                continue
            back = certify_generator(shift_to_generator(F, cert.theta, cert.a),
                                     tolerance=1e-9)
            if back.verdict == "refuted":
                refutations += 1
            if back.verdict != "certified":
                failures.append(f"seed {seed}: round trip {back.verdict} "
                                f"worst {back.worst_slack:.2e}")
        report(3, "round trip on 100 lifted generators", failures,
               f"all certified, {refutations} refutations",
               time.monotonic() - t0, 120.0)

    def test_criterion_4_growth_bounds(self):
        t0 = time.monotonic()
        failures = []
        worst = math.inf
        for seed in range(100):
            rep = verify_growth_bound(standard_generator(seed))
            worst = min(worst, rep.min_slack)
            if rep.min_slack < -1e-9 or rep.violated:
                failures.append(f"seed {seed}: min_slack {rep.min_slack:.2e}")
        refused_early = False
        try:
            verify_growth_bound(identity_map(NormedSpace(2, 2.0)))
        except NotCertifiedError:
            refused_early = True
        if not refused_early:
            failures.append("expanding drift reached the bound stage")
        report(4, "growth bounds on 100 generators", failures,
               f"worst min_slack {worst:.2e}, expansion refuted before bounding",
               time.monotonic() - t0, 300.0)

    def test_criterion_5_intermediate_chain(self):
        t0 = time.monotonic()
        failures = []
        worst_stage = math.inf
        touch = -math.inf
        for seed in range(100):
            rep = verify_intermediate_chain(standard_generator(seed))
            worst_stage = min(worst_stage, float(np.min(rep.stage_margins)))
            touch = max(touch, float(rep.concavity_margins[0]))
            if not rep.passed:
                failures.append(f"seed {seed}: margins {rep.stage_margins}")
            if np.any(rep.concavity_margins < -1e-12):
                failures.append(f"seed {seed}: concavity {rep.concavity_margins.min()}")
            if not 0.0 <= rep.concavity_margins[0] <= 1e-12:
                failures.append(f"seed {seed}: degree-2 touch {rep.concavity_margins[0]}")
        report(5, "intermediate chain on 100 generators", failures,
               f"worst stage margin {worst_stage:.2e}, degree-2 touch {touch:.1e}",
               time.monotonic() - t0, 180.0)

    def test_criterion_6_coefficient_checks(self):
        t0 = time.monotonic()
        failures = []
        for seed in range(100):
            G = standard_generator(seed)
            ld = linear_dissipation_check(G, seed=seed)
            if not ld["passed"] or ld["max_linear_dissipation"] > 1e-8:
                failures.append(f"seed {seed}: dissipation {ld['max_linear_dissipation']:.2e}")
            car = caratheodory_check(herglotz_sample(seed), order=16)
            if car["violations"] != 0 or not car["passed"]:
                failures.append(f"seed {seed}: {car['violations']} coefficient violations")
        extremal = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        rep = caratheodory_check(extremal, order=16)
        mags = np.asarray(rep["coefficient_magnitudes"])
        if np.max(np.abs(mags - rep["bound"])) > 1e-8:
            failures.append(f"equality case missed by {np.max(np.abs(mags - rep['bound'])):.2e}")
        report(6, "coefficient checks over 100 seeds", failures,
               "zero violations at 1e-8, equality case attained",
               time.monotonic() - t0, 60.0)

    def test_criterion_7_flows(self):
        t0 = time.monotonic()
        failures = []
        space = NormedSpace(2, 2.0)
        z0 = np.array([0.3 + 0.2j, -0.4j])
        for t in (1.0, 2.0):
            end = flow_endpoint(minus_identity(space), z0, t, rtol=1e-9)
            err = space.norm(end - z0 * math.exp(-t))
            if err > 1e-8:
                failures.append(f"decay at t={t}: {err:.2e}")
        line = NormedSpace(1, 2.0)
        riccati = PolyMap(line, np.array([1.0]), np.zeros((1, 1)),
                          (HomogeneousPoly(2, np.array([[2]]), np.array([[-1.0]])),))
        err = abs(flow_endpoint(riccati, np.array([0.0j]), 2.0, rtol=1e-9)[0]
                  - math.tanh(2.0))
        if err > 1e-8:
            failures.append(f"odd-symmetric drift at t=2: {err:.2e}")
        escapes = 0
        for seed in range(100):
            sweep = invariance_sweep(standard_generator(seed), starts=20,
                                     t_end=10.0, seed=seed)
            escapes += len(sweep["escapes"])
            if not sweep["passed"]:
                failures.append(f"seed {seed}: {len(sweep['escapes'])} escapes, "
                                f"max norm {sweep['max_norm']:.4f}")
        rng = np.random.default_rng(777)
        for case in range(50):
            G = standard_generator(case % 20)
            d = G.space.sphere_sample(1, case)[0]
            start = float(rng.uniform(0.1, 0.8)) * d
            out = check_semigroup(G, start, float(rng.uniform(0.1, 2.0)),
                                  float(rng.uniform(0.1, 2.0)), rtol=1e-8)
            if out["tolerance"] != pytest.approx(1e-7) or not out["passed"]:
                failures.append(f"case {case}: difference {out['difference']:.2e}")
        report(7, "flow integration", failures,
               f"closed forms within 1e-8, {escapes} escapes, semigroup at 1e-7",
               time.monotonic() - t0, 300.0)

    def test_criterion_8_restriction_agreement(self):
        t0 = time.monotonic()
        failures = []
        certified = 0
        refuted = 0
        for seed in range(25):
            G = standard_generator(seed)
            out = restriction_agreement(G)
            if out["ball_verdict"] == "certified":
                certified += 1
            if not out["agree"]:
                failures.append(f"seed {seed}: ball {out['ball_verdict']} vs "
                                f"discs {set(out['disc_verdicts'])}")
            space = G.space
            shells = np.array([0.5, 0.9])
            V = space.sphere_sample(32, seed)
            probe = (shells[:, None, None] * V[None, :, :]).reshape(-1, space.dim)
            kappa = (max(0.0, float(np.max(generator_slack(G, probe)))) + 1.0) / 0.25
            bad = shift_to_generator(G, 0.0, -kappa)
            out_bad = restriction_agreement(bad)
            if out_bad["ball_verdict"] == "refuted":
                refuted += 1
            if not out_bad["agree"]:
                failures.append(f"seed {seed}: perturbed ball {out_bad['ball_verdict']} "
                                f"vs discs {set(out_bad['disc_verdicts'])}")
        if certified != 25:
            failures.append(f"only {certified} of 25 clean maps certified")
        if refuted != 25:
            failures.append(f"only {refuted} of 25 perturbed maps refuted")
        report(8, "ball vs disc agreement on 50 maps", failures,
               f"{certified} certified + {refuted} refuted, all agree",
               time.monotonic() - t0, 120.0)
