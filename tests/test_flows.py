"""Flow integration, semigroup consistency, ball-invariance sweeps, and the
discrete invariant-ball probe."""

import csv
import io
import math

import numpy as np
import pytest

from hologen.flows import (BallEscapeError, FlowStopError, StepUnderflowError, Trajectory,
                           check_semigroup, flow_endpoint, integrate,
                           invariance_sweep, invariant_ball_probe,
                           trajectory_to_csv)
from hologen.polymaps import CallableMap, HomogeneousPoly, PolyMap, sample_generator
from hologen.spaces import NormedSpace

from conftest import identity_map, minus_identity


class TestIntegrate:
    def test_linear_decay_matches_exponential(self, l2_2d):
        z0 = np.array([0.3 + 0.2j, -0.4j])
        end = flow_endpoint(minus_identity(l2_2d), z0, 1.0)
        assert l2_2d.norm(end - z0 * math.exp(-1.0)) <= 1e-8

    def test_decay_in_other_norms(self):
        z0 = np.array([0.5 + 0.1j, -0.3j])
        for p in (1.0, math.inf):
            space = NormedSpace(2, p)
            end = flow_endpoint(minus_identity(space), z0, 0.8)
            assert space.norm(end - z0 * math.exp(-0.8)) <= 1e-8

    def test_riccati_drift_flows_to_tanh(self):
        # dz/dt = 1 - z^2 from the origin is z(t) = tanh t
        space = NormedSpace(1, 2.0)
        G = PolyMap(space, np.array([1.0]), np.zeros((1, 1)),
                    (HomogeneousPoly(2, np.array([[2]]), np.array([[-1.0]])),))
        end = flow_endpoint(G, np.array([0.0j]), 2.0)
        assert abs(end[0] - math.tanh(2.0)) <= 1e-8

    def test_zero_drift_is_constant(self, l2_2d):
        G = PolyMap(l2_2d, np.zeros(2), np.zeros((2, 2)), ())
        z0 = np.array([0.2 + 0.1j, 0.6j])
        traj = integrate(G, z0, 5.0)
        assert np.allclose(traj.points, z0[None, :], rtol=0.0, atol=1e-12)

    def test_trivial_horizon(self, l2_2d):
        z0 = np.array([0.1 + 0.0j, 0.2j])
        traj = integrate(minus_identity(l2_2d), z0, 0.0)
        assert traj.times.shape == (1,)
        assert np.array_equal(traj.points[0], z0)
        assert traj.step_stats.accepted == 0
        assert traj.step_stats.rejected == 0

    def test_trajectory_bookkeeping(self, l2_2d):
        traj = integrate(minus_identity(l2_2d), np.array([0.4 + 0.2j, -0.1j]), 1.5)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[-1] == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(traj.norms, l2_2d.norm_batch(traj.points),
                           rtol=0.0, atol=1e-15)
        assert traj.step_stats.accepted + 1 == traj.times.size
        assert 0.0 < traj.step_stats.min_dt <= traj.step_stats.max_dt

    def test_tolerance_scaling(self, l2_2d):
        z0 = np.array([0.3 + 0.2j, -0.4j])
        exact = z0 * math.exp(-1.0)
        G = minus_identity(l2_2d)
        loose = l2_2d.norm(flow_endpoint(G, z0, 1.0, rtol=1e-4) - exact)
        tight = l2_2d.norm(flow_endpoint(G, z0, 1.0, rtol=1e-10) - exact)
        assert loose <= 1e-6
        assert tight <= 1e-10
        assert tight < loose

    def test_expansion_escapes_at_log_reciprocal_radius(self, l2_2d):
        z0 = np.array([0.5 + 0.0j, 0.0j])
        with pytest.raises(BallEscapeError) as info:
            integrate(identity_map(l2_2d), z0, 2.0)
        exc = info.value
        assert abs(exc.time - math.log(2.0)) < 0.1
        assert l2_2d.norm(exc.state) >= 1.0 - 1e-12
        assert isinstance(exc, FlowStopError)
        assert str(exc) == f"trajectory left the open unit ball at t = {exc.time:.6g}"
        assert isinstance(exc.trajectory, Trajectory)
        assert exc.trajectory.norms[-1] < 1.0
        assert np.all(exc.trajectory.norms < 1.0)

    def test_discontinuous_drift_underflows(self):
        # opposing megascale pulls across a line trap the controller in
        # rejects until the step collapses
        space = NormedSpace(1, 2.0)
        G = CallableMap(space, lambda Z: np.where(Z.real < 0.1, 1.0, -1.0) * 1e8)
        with pytest.raises(StepUnderflowError) as info:
            integrate(G, np.array([0.0j]), 1.0)
        assert isinstance(info.value, FlowStopError)
        assert str(info.value) == f"step size underflow at t = {info.value.time:.6g}"
        assert isinstance(info.value.trajectory, Trajectory)

    def test_step_cap(self, l2_2d):
        with pytest.raises(RuntimeError, match="exceeded"):
            integrate(minus_identity(l2_2d), np.array([0.1j, 0.0j]), 1e6,
                      max_steps=10)

    def test_domain_validation(self, l2_2d):
        G = minus_identity(l2_2d)
        with pytest.raises(ValueError, match="open unit ball"):
            integrate(G, np.array([1.0 + 0.0j, 0.0j]), 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            integrate(G, np.array([0.1j, 0.0j]), -0.5)

    def test_nan_horizon_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="nonnegative"):
            integrate(minus_identity(l2_2d), np.array([0.1j, 0.0j]), math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, l2_2d, bad):
        with pytest.raises(ValueError, match="open unit ball"):
            integrate(minus_identity(l2_2d), np.array([bad, 0.0]), 1.0)

    def test_sampled_generator_stays_inside(self):
        space = NormedSpace(2, 2.0)
        G = sample_generator(space, seed=5, degree=3)
        traj = integrate(G, np.array([0.5 + 0.3j, -0.4 + 0.2j]), 4.0)
        assert np.all(traj.norms < 1.0)


class TestSemigroup:
    def test_linear_decay(self, l2_2d):
        out = check_semigroup(minus_identity(l2_2d),
                              np.array([0.4 + 0.1j, -0.2j]), 0.7, 0.5)
        assert out["passed"]
        assert out["difference"] <= 1e-9
        assert out["tolerance"] == pytest.approx(1e-8)

    def test_zero_first_leg_is_exact(self, l2_2d):
        out = check_semigroup(minus_identity(l2_2d),
                              np.array([0.4 + 0.1j, -0.2j]), 0.0, 0.5)
        assert out["difference"] == 0.0
        assert out["passed"]

    def test_sampled_generator(self):
        space = NormedSpace(2, 2.0)
        G = sample_generator(space, seed=3, degree=3)
        out = check_semigroup(G, np.array([0.3 + 0.2j, 0.1 - 0.4j]), 1.0, 0.75)
        assert out["passed"]

    def test_negative_times_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="nonnegative"):
            check_semigroup(minus_identity(l2_2d), np.array([0.1j, 0.0j]), -1.0, 0.5)

    def test_nan_time_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="nonnegative"):
            check_semigroup(minus_identity(l2_2d), np.array([0.1j, 0.0j]), math.nan, 0.5)


class TestInvarianceSweep:
    def test_contraction_never_escapes(self, l2_2d):
        out = invariance_sweep(minus_identity(l2_2d), starts=16, t_end=2.0)
        assert out["passed"]
        assert out["escapes"] == []
        assert out["max_norm"] < 0.95

    def test_sampled_generator_never_escapes(self):
        space = NormedSpace(2, 2.0)
        G = sample_generator(space, seed=5, degree=3)
        out = invariance_sweep(G, starts=8, t_end=3.0)
        assert out["passed"]

    def test_expansion_records_escapes(self, l2_2d):
        out = invariance_sweep(identity_map(l2_2d), starts=6, t_end=4.0,
                               max_start_norm=0.5)
        assert not out["passed"]
        assert len(out["escapes"]) == 6
        for rec in out["escapes"]:
            assert set(rec) == {"start_index", "time", "state"}
            assert rec["time"] > 0.0

    def test_determinism(self, l2_2d):
        a = invariance_sweep(minus_identity(l2_2d), starts=8, t_end=1.0, seed=4)
        b = invariance_sweep(minus_identity(l2_2d), starts=8, t_end=1.0, seed=4)
        assert a == b

    def test_start_count_validation(self, l2_2d):
        with pytest.raises(ValueError, match="starts"):
            invariance_sweep(minus_identity(l2_2d), starts=0)

    def test_nan_horizon_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="nonnegative"):
            invariance_sweep(minus_identity(l2_2d), starts=2, t_end=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, 1.0, 0.0])
    def test_start_norm_must_lie_in_the_open_ball(self, l2_2d, bad):
        with pytest.raises(ValueError, match="max_start_norm"):
            invariance_sweep(minus_identity(l2_2d), starts=2, t_end=1.0, max_start_norm=bad)


class TestInvariantBallProbe:
    def test_halving_map_keeps_every_radius(self, l2_2d):
        F = PolyMap(l2_2d, np.zeros(2), 0.5 * np.eye(2), ())
        out = invariant_ball_probe(F, math.pi, -0.5)
        assert out["verdict"] == "found"
        assert out["smallest_invariant_radius"] == 0.1
        assert all(rec["invariant"] for rec in out["radii"])
        # the probe matrix e^(i pi) A + A vanishes, so every power does too
        assert out["power_bounded"]
        assert out["power_norm_sup"] <= 1e-12

    def test_quadratic_perturbation_still_found(self, l2_2d):
        F = PolyMap(l2_2d, np.zeros(2), 0.5 * np.eye(2),
                    (HomogeneousPoly(2, np.array([[0, 2]]),
                                     np.array([[0.125, 0.0]])),))
        out = invariant_ball_probe(F, math.pi, -0.5)
        assert out["verdict"] == "found"
        assert out["smallest_invariant_radius"] == 0.1

    def test_doubling_map_finds_nothing(self, l2_2d):
        F = PolyMap(l2_2d, np.zeros(2), 2.0 * np.eye(2), ())
        out = invariant_ball_probe(F, 0.0, 0.0)
        assert out["verdict"] == "none-found"
        assert out["smallest_invariant_radius"] is None
        assert not out["power_bounded"]
        assert not any(rec["invariant"] for rec in out["radii"])

    def test_custom_radius_grid(self, l2_2d):
        F = PolyMap(l2_2d, np.zeros(2), 0.5 * np.eye(2), ())
        out = invariant_ball_probe(F, math.pi, -0.5, radius_grid=[0.3, 0.6])
        assert [rec["r"] for rec in out["radii"]] == [0.3, 0.6]
        assert out["smallest_invariant_radius"] == 0.3

    def test_validation(self, l2_2d):
        F = PolyMap(l2_2d, np.array([0.1, 0.0]), 0.5 * np.eye(2), ())
        with pytest.raises(ValueError, match="F\\(0\\) = 0"):
            invariant_ball_probe(F, 0.0, 0.0)
        G = PolyMap(l2_2d, np.zeros(2), 0.5 * np.eye(2), ())
        with pytest.raises(ValueError, match="radii"):
            invariant_ball_probe(G, 0.0, 0.0, radius_grid=[0.5, 1.0])

    def test_nan_radius_rejected(self, l2_2d):
        G = PolyMap(l2_2d, np.zeros(2), 0.5 * np.eye(2), ())
        with pytest.raises(ValueError, match="radii"):
            invariant_ball_probe(G, 0.0, 0.0, radius_grid=[0.5, math.nan])


class TestTrajectoryCsv:
    def test_header_and_round_trip(self, l2_2d):
        traj = integrate(minus_identity(l2_2d), np.array([0.3 + 0.2j, -0.4j]), 0.5)
        text = trajectory_to_csv(traj)
        assert text.endswith("\n")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "re(z_1)", "im(z_1)", "re(z_2)", "im(z_2)", "norm"]
        assert len(rows) == traj.times.size + 1
        for i, row in enumerate(rows[1:]):
            vals = [float(x) for x in row]
            assert vals[0] == pytest.approx(traj.times[i], abs=1e-10)
            z = np.array([vals[1] + 1j * vals[2], vals[3] + 1j * vals[4]])
            assert l2_2d.norm(z - traj.points[i]) <= 1e-9
            assert vals[5] == pytest.approx(traj.norms[i], abs=1e-10)
