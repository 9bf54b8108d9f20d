"""Flow integration, semigroup consistency and ball-invariance sweeps."""

import csv
import io
import math

import numpy as np
import pytest

from hologen.flows import (_START_SALT, BallEscapeError, FlowStopError, StepStats,
                           StepUnderflowError, Trajectory, _integrate_rows, check_semigroup, flow_endpoint,
                           integrate, invariance_sweep, trajectory_to_csv)
from hologen.polymaps import HomogeneousPoly, PolyMap, _pairs, sample_generator
from hologen.spaces import NormedSpace

from conftest import BlackBox, identity_map, minus_identity


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
        G = BlackBox(space, lambda Z: np.where(Z.real < 0.1, 1.0, -1.0) * 1e8)
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

    def test_infinite_horizon_rejected(self, l2_2d):
        # the step loop compared against t_end - inf = NaN and never ran, so
        # the expanding identity "completed" at its start point
        with pytest.raises(ValueError, match="finite"):
            integrate(identity_map(l2_2d), np.array([0.5 + 0.0j, 0.0j]), math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, l2_2d, bad):
        with pytest.raises(ValueError, match="open unit ball"):
            integrate(minus_identity(l2_2d), np.array([bad, 0.0]), 1.0)

    def test_retried_step_opens_with_the_drift_at_its_start(self):
        # after a rejected step the next trial must start from G(z), not from
        # the drift at the rejected endpoint; reusing that stale drift left
        # the tanh flow 5.2e-9 off after 54 accepted and 6 rejected steps
        space = NormedSpace(1, 2.0)
        G = PolyMap(space, np.array([1.0]), np.zeros((1, 1)),
                    (HomogeneousPoly(2, np.array([[2]]), np.array([[-1.0]])),))
        traj = integrate(G, np.array([0.0j]), 2.0, rtol=1e-9)
        assert traj.step_stats.rejected >= 1
        assert abs(traj.points[-1][0] - math.tanh(2.0)) <= 1e-9

    def test_sampled_generator_stays_inside(self):
        space = NormedSpace(2, 2.0)
        G = sample_generator(space, seed=5, degree=3)
        traj = integrate(G, np.array([0.5 + 0.3j, -0.4 + 0.2j]), 4.0)
        assert np.all(traj.norms < 1.0)


class TestNonFiniteDrift:
    """A drift that turns NaN or infinite outside |z_j| <= 0.3 must end in a
    step underflow: Python's min and max drop a NaN error ratio, so every
    reject shrinks the step by 0.2 instead of leaving it NaN."""

    @staticmethod
    def drift(space, bad):
        return BlackBox(space, lambda Z: np.where(np.abs(Z) > 0.3, bad, -Z))

    def test_nan_drift_underflows_after_21_rejects(self, l2_2d):
        with pytest.raises(StepUnderflowError) as info:
            integrate(self.drift(l2_2d, math.nan), np.array([0.5, 0.0]), 1.0)
        stats = info.value.trajectory.step_stats
        assert info.value.time == 0.0
        assert (stats.accepted, stats.rejected) == (0, 21)

    def test_infinite_drift_underflows_at_once(self, l2_2d):
        # an infinite first drift sets the first step to 1e-2 / inf = 0
        with pytest.raises(StepUnderflowError) as info:
            integrate(self.drift(l2_2d, math.inf), np.array([0.5, 0.0]), 1.0)
        stats = info.value.trajectory.step_stats
        assert info.value.time == 0.0
        assert (stats.accepted, stats.rejected) == (0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sweep_underflows(self, l2_2d, bad):
        with pytest.raises(StepUnderflowError):
            invariance_sweep(self.drift(l2_2d, bad), starts=3, t_end=1.0)


def sweep_starts(space, starts, seed=0, max_start_norm=0.95):
    """The start points `invariance_sweep` draws for these arguments."""
    dirs = space.sphere_sample(starts, seed)
    radii = np.random.default_rng([seed, _START_SALT]).uniform(0.05, max_start_norm, starts)
    return [radii[i] * dirs[i] for i in range(starts)]


def serial_outcome(G, z0, t_end, rtol=1e-7, max_steps=200000):
    try:
        return integrate(G, z0, t_end, rtol, max_steps)
    except (FlowStopError, RuntimeError) as exc:
        return exc


class TestBatchedRows:
    """Rows of one batch step, stop and report as `integrate` does alone."""

    def test_escapes_match_integrate_in_start_order(self, l2_2d):
        G = identity_map(l2_2d)
        out = invariance_sweep(G, starts=6, t_end=4.0, max_start_norm=0.5)
        starts = sweep_starts(l2_2d, 6, max_start_norm=0.5)
        assert [rec["start_index"] for rec in out["escapes"]] == list(range(6))
        for rec, z0 in zip(out["escapes"], starts):
            exc = serial_outcome(G, z0, 4.0)
            assert isinstance(exc, BallEscapeError)
            assert rec["time"] == exc.time
            assert rec["state"] == _pairs(exc.state)

    def test_lowest_indexed_underflow_is_raised(self):
        # right half plane: z' = z escapes; left half plane: z' = -z decays
        # until a stage lands inside |z| < 0.3, where the drift is NaN
        line = NormedSpace(1, 2.0)
        G = BlackBox(line, lambda Z: np.where(
            Z.real > 0.0, Z, np.where(np.abs(Z) < 0.3, np.nan, -Z)))
        serial = [serial_outcome(G, z0, 4.0) for z0 in sweep_starts(line, 6)]
        kinds = [type(out).__name__ for out in serial]
        assert kinds[:3] == ["BallEscapeError", "StepUnderflowError", "StepUnderflowError"]
        # start 2 stops in fewer steps, so it leaves the batch before start 1
        steps = [out.trajectory.step_stats for out in serial[1:3]]
        assert steps[1].accepted + steps[1].rejected < steps[0].accepted + steps[0].rejected
        with pytest.raises(StepUnderflowError) as info:
            invariance_sweep(G, starts=6, t_end=4.0)
        assert info.value.time == serial[1].time
        assert np.array_equal(info.value.state, serial[1].state)
        assert info.value.trajectory.step_stats == serial[1].trajectory.step_stats

    def test_step_cap_is_per_row(self, l2_2d):
        G = minus_identity(l2_2d)
        z0 = np.array([0.1j, 0.0j])
        capped, short = _integrate_rows(G, [z0, z0], [1e6, 1e-3], 1e-9, max_steps=10)
        assert isinstance(capped, RuntimeError)
        assert str(capped) == "integration exceeded 10 steps"
        alone = integrate(G, z0, 1e-3, max_steps=10)
        assert short.step_stats == alone.step_stats
        assert np.array_equal(short.points, alone.points)

    def test_sweep_evaluates_each_stage_once_per_pass(self, count_calls):
        G = sample_generator(NormedSpace(2, 2.0), seed=5, degree=3)
        steps = []
        for z0 in sweep_starts(G.space, 8):
            stats = integrate(G, z0, 3.0, 1e-7).step_stats
            steps.append(stats.accepted + stats.rejected)
        calls = count_calls(PolyMap, "eval_batch")
        assert invariance_sweep(G, starts=8, t_end=3.0)["passed"]
        # one batch for the first drifts, then six stages per pass; the
        # rows are those of eight serial integrations
        assert len(calls) == 1 + 6 * max(steps)
        assert sum(args[1].shape[0] for args, _ in calls) == 8 + 6 * sum(steps)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_rows_step_as_integrate_does(self, p):
        for dim in (1, 2, 4):
            G = sample_generator(NormedSpace(dim, p), seed=5, degree=3)
            starts = sweep_starts(G.space, 8)
            rows = _integrate_rows(G, starts, [3.0] * 8, 1e-7)
            for z0, row in zip(starts, rows):
                alone = integrate(G, z0, 3.0, 1e-7)
                assert row.step_stats.accepted == alone.step_stats.accepted
                assert row.step_stats.rejected == alone.step_stats.rejected
                assert np.array_equal(row.times, alone.times)
                assert np.array_equal(row.points, alone.points)


def steps(traj):
    return traj.step_stats.accepted + traj.step_stats.rejected


class TestRelayRows:
    """A relay row starts where its row ends and steps as `integrate` alone."""

    def test_zero_first_leg_starts_the_relay_at_the_start(self, l2_2d):
        G = minus_identity(l2_2d)
        z0 = np.array([0.4 + 0.1j, -0.2j])
        first, relay = _integrate_rows(G, [z0], [0.0], 1e-9, relays=[0.5])
        alone = integrate(G, z0, 0.5)
        assert np.array_equal(first.points, z0[None, :])
        assert relay.step_stats == alone.step_stats
        assert np.array_equal(relay.times, alone.times)
        assert np.array_equal(relay.points, alone.points)

    def test_zero_relay_horizon_is_one_node(self, l2_2d, count_calls):
        G = minus_identity(l2_2d)
        z0 = np.array([0.4 + 0.1j, -0.2j])
        alone = integrate(G, z0, 0.7)
        calls = count_calls(PolyMap, "eval_batch")
        first, relay = _integrate_rows(G, [z0], [0.7], 1e-9, relays=[0.0])
        assert len(calls) == 1 + 6 * steps(alone)
        assert np.array_equal(first.points, alone.points)
        assert relay.times.tolist() == [0.0]
        assert np.array_equal(relay.points, alone.points[-1:])
        assert relay.step_stats == StepStats(0, 0, 0.0, 0.0)

    def test_stopped_row_starts_no_relay(self, l2_2d, count_calls):
        G = identity_map(l2_2d)
        z0 = np.array([0.5 + 0.0j, 0.0j])
        alone = serial_outcome(G, z0, 2.0, rtol=1e-9)
        calls = count_calls(PolyMap, "eval_batch")
        first, relay = _integrate_rows(G, [z0], [2.0], 1e-9, relays=[0.5])
        assert isinstance(first, BallEscapeError)
        assert first.time == alone.time
        assert relay is None
        assert len(calls) == 1 + 6 * steps(alone.trajectory)

    def test_direct_leg_escape_is_raised_as_alone(self, l2_2d):
        # every leg escapes but the first: the relay from e^0.3 z0 escapes
        # sooner than the direct leg, which must still be the one raised
        G = identity_map(l2_2d)
        z0 = np.array([0.5 + 0.0j, 0.0j])
        legs = _integrate_rows(G, [z0, z0], [1.3, 0.3], 1e-9, relays=[None, 1.0])
        assert [type(out).__name__ for out in legs] == [
            "BallEscapeError", "Trajectory", "BallEscapeError"]
        assert legs[2].time < legs[0].time
        alone = serial_outcome(G, z0, 1.3, rtol=1e-9)
        with pytest.raises(BallEscapeError) as info:
            check_semigroup(G, z0, 0.3, 1.0)
        assert info.value.time == alone.time
        assert np.array_equal(info.value.state, alone.state)
        assert info.value.trajectory.step_stats == alone.trajectory.step_stats

    def test_relay_horizon_is_checked_before_integrating(self, l2_2d, count_calls):
        calls = count_calls(PolyMap, "eval_batch")
        with pytest.raises(ValueError, match="finite"):
            _integrate_rows(minus_identity(l2_2d), [np.array([0.1j, 0.0j])], [1.0], 1e-9,
                            relays=[math.inf])
        assert calls == []


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

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_legs_share_one_batch(self, p, count_calls):
        # the relay joins the batch once the first leg ends: after one batch
        # of first drifts and the relay's own, six stages per pass until the
        # direct leg or the relay ends; each leg steps as `integrate` alone
        calls = count_calls(PolyMap, "eval_batch")
        for dim in (1, 2, 4):
            G = sample_generator(NormedSpace(dim, p), seed=5, degree=3)
            z0 = 0.6 * G.space.sphere_sample(2 * dim + 1, seed=7)[-1]
            for t, s in ((1.0, 0.75), (0.0, 0.5), (0.6, 0.0)):
                direct, first = integrate(G, z0, t + s), integrate(G, z0, t)
                relay = integrate(G, first.points[-1], s)
                serial = G.space.norm(direct.points[-1] - flow_endpoint(G, first.points[-1], s))
                calls.clear()
                out = check_semigroup(G, z0, t, s)
                assert len(calls) == 1 + (s > 0) + 6 * max(steps(direct),
                                                           steps(first) + steps(relay))
                assert out["difference"] == serial

    def test_negative_times_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="nonnegative"):
            check_semigroup(minus_identity(l2_2d), np.array([0.1j, 0.0j]), -1.0, 0.5)

    def test_nan_time_rejected(self, l2_2d):
        with pytest.raises(ValueError, match="nonnegative"):
            check_semigroup(minus_identity(l2_2d), np.array([0.1j, 0.0j]), math.nan, 0.5)

    @pytest.mark.parametrize("t, s", [(math.inf, 0.5), (0.5, math.inf)])
    def test_infinite_time_rejected(self, l2_2d, t, s):
        with pytest.raises(ValueError, match="finite"):
            check_semigroup(identity_map(l2_2d), np.array([0.5 + 0.0j, 0.0j]), t, s)


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

    def test_infinite_horizon_rejected(self, l2_2d):
        # before, every start "completed" at time 0 and the expanding
        # identity passed the sweep
        with pytest.raises(ValueError, match="finite"):
            invariance_sweep(identity_map(l2_2d), starts=2, t_end=math.inf)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, 1.0, 0.0])
    def test_start_norm_must_lie_in_the_open_ball(self, l2_2d, bad):
        with pytest.raises(ValueError, match="max_start_norm"):
            invariance_sweep(minus_identity(l2_2d), starts=2, t_end=1.0, max_start_norm=bad)


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
