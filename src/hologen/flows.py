"""Flow integration for the Cauchy problem dz/dt = G(z), ball-invariance
sweeps, the semigroup consistency check, and the discrete iteration probe
for invariant neighborhoods of maps fixing the origin.

The integrator is an embedded Runge-Kutta 4(5) pair with FSAL reuse and a
PI step controller. Leaving the open unit ball is an error by design: a
certified generator never does it, so an escape diagnoses a bad input or
a tolerance too loose to trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numrange import operator_norm
from .polymaps import _pairs
from .spaces import NormedSpace

_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B5 = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
_B4 = np.array([5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
                -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0])
_ERR = _B5 - _B4

_ESCAPE_EDGE = 1.0 - 1e-12
_MIN_STEP = 1e-14
_START_SALT = 606


@dataclass(frozen=True)
class StepStats:
    accepted: int
    rejected: int
    min_dt: float
    max_dt: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded solution nodes of one integration.

    times increase from 0; norms[i] is the space norm of points[i].
    """

    times: np.ndarray
    points: np.ndarray
    norms: np.ndarray
    step_stats: StepStats


class FlowStopError(RuntimeError):
    """An integration stopped early. Carries the stop time, the state there,
    and the trajectory up to the last in-ball node."""

    reason = "integration stopped"

    def __init__(self, time: float, state: np.ndarray, trajectory: Trajectory):
        super().__init__(f"{self.reason} at t = {time:.6g}")
        self.time = time
        self.state = state
        self.trajectory = trajectory


class BallEscapeError(FlowStopError):
    """An accepted step landed on or outside the unit sphere."""

    reason = "trajectory left the open unit ball"


class StepUnderflowError(FlowStopError):
    """The controller drove the step below 1e-14 (drift too singular)."""

    reason = "step size underflow"


def _drift(G, y: np.ndarray) -> np.ndarray:
    return np.asarray(G.eval_batch(y[None, :])[0], dtype=np.complex128)


def integrate(G, z0, t_end: float, rtol: float = 1e-9,
              max_steps: int = 200000) -> Trajectory:
    """Solve dz/dt = G(z) from z0 over [0, t_end].

    Per-step error is held below rtol * (1 + ||z||) in the space norm.

    Args:
        G: PolyMap or CallableMap drift.
        z0: start point with ||z0|| < 1; a non-finite entry is rejected.
        t_end: nonnegative horizon; 0 returns the trivial trajectory.
        rtol: relative step tolerance.
        max_steps: cap on accepted plus rejected steps.

    Raises:
        BallEscapeError: an accepted state reached the unit sphere.
        StepUnderflowError: required step fell below 1e-14.
        ValueError: bad start point or negative horizon.
    """
    space: NormedSpace = G.space
    y = np.asarray(z0, dtype=np.complex128)
    if not space.norm(y) < 1.0:
        raise ValueError("start point must lie in the open unit ball")
    if not t_end >= 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    times = [0.0]
    points = [y.copy()]
    norms = [space.norm(y)]
    if t_end == 0.0:
        return Trajectory(np.array(times), np.array(points), np.array(norms),
                          StepStats(0, 0, 0.0, 0.0))

    k1 = _drift(G, y)
    t = 0.0
    h = min(t_end, 1e-2 / (1.0 + space.norm(k1)))
    accepted = 0
    rejected = 0
    min_dt = math.inf
    max_dt = 0.0
    err_prev = 1e-4
    K = np.empty((7, y.size), dtype=np.complex128)
    while t < t_end - 1e-15 * max(1.0, t_end):
        if accepted + rejected >= max_steps:
            raise RuntimeError(f"integration exceeded {max_steps} steps")
        h = min(h, t_end - t)
        if h < _MIN_STEP:
            raise StepUnderflowError(t, y, _freeze(times, points, norms, accepted,
                                                   rejected, min_dt, max_dt))
        K[0] = k1
        for i in range(1, 7):
            yi = y + h * (np.asarray(_A[i]) @ K[:i])
            K[i] = _drift(G, yi)
        y5 = y + h * (_B5 @ K)
        err = h * (_ERR @ K)
        scale = rtol * (1.0 + space.norm(y5))
        E = space.norm(err) / scale
        if E <= 1.0:
            t += h
            y = y5
            k1 = K[6]  # same drift evaluation opens the next step
            accepted += 1
            min_dt = min(min_dt, h)
            max_dt = max(max_dt, h)
            nrm = space.norm(y)
            if nrm >= _ESCAPE_EDGE:
                raise BallEscapeError(t, y, _freeze(times, points, norms, accepted,
                                                    rejected, min_dt, max_dt))
            times.append(t)
            points.append(y.copy())
            norms.append(nrm)
            fac = 0.9 * max(E, 1e-16) ** -0.14 * err_prev ** 0.08
            h = h * min(5.0, max(0.2, fac))
            err_prev = max(E, 1e-4)
        else:
            rejected += 1
            h = h * max(0.2, 0.9 * E ** -0.2)
    return _freeze(times, points, norms, accepted, rejected, min_dt, max_dt)


def _freeze(times, points, norms, accepted, rejected, min_dt, max_dt) -> Trajectory:
    stats = StepStats(accepted, rejected,
                      0.0 if not math.isfinite(min_dt) else min_dt, max_dt)
    return Trajectory(np.asarray(times, dtype=np.float64),
                      np.asarray(points, dtype=np.complex128),
                      np.asarray(norms, dtype=np.float64), stats)


def flow_endpoint(G, z0, t_end: float, rtol: float = 1e-9) -> np.ndarray:
    """The state at time t_end (last trajectory node)."""
    return integrate(G, z0, t_end, rtol).points[-1]


def check_semigroup(G, z0, t: float, s: float, rtol: float = 1e-9) -> dict:
    """Compare flowing t+s at once against flowing t then s more.

    The two endpoints must agree within 10 * rtol in the space norm.
    """
    if not (t >= 0.0 and s >= 0.0):
        raise ValueError("both time arguments must be nonnegative")
    space = G.space
    direct = flow_endpoint(G, z0, t + s, rtol)
    mid = flow_endpoint(G, z0, t, rtol)
    relay = flow_endpoint(G, mid, s, rtol)
    diff = space.norm(direct - relay)
    return {
        "t": float(t),
        "s": float(s),
        "difference": float(diff),
        "tolerance": 10.0 * rtol,
        "passed": bool(diff <= 10.0 * rtol),
    }


def invariance_sweep(G, starts: int = 100, t_end: float = 10.0, rtol: float = 1e-7,
                     max_start_norm: float = 0.95, seed: int = 0) -> dict:
    """Integrate from seeded random starts and report the largest norm seen.

    A certified generator keeps every trajectory inside the ball; any
    escape is recorded with its witness instead of aborting the sweep.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if not 0.0 < max_start_norm < 1.0:
        raise ValueError(f"max_start_norm must lie in (0, 1), got {max_start_norm}")
    space = G.space
    dirs = space.sphere_sample(starts, seed)
    radii = np.random.default_rng([seed, _START_SALT]).uniform(0.05, max_start_norm, starts)
    max_norm = 0.0
    escapes = []
    for i in range(starts):
        z0 = radii[i] * dirs[i]
        try:
            traj = integrate(G, z0, t_end, rtol)
            max_norm = max(max_norm, float(np.max(traj.norms)))
        except BallEscapeError as exc:
            escapes.append({
                "start_index": i,
                "time": float(exc.time),
                "state": _pairs(exc.state),
            })
            max_norm = max(max_norm, space.norm(exc.state))
    return {
        "starts": int(starts),
        "t_end": float(t_end),
        "max_norm": float(max_norm),
        "escapes": escapes,
        "passed": bool(not escapes and max_norm < 1.0),
    }


def invariant_ball_probe(F, theta: float, a: float, radius_grid=None,
                         seed: int = 0) -> dict:
    """Iterate a map fixing the origin and look for a radius whose orbits
    stay inside some ball strictly smaller than the unit ball.

    Also probes power-boundedness of the shifted linear part
    M = e^(i theta) A - a I through sup over k <= 256 of the operator norm
    of M^k, reported as bounded when the sup stays under 1e6 (a desk-scale
    cap; unbounded growth blows past it within 256 powers for any
    interesting spectral radius).

    Args:
        F: PolyMap with F(0) = 0.
        theta, a: certificate rotation and shift for the linear probe.
        radius_grid: start radii, default 0.1 .. 0.9 step 0.1; each radius
            gets 64 seeded directions, each orbit 256 iterations.
        seed: direction sampling key.

    Raises:
        ValueError: when F(0) != 0.
    """
    space = F.space
    if space.norm(np.asarray(F.constant)) > 1e-12:
        raise ValueError("the iteration probe requires F(0) = 0")
    A = np.asarray(F.linear, dtype=np.complex128)
    phase = complex(math.cos(theta), math.sin(theta))
    M = phase * A - a * np.eye(space.dim, dtype=np.complex128)
    power = np.eye(space.dim, dtype=np.complex128)
    power_sup = 0.0
    for _ in range(256):
        power = power @ M
        power_sup = max(power_sup, operator_norm(space, power))
        if power_sup > 1e6:
            break
    power_bounded = power_sup <= 1e6

    grid = np.asarray(radius_grid if radius_grid is not None
                      else [round(0.1 * i, 1) for i in range(1, 10)], dtype=np.float64)
    if not np.all((grid > 0.0) & (grid < 1.0)):
        raise ValueError("probe radii must lie in (0, 1)")
    dirs = space.sphere_sample(64, seed)
    records = []
    smallest = None
    for r in grid:
        Z = r * dirs
        r_out = float(r)
        invariant = True
        for _ in range(256):
            Z = F.eval_batch(Z)
            nrm = space.norm_batch(Z)
            if not np.all(np.isfinite(nrm)):
                invariant = False
                r_out = math.inf
                break
            r_out = max(r_out, float(np.max(nrm)))
            if r_out >= 1.0 - 1e-9:
                invariant = False
                break
        records.append({"r": float(r), "r_out": r_out, "invariant": bool(invariant)})
        if invariant and smallest is None:
            smallest = float(r)
    return {
        "power_bounded": bool(power_bounded),
        "power_norm_sup": float(power_sup),
        "radii": records,
        "smallest_invariant_radius": smallest,
        "verdict": "found" if smallest is not None else "none-found",
    }


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV with columns t, re/im per coordinate, norm."""
    n = traj.points.shape[1]
    header = ["t"]
    for j in range(1, n + 1):
        header += [f"re(z_{j})", f"im(z_{j})"]
    header.append("norm")
    lines = [",".join(header)]
    for i in range(traj.times.size):
        row = [f"{traj.times[i]:.12g}"]
        for j in range(n):
            row += [f"{traj.points[i, j].real:.12g}", f"{traj.points[i, j].imag:.12g}"]
        row.append(f"{traj.norms[i]:.12g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
