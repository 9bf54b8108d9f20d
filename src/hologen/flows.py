"""Flow integration for the Cauchy problem dz/dt = G(z), ball-invariance
sweeps and the semigroup consistency check.

The integrator is the embedded Runge-Kutta 4(5) pair of Dormand and Prince
with FSAL reuse and a PI step controller. One kernel integrates a (B, n)
state whose rows keep their own horizon, step control and nodes; `integrate`
is its one-row case, and the sweep and semigroup check run as rows. A row may
name a relay, a row that starts from its endpoint and joins the batch at the
next pass, so the semigroup check runs all three of its legs in one batch.
Leaving the open unit ball is an error by design: a certified generator never
does it, so an escape diagnoses a bad input or a tolerance too loose to trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polymaps import _pairs
from .spaces import NormedSpace

_A = tuple(np.array(w, dtype=np.complex128) for w in (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
))
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


@dataclass
class _Row:
    """One kernel row: horizon, step control and (t, point, norm) nodes."""

    t_end: float
    nodes: list
    t: float = 0.0
    h: float = 0.0
    err_prev: float = 1e-4
    accepted: int = 0
    rejected: int = 0
    min_dt: float = math.inf
    max_dt: float = 0.0

    def freeze(self) -> Trajectory:
        times, points, norms = zip(*self.nodes)
        return Trajectory(np.array(times), np.array(points), np.array(norms), StepStats(
            self.accepted, self.rejected, self.min_dt if self.accepted else 0.0, self.max_dt))


def _start(space: NormedSpace, z0, t_end: float) -> _Row:
    """A row at z0 with horizon t_end, checked as `integrate` checks them."""
    y = np.asarray(z0, dtype=np.complex128)
    if not space.norm(y) < 1.0:
        raise ValueError("start point must lie in the open unit ball")
    _check_horizon(t_end)
    return _Row(t_end, [(0.0, y.copy(), space.norm(y))])


def _check_horizon(t_end: float) -> None:
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")


def _integrate_rows(G, starts, horizons, rtol: float, max_steps: int = 200000,
                    relays=()) -> list:
    """Solve dz/dt = G(z) from each start over its own [0, horizon] and return
    each row's Trajectory or the error that stopped it, in row order. Each
    pass evaluates every stage of the live rows as one batch; a finished or
    stopped row leaves it. No row's arithmetic reads another row.

    `relays` may give row r a follow-on horizon (None for none). When row r
    reaches its own horizon without a stop, a relay row starts from its last
    node over that horizon, as `integrate` would start it alone, and joins the
    batch at the next pass. The relays' outcomes follow the rows', in row
    order; a relay stays None when its row stopped."""
    space: NormedSpace = G.space
    rows = [_start(space, z0, t_end) for z0, t_end in zip(starts, horizons)]
    follow = {}  # row -> (index, horizon) of its relay row
    for r, t_end in enumerate(relays):
        if t_end is not None:
            _check_horizon(t_end)
            follow[r] = (len(rows) + len(follow), t_end)
    rows += [None] * len(follow)
    out = [None] * len(rows)
    joining = list(range(len(starts)))  # rows that enter the batch before the next pass

    def done(r) -> None:
        """Record row r as finished and start its relay, if it names one."""
        out[r] = rows[r].freeze()
        if r in follow:
            k, t_end = follow[r]
            rows[k] = _start(space, rows[r].nodes[-1][1], t_end)
            joining.append(k)

    def ready(r) -> bool:
        """Whether row r takes another step; if not, record how it ended."""
        row = rows[r]
        if not row.t < row.t_end - 1e-15 * max(1.0, row.t_end):
            done(r)
        elif row.accepted + row.rejected >= max_steps:
            out[r] = RuntimeError(f"integration exceeded {max_steps} steps")
        else:
            row.h = min(row.h, row.t_end - row.t)
            if not row.h < _MIN_STEP:
                return True
            out[r] = StepUnderflowError(row.t, row.nodes[-1][1], row.freeze())
        return False

    live = []
    Y = K1 = np.empty((0, space.dim), dtype=np.complex128)
    while True:
        while joining:  # first drifts of the joining rows as one batch
            new, joining[:] = joining[:], []
            for r in new:
                if rows[r].t_end == 0.0:
                    done(r)  # the one-node trajectory
            new = [r for r in new if rows[r].t_end != 0.0]
            if not new:
                continue
            Y0 = np.array([rows[r].nodes[0][1] for r in new])
            K0 = G.eval_batch(Y0)
            for r, nk in zip(new, space.norm_batch(K0).tolist()):
                rows[r].h = min(rows[r].t_end, 1e-2 / (1.0 + nk))
            keep = [ready(r) for r in new]
            live += [r for r, k in zip(new, keep) if k]
            Y, K1 = np.concatenate((Y, Y0[keep])), np.concatenate((K1, K0[keep]))
        if not live:
            return out
        h = np.array([rows[r].h for r in live])[:, None]
        K = np.empty((len(live), 7, Y.shape[1]), dtype=np.complex128)
        K[:, 0] = K1
        for i in range(1, 7):  # row b sums as (i,) @ (i, n), whatever the batch
            K[:, i] = G.eval_batch(Y + h * (_A[i] @ K[:, :i]))
        y5 = Y + h * (_B5 @ K)
        n5 = space.norm_batch(y5)
        E = (space.norm_batch(h * (_ERR @ K)) / (rtol * (1.0 + n5))).tolist()
        keep = []
        # Python floats: numpy's array ** rounds otherwise, and np.maximum keeps NaN
        for j, (r, e, nrm) in enumerate(zip(live, E, n5.tolist())):
            row = rows[r]
            if e <= 1.0:
                row.t += row.h
                row.accepted += 1
                row.min_dt = min(row.min_dt, row.h)
                row.max_dt = max(row.max_dt, row.h)
                if nrm >= _ESCAPE_EDGE:
                    out[r] = BallEscapeError(row.t, y5[j].copy(), row.freeze())
                    keep.append(False)
                    continue
                Y[j] = y5[j]
                K1[j] = K[j, 6]  # same drift evaluation opens the next step
                row.nodes.append((row.t, y5[j].copy(), nrm))
                fac = 0.9 * max(e, 1e-16) ** -0.14 * row.err_prev ** 0.08
                row.h = row.h * min(5.0, max(0.2, fac))
                row.err_prev = max(e, 1e-4)
            else:
                row.rejected += 1
                row.h = row.h * max(0.2, 0.9 * e ** -0.2)
            keep.append(ready(r))
        if not all(keep):
            live, Y, K1 = [r for r, k in zip(live, keep) if k], Y[keep], K1[keep]


def _raise_stop(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def integrate(G, z0, t_end: float, rtol: float = 1e-9,
              max_steps: int = 200000) -> Trajectory:
    """Solve dz/dt = G(z) from z0 over [0, t_end], the kernel's one-row case.

    Per-step error is held below rtol * (1 + ||z||) in the space norm.

    Args:
        G: drift with `space` and `eval_batch`, such as a PolyMap.
        z0: start point with ||z0|| < 1; a non-finite entry is rejected.
        t_end: finite nonnegative horizon; 0 returns the trivial trajectory.
        rtol: relative step tolerance.
        max_steps: cap on accepted plus rejected steps.

    Raises:
        BallEscapeError: an accepted state reached the unit sphere.
        StepUnderflowError: required step fell below 1e-14.
        RuntimeError: the step cap was reached.
        ValueError: bad start point, or a negative or non-finite horizon.
    """
    return _raise_stop(_integrate_rows(G, [z0], [t_end], rtol, max_steps)[0])


def flow_endpoint(G, z0, t_end: float, rtol: float = 1e-9) -> np.ndarray:
    """The state at time t_end (last trajectory node)."""
    return integrate(G, z0, t_end, rtol).points[-1]


def check_semigroup(G, z0, t: float, s: float, rtol: float = 1e-9) -> dict:
    """Compare flowing t+s at once against flowing t then s more.

    The direct leg (t + s) and the first leg (t) run as two rows of one
    batch; when the first leg ends, the relay leg (s) starts from its endpoint
    and joins that batch. Stops are raised in leg order: direct, first, relay.
    The two endpoints must agree within 10 * rtol in the space norm.
    """
    if not (t >= 0.0 and s >= 0.0):
        raise ValueError("both time arguments must be nonnegative")
    space = G.space
    direct, first, relay = _integrate_rows(G, [z0, z0], [t + s, t], rtol, relays=[None, s])
    direct = _raise_stop(direct).points[-1]
    _raise_stop(first)
    diff = space.norm(direct - _raise_stop(relay).points[-1])
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

    The starts run as rows of one batch, each with its own step control.
    A certified generator keeps every trajectory inside the ball;
    each escape is recorded with its witness, in start order, instead of
    aborting the sweep. Any other stop is raised for the lowest-indexed start.
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
    for i, out in enumerate(_integrate_rows(G, [radii[k] * dirs[k] for k in range(starts)],
                                            [t_end] * starts, rtol)):
        if isinstance(out, BallEscapeError):
            escapes.append({
                "start_index": i,
                "time": float(out.time),
                "state": _pairs(out.state),
            })
            max_norm = max(max_norm, space.norm(out.state))
        else:
            max_norm = max(max_norm, float(np.max(_raise_stop(out).norms)))
    return {
        "starts": int(starts),
        "t_end": float(t_end),
        "max_norm": float(max_norm),
        "escapes": escapes,
        "passed": bool(not escapes and max_norm < 1.0),
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
