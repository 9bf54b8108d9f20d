"""Numerical range quantities over unit spheres.

Provides the infimum of Re<Av, v*> and the supremum of |<Av, v*>| for
matrices, the same supremum for homogeneous polynomials, induced operator
norms, and the degree-dependent constants that turn range radii into sup
norm bounds. For p = 2 closed-form eigenvalue oracles cross-check them.

Every search is a group of `_sphere_search`: a range infimum, a matrix or
polynomial-part radius, or a sup norm such as a growth shell. The groups
of one call score the same coarse sphere samples, then refine their best
samples in one climb of one engine, `_climb`, which also serves the
certifiers. verify_growth_bound thus climbs its range searches and its
shells together, verify_intermediate_chain its range searches and every
part radius, and harris_check the part radius and the sup norm; the public
searches are one-group calls. Every start of every group advances
together, one objective call per iteration, in which one support batch
serves all pairings and one power table all polynomial parts. Each
climbing row tries `_PROPOSALS` candidates per iteration; that width is
one engine constant, shared by every caller. Each start still replays its
serial random stream: a group fills its (starts, iters, proposals, 2n)
noise block in one draw from the stream keyed by its salt, and numpy's
Generator gives the numbers that per-iteration (proposals, 2n) draws,
start after start, would give. So a group gets the bits a search of it
alone gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polymaps import HomogeneousPoly, _power_table
from .spaces import NormedSpace


class OracleMismatchError(RuntimeError):
    """A sphere-search estimate disagreed with an exact oracle."""


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the sphere search.

    samples: coarse sphere samples, starts: refined local searches,
    refine_iters: iterations per start, seed: key of the sample and
    refinement streams. Every iteration tries `_PROPOSALS` candidates.
    ValueError unless samples and starts are >= 1 and refine_iters >= 0.
    """

    samples: int = 4096
    refine_iters: int = 200
    starts: int = 4
    seed: int = 0

    def __post_init__(self):
        _check_floors(self, (("samples", 1), ("starts", 1), ("refine_iters", 0)))


def _check_floors(budget, floors) -> None:
    """Raise ValueError naming the first field of budget below its least value."""
    for name, least in floors:
        if not getattr(budget, name) >= least:
            raise ValueError(f"{name} must be >= {least}, got {getattr(budget, name)}")


DEFAULT_BUDGET = SearchBudget()

_REFINE_SALT = 404
_PROPOSALS = 8  # climb candidates per row and iteration
# sigma0, grow, cap, shrink: the gentle decay keeps climbing long enough for
# the 1e-6 oracle agreement the certifications rely on, where halving stalls
_SPHERE_STEPS = (0.25, 1.5, 0.5, 0.8)


@dataclass(frozen=True)
class RangeEstimate:
    """Search result: the value re-evaluates at `maximizer` within 1e-12."""

    value: float
    maximizer: np.ndarray
    method: str
    samples: int
    refinement_iters: int
    oracle: float | None = None


def _climb(space, objective, V, f, noise, groups, steps=_SPHERE_STEPS):
    """Accept-only Gaussian climb of every row of V at once; returns (V, f).

    Row s of V (value f[s], group groups[s]) proposes V[s] + sigma_s (x + i y)
    with (x, y) from noise[t, s, k], shape (iters, S, proposals, 2n), and
    moves to its best proposal when that beats f[s]. One objective(Z, g) call
    per iteration covers all S * proposals rows, g giving each row's group.
    steps is (sigma0, grow, cap, shrink): an accepted move multiplies sigma
    by grow up to cap, a rejected one by shrink down to 1e-9. Proposals are
    normalized onto the unit sphere.
    """
    S, n = V.shape
    P = noise.shape[2]
    V = V.copy()
    f = np.array(f, dtype=np.float64)
    owner = np.repeat(np.arange(S), P)
    row_groups = np.asarray(groups)[owner]
    rows = np.arange(S)
    sigma0, grow, cap, shrink = steps
    sigma = np.full(S, sigma0)
    for raw in noise:
        props = V[:, None, :] + sigma[:, None, None] * (raw[..., :n] + 1j * raw[..., n:])
        flat = props.reshape(-1, n)
        nrm = space.norm_batch(flat)
        degenerate = nrm < 1e-12
        if degenerate.any():
            flat[degenerate] = V[owner[degenerate]]
            nrm[degenerate] = 1.0
        flat = flat / nrm[:, None]
        vals = np.asarray(objective(flat, row_groups), dtype=np.float64).reshape(S, P)
        j = np.argmax(vals, axis=1)
        better = vals[rows, j] > f
        k = np.flatnonzero(better)
        V[k] = flat.reshape(S, P, n)[k, j[k]]
        f[k] = vals[k, j[k]]
        sigma = np.where(better, np.minimum(sigma * grow, cap), np.maximum(sigma * shrink, 1e-9))
    return V, f


def _spread_starts(pts, order, count):
    """The first `count` entries of `order`, spread over distinct basins.

    The runner-up coarse values often neighbor the leader, and a cluster of
    starts misses second lobes: a point is skipped while its squared
    euclidean gap to an earlier pick, modulo a global phase, is below 0.05
    of that pick's squared length. Any remaining slots take the best
    skipped points in order.
    """
    chosen: list[int] = []
    free = np.ones(pts.shape[0], dtype=bool)
    sq = np.sum((pts.conj() * pts).real, axis=1)
    while len(chosen) < count:
        left = order[free[order]]
        if left.size == 0:
            break
        c = int(left[0])
        chosen.append(c)
        gap = sq[c] + sq - 2.0 * np.abs(np.sum(pts * pts[c].conj(), axis=1))
        free &= ~(gap < 0.05 * sq[c])
        free[c] = False
    rest = order[~np.isin(order, chosen)]
    return chosen + [int(i) for i in rest[:count - len(chosen)]]


class _Group(NamedTuple):
    """One group of a batched sphere search.

    kind "inf" maximizes -Re<f(v), v*>, "radius" |<f(v), v*>| and "norm"
    ||f(v)|| over the unit sphere. f is a matrix A, evaluated as v A^T, a
    HomogeneousPoly, or a callable f(V, g) of rows V and their group
    indices g, so that groups sharing one callable, such as the shells of a
    growth bound, are evaluated in one call. salt keys the group's
    refinement stream.
    """

    kind: str
    salt: int
    f: object


def _evaluation(f, V, g, table):
    if isinstance(f, HomogeneousPoly):
        return f._eval_table(table)
    if isinstance(f, np.ndarray):
        return V @ f.T
    return f(V, g)


def _raw(space, grp, V, g, W, table):
    """<f(v), v*> on rows V of an "inf" or "radius" group, from their support
    rows W, or ||f(v)|| on rows of a "norm" group; g holds the rows' group
    indices and table their `_power_table` columns, which a HomogeneousPoly
    reads. The pairing multiplies the evaluation as an unnamed temporary:
    numpy may then multiply in place, and a named evaluation can round
    differently.
    """
    if grp.kind == "norm":
        return space.norm_batch(np.asarray(_evaluation(grp.f, V, g, table), dtype=np.complex128))
    return np.sum(_evaluation(grp.f, V, g, table) * W, axis=1)


def _score(kind, raw):
    """The value a group maximizes, from its `_raw` values."""
    if kind == "inf":
        return -raw.real
    if kind == "radius":
        return np.abs(raw)
    return raw


def _climb_objective(space, groups, edges):
    """objective(V, g) of a climb in which group k owns rows edges[k]:edges[k+1].

    Consecutive groups of one kind and one f are evaluated in one call. One
    support batch covers the rows of every pairing group, and one
    `_power_table` at the top degree those of every HomogeneousPoly.
    """
    runs = []
    for k, grp in enumerate(groups):
        if runs and groups[runs[-1][0]].f is grp.f and groups[runs[-1][0]].kind == grp.kind:
            runs[-1][2] = edges[k + 1]
        else:
            runs.append([k, edges[k], edges[k + 1]])
    paired = [(lo, hi) for k, lo, hi in runs if groups[k].kind != "norm"]
    polys = [(lo, hi) for k, lo, hi in runs if isinstance(groups[k].f, HomogeneousPoly)]
    wlo, whi = (paired[0][0], paired[-1][1]) if paired else (0, 0)
    tlo, thi = (polys[0][0], polys[-1][1]) if polys else (0, 0)
    top = max((grp.f.degree for grp in groups if isinstance(grp.f, HomogeneousPoly)), default=0)

    def objective(V, g):
        W = space.support_batch(V[wlo:whi]) if paired else None
        table = _power_table(V[tlo:thi], top) if polys else None
        out = np.empty(len(V))
        for k, lo, hi in runs:
            grp = groups[k]
            w = W[lo - wlo:hi - wlo] if grp.kind != "norm" else None
            t = table[:, lo - tlo:hi - tlo] if isinstance(grp.f, HomogeneousPoly) else None
            out[lo:hi] = _score(grp.kind, _raw(space, grp, V[lo:hi], g[lo:hi], w, t))
        return out

    return objective


def _phase_sweep(omega, modulus):
    """The leader by modulus, then argmax Re(e^(-i phi) omega) over 16 phases.

    The modulus landscape splits into lobes by pairing direction, and the
    strongest lobe can shadow the global one in a value-ranked start list;
    the sweep plants one climber per direction for no extra evaluations.
    """
    cand = [int(np.argmax(modulus))]
    for ph in np.exp(-2j * np.pi * np.arange(16) / 16.0):
        idx = int(np.argmax((omega * ph).real))
        if idx not in cand:
            cand.append(idx)
    return cand


def _sphere_search(space, groups, budget):
    """Maximize every group's objective over the unit sphere in one climb.

    groups is a sequence of `_Group`. Each group scores the same coarse
    sphere samples. A "radius" group starts from `_phase_sweep`, the others
    from their best samples spread over basins, the leader first. All
    starts of all groups then climb together, one objective call per
    iteration, each group on its own noise block from the refinement
    stream keyed by its salt. So every group gets the bits a search of it
    alone would. Returns one (value, maximizer) per group.
    """
    if not groups:
        return []
    pts = space.sphere_sample(budget.samples, budget.seed)
    W = space.support_batch(pts) if any(grp.kind != "norm" for grp in groups) else None
    degrees = [grp.f.degree for grp in groups if isinstance(grp.f, HomogeneousPoly)]
    table = _power_table(pts, max(degrees)) if degrees else None
    starts, coarse, owner = [], [], []
    for g, grp in enumerate(groups):
        raw = _raw(space, grp, pts, np.full(pts.shape[0], g), W, table)
        vals = _score(grp.kind, raw)
        if grp.kind == "radius":
            idx = _phase_sweep(raw, vals)
        else:
            idx = _spread_starts(pts, np.argsort(vals)[::-1], min(budget.starts, pts.shape[0]))
        starts.extend(idx)
        coarse.append(vals[idx])
        owner.extend([g] * len(idx))
    owner = np.asarray(owner)
    # each group's starts are one block of rows, filled from its own stream
    noise = np.empty((len(starts), budget.refine_iters, _PROPOSALS, 2 * space.dim))
    edges = np.searchsorted(owner, np.arange(len(groups) + 1))
    for grp, lo, hi in zip(groups, edges, edges[1:]):
        np.random.default_rng([budget.seed, _REFINE_SALT, grp.salt]).standard_normal(out=noise[lo:hi])
    V, f = _climb(space, _climb_objective(space, groups, edges * _PROPOSALS), pts[starts],
                  np.concatenate(coarse), noise.swapaxes(0, 1), owner)
    out = []
    for lo, hi in zip(edges, edges[1:]):
        best = lo + int(np.argmax(f[lo:hi]))
        out.append((float(f[best]), V[best]))
    return out


def _check_matrix(space: NormedSpace, A) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    n = space.dim
    if A.shape != (n, n):
        raise ValueError(f"matrix must have shape ({n}, {n}), got {A.shape}")
    return A


def _check_part(space: NormedSpace, P: HomogeneousPoly) -> HomogeneousPoly:
    if P.dim_in != space.dim or P.dim_out != space.dim:
        raise ValueError("polynomial dimensions must match the space")
    return P


def _range_inf_group(A) -> _Group:
    """The `numerical_range_inf` search of a checked matrix A."""
    return _Group("inf", 1, A)


def _radius_group(f) -> _Group:
    """The `numerical_radius` search of a checked matrix, or the
    `polynomial_numerical_radius` search of a HomogeneousPoly."""
    return _Group("radius", 3 if isinstance(f, HomogeneousPoly) else 2, f)


def _estimates(space, groups, budget=None) -> list:
    """Run groups as one `_sphere_search`: a RangeEstimate per "inf" and
    "radius" group, a (value, maximizer) pair per "norm" group.

    At p = 2 each matrix estimate is cross-checked against its oracle, in
    group order, as numerical_range_inf and numerical_radius describe.
    """
    budget = budget or DEFAULT_BUDGET
    out = []
    for grp, (value, vmax) in zip(groups, _sphere_search(space, groups, budget)):
        if grp.kind == "norm":
            out.append((value, vmax))
            continue
        A, oracle = grp.f, None
        if grp.kind == "inf":
            value = -value
            if space.p == 2.0:
                oracle = float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])
                if abs(value - oracle) > 1e-6:
                    raise OracleMismatchError(
                        f"range infimum search {value:.12g} disagrees with the "
                        f"Hermitian-part eigenvalue {oracle:.12g}"
                    )
        elif space.p == 2.0 and isinstance(A, np.ndarray):
            oracle = hilbert_radius_oracle(A)
            if abs(value - oracle) > 1e-4:
                raise OracleMismatchError(
                    f"radius search {value:.12g} disagrees with the rotated "
                    f"eigenvalue oracle {oracle:.12g}"
                )
        out.append(RangeEstimate(float(value), vmax, "sphere-search", budget.samples,
                                 budget.refine_iters, oracle))
    return out


def numerical_range_inf(space: NormedSpace, A, budget: SearchBudget | None = None) -> RangeEstimate:
    """Infimum of Re<Av, v*> over the unit sphere of the space.

    For p = 2 the exact value is the smallest eigenvalue of the Hermitian
    part (A + A^H)/2; the search is cross-checked against it at 1e-6 and a
    mismatch raises OracleMismatchError.
    """
    return _estimates(space, [_range_inf_group(_check_matrix(space, A))], budget)[0]


def numerical_radius(space: NormedSpace, A, budget: SearchBudget | None = None) -> RangeEstimate:
    """Supremum of |<Av, v*>| over the unit sphere (inner approximation).

    For p = 2 the result is cross-checked at 1e-4 against the largest
    eigenvalue of the Hermitian part of e^(i phi) A, maximized over phi by
    hilbert_radius_oracle: one stacked 720-angle eigenvalue sweep, already
    within 9.5e-6 times the radius, then a golden-section polish.
    """
    return _estimates(space, [_radius_group(_check_matrix(space, A))], budget)[0]


def polynomial_numerical_radius(space: NormedSpace, P: HomogeneousPoly,
                                budget: SearchBudget | None = None) -> RangeEstimate:
    """Supremum of |<P(v), v*>| over the unit sphere for a homogeneous P.

    A lower-bound estimate by construction; the refinement stage tightens
    the coarse sampling but cannot overshoot the true supremum.
    """
    return _estimates(space, [_radius_group(_check_part(space, P))], budget)[0]


def sup_norm_on_sphere(space: NormedSpace, evaluator, budget: SearchBudget | None = None,
                       salt: int = 4):
    """Search max over the unit sphere of norm(evaluator(v)).

    Returns (value, maximizer). `evaluator` maps a (B, n) batch to (B, n).
    """
    return _estimates(space, [_Group("norm", salt, lambda V, g: evaluator(V))], budget)[0]


def operator_norm(space: NormedSpace, M, budget: SearchBudget | None = None) -> float:
    """Induced operator norm of a matrix on the space.

    Exact closed forms for p in {1, 2, inf} (column sums, largest singular
    value, row sums); sphere search otherwise.
    """
    M = _check_matrix(space, M)
    if space.p == 1.0:
        return float(np.abs(M).sum(axis=0).max())
    if math.isinf(space.p):
        return float(np.abs(M).sum(axis=1).max())
    if space.p == 2.0:
        return float(np.linalg.norm(M, 2))
    budget = budget or SearchBudget(samples=512, refine_iters=60, starts=2)
    value, _ = sup_norm_on_sphere(space, lambda V: V @ M.T, budget, salt=5)
    return value


def hilbert_radius_oracle(A) -> float:
    """Numerical radius w for p = 2: the largest eigenvalue of the Hermitian
    part cos(phi) H - sin(phi) K of e^(i phi) A over phi, H and K those of A
    and -i A. A half turn negates it, so one stacked eigvalsh sweep over the
    360 angles of [0, pi) reads both ends of the spectrum: a 720-angle grid.
    The eigenvalue at phi is at least w cos(phi - phi*), phi* an angle that
    attains w, so the grid maximum lies within w (pi/720)^2 / 2, about
    9.5e-6 w, of w however many peaks the curve has. A golden-section search
    then polishes the best grid angle.
    """
    A = np.asarray(A, dtype=np.complex128)
    H, K = (A + A.conj().T) / 2.0, (A - A.conj().T) / 2.0j

    def part(phi):
        return np.multiply.outer(np.cos(phi), H) - np.multiply.outer(np.sin(phi), K)

    grid = np.pi * np.arange(720) / 360.0
    ends = np.linalg.eigvalsh(part(grid[:360]))
    vals = np.concatenate([ends[:, -1], -ends[:, 0]])
    k = int(np.argmax(vals))
    _, f1, _, f2 = _golden_max(lambda phi: np.linalg.eigvalsh(part(phi))[-1],
                               grid[k] - grid[1], grid[k] + grid[1], 72)
    return float(max(vals[k], f1, f2))


def _golden_max(h, lo, hi, iters):
    """Golden-section search for a maximum of h on [lo, hi].

    Returns the final bracket's inner points and values (x1, f1, x2, f2).
    """
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - gold * (hi - lo)
    x2 = lo + gold * (hi - lo)
    f1, f2 = h(x1), h(x2)
    for _ in range(iters):
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + gold * (hi - lo)
            f2 = h(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - gold * (hi - lo)
            f1 = h(x1)
    return x1, f1, x2, f2


def harris_constant(m: int) -> float:
    """Sup-norm over range-radius constant for homogeneous degree m.

    Equals m^(m/(m-1)) for m >= 2 and e for m = 1.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError("degree must be an integer")
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    if m == 1:
        return math.e
    return float(m) ** (m / (m - 1.0))


def harris_check(space: NormedSpace, P, budget: SearchBudget | None = None) -> dict:
    """Compare the sup-sphere norm of a homogeneous polynomial against the
    degree constant times its numerical radius.

    P is a HomogeneousPoly of any degree, or a matrix, which counts as
    degree 1 with the constant e. The radius and the sup norm (salt 6) are
    two groups of one search. Returns a report dict; `passed` tolerates
    violations up to 1e-6.
    """
    if isinstance(P, HomogeneousPoly):
        degree, P = P.degree, _check_part(space, P)
    else:
        degree, P = 1, _check_matrix(space, P)
    est, (sup, _) = _estimates(space, [_radius_group(P), _Group("norm", 6, P)], budget)
    radius = est.value
    constant = harris_constant(degree)
    bound = constant * radius
    slack = bound - sup
    return {
        "degree": degree,
        "sup_norm": sup,
        "radius": radius,
        "constant": constant,
        "bound": bound,
        "slack": slack,
        "passed": slack >= -1e-6,
    }
