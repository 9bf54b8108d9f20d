"""Numerical range quantities over unit spheres.

Provides the infimum of Re<Av, v*> and the supremum of |<Av, v*>| for
matrices, the same supremum for homogeneous polynomials, induced operator
norms, and the degree-dependent constants that turn range radii into sup
norm bounds. For p = 2 closed-form eigenvalue oracles cross-check them.

Every search samples the sphere, then refines its best samples with one
engine, `_climb`, which also serves the certifiers: all starts, and in
verify_growth_bound all shells, advance together, one objective call per
iteration. Each climbing row tries `_PROPOSALS` candidates per iteration;
that width is one engine constant, shared by every caller. Each start still
replays its serial random stream: a search fills its (starts, iters,
proposals, 2n) noise block in one draw, and numpy's Generator gives the
numbers that per-iteration (proposals, 2n) draws, start after start,
would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polymaps import HomogeneousPoly
from .spaces import NormedSpace


class OracleMismatchError(RuntimeError):
    """A sphere-search estimate disagreed with an exact oracle."""


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the sphere search.

    samples: coarse sphere samples, starts: refined local searches,
    refine_iters: iterations per start, seed: key of the sample and
    refinement streams. Every iteration tries `_PROPOSALS` candidates.
    """

    samples: int = 4096
    refine_iters: int = 200
    starts: int = 4
    seed: int = 0


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


def _climb(space, objective, V, f, noise, groups, steps=_SPHERE_STEPS, clip=None):
    """Accept-only Gaussian climb of every row of V at once; returns (V, f).

    Row s of V (value f[s], group groups[s]) proposes V[s] + sigma_s (x + i y)
    with (x, y) from noise[t, s, k], shape (iters, S, proposals, 2n), and
    moves to its best proposal when that beats f[s]. One objective(Z, g) call
    per iteration covers all S * proposals rows, g giving each row's group.
    steps is (sigma0, grow, cap, shrink): an accepted move multiplies sigma
    by grow up to cap, a rejected one by shrink down to 1e-9. Proposals are
    normalized onto the unit sphere, or with clip = (lo, hi) have their norms
    clipped to [lo, hi].
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
        if clip is None:
            degenerate = nrm < 1e-12
            if degenerate.any():
                flat[degenerate] = V[owner[degenerate]]
                nrm[degenerate] = 1.0
            flat = flat / nrm[:, None]
        else:
            flat = flat * (np.clip(nrm, *clip) / np.maximum(nrm, 1e-300))[:, None]
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


def _sphere_search(space, objective, budget, salts, pick=None):
    """Maximize objective(V, g) over the unit sphere for each group g.

    Group g = 0, 1, ... has its own refinement stream keyed by salts[g].
    Its starts are its best coarse samples spread over basins, or those
    pick(pts) returns with the coarse values, the leader first. All starts
    of all groups climb together. Returns one (value, maximizer) per group.
    """
    pts = space.sphere_sample(budget.samples, budget.seed)
    starts, values, groups = [], [], []
    for g in range(len(salts)):
        if pick is None:
            vals = np.asarray(objective(pts, np.full(pts.shape[0], g)), dtype=np.float64)
            idx = _spread_starts(pts, np.argsort(vals)[::-1], min(budget.starts, pts.shape[0]))
        else:
            vals, idx = pick(pts)
        starts.extend(idx)
        values.append(vals[idx])
        groups.extend([g] * len(idx))
    groups = np.asarray(groups)
    # each group's starts are one block of rows, filled from its own stream
    noise = np.empty((len(starts), budget.refine_iters, _PROPOSALS, 2 * space.dim))
    edges = np.searchsorted(groups, np.arange(len(salts) + 1))
    for salt, lo, hi in zip(salts, edges, edges[1:]):
        np.random.default_rng([budget.seed, _REFINE_SALT, salt]).standard_normal(out=noise[lo:hi])
    V, f = _climb(space, objective, pts[starts], np.concatenate(values),
                  noise.swapaxes(0, 1), groups)
    out = []
    for g in range(len(salts)):
        k = np.flatnonzero(groups == g)
        best = k[int(np.argmax(f[k]))]
        out.append((float(f[best]), V[best]))
    return out


def _radius_search(space, evaluator, budget, salt):
    """Maximize |<evaluator(v), v*>| over the unit sphere via a phase sweep.

    The modulus landscape splits into lobes by pairing direction, and the
    strongest lobe can shadow the global one in a value-ranked start list.
    Sweeping argmax Re(e^(-i phi) omega) over a phase grid of the coarse
    pairings plants one climber per direction for no extra evaluations.
    """
    def pairing_fn(V):
        return np.sum(evaluator(V) * space.support_batch(V), axis=1)

    def pick(pts):
        omega = np.asarray(pairing_fn(pts), dtype=np.complex128)
        modulus = np.abs(omega)
        cand = [int(np.argmax(modulus))]
        for ph in np.exp(-2j * np.pi * np.arange(16) / 16.0):
            idx = int(np.argmax((omega * ph).real))
            if idx not in cand:
                cand.append(idx)
        return modulus, cand

    def objective(V, g):
        return np.abs(np.asarray(pairing_fn(V), dtype=np.complex128))

    return _sphere_search(space, objective, budget, (salt,), pick)[0]


def _check_matrix(space: NormedSpace, A) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    n = space.dim
    if A.shape != (n, n):
        raise ValueError(f"matrix must have shape ({n}, {n}), got {A.shape}")
    return A


def numerical_range_inf(space: NormedSpace, A, budget: SearchBudget | None = None) -> RangeEstimate:
    """Infimum of Re<Av, v*> over the unit sphere of the space.

    For p = 2 the exact value is the smallest eigenvalue of the Hermitian
    part (A + A^H)/2; the search is cross-checked against it at 1e-6 and a
    mismatch raises OracleMismatchError.
    """
    A = _check_matrix(space, A)
    budget = budget or DEFAULT_BUDGET

    def neg_pairing(V, g):
        W = space.support_batch(V)
        return -np.real(np.sum((V @ A.T) * W, axis=1))

    neg_value, vmax = _sphere_search(space, neg_pairing, budget, (1,))[0]
    value = -neg_value
    oracle = None
    if space.p == 2.0:
        oracle = float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])
        if abs(value - oracle) > 1e-6:
            raise OracleMismatchError(
                f"range infimum search {value:.12g} disagrees with the "
                f"Hermitian-part eigenvalue {oracle:.12g}"
            )
    return RangeEstimate(float(value), vmax, "sphere-search", budget.samples,
                         budget.refine_iters, oracle)


def numerical_radius(space: NormedSpace, A, budget: SearchBudget | None = None) -> RangeEstimate:
    """Supremum of |<Av, v*>| over the unit sphere (inner approximation).

    For p = 2 the result is cross-checked at 1e-4 against the rotated
    Hermitian-part eigenvalue maximum (see hilbert_radius_oracle).
    """
    A = _check_matrix(space, A)
    budget = budget or DEFAULT_BUDGET
    value, vmax = _radius_search(space, lambda V: V @ A.T, budget, salt=2)
    oracle = None
    if space.p == 2.0:
        oracle = hilbert_radius_oracle(A)
        if abs(value - oracle) > 1e-4:
            raise OracleMismatchError(
                f"radius search {value:.12g} disagrees with the rotated "
                f"eigenvalue oracle {oracle:.12g}"
            )
    return RangeEstimate(float(value), vmax, "sphere-search", budget.samples,
                         budget.refine_iters, oracle)


def polynomial_numerical_radius(space: NormedSpace, P: HomogeneousPoly,
                                budget: SearchBudget | None = None) -> RangeEstimate:
    """Supremum of |<P(v), v*>| over the unit sphere for a homogeneous P.

    A lower-bound estimate by construction; the refinement stage tightens
    the coarse sampling but cannot overshoot the true supremum.
    """
    if P.dim_in != space.dim or P.dim_out != space.dim:
        raise ValueError("polynomial dimensions must match the space")
    budget = budget or DEFAULT_BUDGET
    value, vmax = _radius_search(space, P.eval_batch, budget, salt=3)
    return RangeEstimate(float(value), vmax, "sphere-search", budget.samples,
                         budget.refine_iters, None)


def sup_norm_on_sphere(space: NormedSpace, evaluator, budget: SearchBudget | None = None,
                       salt: int = 4):
    """Search max over the unit sphere of norm(evaluator(v)).

    Returns (value, maximizer). `evaluator` maps a (B, n) batch to (B, n).
    """
    budget = budget or DEFAULT_BUDGET

    def obj(V, g):
        return space.norm_batch(np.asarray(evaluator(V), dtype=np.complex128))

    return _sphere_search(space, obj, budget, (salt,))[0]


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
    """Numerical radius for p = 2 by direction scan.

    Maximizes the largest eigenvalue of the Hermitian part of e^(i phi) A
    over a 64-angle phi grid, then polishes the best brackets by
    golden-section search; accurate to far below the 1e-4 cross-check
    tolerance.
    """
    A = np.asarray(A, dtype=np.complex128)

    def g(phi: float) -> float:
        R = np.exp(1j * phi) * A
        return float(np.linalg.eigvalsh((R + R.conj().T) / 2.0)[-1])

    angles = 64
    grid = 2.0 * np.pi * np.arange(angles) / angles
    vals = np.array([g(phi) for phi in grid])
    # local maxima on the circular grid
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    peaks = np.nonzero((vals >= left) & (vals >= right))[0]
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(vals))])
    peaks = peaks[np.argsort(vals[peaks])[::-1][:3]]
    step = 2.0 * np.pi / angles
    best = float(vals.max())
    for k in peaks:
        _, f1, _, f2 = _golden_max(g, grid[k] - step, grid[k] + step, 72)
        best = max(best, f1, f2)
    return best


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


def hilbert_range_inf_oracle(A) -> RangeEstimate:
    """Exact p = 2 range infimum with its eigenvector witness."""
    A = np.asarray(A, dtype=np.complex128)
    H = (A + A.conj().T) / 2.0
    w, V = np.linalg.eigh(H)
    return RangeEstimate(float(w[0]), V[:, 0], "hilbert-oracle", 0, 0, float(w[0]))


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
    degree 1 with the constant e. Returns a report dict; `passed` tolerates
    violations up to 1e-6.
    """
    budget = budget or DEFAULT_BUDGET
    if isinstance(P, HomogeneousPoly):
        degree, evaluator = P.degree, P.eval_batch
        radius = polynomial_numerical_radius(space, P, budget).value
    else:
        M = _check_matrix(space, P)
        degree, evaluator = 1, lambda V: V @ M.T
        radius = numerical_radius(space, M, budget).value
    sup, _ = sup_norm_on_sphere(space, evaluator, budget, salt=6)
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
