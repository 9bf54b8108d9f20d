"""Numerical range quantities over unit spheres.

Provides the infimum of Re<Av, v*> and the supremum of |<Av, v*>| for
matrices, the same supremum for homogeneous polynomials, induced operator
norms, and the degree-dependent constants that turn range radii into sup
norm bounds.

Each request is a group: a range infimum, a matrix or polynomial-part
radius, or a sup norm such as a growth shell. A group with a closed form
reads it (`_closed_form`): every range group on a dim-1 space, and every
matrix range group at p in {1, 2, inf}, at p = 2 from the eigenvalues of
Hermitian parts. A shell or part group on a dim-1 space or at p = inf is
then read on the circle or torus where its supremum lies (`_torus_read`),
when its grid fits the budget's samples. The rest of one call are groups
of `_sphere_search`: they score the same coarse sphere samples, then
refine their best samples in one climb of one engine, `_climb`, which
also serves the certifiers. verify_growth_bound thus climbs the shells it
cannot read together with any range searches left,
verify_intermediate_chain the range searches and part radii left, and
harris_check the sup norm with a part radius left; a call with nothing
left makes no climb, and the public searches are one-group calls. Every
start of every group advances together, one objective call per
iteration, in which one support batch serves all pairings and one power
table all polynomial parts. Each climbing row tries `_PROPOSALS`
candidates per iteration; that width is one engine constant, shared by
every caller. Each start still replays its serial random stream: a group
fills its (starts, iters, proposals, 2n) noise block in one draw from the
stream keyed by its salt, and numpy's Generator gives the numbers that
per-iteration (proposals, 2n) draws, start after start, would give. So a
group gets the bits a search of it alone gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polymaps import HomogeneousPoly, _power_table
from .spaces import NormedSpace


class OracleMismatchError(RuntimeError):
    """Two range estimates that must agree, such as a shifted infimum and
    the unshifted one minus the shift, did not."""


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the sphere search.

    samples: coarse sphere samples, starts: refined local searches,
    refine_iters: iterations per start, seed: key of the sample and
    refinement streams. Every iteration tries `_PROPOSALS` candidates.
    samples also bounds the grid of a circle or torus read (`_torus_read`),
    which runs only when its grid has at most that many points; seed,
    starts and refine_iters do not shape such a read.
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
# sigma0, grow, cap, shrink: the gentle decay keeps climbing where halving
# stalls, since shells and part radii are inner estimates that must not fall
_SPHERE_STEPS = (0.25, 1.5, 0.5, 0.8)
# moduli of a closed-form witness's other entries at p = inf and p = 1:
# far from rounding below 1, and too small to move a sum (see _closed_form)
_ROW_MARGIN = 2.0 ** -45
_VERTEX_SPILL = 2.0 ** -60
# a torus read polishes the best 4 grid peaks of each coordinate by
# golden-section line searches (`_polish`), whose last 36 steps shrink a
# grid step's bracket below 1e-7 of it
_TORUS_CELLS = 4
_TORUS_ITERS = 36


@dataclass(frozen=True)
class RangeEstimate:
    """A range value and its witness `maximizer`.

    method "sphere-search": the climb's best value, which re-evaluates at
    the maximizer within 1e-12; samples and refinement_iters are the
    budget's. method "closed-form" (`_closed_form`): the exact value, with
    samples and refinement_iters 0. Its maximizer re-evaluates through
    support_batch exactly on a dim-1 space, and at p in {1, 2, inf} within
    1e-12 max(1, s), s the matrix's operator norm on the space: its largest
    absolute row sum (p = inf), column sum (p = 1) or singular value (p = 2).
    method "torus" (`_torus_read`): a part radius at p = inf read as the
    largest |P_k| over the faces v_k = 1 of the torus, with samples the rows
    read and refinement_iters 0; its maximizer re-evaluates through
    support_batch within 1e-12 max(1, value).
    """

    value: float
    maximizer: np.ndarray
    method: str
    samples: int
    refinement_iters: int


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
    HomogeneousPoly, a `_Shell`, or an opaque callable f(V) of rows V.
    Consecutive groups of one kind whose shells share a map are evaluated
    in one call. salt keys the group's refinement stream.
    """

    kind: str
    salt: int
    f: object


class _Shell(NamedTuple):
    """The deviation F(r v) - F(0) of a PolyMap F: a growth shell of radius
    r. r is a float, or a column of per-row radii when a run of shells of
    one map is evaluated at once."""

    F: object
    r: object


def _source(f):
    """What f is evaluated through: a shell's map, else f itself."""
    return f.F if isinstance(f, _Shell) else f


def _evaluation(f, V, table):
    if isinstance(f, HomogeneousPoly):
        return f._eval_table(table)
    if isinstance(f, np.ndarray):
        return V @ f.T
    if isinstance(f, _Shell):
        return f.F.eval_batch(f.r * V) - f.F.constant[None, :]
    return f(V)


def _raw(space, kind, f, V, W, table):
    """<f(v), v*> on rows V of an "inf" or "radius" group, from their support
    rows W, or ||f(v)|| on rows of a "norm" group; table holds the rows'
    `_power_table` columns, which a HomogeneousPoly reads. The pairing
    multiplies the evaluation as an unnamed temporary: numpy may then
    multiply in place, and a named evaluation can round differently.
    """
    if kind == "norm":
        return space.norm_batch(np.asarray(_evaluation(f, V, table), dtype=np.complex128))
    return np.sum(_evaluation(f, V, table) * W, axis=1)


def _score(kind, raw):
    """The value a group maximizes, from its `_raw` values."""
    if kind == "inf":
        return -raw.real
    if kind == "radius":
        return np.abs(raw)
    return raw


def _spans(groups, edges):
    """(kind, f, lo, hi) of each run of consecutive groups of one kind and one
    `_source`, group k owning rows edges[k]:edges[k+1]; a run of shells is
    one `_Shell` at per-row radii."""
    runs = []
    for k, grp in enumerate(groups):
        if runs and runs[-1][0].kind == grp.kind and _source(runs[-1][0].f) is _source(grp.f):
            runs[-1][1].append(k)
        else:
            runs.append((grp, [k]))
    spans = []
    for grp, ks in runs:
        lo, hi = edges[ks[0]], edges[ks[-1] + 1]
        f = grp.f
        if isinstance(f, _Shell) and len(ks) > 1:
            radii = np.repeat([groups[k].f.r for k in ks], np.diff(edges[ks[0]:ks[-1] + 2]))
            f = _Shell(f.F, radii[:, None])
        spans.append((grp.kind, f, lo, hi))
    return spans


def _climb_objective(space, groups, edges):
    """objective(V, g) of a climb in which group k owns rows edges[k]:edges[k+1];
    g, the rows' climb groups, is not read.

    Each of the `_spans` is evaluated in one call. One support batch covers
    the rows of every pairing group, and one `_power_table` at the top
    degree those of every HomogeneousPoly.
    """
    spans = _spans(groups, edges)
    paired = [(lo, hi) for kind, _, lo, hi in spans if kind != "norm"]
    polys = [(lo, hi) for _, f, lo, hi in spans if isinstance(f, HomogeneousPoly)]
    wlo, whi = (paired[0][0], paired[-1][1]) if paired else (0, 0)
    tlo, thi = (polys[0][0], polys[-1][1]) if polys else (0, 0)
    top = max((grp.f.degree for grp in groups if isinstance(grp.f, HomogeneousPoly)), default=0)

    def objective(V, g=None):
        W = space.support_batch(V[wlo:whi]) if paired else None
        table = _power_table(V[tlo:thi], top) if polys else None
        out = np.empty(len(V))
        for kind, f, lo, hi in spans:
            w = W[lo - wlo:hi - wlo] if kind != "norm" else None
            t = table[:, lo - tlo:hi - tlo] if isinstance(f, HomogeneousPoly) else None
            out[lo:hi] = _score(kind, _raw(space, kind, f, V[lo:hi], w, t))
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
        raw = _raw(space, grp.kind, grp.f, pts, W, table)
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


def _closed_form(space, grp) -> RangeEstimate | None:
    """The exact estimate of a group that has a closed form, else None.

    On a dim-1 space the sphere is the circle e^(i phi), and <f(v), v*> is
    constant on it for a matrix and, in modulus, for a HomogeneousPoly
    P(z) = c z^m: an "inf" group of a matrix a reads Re a and a "radius"
    group |a| or |P(1)| = |sum_t c_t|, at v = 1 and exactly as a search
    would re-evaluate them there. At p in {1, inf} complex l1 and l-inf
    have numerical index 1 (Lumer; Duncan, McGregor, Pryce & White), so a
    matrix's range is bounded by its rows at p = inf and its columns at
    p = 1 (the rows of A^T): inf Re<Av, v*> = min_i (Re a_ii - sum_(j!=i)
    |a_ij|) and sup |<Av, v*>| = max_i sum_j |a_ij|. The witness of row i
    has v_i = 1 and each other entry in the phase that turns a_ij into
    -|a_ij| (infimum) or into the phase of a_ii times |a_ij| (radius): at
    p = inf of modulus 1 - `_ROW_MARGIN`, so that support_batch keeps row
    i, and at p = 1 of modulus `_VERTEX_SPILL`, which fixes the support
    phases without moving a sum. At p = 2 the range is read from Hermitian
    parts: an "inf" group reads lambda_min((A + A^H)/2) with a unit
    eigenvector, and a "radius" group the value of `hilbert_radius_oracle`
    with a top unit eigenvector of the Hermitian part of e^(i phi*) A at the
    oracle's angle phi*. Over 2,100 matrices of dims 2-8 and norms 1e-3 to
    1e3 (dense, triangular, zero-diagonal, diagonal and Hermitian) these
    witnesses re-evaluated within 2.7e-15 max(1, s), s the largest singular
    value. Every other group has none.
    """
    f = grp.f
    matrix = isinstance(f, np.ndarray)
    part = grp.kind == "radius" and isinstance(f, HomogeneousPoly)
    if grp.kind == "norm" or not (matrix or part):
        return None
    if space.dim == 1:
        v = np.ones((1, 1), dtype=np.complex128)
        table = None if matrix else _power_table(v, f.degree)
        score = _score(grp.kind, _raw(space, grp.kind, f, v, space.support_batch(v), table))[0]
        return _exact(-score if grp.kind == "inf" else score, v[0])
    if not matrix or space.p not in (1.0, 2.0, math.inf):
        return None
    if space.p == 2.0:
        if grp.kind == "inf":
            values, vectors = np.linalg.eigh((f + f.conj().T) / 2.0)
            return _exact(values[0], vectors[:, 0])
        value, phi = hilbert_radius_oracle(f)
        B = complex(math.cos(phi), math.sin(phi)) * f
        return _exact(value, np.linalg.eigh((B + B.conj().T) / 2.0)[1][:, -1])
    M = f if math.isinf(space.p) else f.T
    mod = np.abs(M)
    diag = np.diagonal(M)
    if grp.kind == "inf":
        rows = diag.real - np.where(np.eye(space.dim, dtype=bool), 0.0, mod).sum(axis=1)
        i = int(np.argmin(rows))
        turn = -1.0
    else:
        rows = mod.sum(axis=1)
        i = int(np.argmax(rows))
        turn = diag[i] / mod[i, i] if mod[i, i] > 0.0 else 1.0
    phase = np.divide(M[i], mod[i], out=np.zeros_like(M[i]), where=mod[i] > 0.0)
    if math.isinf(space.p):
        v = (1.0 - _ROW_MARGIN) * turn * phase.conj()
    else:
        v = _VERTEX_SPILL * np.conj(turn) * phase
    v[i] = 1.0
    return _exact(rows[i], v)


def _exact(value, maximizer) -> RangeEstimate:
    return RangeEstimate(float(value), maximizer, "closed-form", 0, 0)


def _torus_grid(space, grp, budget):
    """(first, M) of a group `_torus_read` reads, else None.

    On a dim-1 space the sphere is the circle, and at p = inf the supremum
    of ||f|| over the ball lies on the torus T^n by the maximum principle
    on the polydisc's distinguished boundary, each coordinate of f being
    holomorphic. A "norm" group of a `_Shell` is read on all n angles of
    e^(i phi), first = 0; one of a HomogeneousPoly P on the angles from
    first = 1, phi_1 = 0, since ||P(e^(i t) v)|| = ||P(v)||. At p = inf the
    radius of P is max_k |P_k| over the faces v_k = 1 of T^n, which is
    ||P||_inf on the same angles, so a "radius" group of P is read as its
    "norm" group. A grid takes M = max(16, 8 degree) points per free angle
    and is read only when its M^(n - first) points are at most
    budget.samples, the rows of the coarse stage it replaces. Matrix groups
    and callables are not read.
    """
    f = grp.f
    if not (space.dim == 1 or math.isinf(space.p)):
        return None
    if isinstance(f, _Shell) and grp.kind == "norm":
        first, degree = 0, f.F.degree
    elif isinstance(f, HomogeneousPoly) and grp.kind != "inf":
        first, degree = 1, f.degree
    else:
        return None
    M = max(16, 8 * degree)
    return (first, M) if M ** (space.dim - first) <= budget.samples else None


def _torus_images(fs, counts):
    """images(angles): the values f(e^(i phi)) of the rows phi of angles, f
    owning counts[j] consecutive rows each, every run of shells of one map
    in one evaluation."""
    edges = np.cumsum([0] + list(counts))
    spans = _spans([_Group("norm", 0, f) for f in fs], edges)

    def images(angles):
        V = np.exp(1j * angles)
        out = np.empty(V.shape, dtype=np.complex128)
        for _, f, lo, hi in spans:
            out[lo:hi] = (f.eval_batch(V[lo:hi]) if isinstance(f, HomogeneousPoly)
                          else _evaluation(f, V[lo:hi], None))
        return out

    return images


def _peaks(values, M, m, count):
    """The flat indices of the best `count` local maxima of values on the
    periodic (M,) * m grid, best first. Equal values count once: a value
    that does not depend on an angle, such as a coordinate of a
    coordinatewise lift, peaks on a whole line of them."""
    grid = values.reshape((M,) * m)
    peak = np.ones(grid.shape, dtype=bool)
    for axis in range(m):
        for shift in (1, -1):
            peak &= grid >= np.roll(grid, shift, axis=axis)
    idx = np.flatnonzero(peak)
    idx = idx[np.unique(values[idx], return_index=True)[1]]
    return idx[np.argsort(-values[idx], kind="stable")[:count]]


def _depends(f) -> np.ndarray:
    """(dim_out, dim_in) booleans: whether coordinate k of a HomogeneousPoly,
    or of a `_Shell`'s map, involves variable i."""
    shell = isinstance(f, _Shell)
    dep = f.F.linear != 0 if shell else np.zeros((f.dim_out, f.dim_in), dtype=bool)
    for part in f.F.higher if shell else (f,):
        dep = dep | ((part.coeffs != 0).T.astype(int) @ (part.powers > 0).astype(int) > 0)
    return dep


def _polish(images, angles, f, at, free, step):
    """Raise f = |images(angles)[at]| row by row by Powell's method; returns
    the evaluations each row took.

    Row r moves only the angles free[r], first along each, step[r] long,
    then along the net move of each pass, which replaces the oldest
    direction. With m free angles at most, that is m passes if m <= 1, else
    m + 1, the last with `_TORUS_ITERS` golden-section steps per line and
    the earlier ones, which only find the directions, with half as many. A
    row moves only when its value rises. angles and f are updated in place.
    """
    rows, n = angles.shape
    width = int(free.sum(axis=1).max())
    axes = np.argsort(~free, axis=1, kind="stable")[:, :width]
    D = np.zeros((rows, width, n))
    D[np.arange(rows)[:, None], np.arange(width), axes] = np.where(
        np.take_along_axis(free, axes, axis=1), step[:, None], 0.0)
    evals = 0

    def line(d, iters):
        nonlocal evals
        base = angles.copy()
        x1, f1, x2, f2 = _golden_rows(lambda x: np.abs(images(base + x[:, None] * d))[at],
                                      np.full(rows, -1.0), np.full(rows, 1.0), iters)
        evals += iters + 2
        for x, fx in ((x1, f1), (x2, f2)):
            better = fx > f
            angles[better] = base[better] + x[better, None] * d[better]
            f[better] = fx[better]

    passes = width + 1 if width > 1 else width
    for t in range(passes):
        iters = _TORUS_ITERS if t == passes - 1 else _TORUS_ITERS // 2
        start = angles.copy()
        for i in range(width):
            if D[:, i].any():
                line(D[:, i], iters)
        if width > 1:
            moved = angles - start
            size = np.linalg.norm(moved, axis=1)
            turn = size > 0.0
            moved[turn] *= (step[turn] / size[turn])[:, None]
            line(moved, iters)
            D[turn] = np.concatenate((D[turn, 1:], moved[turn, None]), axis=1)
    return evals


def _torus_read(space, groups, budget) -> list:
    """Per group, its read on the circle or torus (see `_torus_grid`), or None.

    At p = inf ||f||_inf is the largest |f_k|, and each |f_k| is smooth
    where their maximum is not, so each coordinate is read apart. The grids
    are evaluated in blocks of whole grids of at most budget.samples rows.
    The best `_TORUS_CELLS` local maxima of each |f_k| on its grid are then
    polished together (`_polish`) along the angles of the variables f_k
    involves (`_depends`), those of a part on the face v_k = 1, whose angle
    stays 0. A point is kept only when it raises |f_k|, so no value falls
    below its grid maximum. A "norm" group reads the largest
    norm at its polished points and gives (value, maximizer). A "radius"
    group reads the largest |P_k| on its face and gives a RangeEstimate
    "torus" whose samples are the rows read for it; its maximizer is that
    point, v_k = 1, with the other coordinates moved inward by `_ROW_MARGIN`
    so that support_batch keeps k, as in `_closed_form`.
    """
    n = space.dim
    plan = [(k, grid) for k, grp in enumerate(groups)
            if (grid := _torus_grid(space, grp, budget)) is not None]
    out = [None] * len(groups)
    if not plan:
        return out
    fs = [groups[k].f for k, _ in plan]
    grids = []
    for _, (first, M) in plan:
        m = n - first
        angles = np.zeros((M ** m, n))
        angles[:, first:] = np.indices((M,) * m).reshape(m, M ** m).T * (2.0 * np.pi / M)
        grids.append(angles)
    moduli, block = [], []
    for j in range(len(grids)):
        block.append(j)
        sizes = [len(grids[i]) for i in block]
        if j + 1 == len(grids) or sum(sizes) + len(grids[j + 1]) > budget.samples:
            images = _torus_images([fs[i] for i in block], sizes)(
                np.concatenate([grids[i] for i in block]))
            moduli.extend(np.split(np.abs(images), np.cumsum(sizes)[:-1]))
            block = []
    starts, coord, f, free, counts = [], [], [], [], []
    for (_, (first, M)), fj, grid, mod in zip(plan, fs, grids, moduli):
        movable = _depends(fj)
        if first:  # a part's angle k stays 0 on its face v_k = 1
            movable &= ~np.eye(n, dtype=bool)
        for k in range(n):
            cells = _peaks(mod[:, k], M, n - first, _TORUS_CELLS)
            # a part's grid has v_1 = 1: turn its cells onto the face v_k = 1
            starts.append(grid[cells] - first * grid[cells][:, k:k + 1])
            coord.append(np.full(len(cells), k))
            f.append(mod[cells, k])
            free.append(np.repeat(movable[k:k + 1], len(cells), axis=0))
        counts.append(sum(len(c) for c in coord[-n:]))
    angles, coord, f = np.concatenate(starts), np.concatenate(coord), np.concatenate(f)
    images = _torus_images(fs, counts)
    step = np.repeat([2.0 * np.pi / M for _, (_, M) in plan], counts)
    evals = _polish(images, angles, f, (np.arange(len(f)), coord), np.concatenate(free), step) + 1
    norms = space.norm_batch(images(angles))
    edges = np.cumsum([0] + counts)
    for j, (k, _) in enumerate(plan):
        lo, hi = edges[j], edges[j + 1]
        if groups[k].kind == "norm":
            best = lo + int(np.argmax(norms[lo:hi]))
            out[k] = (float(norms[best]), np.exp(1j * angles[best]))
            continue
        best = lo + int(np.argmax(f[lo:hi]))
        w = (1.0 - _ROW_MARGIN) * np.exp(1j * angles[best])
        w[coord[best]] = 1.0
        rows = len(grids[j]) + int(hi - lo) * evals
        out[k] = RangeEstimate(float(f[best]), w, "torus", rows, 0)
    return out


def _estimates(space, groups, budget=None) -> list:
    """A RangeEstimate per "inf" and "radius" group, a (value, maximizer)
    pair per "norm" group.

    Each group with a `_closed_form` reads it, then each shell or part
    group that `_torus_read` can read on the circle or torus, its grid
    within budget.samples, does; the others run as one `_sphere_search`,
    and a call with none left makes no climb.
    """
    budget = budget or DEFAULT_BUDGET
    out = [_closed_form(space, grp) for grp in groups]
    todo = [k for k, est in enumerate(out) if est is None]
    for k, est in zip(todo, _torus_read(space, [groups[k] for k in todo], budget)):
        out[k] = est
    rest = [k for k, est in enumerate(out) if est is None]
    found = _sphere_search(space, [groups[k] for k in rest], budget) if rest else []
    for k, (value, vmax) in zip(rest, found):
        kind = groups[k].kind
        out[k] = (value, vmax) if kind == "norm" else RangeEstimate(
            -value if kind == "inf" else value, vmax, "sphere-search", budget.samples,
            budget.refine_iters)
    return out


def numerical_range_inf(space: NormedSpace, A, budget: SearchBudget | None = None) -> RangeEstimate:
    """Infimum of Re<Av, v*> over the unit sphere of the space.

    Exact on a dim-1 space (Re a), at p in {1, inf} (min_i Re a_ii -
    sum_(j!=i) |a_ij| over the rows at p = inf, the columns at p = 1) and at
    p = 2 (the smallest eigenvalue of the Hermitian part (A + A^H)/2): a
    "closed-form" RangeEstimate. Otherwise searched.
    """
    return _estimates(space, [_range_inf_group(_check_matrix(space, A))], budget)[0]


def numerical_radius(space: NormedSpace, A, budget: SearchBudget | None = None) -> RangeEstimate:
    """Supremum of |<Av, v*>| over the unit sphere.

    Exact on a dim-1 space (|a|), at p in {1, inf} (the largest absolute
    row sum at p = inf, column sum at p = 1) and at p = 2 (the largest
    eigenvalue of the Hermitian part of e^(i phi) A, maximized over phi by
    hilbert_radius_oracle): a "closed-form" RangeEstimate. Otherwise a
    search, an inner approximation.
    """
    return _estimates(space, [_radius_group(_check_matrix(space, A))], budget)[0]


def polynomial_numerical_radius(space: NormedSpace, P: HomogeneousPoly,
                                budget: SearchBudget | None = None) -> RangeEstimate:
    """Supremum of |<P(v), v*>| over the unit sphere for a homogeneous P.

    Exact on a dim-1 space, where P(z) = c z^m and the value is
    |P(1)| = |c|, the modulus of the summed coefficient. At p = inf it is
    max_k of the largest |P_k| over the faces v_k = 1 of the torus, read
    there ("torus") when the grid of max(16, 8 degree)^(n - 1) points fits
    budget.samples. Otherwise a lower-bound estimate by construction; the
    refinement stage tightens the coarse sampling but cannot overshoot the
    true supremum.
    """
    return _estimates(space, [_radius_group(_check_part(space, P))], budget)[0]


def sup_norm_on_sphere(space: NormedSpace, evaluator, budget: SearchBudget | None = None,
                       salt: int = 4):
    """Search max over the unit sphere of norm(evaluator(v)).

    Returns (value, maximizer). `evaluator` maps a (B, n) batch to (B, n).
    """
    return _estimates(space, [_Group("norm", salt, lambda V: evaluator(V))], budget)[0]


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


def hilbert_radius_oracle(A) -> tuple[float, float]:
    """(w, phi): the numerical radius w for p = 2 and an angle phi at which
    it is read, the largest eigenvalue of the Hermitian part
    cos(phi) H - sin(phi) K of e^(i phi) A, H and K those of A and -i A.
    A half turn negates that part, so one stacked eigvalsh sweep over the
    360 angles of [0, pi) reads both ends of the spectrum: a 720-angle grid.
    The eigenvalue at phi is at least w cos(phi - phi*), phi* an angle that
    attains w, so the grid maximum lies within w (pi/720)^2 / 2, about
    9.5e-6 w, of w however many peaks the curve has. A golden-section search
    then polishes the best grid angle; w is the best value seen, at phi.
    """
    A = np.asarray(A, dtype=np.complex128)
    H, K = (A + A.conj().T) / 2.0, (A - A.conj().T) / 2.0j

    def part(phi):
        return np.multiply.outer(np.cos(phi), H) - np.multiply.outer(np.sin(phi), K)

    grid = np.pi * np.arange(720) / 360.0
    ends = np.linalg.eigvalsh(part(grid[:360]))
    vals = np.concatenate([ends[:, -1], -ends[:, 0]])
    k = int(np.argmax(vals))
    x1, f1, x2, f2 = _golden_max(lambda phi: np.linalg.eigvalsh(part(phi))[-1],
                                 grid[k] - grid[1], grid[k] + grid[1], 72)
    value, phi = max((vals[k], grid[k]), (f1, x1), (f2, x2), key=lambda pair: pair[0])
    return float(value), float(phi)


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


def _golden_rows(h, lo, hi, iters):
    """`_golden_max` on every entry of arrays lo and hi at once, h taking and
    returning arrays: one call of h per step serves every row."""
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - gold * (hi - lo)
    x2 = lo + gold * (hi - lo)
    f1, f2 = h(x1), h(x2)
    for _ in range(iters):
        up = f1 < f2
        lo, hi = np.where(up, x1, lo), np.where(up, hi, x2)
        kept_x, kept_f = np.where(up, x2, x1), np.where(up, f2, f1)
        x = np.where(up, lo + gold * (hi - lo), hi - gold * (hi - lo))
        fx = h(x)
        x1, f1 = np.where(up, kept_x, x), np.where(up, kept_f, fx)
        x2, f2 = np.where(up, x, kept_x), np.where(up, fx, kept_f)
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
    two groups of one `_estimates` call, so the radius is exact where it
    has a closed form. The sup norm of a HomogeneousPoly is read on the
    circle (dim 1) or the torus (p = inf), where it equals the radius, and
    there the radius is closed-form or read too. Returns a report dict;
    `passed` tolerates
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
