"""Certifiers and refuters for the two dissipation inequalities on the ball.

certify_generator probes Re<G(z), z*> <= Re<G(0), z*>(1 - ||z||^2) on shell
grids and refines the worst points; certify_pseudo_dissipative searches a
rotation angle and affine budget (a, b) covering Re e^(i theta)<F(z), z*>
<= a ||z||^2 + b (1 - ||z||^2) on an annulus, with a direction-coverage
probe that refutes maps whose pairing cloud surrounds every half plane at
a scale far beyond the data. The shift between the two forms and the
coefficient checks certified maps must satisfy live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numrange import _PROPOSALS, _climb, _golden_max
from .polymaps import CallableMap, PolyMap, _least_real_part, _pairs, taylor_coefficients
from .spaces import NormedSpace, _shell_grid


class NotCertifiedError(RuntimeError):
    """An operation requiring a certified input received something else."""


_DEFAULT_SHELLS = tuple(round(0.1 + 0.05 * i, 2) for i in range(18)) + (0.99,)

_REFINE_SALT = 505
_REFINE_STEPS = (0.05, 1.4, 0.2, 0.5)  # sigma0, grow, cap, shrink
_PD_ROUND_SALT = 7919
_COVERAGE_DIRECTIONS = 24


@dataclass(frozen=True)
class CertifyBudget:
    """Sampling and refinement effort for the certifiers.

    sphere: directions per shell (the shells are 0.1 .. 0.95 step 0.05 plus
    0.99), refine_points: worst points refined, refine_iters: climb
    iterations, each trying numrange's `_PROPOSALS` candidates per point,
    seed: key of the direction and refinement streams, max_evals: cap on
    slack evaluations; reaching it makes a clean run "inconclusive".
    """

    sphere: int = 128
    refine_points: int = 32
    refine_iters: int = 40
    seed: int = 0
    max_evals: int | None = None


@dataclass(frozen=True)
class GeneratorVerdict:
    """Outcome of certify_generator.

    witness is present exactly when the verdict is "refuted" and then
    violates the inequality by more than the tolerance on re-evaluation.
    """

    verdict: str
    tolerance: float
    worst_slack: float
    witness: np.ndarray | None
    samples: int


@dataclass(frozen=True)
class PseudoDissipativityCertificate:
    """Outcome of certify_pseudo_dissipative with the fitted budget."""

    verdict: str
    theta: float
    a: float
    b: float
    epsilon: float
    hull_vertices: np.ndarray
    samples: int
    worst_slack: float
    witness: np.ndarray | None = None


def generator_slack(G, Z: np.ndarray, alt_support: bool = False) -> np.ndarray:
    """Pointwise slack Re<G(0), z*>(1 - ||z||^2) - Re<G(z), z*> on rows of Z.

    Nonnegative slack everywhere is the generator inequality.
    """
    space = G.space
    W = space.support_batch(Z, alt=alt_support)
    vals = G.eval_batch(Z)
    r2 = space.norm_batch(Z) ** 2
    lhs = np.real(np.sum(vals * W, axis=1))
    center = np.real(W @ np.asarray(G.constant))
    return center * (1.0 - r2) - lhs


def _refine_points(space, value_batch, Z0, lo, hi, iters, rng):
    """Minimize value_batch(Z, g) around each row g of Z0, norms clipped to [lo, hi].

    Returns (points, values, evals): numrange's climb engine on the negated
    values with a tighter step schedule, all rows advanced in one batch.
    """
    B, n = Z0.shape
    groups = np.arange(B)
    noise = rng.standard_normal((iters, B, _PROPOSALS, 2 * n))
    Z, neg = _climb(space, lambda Z, g: -value_batch(Z, g), Z0,
                    -np.asarray(value_batch(Z0, groups), dtype=np.float64),
                    noise, groups, _REFINE_STEPS, (lo, hi))
    return Z, -neg, B + iters * B * _PROPOSALS


def certify_generator(G, budget: CertifyBudget | None = None, tolerance: float = 1e-9,
                      alt_support: bool = False) -> GeneratorVerdict:
    """Certify or refute the generator inequality for a ball map.

    Shell-times-sphere sampling followed by local refinement at the worst
    points. Refutes on slack below -tolerance, certifies when the refined
    minimum stays above -1e-9, and returns "inconclusive" only when an
    evaluation cap cuts refinement short without a violation.

    Args:
        G: PolyMap or CallableMap.
        budget: sampling effort; None for the default.
        tolerance: refutation threshold on the slack.
        alt_support: use the alternative support-functional selection at
            non-smooth points (p = 1 or p = inf tie-breaking).
    """
    budget = budget or CertifyBudget()
    space = G.space

    def slack_batch(Z, g=None):
        return generator_slack(G, Z, alt_support=alt_support)

    V = space.sphere_sample(budget.sphere, budget.seed)
    Z = _shell_grid(np.asarray(_DEFAULT_SHELLS), V)
    slack = slack_batch(Z)
    evals = Z.shape[0]

    order = np.argsort(slack)
    take = min(budget.refine_points, Z.shape[0])
    seeds_z = Z[order[:take]].copy()
    exhausted = False
    refined_z, refined_s = seeds_z, slack[order[:take]]
    if budget.max_evals is not None and evals >= budget.max_evals:
        exhausted = True
    else:
        iters = budget.refine_iters
        if budget.max_evals is not None:
            per_iter = take * _PROPOSALS
            allowed = max(0, (budget.max_evals - evals - take) // max(per_iter, 1))
            if allowed < iters:
                iters = int(allowed)
                exhausted = True
        rng = np.random.default_rng([budget.seed, _REFINE_SALT])
        refined_z, refined_s, used = _refine_points(
            space, slack_batch, seeds_z, 1e-8, 0.9995, iters, rng)
        evals += used

    worst_idx = int(np.argmin(refined_s))
    worst = float(min(slack.min(), refined_s[worst_idx]))
    if worst < -tolerance:
        if refined_s[worst_idx] <= slack.min():
            witness = refined_z[worst_idx]
        else:
            witness = Z[int(np.argmin(slack))]
        return GeneratorVerdict("refuted", tolerance, worst, witness, evals)
    if exhausted:
        return GeneratorVerdict("inconclusive", tolerance, worst, None, evals)
    return GeneratorVerdict("certified", tolerance, worst, None, evals)


def _require_certified(G, verdict, budget=None, tolerance=1e-9) -> None:
    """Certify G unless a verdict is given; raise unless it is "certified"."""
    if verdict is None:
        verdict = certify_generator(G, budget, tolerance)
    if verdict.verdict != "certified":
        raise NotCertifiedError(f"map is {verdict.verdict}, not certified")


def certify_disc_generator(g, budget: CertifyBudget | None = None,
                           tolerance: float = 1e-9) -> GeneratorVerdict:
    """Run the generator certifier on a scalar disc function.

    Wraps the function, whatever its kind (black boxes included), as a
    dimension-1 ball map that evaluates it on the first coordinate.
    """
    def fn(Z, _g=g):
        return np.asarray(_g(Z[:, 0]), dtype=np.complex128)[:, None]

    return certify_generator(CallableMap(NormedSpace(1, 2.0), fn), budget, tolerance)


# -- pseudo-dissipativity ----------------------------------------------------


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Counterclockwise convex hull of (M, 2) planar points, monotone chain."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    # cross products of raw coordinates overflow for pairing clouds that reach
    # e^500 scales, so the chain walks a normalized copy; the vertex set is
    # scale invariant and the returned rows are the originals
    scaled = pts / max(float(np.max(np.abs(pts))), 1e-300)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[int] = []
    for i in range(scaled.shape[0]):
        while len(lower) >= 2 and cross(scaled[lower[-2]], scaled[lower[-1]], scaled[i]) <= 0.0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in range(scaled.shape[0] - 1, -1, -1):
        while len(upper) >= 2 and cross(scaled[upper[-2]], scaled[upper[-1]], scaled[i]) <= 0.0:
            upper.pop()
        upper.append(i)
    return pts[np.array(lower[:-1] + upper[:-1])]


def _pairings_on(F, Z):
    space = F.space
    W = space.support_batch(Z)
    omega = space.pairing_batch(F.eval_batch(Z), W)
    if not np.all(np.isfinite(omega)):
        raise ValueError(
            "map evaluation produced non-finite pairings on the annulus; "
            "clamp the evaluator before certifying")
    return omega


def _annulus(F, epsilon, V):
    """Rows of V on six shells from 1 - epsilon + epsilon/20 to 0.999.

    Returns (Z, omega, r2): the points, their pairings and squared norms.
    Raises ValueError unless 0 < epsilon < 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    shells = np.linspace(1.0 - epsilon + epsilon / 20.0, 0.999, 6)
    Z = _shell_grid(shells, V)
    return Z, _pairings_on(F, Z), F.space.norm_batch(Z) ** 2


def _covers_all_directions(F, lo, hi, Z, omega, R_big, budget) -> tuple[
        bool, np.ndarray | None, int, np.ndarray | None]:
    """Probe whether refined samples exceed R_big in every half-plane direction.

    Returns (covered, witness, evals, extremes), extremes holding the
    pairings at the refined directional maxima once the probe gets that
    far. Climbing refinement per direction; tame maps fail the quick
    magnitude check immediately, so the full probe only runs on data that
    already reaches the refutation scale.
    """
    space = F.space
    rng = np.random.default_rng([budget.seed, 707])
    evals = 0

    def neg_abs(flat, g):
        return -np.abs(_pairings_on(F, flat))

    start = Z[int(np.argmax(np.abs(omega)))][None, :]
    zq, vq, used = _refine_points(space, neg_abs, start, lo, hi,
                                  budget.refine_iters, rng)
    evals += used
    peak = -float(vq[0])
    if peak < 0.5 * R_big:
        return False, None, evals, None

    dirs = np.exp(-1j * 2.0 * np.pi * np.arange(_COVERAGE_DIRECTIONS) / _COVERAGE_DIRECTIONS)
    X = np.real(dirs[:, None] * omega[None, :])
    starts = Z[np.argmax(X, axis=1)].copy()

    def neg_directional(flat, g):
        return -np.real(dirs[g] * _pairings_on(F, flat))

    # refine all directions in one batch, start g climbing direction g
    zc, vc, used = _refine_points(space, neg_directional, starts, lo, hi,
                                  2 * budget.refine_iters, rng)
    evals += used
    reached = -vc
    extremes = _pairings_on(F, zc)
    if np.all(reached >= R_big):
        witness = zq[0]
        return True, witness, evals, extremes
    return False, None, evals, extremes


def _fit_at_theta(theta, omega, r2, b0):
    """Affine budget (a, b) at angle theta; a column of angles gives arrays."""
    x = np.real(np.exp(1j * theta) * omega)
    acap = np.max((x - b0 * (1.0 - r2)) / r2, axis=-1, keepdims=True)
    b = np.maximum(0.0, np.max((x - acap * r2) / (1.0 - r2), axis=-1, keepdims=True))
    return np.max((x - b * (1.0 - r2)) / r2, axis=-1), b[..., 0]


def certify_pseudo_dissipative(F, epsilon: float = 0.1,
                               budget: CertifyBudget | None = None,
                               tolerance: float = 1e-9) -> PseudoDissipativityCertificate:
    """Find (theta, a, b) certifying pseudo-dissipativity on an annulus.

    Pipeline: sample the annulus 1 - epsilon < ||z|| < 1, refute when the
    pairing cloud provably surrounds a disc of radius far beyond its bulk
    scale in every direction, otherwise scan 720 rotation angles, fit the
    affine budget per angle (anchored at b = ||F(0)||, then the smallest b
    and tightest a that cover all samples), polish theta, and validate with
    fresh samples plus descent refinement, enlarging `a` until no violation
    beyond 1e-12 survives. A certificate is only issued once the shifted map
    e^(i theta) F - a id also passes the whole-ball generator certifier, with
    refutation witnesses converted into further increases of a. Retries twice
    on a halved annulus width before giving up as "inconclusive".
    """
    budget = budget or CertifyBudget(sphere=192)
    eps = epsilon
    last = None
    for _ in range(3):
        cert = _pd_attempt(F, eps, budget, tolerance)
        if cert.verdict in ("certified", "refuted"):
            return cert
        last = cert
        eps = eps / 2.0
    return last


def _pd_attempt(F, epsilon, budget, tolerance) -> PseudoDissipativityCertificate:
    space = F.space
    lo, hi = 1.0 - epsilon + epsilon / 20.0, 0.999  # the annulus, as refinement bounds
    Z, omega, r2 = _annulus(F, epsilon, space.sphere_sample(budget.sphere, budget.seed))
    evals = Z.shape[0]

    R_big = 1000.0 * (1.0 + float(np.quantile(np.abs(omega), 0.9)))
    covered, cover_witness, used, extremes = _covers_all_directions(
        F, lo, hi, Z, omega, R_big, budget)
    evals += used
    cloud = omega if extremes is None else np.concatenate([omega, extremes])
    hull = _convex_hull(np.column_stack([cloud.real, cloud.imag]))
    if covered:
        return PseudoDissipativityCertificate(
            "refuted", 0.0, 0.0, 0.0, epsilon, hull, evals, -R_big, cover_witness)

    b0 = space.norm(np.asarray(F.constant))
    thetas = 2.0 * np.pi * np.arange(720) / 720.0
    a_s, bs = _fit_at_theta(thetas[:, None], omega, r2, b0)
    t_idx = int(np.lexsort((thetas, bs, a_s))[0])

    # golden-section polish of the angle around the best grid cell, on -a
    step = 2.0 * np.pi / 720.0
    x1, f1, x2, f2 = _golden_max(lambda t: -_fit_at_theta(t, omega, r2, b0)[0],
                                 thetas[t_idx] - 2.0 * step, thetas[t_idx] + 2.0 * step, 60)
    theta = float(x1 if f1 >= f2 else x2)
    a, b = map(float, _fit_at_theta(theta, omega, r2, b0))
    phase = complex(math.cos(theta), math.sin(theta))

    # validation and repair: fresh samples plus descent on the slack,
    # enlarging a (slope r^2 > 0 on the annulus) until nothing violates
    xs_all = [np.real(phase * omega)]
    r2_all = [r2]
    certified = False
    worst = math.nan
    for round_idx in range(12):
        rng = np.random.default_rng([budget.seed, _PD_ROUND_SALT, round_idx])
        Zr, omr, r2r = _annulus(
            F, epsilon, space.sphere_sample(budget.sphere, budget.seed + 1009 * (round_idx + 1)))
        xr = np.real(phase * omr)
        evals += Zr.shape[0]
        xs_all.append(xr)
        r2_all.append(r2r)
        slack = a * r2r + b * (1.0 - r2r) - xr

        def pd_slack(flat, g, _a=a, _b=b):
            om = _pairings_on(F, flat)
            rr2 = space.norm_batch(flat) ** 2
            return _a * rr2 + _b * (1.0 - rr2) - np.real(phase * om)

        order = np.argsort(slack)[: budget.refine_points]
        zW, sW, used = _refine_points(space, pd_slack, Zr[order].copy(), lo, hi,
                                      budget.refine_iters, rng)
        evals += used
        omW = _pairings_on(F, zW)
        r2W = space.norm_batch(zW) ** 2
        xs_all.append(np.real(phase * omW))
        r2_all.append(r2W)
        worst = float(min(slack.min(), sW.min()))
        if worst >= -1e-12:
            certified = True
            break
        w_idx = int(np.argmin(sW))
        rw2 = float(r2W[w_idx]) if sW[w_idx] <= slack.min() else float(r2r[int(np.argmin(slack))])
        a += (-worst) / rw2 * 1.05 + 1e-12

    # round-trip guard: the shifted map must survive the whole-ball generator
    # certifier, whose shell sweep and descent reach pockets the annulus grid
    # misses; a refutation witness prices the repair exactly, because raising
    # a adds r^2 of slack at every point and leaves the center value alone
    if certified:
        certified = False
        for _ in range(12):
            inner = certify_generator(F.shifted(theta, a), budget, tolerance)
            evals += inner.samples
            if inner.verdict == "certified":
                certified = True
                break
            if inner.witness is None:
                worst = inner.worst_slack
                break
            rw2 = space.norm(inner.witness) ** 2
            worst = inner.worst_slack
            a += (-worst) / max(rw2, 1e-12) * 1.05 + 1e-12

    xs = np.concatenate(xs_all)
    r2s = np.concatenate(r2_all)
    if not certified:
        return PseudoDissipativityCertificate(
            "inconclusive", theta, a, b, epsilon, hull, evals, worst, None)
    # re-minimize b at the final a over every collected sample
    b = max(0.0, float(np.max((xs - a * r2s) / (1.0 - r2s))))
    worst = float(np.min(a * r2s + b * (1.0 - r2s) - xs))
    return PseudoDissipativityCertificate(
        "certified", theta, a, b, epsilon, hull, evals, worst, None)


def validate_certificate(F, theta: float, a: float, b: float, epsilon: float,
                         seed: int = 0) -> dict:
    """Check a given (theta, a, b) budget against 192 fresh directions on
    each of the six annulus shells; epsilon must lie in (0, 1)."""
    Z, omega, r2 = _annulus(F, epsilon, F.space.sphere_sample(192, seed))
    slack = a * r2 + b * (1.0 - r2) - np.real(np.exp(1j * theta) * omega)
    worst = float(np.min(slack))
    return {"min_slack": worst, "samples": int(Z.shape[0]), "passed": worst >= -1e-9}


# -- shifting between the two forms ------------------------------------------


def shift_to_generator(F, theta: float, a: float):
    """The candidate generator e^(i theta) F - a id."""
    return F.shifted(theta, a)


def inverse_shift(G, theta: float, a: float):
    """The map F with e^(i theta) F - a id equal to G."""
    return G.shifted(0.0, -a).shifted(-theta, 0.0)


# -- coefficient consequences -------------------------------------------------


def linear_dissipation_check(G: PolyMap, v_count: int = 256, seed: int = 0,
                             budget: CertifyBudget | None = None,
                             verdict: GeneratorVerdict | None = None) -> dict:
    """Certified generators never expand along support directions.

    Reads the line coefficients c_k(v) of `PolyMap.line_coefficients` at
    sampled unit v: checks Re c_1(v) = Re<Tv, v*> <= 1e-9 for the linear
    part T, and at directions where that dissipation vanishes
    (|Re c_1(v)| <= 1e-9) pins c_2(v) to -conj(c_0(v)) and every higher
    coefficient to zero, both within 1e-8.

    Raises:
        NotCertifiedError: when G does not certify first.
    """
    _require_certified(G, verdict, budget)
    C = G.line_coefficients(G.space.sphere_sample(v_count, seed))
    tv = C[:, 1].real
    max_tv = float(np.max(tv))
    degenerate = np.abs(tv) <= 1e-9
    Cd = C[degenerate]
    # slices past the last column are empty: a degree-1 map reads c_2 = 0
    identity_err = np.abs(Cd[:, 2:3].sum(axis=1) + np.conj(Cd[:, 0]))
    max_identity_err = float(np.max(identity_err, initial=0.0))
    max_higher_err = float(np.max(np.abs(Cd[:, 3:]), initial=0.0))
    passed = (max_tv <= 1e-9 and max_identity_err <= 1e-8 and max_higher_err <= 1e-8)
    return {
        "max_linear_dissipation": max_tv,
        "degenerate_directions": int(np.count_nonzero(degenerate)),
        "max_quadratic_identity_error": max_identity_err,
        "max_higher_coefficient": max_higher_err,
        "samples": int(v_count),
        "passed": passed,
    }


def caratheodory_check(q, order: int = 16) -> dict:
    """Coefficient bounds |a_j| <= 2 Re q(0) for nonnegative-real-part q.

    Coefficients come from circle quadrature on |zeta| = 0.7
    (taylor_coefficients); the input is first spot-checked for nonnegative
    real part at 16 angles on each of the circles |zeta| = 0.2, 0.5, 0.8,
    0.95.

    Raises:
        ValueError: when sampling finds Re q < -1e-9.
    """
    if _least_real_part(q, [0.2, 0.5, 0.8, 0.95]) < -1e-9:
        raise ValueError("input is not a nonnegative-real-part function on the disc")
    coeffs = taylor_coefficients(q, order)
    q0 = complex(q(0.0 + 0.0j))
    bound = 2.0 * q0.real
    mags = np.abs(coeffs[1:])
    excess = mags - bound
    violations = int(np.count_nonzero(excess > 1e-8))
    return {
        "bound": bound,
        "coefficient_magnitudes": mags.tolist(),
        "max_excess": float(np.max(excess)) if mags.size else -bound,
        "violations": violations,
        "passed": violations == 0,
    }


def restriction_agreement(G, v_count: int = 12, budget: CertifyBudget | None = None,
                          disc_budget: CertifyBudget | None = None) -> dict:
    """Ball verdict versus disc verdicts of sampled slice restrictions.

    The ball inequality at z = zeta v is exactly the disc inequality of the
    slice through v, so a certified ball map must have every restriction
    certified and a refuted one must have some refuted slice; the refuting
    direction (the witness direction) is always added to the sample set.
    """
    space = G.space
    ball = certify_generator(G, budget)
    V = space.sphere_sample(v_count, budget.seed if budget else 0)
    directions = [V[i] for i in range(V.shape[0])]
    if ball.verdict == "refuted" and ball.witness is not None:
        w = ball.witness
        directions.append(w / space.norm(w))
    disc_verdicts = []
    for v in directions:
        g = G.restrict(v)
        disc_verdicts.append(certify_disc_generator(g, disc_budget).verdict)
    any_disc_refuted = any(d == "refuted" for d in disc_verdicts)
    all_disc_certified = all(d == "certified" for d in disc_verdicts)
    if ball.verdict == "certified":
        agree = all_disc_certified
    elif ball.verdict == "refuted":
        agree = any_disc_refuted
    else:
        agree = True  # no claim either way on an inconclusive budget
    return {
        "ball_verdict": ball.verdict,
        "disc_verdicts": disc_verdicts,
        "directions": len(directions),
        "agree": agree,
    }


# -- serialization ------------------------------------------------------------


def verdict_to_dict(v: GeneratorVerdict) -> dict:
    return {
        "verdict": v.verdict,
        "tolerance": v.tolerance,
        "worst_slack": v.worst_slack,
        "witness": _pairs(v.witness) if v.witness is not None else None,
        "samples": v.samples,
    }


def certificate_to_dict(c: PseudoDissipativityCertificate) -> dict:
    return {
        "verdict": c.verdict,
        "theta": c.theta,
        "a": c.a,
        "b": c.b,
        "epsilon": c.epsilon,
        "witness": _pairs(c.witness) if c.witness is not None else None,
        "samples": c.samples,
    }
