"""Certifiers and refuters for the two dissipation inequalities on the ball.

certify_generator probes Re<G(z), z*> <= Re<G(0), z*>(1 - ||z||^2) on shell
grids, in one batched core that certifies a ball map, a disc function or
many slices, each as if alone; certify_pseudo_dissipative fits a rotation
angle and affine budget (a, b) covering Re e^(i theta)<F(z), z*> <=
a ||z||^2 + b (1 - ||z||^2) on an annulus, and refutes a black box whose
pairing cloud surrounds every half plane far beyond the data. Both find
their worst point through one stage, a descent from the worst grid rows
whose slack the caller holds, so `samples` counts each evaluated row once.
The shift between the two forms and the coefficient checks live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numrange import _PROPOSALS, _climb, _golden_max
from .polymaps import PolyMap, _least_real_part, _pairs, taylor_coefficients
from .spaces import NormedSpace, _shell_grid


class NotCertifiedError(RuntimeError):
    """An operation requiring a certified input received something else."""


_DEFAULT_RADII = tuple(round(0.1 + 0.05 * i, 2) for i in range(18)) + (0.99,)

_REFINE_SALT = 505
_REFINE_STEPS = (0.05, 1.4, 0.2, 0.5)  # sigma0, grow, cap, shrink
_PD_ROUND_SALT = 7919
_VALIDATE_SEED_OFFSET = 1009 * 13  # the certifier draws seed + 1009 k for k = 0..12
_COVERAGE_DIRECTIONS = 24


@dataclass(frozen=True)
class CertifyBudget:
    """Sampling and refinement effort for the certifiers.

    sphere: directions per shell (the shells are 0.1 .. 0.95 step 0.05 plus
    0.99), refine_points: worst points refined, refine_iters: climb
    iterations, each trying numrange's `_PROPOSALS` candidates per point,
    seed: key of the direction and refinement streams, max_evals: cap on
    `certify_generator`'s slack evaluations, each map of a batch on its own;
    reaching it makes a clean run "inconclusive", and samples exceed it only
    when the shell grid alone does. `certify_pseudo_dissipative` caps only its
    whole-ball guard, not its annulus grid, coverage probe or validation
    rounds. ValueError unless sphere and refine_points are >= 1, refine_iters
    >= 0 and max_evals is None or >= 0.
    """

    sphere: int = 128
    refine_points: int = 32
    refine_iters: int = 40
    seed: int = 0
    max_evals: int | None = None

    def __post_init__(self):
        for name, least in (("sphere", 1), ("refine_points", 1), ("refine_iters", 0)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.max_evals is not None and not self.max_evals >= 0:
            raise ValueError(f"max_evals must be >= 0 or None, got {self.max_evals}")


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
    """Outcome of certify_pseudo_dissipative with the fitted budget.

    theta, a and b give Re e^(i theta)<F(z), z*> <= a ||z||^2 + b (1 - ||z||^2)
    on the annulus of width epsilon; samples counts the evaluations spent.
    worst_slack is the least slack seen, or minus the refutation scale on a
    refutation, whose witness is the point of largest pairing found; the
    other verdicts carry no witness.
    """

    verdict: str
    theta: float
    a: float
    b: float
    epsilon: float
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


def _check_tolerance(tolerance) -> None:
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")


def _worst_points(space, slack_batch, Z, slack, noise, bounds):
    """Each map's least slack, after one descent from its worst grid rows.

    slack[m] holds map m's slack on the rows of Z. Its noise.shape[1] least
    rows descend through numrange's climb on the negated slack, with a
    tighter step schedule, noise tiled per map and norms clipped to bounds,
    evaluating noise[..., 0].size rows per map. Returns per map the least
    slack and its point (the best descended row unless the grid minimum is
    lower), then all descended rows and their slack, map after map.
    """
    count, take = slack.shape[0], noise.shape[1]
    order = np.argsort(slack, axis=1)[:, :take]
    points, neg = _climb(space, lambda rows, g: -slack_batch(rows, g), Z[order.ravel()],
                         -np.take_along_axis(slack, order, axis=1).ravel(),
                         np.tile(noise, (1, count, 1, 1)), np.arange(count).repeat(take),
                         _REFINE_STEPS, bounds)
    values = -neg
    worst, witness = [], []
    for grid_s, zs, ss in zip(slack, points.reshape(count, take, -1), values.reshape(count, take)):
        i = int(np.argmin(ss))
        worst.append(float(min(grid_s.min(), ss[i])))
        witness.append(zs[i] if ss[i] <= grid_s.min() else Z[int(np.argmin(grid_s))])
    return worst, witness, points, values


def _certify_maps(space, slack_batch, count, budget, tolerance) -> list[GeneratorVerdict]:
    """Certify `count` maps on `space` at once, each exactly as if alone.

    slack_batch(Z, g) is map g[i]'s slack at Z[i], a map's rows one block;
    the maps share the shell grid and the climb noise, and rows climb alone.
    """
    _check_tolerance(tolerance)
    budget = budget or CertifyBudget()
    Z = _shell_grid(np.asarray(_DEFAULT_RADII), space.sphere_sample(budget.sphere, budget.seed))
    evals = Z.shape[0]
    slack = slack_batch(np.tile(Z, (count, 1)), np.arange(count).repeat(evals)).reshape(count, -1)
    take = min(budget.refine_points, evals)
    cap = budget.max_evals
    iters = budget.refine_iters if cap is None else min(
        budget.refine_iters, max(0, (cap - evals) // (take * _PROPOSALS)))
    exhausted = iters < budget.refine_iters or cap is not None and evals >= cap
    noise = np.random.default_rng([budget.seed, _REFINE_SALT]).standard_normal(
        (iters, take, _PROPOSALS, 2 * space.dim))
    worst, witness, _, _ = _worst_points(space, slack_batch, Z, slack, noise, (1e-8, 0.9995))
    evals += noise[..., 0].size
    return [GeneratorVerdict("refuted" if w < -tolerance else
                             "inconclusive" if exhausted else "certified",
                             tolerance, w, z if w < -tolerance else None, evals)
            for w, z in zip(worst, witness)]


def certify_generator(G, budget: CertifyBudget | None = None, tolerance: float = 1e-9,
                      alt_support: bool = False) -> GeneratorVerdict:
    """Certify or refute the generator inequality for a ball map.

    Shell-times-sphere sampling followed by local refinement at the worst
    points. Refutes when some slack falls below -tolerance and certifies
    otherwise, except that an evaluation cap cutting refinement short
    without such a violation gives "inconclusive".

    Args:
        G: PolyMap or CallableMap.
        budget: sampling effort; None for the default.
        tolerance: refutation threshold on the slack; ValueError unless > 0.
        alt_support: use the alternative support-functional selection at
            non-smooth points (p = 1 or p = inf tie-breaking).
    """
    return _certify_maps(G.space, lambda Z, g: generator_slack(G, Z, alt_support=alt_support),
                         1, budget, tolerance)[0]


def _require_certified(G, verdict=None):
    """The verdict (None: certify G now) if "certified"; else raise NotCertifiedError."""
    if verdict is None:
        verdict = certify_generator(G)
    if verdict.verdict != "certified":
        raise NotCertifiedError(f"map is {verdict.verdict}, not certified")
    return verdict


def _certify_discs(fns, budget, tolerance) -> list[GeneratorVerdict]:
    """Certify disc functions at once; each evaluates its own block of rows,
    with the center term `W @ g(0)` per block, as `generator_slack` rounds it."""
    space = NormedSpace(1, 2.0)
    centers = [np.asarray(g(np.zeros(1, complex)), dtype=np.complex128) for g in fns]

    def slack_batch(Z, groups):
        W = space.support_batch(Z)
        vals, center = np.empty(Z.shape[0], dtype=np.complex128), np.empty(Z.shape[0])
        edges = np.searchsorted(groups, np.arange(len(fns) + 1))
        for g, c, lo, hi in zip(fns, centers, edges, edges[1:]):
            vals[lo:hi], center[lo:hi] = g(Z[lo:hi, 0]), np.real(W[lo:hi] @ c)
        return center * (1.0 - space.norm_batch(Z) ** 2) - np.real(vals * W[:, 0])

    return _certify_maps(space, slack_batch, len(fns), budget, tolerance)


def certify_disc_generator(g, budget: CertifyBudget | None = None,
                           tolerance: float = 1e-9) -> GeneratorVerdict:
    """Run the generator certifier on a scalar disc function.

    The function, whatever its kind (black boxes included), is a batch of
    one for the certifier core, which samples the disc as the ball of C^1.
    """
    return _certify_discs([g], budget, tolerance)[0]


# -- pseudo-dissipativity ----------------------------------------------------


def _pairings_on(F, Z):
    space = F.space
    W = space.support_batch(Z)
    omega = space.pairing_batch(F.eval_batch(Z), W)
    if not np.all(np.isfinite(omega)):
        raise ValueError(
            "map evaluation produced non-finite pairings on the annulus; "
            "clamp the evaluator before certifying")
    return omega


def _annulus_bounds(epsilon) -> tuple[float, float]:
    """Norm bounds (lo, hi) of the sampled annulus; ValueError unless 0 < epsilon < 1."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return 1.0 - epsilon + epsilon / 20.0, 0.999


def _annulus(F, lo, hi, V):
    """Rows of V on six shells from lo to hi: (points, pairings, squared norms)."""
    Z = _shell_grid(np.linspace(lo, hi, 6), V)
    return Z, _pairings_on(F, Z), F.space.norm_batch(Z) ** 2


def _annulus_slack(a, b, r2, x):
    """Slack a r^2 + b (1 - r^2) - x at squared norms r2, x = Re e^(i theta) omega."""
    return a * r2 + b * (1.0 - r2) - x


def _covers_all_directions(F, lo, hi, Z, omega, R_big, budget) -> tuple[
        bool, np.ndarray | None, int]:
    """Probe whether refined samples exceed R_big in every half-plane direction.

    Returns (covered, witness, evals). Climbing refinement per direction;
    tame maps fail the quick magnitude check immediately, so the full probe
    only runs on data that already reaches the refutation scale.
    """
    space = F.space
    rng = np.random.default_rng([budget.seed, 707])

    i = int(np.argmax(np.abs(omega)))
    noise = rng.standard_normal((budget.refine_iters, 1, _PROPOSALS, 2 * space.dim))
    zq, vq = _climb(space, lambda flat, g: np.abs(_pairings_on(F, flat)), Z[i:i + 1],
                    np.abs(omega[i:i + 1]), noise, [0], _REFINE_STEPS, (lo, hi))
    if float(vq[0]) < 0.5 * R_big:
        return False, None, noise[..., 0].size

    dirs = np.exp(-1j * 2.0 * np.pi * np.arange(_COVERAGE_DIRECTIONS) / _COVERAGE_DIRECTIONS)
    reach = np.real(dirs[:, None] * omega[None, :])

    # refine all directions in one batch, start g climbing direction g
    noise = rng.standard_normal(
        (2 * budget.refine_iters, _COVERAGE_DIRECTIONS, _PROPOSALS, 2 * space.dim))
    _, vc = _climb(space, lambda flat, g: np.real(dirs[g] * _pairings_on(F, flat)),
                   Z[np.argmax(reach, axis=1)], reach.max(axis=1), noise,
                   np.arange(_COVERAGE_DIRECTIONS), _REFINE_STEPS, (lo, hi))
    covered = bool(np.all(vc >= R_big))
    evals = budget.refine_iters * _PROPOSALS + noise[..., 0].size
    return covered, zq[0] if covered else None, evals


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

    Pipeline: sample the annulus 1 - epsilon < ||z|| < 1, refute a black-box
    map when the pairing cloud provably surrounds a disc of radius far
    beyond its bulk scale in every direction (a `PolyMap` is bounded on the
    closed ball, so it is never refuted), otherwise scan 720 rotation
    angles, fit the affine budget per angle (anchored at b = ||F(0)||, then
    the smallest b and tightest a that cover all samples) and polish theta.
    Each validation round then samples fresh directions and finds its worst
    point through the generator certifier's stage; a violation beyond 1e-12
    raises a at that point. The shifted map e^(i theta) F - a id must also
    pass the whole-ball generator certifier, whose witnesses raise a by the
    same step. No row is evaluated twice: the final re-fit of b reads each
    descended row's pairing back from its slack. There are no retries: when
    either repair loop ends without a clean pass (12 rounds each, or a
    max_evals cap cutting the generator certifier short), the result is
    "inconclusive" at the given epsilon. Raises ValueError unless
    tolerance > 0 and 0 < epsilon < 1.
    """
    _check_tolerance(tolerance)
    lo, hi = _annulus_bounds(epsilon)
    budget = budget or CertifyBudget(sphere=192)
    space = F.space
    Z, omega, r2 = _annulus(F, lo, hi, space.sphere_sample(budget.sphere, budget.seed))
    evals = Z.shape[0]

    # a polynomial map is bounded on the closed ball, so some finite a fits
    # it; only a black-box map can surround a disc in every direction
    if not isinstance(F, PolyMap):
        R_big = 1000.0 * (1.0 + float(np.quantile(np.abs(omega), 0.9)))
        covered, cover_witness, used = _covers_all_directions(F, lo, hi, Z, omega, R_big, budget)
        evals += used
        if covered:
            return PseudoDissipativityCertificate(
                "refuted", 0.0, 0.0, 0.0, epsilon, evals, -R_big, cover_witness)

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

    def pd_slack(flat, g):  # at the current (a, b)
        return _annulus_slack(a, b, space.norm_batch(flat) ** 2,
                              np.real(phase * _pairings_on(F, flat)))

    def raised(worst, w):  # both loops' repair: a adds ||w||^2 of slack at w
        return a + (-worst / max(space.norm(w) ** 2, 1e-12) * 1.05 + 1e-12)

    # validation and repair on fresh samples, until nothing violates
    xs_all, r2_all = [np.real(phase * omega)], [r2]
    for round_idx in range(12):
        Zr, omr, r2r = _annulus(
            F, lo, hi, space.sphere_sample(budget.sphere, budget.seed + 1009 * (round_idx + 1)))
        xr = np.real(phase * omr)
        noise = np.random.default_rng([budget.seed, _PD_ROUND_SALT, round_idx]).standard_normal(
            (budget.refine_iters, min(budget.refine_points, len(Zr)), _PROPOSALS, 2 * space.dim))
        (worst,), (witness,), zW, sW = _worst_points(
            space, pd_slack, Zr, _annulus_slack(a, b, r2r, xr)[None], noise, (lo, hi))
        evals += Zr.shape[0] + noise[..., 0].size
        # b is fixed in the loop, so the descended slack gives back the
        # rotated pairing of each descended row without evaluating F again
        r2W = space.norm_batch(zW) ** 2
        xs_all += [xr, _annulus_slack(a, b, r2W, sW)]
        r2_all += [r2r, r2W]
        certified = worst >= -1e-12
        if certified:
            break
        a = raised(worst, witness)

    # round-trip guard: the shifted map must survive the whole-ball generator
    # certifier, whose shell sweep and descent reach pockets the annulus grid
    # misses; raising a adds r^2 of slack at every point, so a witness prices it
    if certified:
        for _ in range(12):
            inner = certify_generator(F.shifted(theta, a), budget, tolerance)
            evals += inner.samples
            worst = inner.worst_slack
            certified = inner.verdict == "certified"
            if certified or inner.witness is None:
                break
            a = raised(worst, inner.witness)

    if not certified:
        return PseudoDissipativityCertificate(
            "inconclusive", theta, a, b, epsilon, evals, worst, None)
    # re-minimize b at the final a over every collected sample
    xs, r2s = np.concatenate(xs_all), np.concatenate(r2_all)
    b = max(0.0, float(np.max((xs - a * r2s) / (1.0 - r2s))))
    worst = float(np.min(_annulus_slack(a, b, r2s, xs)))
    return PseudoDissipativityCertificate(
        "certified", theta, a, b, epsilon, evals, worst, None)


def validate_certificate(F, theta: float, a: float, b: float, epsilon: float,
                         seed: int = 0) -> dict:
    """Check a given (theta, a, b) budget against 192 fresh directions on
    each of the six annulus shells, drawn at seed + 1009 * 13, which the
    certifier at the same seed never samples; epsilon must lie in (0, 1)."""
    V = F.space.sphere_sample(192, seed + _VALIDATE_SEED_OFFSET)
    Z, omega, r2 = _annulus(F, *_annulus_bounds(epsilon), V)
    worst = float(np.min(_annulus_slack(a, b, r2, np.real(np.exp(1j * theta) * omega))))
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
                             verdict: GeneratorVerdict | None = None) -> dict:
    """Certified generators never expand along support directions.

    Reads the line coefficients c_k(v) of `PolyMap.line_coefficients` at
    sampled unit v: checks Re c_1(v) = Re<Tv, v*> <= 1e-9 for the linear
    part T, and at directions where that dissipation vanishes
    (|Re c_1(v)| <= 1e-9) pins c_2(v) to -conj(c_0(v)) and every higher
    coefficient to zero, both within 1e-8.

    Raises:
        NotCertifiedError: unless verdict (None: certify G now) is "certified".
    """
    _require_certified(G, verdict)
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


def restriction_agreement(G, v_count: int = 12, seed: int = 0,
                          verdict: GeneratorVerdict | None = None,
                          disc_budget: CertifyBudget | None = None) -> dict:
    """Ball verdict versus disc verdicts of sampled slice restrictions.

    The ball inequality at z = zeta v is exactly the disc inequality of the
    slice through v, so a certified ball map must have every restriction
    certified and a refuted one must have some refuted slice; the refuting
    direction (the witness direction) is always added to the sample set.
    Directions come from seed, and each slice is certified at the tolerance
    of the ball verdict; verdict=None certifies G with the defaults. All
    slices are certified in one batched climb, each exactly as if alone.
    """
    ball = verdict if verdict is not None else certify_generator(G)
    directions = list(G.space.sphere_sample(v_count, seed))
    if ball.verdict == "refuted" and ball.witness is not None:
        directions.append(ball.witness / G.space.norm(ball.witness))
    disc_verdicts = [d.verdict for d in _certify_discs(
        [G.restrict(v) for v in directions], disc_budget, ball.tolerance)]
    if ball.verdict == "certified":
        agree = all(d == "certified" for d in disc_verdicts)
    elif ball.verdict == "refuted":
        agree = "refuted" in disc_verdicts
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
