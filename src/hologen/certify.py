"""Certifiers and refuters for the two dissipation inequalities on the ball.

By Berkson-Porta the generator slack at zeta v, v a unit vector, is
|zeta|^2 Re q_v(zeta) with Re q_v harmonic, so the least Re q_v on the unit
circle, one `_phase_max` row of the line's coefficients, decides the line
through v. certify_generator searches directions for the least such line;
a disc function and each slice of restriction_agreement are one line,
decided exactly. certify_pseudo_dissipative fits (theta, a) along the lines
of a PolyMap, with b = ||F(0)||, so that Re e^(i theta)<F(z), z*> <=
a ||z||^2 + b (1 - ||z||^2) holds on every line it reads. The shift between
the two forms and the coefficient checks live here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numrange import _PROPOSALS, _check_floors, _climb, _golden_max
# the phase kernel lives next to DiscFunction, whose data it also decides
from .polymaps import (_NEWTON, _PHASES, _PHI, PolyMap, _min_real_part, _pair_lines, _pairs,
                       _phase_grid, _phase_max, _polynomial_coefficients)


class NotCertifiedError(RuntimeError):
    """An operation requiring a certified input received something else."""


_REFINE_STEPS = (0.05, 1.4, 0.2, 0.5)  # sigma0, grow, cap, shrink


@dataclass(frozen=True)
class CertifyBudget:
    """Sampling and refinement effort for the certifiers.

    sphere: sphere directions, one complex line each, refine_points: best
    lines climbed, refine_iters: climb iterations, each trying numrange's
    `_PROPOSALS` candidates per line, seed: key of the direction and climb
    streams, max_evals: cap on the lines read; reaching it makes a clean run
    "inconclusive", and samples exceed it only when the grid alone does.
    A dim-1 ball, a disc and a slice are one line, decided exactly. A dim-1
    pseudo-dissipativity fit reads only its sphere grid lines and climbs
    none: a cap at or above sphere leaves it "certified", one below still
    makes it "inconclusive".
    ValueError unless sphere and refine_points are >= 1, refine_iters >= 0
    and max_evals is None or >= 0.
    """

    sphere: int = 128
    refine_points: int = 32
    refine_iters: int = 40
    seed: int = 0
    max_evals: int | None = None

    def __post_init__(self):
        _check_floors(self, (("sphere", 1), ("refine_points", 1), ("refine_iters", 0)))
        if self.max_evals is not None and not self.max_evals >= 0:
            raise ValueError(f"max_evals must be >= 0 or None, got {self.max_evals}")


@dataclass(frozen=True)
class GeneratorVerdict:
    """Outcome of certify_generator, certify_disc_generator or one slice.

    worst_slack is the least Re q_v on |zeta| = 1 over the samples lines
    read, so the slack at zeta v is at least |zeta|^2 worst_slack on each.
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
    on the unit ball; samples counts the evaluations spent. worst_slack is
    the least slack seen: 0 for a line fit, whose a touches its best line.
    """

    verdict: str
    theta: float
    a: float
    b: float
    samples: int
    worst_slack: float


def generator_slack(G, Z: np.ndarray) -> np.ndarray:
    """Pointwise slack Re<G(0), z*>(1 - ||z||^2) - Re<G(z), z*> on rows of Z.

    Nonnegative slack everywhere is the generator inequality.
    """
    space = G.space
    W = space.support_batch(Z)
    vals = G.eval_batch(Z)
    r2 = space.norm_batch(Z) ** 2
    lhs = np.real(np.sum(vals * W, axis=1))
    center = np.real(W @ np.asarray(G.constant))
    return center * (1.0 - r2) - lhs


def _check_tolerance(tolerance) -> None:
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")


def _require_polymap(F, caller: str) -> None:
    if not isinstance(F, PolyMap):
        raise ValueError(f"{caller} reads the coefficients of a PolyMap; "
                         f"got {type(F).__name__}")


def _require_certified(G, verdict=None):
    """The verdict (None: certify G now) if "certified"; else raise NotCertifiedError."""
    if verdict is None:
        verdict = certify_generator(G)
    if verdict.verdict != "certified":
        raise NotCertifiedError(f"map is {verdict.verdict}, not certified")
    return verdict


_WITNESS_RADII = 1.0 - 0.5 ** np.arange(1, 54)  # 1 - 2^-k up to the last double below 1


def _circle_minima(C, tolerance):
    """Per row of disc coefficients c_0..c_d: the least Re q on |zeta| = 1,
    whether a point r e^(i phi*), r = 1 - 2^-k, re-evaluates below
    -tolerance, and the first such point. By Berkson-Porta the slack of
    g = sum_k c_k zeta^k is |zeta|^2 Re q(zeta) with Re q harmonic, so the
    least Re q, -max over phi of Re sum_k c_k e^(i (k - 1) phi) (one
    `_phase_max` row; c_0 enters as Re conj(c_0) zeta), decides the disc.
    """
    _check_tolerance(tolerance)
    top, phi = _phase_max(C, every=True)
    zeta = np.exp(1j * phi)[:, None] * _WITNESS_RADII
    g = np.polynomial.polynomial.polyval(zeta, C.T[..., None], tensor=False)
    hit = np.real(np.conj(zeta) * (C[:, :1] * (1.0 - np.abs(zeta) ** 2) - g)) < -tolerance
    first = zeta[np.arange(len(C)), np.argmax(hit, axis=1)]
    return -top, (-top < -tolerance) & hit.any(axis=1), first


def _disc_verdicts(C, tolerance) -> list[GeneratorVerdict]:
    """One exact verdict per row of disc coefficients (_circle_minima): a
    refuted row's witness is its first violating point, and a violation no
    point reproduces, by rounding at the threshold, is "inconclusive"."""
    worst, refuted, first = _circle_minima(C, tolerance)
    return [GeneratorVerdict("refuted" if r else "inconclusive" if w < -tolerance else "certified",
                             tolerance, float(w), np.array([z]) if r else None, 1)
            for w, r, z in zip(worst, refuted, first)]


def certify_disc_generator(g, tolerance: float = 1e-9) -> GeneratorVerdict:
    """Decide the generator inequality for a polynomial disc function exactly.

    Reads its coefficients (polymaps._polynomial_coefficients) and decides
    min over the unit circle of Re q >= -tolerance, see _disc_verdicts.

    Raises:
        ValueError: g carries no exact polynomial coefficients; truncate it
            first (fejer_truncate).
    """
    return _disc_verdicts(_polynomial_coefficients(g)[None, :], tolerance)[0]


# -- complex lines ------------------------------------------------------------

_THETAS = 720  # grid angles of the fit's theta scan
_COARSE = 24  # the scan reads every _COARSE-th angle over the whole cloud first
_SCAN_BLOCK = 90  # angles per block of a full read, which keeps the scan's memory small
_FACE_SNAP = 0.02  # l1 coordinates below this share of a row's largest read 0
_FACE_STEP = 1e-7  # a witness's step off an l1 face, relative to its radius
_LINE_SALT = 7919


def _snap(space, V, unit=False):
    """(V, free): the rows of V renormalized (with unit=True only at p = 1).

    At p = 1 a coordinate below _FACE_SNAP of its row's largest is set to 0
    first. There the l1 support functional may take any unimodular entry,
    and lines through nearby directions approach each choice, so `free`
    marks those entries, which `support_batch` leaves at 0.
    """
    free = np.zeros(V.shape, dtype=bool)
    if space.p == 1.0:
        mag = np.abs(V)
        free = mag < _FACE_SNAP * mag.max(axis=1, keepdims=True)
        V = np.where(free, 0.0, V)
    elif unit:
        return V, free
    return V / space.norm_batch(V)[:, None], free


def _lines(F, V, unit=False):
    """The lines through the rows of V: (Taylor vectors, functionals, free)."""
    V, free = _snap(F.space, V, unit)
    return F.line_vectors(V), F.space.support_batch(V), free


def _free_terms(X, free) -> np.ndarray:
    """(B, _PHASES, dim) terms e^(-i phi) F_m(e^(i phi) v) of the free entries
    at the grid phases, 0 elsewhere."""
    Xf = np.ascontiguousarray((X * free[:, None]).transpose(2, 0, 1))
    return (Xf @ _phase_grid(X.shape[1])).transpose(1, 2, 0)


def _line_grid(X, W, free):
    """Each line's -Re q_v at the grid phases, and its coefficient row; a
    free entry adds its term's modulus at every grid phase, and takes in
    the row the phase that does so at the best one."""
    C = _pair_lines(X, W)
    P = (C @ _phase_grid(C.shape[1])).real
    if free.any():
        f = np.flatnonzero(free.any(axis=1))
        terms = _free_terms(X[f], free[f])
        P[f] += np.abs(terms).sum(axis=2)
        q = terms[np.arange(f.size), np.argmax(P[f], axis=1)]
        C[f] += _pair_lines(X[f], np.conj(q) / np.where(q != 0.0, np.abs(q), 1.0))
    return P, C


def _line_rows(X, W, free):
    """Each line's largest -Re q_v at the grid phases, and its coefficient
    row (_line_grid)."""
    P, C = _line_grid(X, W, free)
    return P.max(axis=1), C


def _climb_lines(F, V, values, C, read, budget):
    """Climb the best refine_points lines through the rows of V on the
    values read(Z) gives, as it gave values and rows C for V. Each start
    keeps its best line, so no line is read twice. Returns the kept lines'
    directions and rows, the lines the climb read and whether max_evals cut
    it (or the grid) short."""
    take, cap = min(budget.refine_points, len(V)), budget.max_evals
    iters = budget.refine_iters if cap is None else min(
        budget.refine_iters, max(0, (cap - len(V)) // (take * _PROPOSALS)))
    noise = np.random.default_rng([budget.seed, _LINE_SALT]).standard_normal(
        (iters, take, _PROPOSALS, 2 * F.space.dim))
    order = np.argsort(-values, kind="stable")[:take]
    kept, kept_C, rows = values[order], C[order], np.arange(take)

    def objective(Z, groups):
        vals, CZ = read(Z)
        block = vals.reshape(take, -1)
        j = np.argmax(block, axis=1)
        up = block[rows, j] > kept
        kept[up] = block[rows, j][up]
        kept_C[up] = CZ.reshape(take, block.shape[1], -1)[rows, j][up]
        return vals

    points, _ = _climb(F.space, objective, V[order], values[order], noise,
                       np.zeros(take, dtype=int), _REFINE_STEPS)
    return (points, kept_C, noise[..., 0].size,
            iters < budget.refine_iters or cap is not None and len(V) >= cap)


def _ball_verdict(G, V, C, tolerance, samples, exhausted=False) -> GeneratorVerdict:
    """The verdict of the least of the rows C of the lines through V. A
    violation's witness is its point zeta v (_circle_minima), at p = 1 plus
    |zeta| _FACE_STEP G_m/|G_m| at zeta v on each free entry m, which the
    line's functional stands for. It must lie in the ball and re-evaluate
    below -tolerance, or the verdict, as after a clean climb that max_evals
    cut short, is "inconclusive"."""
    worst, refuted, first = _circle_minima(C, tolerance)
    i, witness = int(np.argmin(worst)), None
    if refuted[i]:
        v, free = _snap(G.space, V[i:i + 1], unit=True)
        Z = first[i] * v
        if free.any():
            g = G.eval_batch(Z)
            Z = Z + free * abs(first[i]) * _FACE_STEP * g / np.where(g != 0.0, np.abs(g), 1.0)
        if G.space.norm_batch(Z)[0] < 1.0 and generator_slack(G, Z)[0] < -tolerance:
            witness = Z[0]
    return GeneratorVerdict("refuted" if witness is not None else
                            "inconclusive" if worst[i] < -tolerance or exhausted else "certified",
                            tolerance, float(worst[i]), witness, samples)


def certify_generator(G, budget: CertifyBudget | None = None,
                      tolerance: float = 1e-9) -> GeneratorVerdict:
    """Certify or refute the generator inequality for a polynomial ball map.

    Scores the lines through budget.sphere directions (dim 1: its one line)
    by their largest -Re q_v at the grid phases. Unless the best grid line
    already refutes with a witness, the best refine_points lines climb over
    directions on that score, and the kept line with the least Re q_v on
    |zeta| = 1, after Newton steps from every grid phase, decides (see
    _ball_verdict). worst_slack is that least value; samples counts the
    lines read.

    Raises:
        ValueError: G is not a PolyMap, whose lines are read exactly, or
            tolerance is not positive.
    """
    _check_tolerance(tolerance)
    _require_polymap(G, "certify_generator")
    budget = budget or CertifyBudget()
    V = (np.ones((1, 1), dtype=np.complex128) if G.space.dim == 1
         else G.space.sphere_sample(budget.sphere, budget.seed))

    values, C = _line_rows(*_lines(G, V, unit=True))
    i = int(np.argmax(values))
    verdict = _ball_verdict(G, V[i:i + 1], C[i:i + 1], tolerance, len(V))
    if G.space.dim == 1 or verdict.witness is not None:
        return verdict
    points, kept_C, climbed, exhausted = _climb_lines(
        G, V, values, C, lambda Z: _line_rows(*_lines(G, Z, unit=True)), budget)
    return _ball_verdict(G, points, kept_C, tolerance, len(V) + climbed, exhausted)


# -- pseudo-dissipativity ----------------------------------------------------


@functools.lru_cache
def _angles() -> tuple:
    """(cos, sin) on the fit's _THETAS-angle grid, built on first use."""
    thetas = 2.0 * np.pi * np.arange(_THETAS) / _THETAS
    return np.cos(thetas), np.sin(thetas)


def _least_angle(re, im, radius) -> tuple[int, int]:
    """The first grid index where h(t) = max_k (cos t re_k + radius_k -
    sin t im_k) is least, and the number of angles read over the whole cloud.

    h is read at every _COARSE-th angle first. The points that attain those
    maxima give lower(t) <= h(t) at every angle, each entry rounded as h's
    own, and h is read in full only where lower(t) is at most the least
    coarse value, in blocks of _SCAN_BLOCK angles. Every angle where h is
    least passes, so the index is the full scan's. A cloud with a
    non-finite entry is read at every angle.
    """
    cos, sin = _angles()
    rows = np.arange(_THETAS)
    if all(np.isfinite(x).all() for x in (re, im, radius)):
        coarse = np.multiply.outer(cos[::_COARSE], re) + radius
        coarse -= np.multiply.outer(sin[::_COARSE], im)
        top = np.unique(np.argmax(coarse, axis=1))
        lower = np.multiply.outer(cos, re[top]) + radius[top]
        lower -= np.multiply.outer(sin, im[top])
        rows = rows[lower.max(axis=1) <= coarse.max(axis=1).min()]
    h = np.empty(len(rows))
    for i in range(0, len(rows), _SCAN_BLOCK):
        block = np.multiply.outer(cos[rows[i:i + _SCAN_BLOCK]], re) + radius
        block -= np.multiply.outer(sin[rows[i:i + _SCAN_BLOCK]], im)
        h[i:i + _SCAN_BLOCK] = block.max(axis=1)
    return int(rows[np.argmin(h)]), len(rows)


def _line_values(X, W, free, rot):
    """The coefficient rows of the rotated map's lines (_line_grid), each
    maximized over its phase. `_phase_max` starts from the grid values
    _line_grid computed, which are the rows' own unless an entry is free."""
    P, C = _line_grid(rot * X, W, free)
    return _phase_max(C, grid=None if free.any() else P)[0], C


def certify_pseudo_dissipative(F, budget: CertifyBudget | None = None
                               ) -> PseudoDissipativityCertificate:
    """Fit (theta, a, b) along complex lines through the origin.

    The slack of e^(i theta) F - a id holds on the line through a unit v
    when Re q_v = a - Re e^(i theta) <F(zeta v), (zeta v)*> >= 0 on
    |zeta| = 1. The fit reads budget.sphere lines and picks theta where the
    largest rotated pairing is least: the first least of 720 grid angles,
    which a bounded scan (_least_angle) finds while reading the whole cloud
    at only a few of them, then a golden-section polish. It
    climbs the best refine_points lines at theta and sets a to the largest
    -Re q found, Newton-finished from every grid phase; b = ||F(0)|| then
    holds exactly. On a dim-1 ball every line is the line through 1
    shifted in phase, so the fit climbs none there and reads a off the best
    refine_points grid lines, with samples = sphere. A climb that max_evals
    cuts short, or a grid above it, gives "inconclusive"; samples counts
    the lines read.

    Raises:
        ValueError: F is not a PolyMap, whose lines the fit reads exactly.
    """
    _require_polymap(F, "certify_pseudo_dissipative")
    budget = budget or CertifyBudget(sphere=192)
    space = F.space
    V = space.sphere_sample(budget.sphere, budget.seed)
    X, W, free = lines = _lines(F, V)
    evals = V.shape[0]

    # theta: least support function h(t) = max Re e^(i t) x + |free terms| of the cloud
    x = (_pair_lines(X, W) @ _phase_grid(X.shape[1])).ravel()
    re, im, radius = x.real.copy(), x.imag.copy(), np.abs(_free_terms(X, free)).sum(axis=2).ravel()
    t0, step = 2.0 * np.pi * _least_angle(re, im, radius)[0] / _THETAS, 2.0 * np.pi / _THETAS
    x1, f1, x2, f2 = _golden_max(lambda t: -np.max(math.cos(t) * re - math.sin(t) * im + radius),
                                 t0 - 2.0 * step, t0 + 2.0 * step, 60)
    theta = float(x1 if f1 >= f2 else x2)
    rot = complex(math.cos(theta), math.sin(theta))

    # climb the best lines at theta on their Newton-finished values; every
    # line of a dim-1 ball is the line through 1 shifted in phase, so there
    # the best grid lines stand for all
    values, C = _line_values(*lines, rot)
    if space.dim == 1:
        kept_C = C[np.argsort(-values, kind="stable")[:budget.refine_points]]
        exhausted = budget.max_evals is not None and evals > budget.max_evals
    else:
        _, kept_C, climbed, exhausted = _climb_lines(
            F, V, values, C, lambda Z: _line_values(*_lines(F, Z), rot), budget)
        evals += climbed
    a = float(np.max(_phase_max(kept_C, every=True)[0]))
    b = float(space.norm(np.asarray(F.constant)))
    return PseudoDissipativityCertificate(
        "inconclusive" if exhausted else "certified", theta, a, b, evals, 0.0)


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

    Reads the exact coefficients q.coefficient(j), j <= order, once
    Re q >= -1e-9 on the disc is decided exactly (polymaps._min_real_part),
    for polynomial data up to degree 27 (ROADMAP item 11).

    Raises:
        ValueError: order outside [1, 512], Re q < -1e-9 on the disc, or q
            neither a Herglotz function nor exact polynomial data.
    """
    if not 1 <= order <= 512:
        raise ValueError(f"order must be in [1, 512], got {order}")
    if _min_real_part(q) < -1e-9:
        raise ValueError("input is not a nonnegative-real-part function on the disc")
    coeffs = np.array([q.coefficient(k) for k in range(order + 1)], dtype=np.complex128)
    bound = 2.0 * float(coeffs[0].real)
    mags = np.abs(coeffs[1:])
    excess = mags - bound
    violations = int(np.count_nonzero(excess > 1e-8))
    return {
        "bound": bound,
        "coefficient_magnitudes": mags.tolist(),
        "max_excess": float(np.max(excess)),
        "violations": violations,
        "passed": violations == 0,
    }


def restriction_agreement(G, v_count: int = 12, seed: int = 0,
                          verdict: GeneratorVerdict | None = None) -> dict:
    """Ball verdict versus disc verdicts of sampled slice restrictions.

    The ball inequality at z = zeta v is exactly the disc inequality of the
    slice through v, so a certified ball map must have every restriction
    certified and a refuted one must have some refuted slice; the refuting
    direction (the witness direction) is always added to the sample set.
    Directions come from seed, and each slice is decided at the tolerance
    of the ball verdict; verdict=None certifies G with the defaults. The
    slices are the rows of `PolyMap.line_coefficients`, all decided exactly
    in one `_disc_verdicts` call.

    Raises:
        ValueError: G is not a PolyMap, whose slices are read exactly.
    """
    _require_polymap(G, "restriction_agreement")
    ball = verdict if verdict is not None else certify_generator(G)
    directions = G.space.sphere_sample(v_count, seed)
    if ball.verdict == "refuted" and ball.witness is not None:
        directions = np.vstack([directions, ball.witness / G.space.norm(ball.witness)])
    disc_verdicts = [d.verdict for d in _disc_verdicts(
        G.line_coefficients(directions), ball.tolerance)]
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
    return {**vars(v), "witness": _pairs(v.witness) if v.witness is not None else None}


def certificate_to_dict(c: PseudoDissipativityCertificate) -> dict:
    return {key: getattr(c, key) for key in ("verdict", "theta", "a", "b", "samples")}
