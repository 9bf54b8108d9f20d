"""Certifiers and refuters for the two dissipation inequalities on the ball.

certify_generator probes Re<G(z), z*> <= Re<G(0), z*>(1 - ||z||^2) on shell
grids and descends from the worst grid rows whose slack it holds; samples
counts each evaluated row once. A disc function, and each slice of
restriction_agreement, is decided exactly from its coefficients instead:
by Berkson-Porta its slack is |zeta|^2 Re q(zeta) with Re q harmonic, so
the least Re q on the unit circle, one `_phase_max` row, decides it.
certify_pseudo_dissipative fits a rotation angle and shift (theta, a) along
complex lines of a PolyMap with the same phase kernel, with b = ||F(0)||, so
Re e^(i theta)<F(z), z*> <= a ||z||^2 + b (1 - ||z||^2) holds on every line
it reads. The shift between the two forms and the coefficient checks live
here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numrange import _PROPOSALS, _climb, _golden_max
from .polymaps import (PolyMap, _least_real_part, _pairs, _polynomial_coefficients,
                       taylor_coefficients)
from .spaces import _shell_grid


class NotCertifiedError(RuntimeError):
    """An operation requiring a certified input received something else."""


_DEFAULT_RADII = tuple(round(0.1 + 0.05 * i, 2) for i in range(18)) + (0.99,)

_REFINE_SALT = 505
_REFINE_STEPS = (0.05, 1.4, 0.2, 0.5)  # sigma0, grow, cap, shrink


@dataclass(frozen=True)
class CertifyBudget:
    """Sampling and refinement effort for the certifiers.

    sphere: sphere directions, per shell of the generator certifier (the
    shells are 0.1 .. 0.95 step 0.05 plus 0.99) and one line each for the
    pseudo-dissipativity fit, refine_points: worst points (best lines)
    refined, refine_iters: climb iterations, each trying numrange's
    `_PROPOSALS` candidates per point,
    seed: key of the direction and refinement streams, max_evals: cap on
    the rows each certifier evaluates (slack rows of `certify_generator`;
    lines of `certify_pseudo_dissipative`, whose sphere directions are its
    grid); reaching it makes a clean run "inconclusive", and samples exceed
    it only when the grid alone does. Disc and slice verdicts are exact and
    take no budget.
    ValueError unless sphere and refine_points are >= 1, refine_iters >= 0
    and max_evals is None or >= 0.
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
    """Outcome of certify_generator, certify_disc_generator or one slice.

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


def _capped_iters(budget, evals, width) -> tuple[int, bool]:
    """Climb iterations of `width` rows that fit under max_evals after
    `evals` rows, and whether the cap cut the climb (or the grid) short."""
    cap = budget.max_evals
    iters = budget.refine_iters if cap is None else min(
        budget.refine_iters, max(0, (cap - evals) // width))
    return iters, iters < budget.refine_iters or cap is not None and evals >= cap


def certify_generator(G, budget: CertifyBudget | None = None,
                      tolerance: float = 1e-9) -> GeneratorVerdict:
    """Certify or refute the generator inequality for a ball map.

    Shell-times-sphere sampling, then one descent from the worst grid rows:
    numrange's climb on the negated slack with a tighter step schedule and
    norms clipped to [1e-8, 0.9995]. The least slack seen is the best
    descended row's unless the grid minimum is lower, and its point is the
    witness. Refutes when that slack falls below -tolerance and certifies
    otherwise, except that an evaluation cap cutting refinement short
    without such a violation gives "inconclusive".

    Args:
        G: PolyMap or CallableMap.
        budget: sampling effort; None for the default.
        tolerance: refutation threshold on the slack; ValueError unless > 0.
    """
    _check_tolerance(tolerance)
    budget = budget or CertifyBudget()
    space = G.space
    Z = _shell_grid(np.asarray(_DEFAULT_RADII), space.sphere_sample(budget.sphere, budget.seed))
    slack = generator_slack(G, Z)
    take = min(budget.refine_points, len(Z))
    iters, exhausted = _capped_iters(budget, len(Z), take * _PROPOSALS)
    noise = np.random.default_rng([budget.seed, _REFINE_SALT]).standard_normal(
        (iters, take, _PROPOSALS, 2 * space.dim))
    order = np.argsort(slack)[:take]
    points, neg = _climb(space, lambda rows, g: -generator_slack(G, rows), Z[order],
                         -slack[order], noise, np.zeros(take, dtype=int), _REFINE_STEPS,
                         (1e-8, 0.9995))
    values = -neg
    i, k = int(np.argmin(values)), int(np.argmin(slack))
    worst = float(min(slack[k], values[i]))
    witness = points[i] if values[i] <= slack[k] else Z[k]
    return GeneratorVerdict("refuted" if worst < -tolerance else
                            "inconclusive" if exhausted else "certified",
                            tolerance, worst, witness if worst < -tolerance else None,
                            len(Z) + noise[..., 0].size)


def _require_certified(G, verdict=None):
    """The verdict (None: certify G now) if "certified"; else raise NotCertifiedError."""
    if verdict is None:
        verdict = certify_generator(G)
    if verdict.verdict != "certified":
        raise NotCertifiedError(f"map is {verdict.verdict}, not certified")
    return verdict


_WITNESS_RADII = 1.0 - 0.5 ** np.arange(1, 54)  # 1 - 2^-k up to the last double below 1


def _disc_verdicts(C, tolerance) -> list[GeneratorVerdict]:
    """One exact verdict per row of disc coefficients c_0..c_d.

    By Berkson-Porta the slack of g = sum_k c_k zeta^k at zeta is
    |zeta|^2 Re q(zeta) with Re q harmonic, so its least value on the closed
    disc is min over |zeta| = 1 of Re q = -max over phi of
    Re sum_k c_k e^(i (k - 1) phi), one `_phase_max` row (c_0 enters as
    Re conj(c_0) zeta). A refuted row's witness is r e^(i phi*) at the first
    r = 1 - 2^-k whose slack re-evaluates below -tolerance; a boundary value
    below it that no such r reproduces, by rounding at the threshold, reads
    "inconclusive". samples counts the one line read.
    """
    _check_tolerance(tolerance)
    top, phi = _phase_max(C, every=True)
    worst = -top
    zeta = np.exp(1j * phi)[:, None] * _WITNESS_RADII
    g = np.polynomial.polynomial.polyval(zeta, C.T[..., None], tensor=False)
    hit = np.real(np.conj(zeta) * (C[:, :1] * (1.0 - np.abs(zeta) ** 2) - g)) < -tolerance
    refuted = (worst < -tolerance) & hit.any(axis=1)
    first = zeta[np.arange(len(C)), np.argmax(hit, axis=1)]
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


# -- pseudo-dissipativity ----------------------------------------------------

_PHASES = 24  # grid phases on each line's boundary circle
_PHI = 2.0 * np.pi * np.arange(_PHASES) / _PHASES
_NEWTON = 4  # Newton steps that finish a grid phase
_THETAS = 720
_FACE_SNAP = 0.02  # l1 coordinates below this share of a row's largest read 0
_LINE_SALT = 7919


def _phase_grid(terms: int) -> np.ndarray:
    """(terms, _PHASES) array of e^(i (k - 1) phi) at the grid phases."""
    return np.exp(1j * np.outer(np.arange(terms) - 1, _PHI))


def _phase_max(C, every=False) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max over phi of Re sum_k C[:, k] e^(i (k - 1) phi), and a
    phase phi* where the sum takes it.

    Newton steps of at most half the grid spacing, uphill where the sum is
    convex, finish the best grid phase, or with every=True each grid phase,
    which also reaches a narrow peak that lower grid values flank. Every
    value is the sum at its phase.
    """
    j = np.arange(C.shape[1]) - 1.0
    P = (C @ _phase_grid(C.shape[1])).real
    if every:
        C, phi, best = np.repeat(C, _PHASES, axis=0), np.tile(_PHI, len(P)), P.ravel()
    else:
        i = np.argmax(P, axis=1)
        phi, best = _PHI[i], P[np.arange(len(P)), i]
    J = np.stack([np.ones_like(j), j, j * j], axis=1)
    cap = np.pi / _PHASES
    at = phi
    for _ in range(_NEWTON + 1):
        # f = Re S0, f' = -Im S1, f'' = -Re S2
        S = (C * np.exp(np.multiply.outer(phi, 1j * j))) @ J
        at = np.where(S[:, 0].real > best, phi, at)
        best = np.maximum(best, S[:, 0].real)
        phi = phi - np.clip(S[:, 1].imag / np.maximum(np.abs(S[:, 2].real), 1e-12), -cap, cap)
    best, at = best.reshape(len(P), -1), at.reshape(len(P), -1)
    i = np.argmax(best, axis=1)
    rows = np.arange(len(P))
    return best[rows, i], at[rows, i]


def _lines(F, V):
    """The lines through the rows of V: (Taylor vectors, functionals, free).

    At p = 1 a coordinate below _FACE_SNAP of its row's largest is set to 0
    first. There the l1 support functional may take any unimodular entry,
    and lines through nearby directions approach each choice, so `free`
    marks those entries, which `support_batch` leaves at 0.
    """
    mag = np.abs(V)
    free = (F.space.p == 1.0) & (mag < _FACE_SNAP * mag.max(axis=1, keepdims=True))
    V = np.where(free, 0.0, V)
    V = V / F.space.norm_batch(V)[:, None]
    return F.line_vectors(V), F.space.support_batch(V), free


def _free_terms(X, free) -> np.ndarray:
    """(B, _PHASES, dim) terms e^(-i phi) F_m(e^(i phi) v) of the free entries
    at the grid phases, 0 elsewhere."""
    return np.einsum("bkn,km->bmn", X * free[:, None], _phase_grid(X.shape[1]))


def _line_values(X, W, free, rot):
    """Each line's max of -Re q on |zeta| = 1 for the rotated map, and the
    rotated line coefficients it is read from. A free entry takes the phase
    that adds its term's modulus at the best grid phase."""
    X = rot * X
    C = np.einsum("bkn,bn->bk", X, W)
    if free.any():
        terms = _free_terms(X, free)
        g = np.argmax((C @ _phase_grid(C.shape[1])).real + np.abs(terms).sum(axis=2), axis=1)
        q = terms[np.arange(len(C)), g]
        mag = np.abs(q)
        C = C + np.einsum("bkn,bn->bk", X, np.conj(q) / np.where(mag > 0.0, mag, 1.0))
    return _phase_max(C)[0], C


def certify_pseudo_dissipative(F, budget: CertifyBudget | None = None
                               ) -> PseudoDissipativityCertificate:
    """Fit (theta, a, b) along complex lines through the origin.

    By Berkson-Porta the slack of e^(i theta) F - a id at zeta v, v a unit
    vector, is |zeta|^2 Re q_v(zeta) with Re q_v harmonic, so it holds on the
    closed ball when Re q_v = a - Re e^(i theta) <F(zeta v), (zeta v)*> >= 0
    on |zeta| = 1. The fit reads budget.sphere lines, picks theta where the
    largest rotated pairing is least (720 angles, golden-section polish),
    climbs the best refine_points lines at theta and sets a to the largest
    -Re q found, each line maximized over its phase; b = ||F(0)|| then holds
    exactly. Only directions are sampled. A climb that max_evals cuts short
    gives "inconclusive"; samples counts the lines read.

    Raises:
        ValueError: F is not a PolyMap, whose lines the fit reads exactly.
    """
    if not isinstance(F, PolyMap):
        raise ValueError("certify_pseudo_dissipative reads the line coefficients of a "
                         f"PolyMap; got {type(F).__name__}")
    budget = budget or CertifyBudget(sphere=192)
    space = F.space
    V = space.sphere_sample(budget.sphere, budget.seed)
    X, W, free = lines = _lines(F, V)
    evals = V.shape[0]

    # theta: least support function h(t) = max Re e^(i t) x + |free terms| of the cloud
    x = (np.einsum("bkn,bn->bk", X, W) @ _phase_grid(X.shape[1])).ravel()
    re, im, radius = x.real.copy(), x.imag.copy(), np.abs(_free_terms(X, free)).sum(axis=2).ravel()
    thetas, h = 2.0 * np.pi * np.arange(_THETAS) / _THETAS, np.empty(_THETAS)
    for i in range(0, _THETAS, 90):  # blocks of 90 angles keep the scan's memory small
        block = np.multiply.outer(np.cos(thetas[i:i + 90]), re) + radius
        block -= np.multiply.outer(np.sin(thetas[i:i + 90]), im)
        h[i:i + 90] = block.max(axis=1)
    t0, step = thetas[int(np.argmin(h))], 2.0 * np.pi / _THETAS
    x1, f1, x2, f2 = _golden_max(lambda t: -np.max(math.cos(t) * re - math.sin(t) * im + radius),
                                 t0 - 2.0 * step, t0 + 2.0 * step, 60)
    theta = float(x1 if f1 >= f2 else x2)
    rot = complex(math.cos(theta), math.sin(theta))

    # climb the best lines at theta; each start keeps its best line for the
    # final every-phase maximization
    values, C = _line_values(*lines, rot)
    take = min(budget.refine_points, evals)
    order = np.argsort(-values, kind="stable")[:take]
    iters, exhausted = _capped_iters(budget, evals, take * _PROPOSALS)
    noise = np.random.default_rng([budget.seed, _LINE_SALT]).standard_normal(
        (iters, take, _PROPOSALS, 2 * space.dim))
    kept, kept_C, rows = values[order], C[order], np.arange(take)

    def objective(Z, groups):
        vals, CZ = _line_values(*_lines(F, Z), rot)
        block = vals.reshape(take, -1)
        j = np.argmax(block, axis=1)
        up = block[rows, j] > kept
        kept[up] = block[rows, j][up]
        kept_C[up] = CZ.reshape(take, block.shape[1], -1)[rows, j][up]
        return vals

    _climb(space, objective, V[order], values[order], noise, np.zeros(take, dtype=int),
           _REFINE_STEPS)
    evals += noise[..., 0].size
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
    if not isinstance(G, PolyMap):
        raise ValueError("restriction_agreement reads the line coefficients of a "
                         f"PolyMap; got {type(G).__name__}")
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
