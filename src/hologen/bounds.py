"""Radial growth estimates for certified maps and the inequality chain
connecting raw shell suprema to the closed-form envelopes.

Two envelopes are verified against measured suprema: a sharp one built
from the shifted linear part's dissipation and a coarse one whose r
dependence is fully explicit through two universal constants. The chain
verifier walks every intermediate estimate between them so a failure
localizes to the exact step that broke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import (PseudoDissipativityCertificate, _check_tolerance, _require_certified,
                      _require_polymap)
from .numrange import (OracleMismatchError, SearchBudget, _estimates, _Group,
                       _radius_group, _range_inf_group, harris_constant)
from .polymaps import _pair_lines

LN2 = math.log(2.0)
E = math.e

_DEFAULT_RADII = tuple(round(0.1 + 0.05 * i, 2) for i in range(18)) + (0.99,)

# slope of the affine majorant of the degree constants, tangent at 2
_LINE_SLOPE = 4.0 * (1.0 - LN2)


def alpha_beta() -> tuple:
    """The two universal constants of the coarse envelope, in closed form.

    Each is the maximum over r in (0, 1) of its shell coupling function:
    the second of r -> e (1-r)^2 + 8 r (1 - r ln 2), the first of the same
    plus the shift coupling (1-r)^2 accounted at weight one.
    """
    alpha = 8.0 * (E * LN2 + LN2 + 1.0 - E) / (8.0 * LN2 - E - 1.0)
    beta = 8.0 * (E * LN2 + 2.0 - E) / (8.0 * LN2 - E)
    return alpha, beta


ALPHA, BETA = alpha_beta()


def majorant_line(j) -> np.ndarray | float:
    """Affine majorant of harris_constant over integer degrees.

    Touches the constants exactly at degree 2 (both equal 4) and stays
    above them for every degree up to 32, which is what lets the chain
    replace per-degree constants by a summable line.
    """
    j = np.asarray(j, dtype=np.float64)
    out = _LINE_SLOPE * j + (4.0 - 2.0 * _LINE_SLOPE)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GrowthInputs:
    """Measured scalars feeding the growth envelopes.

    Attributes:
        theta: rotation angle of the certificate.
        a: radial shift of the certificate.
        center_norm: ||F(0)||.
        linear_radius: numerical radius of the unshifted linear part.
        shifted_radius: numerical radius of e^(i theta) A - a I.
        shifted_range_inf: infimum of Re<(e^(i theta) A - a I) v, v*>.
    """

    theta: float
    a: float
    center_norm: float
    linear_radius: float
    shifted_radius: float
    shifted_range_inf: float


def _check_radii(r, grid: bool = False) -> np.ndarray:
    """r as floats in [0, 1); a grid (None: the default) must be nonempty and 1-D."""
    r = np.asarray(_DEFAULT_RADII if grid and r is None else r, dtype=np.float64)
    if grid and (r.ndim != 1 or r.size == 0):
        raise ValueError(f"radii must form a nonempty 1-D grid, got shape {r.shape}")
    if not np.all((r >= 0.0) & (r < 1.0)):
        raise ValueError("radii must lie in [0, 1)")
    return r


def rhs_sharp(inputs: GrowthInputs, r) -> np.ndarray | float:
    """Sharp envelope r (|a| + e V_T) + 4 r^2 ||F(0)|| + dissipation term.

    The last term is 8 r^2 (1 - r ln 2)/(1 - r)^2 times the dissipation
    depth of the shifted linear part; a measured infimum at +roundoff is
    clamped to zero since the shifted part of a certified map never
    expands.
    """
    r = _check_radii(r)
    depth = max(0.0, -inputs.shifted_range_inf)
    out = (r * (abs(inputs.a) + E * inputs.shifted_radius)
           + 4.0 * r ** 2 * inputs.center_norm
           + 8.0 * r ** 2 * (1.0 - r * LN2) / (1.0 - r) ** 2 * depth)
    return float(out) if out.ndim == 0 else out


def rhs_coarse(inputs: GrowthInputs, r) -> np.ndarray | float:
    """Coarse envelope 4 ||F(0)|| r^2 + (alpha |a| + beta V_A) r/(1-r)^2."""
    r = _check_radii(r)
    out = (4.0 * inputs.center_norm * r ** 2
           + abs(inputs.a) * ALPHA * r / (1.0 - r) ** 2
           + inputs.linear_radius * BETA * r / (1.0 - r) ** 2)
    return float(out) if out.ndim == 0 else out


def _sharpened(est) -> float:
    # a p = 2 oracle is exact; never report less than it
    return max(est.value, est.oracle) if est.oracle is not None else est.value


def _deepened(est) -> float:
    return min(est.value, est.oracle) if est.oracle is not None else est.value


def _linear_searches(F, cert: PseudoDissipativityCertificate):
    """Check F and cert as growth_inputs_from does, and return its range
    searches as `_estimates` groups with the function that reads the
    GrowthInputs off their estimates. Equal matrices (theta = 0, a = 0) are
    searched once, so there are two groups, three or four."""
    _require_certified(F, cert)
    if not (math.isfinite(cert.theta) and math.isfinite(cert.a)):
        raise ValueError(f"certificate theta {cert.theta} and a {cert.a} must be finite")
    _require_polymap(F, "the growth bound")
    space = F.space
    A = np.asarray(F.linear, dtype=np.complex128)
    phase = complex(math.cos(cert.theta), math.sin(cert.theta))
    R = A if cert.theta == 0.0 else phase * A
    T = R if cert.a == 0.0 else R - cert.a * np.eye(space.dim, dtype=np.complex128)
    groups = ([_radius_group(A)] + ([] if T is A else [_radius_group(T)])
              + [_range_inf_group(T)] + ([] if R is T else [_range_inf_group(R)]))

    def read(estimates) -> GrowthInputs:
        est = iter(estimates)
        va = _sharpened(next(est))
        vt = va if T is A else _sharpened(next(est))
        mt = _deepened(next(est))
        m_rot = mt if R is T else _deepened(next(est))
        gap = abs((cert.a - m_rot) - (-mt))
        if gap > 1e-9:
            raise OracleMismatchError(
                f"shift inconsistency {gap:.3e}: rotated infimum {m_rot:.12g} "
                f"and shifted infimum {mt:.12g} disagree under shift {cert.a:.12g}")
        return GrowthInputs(
            theta=float(cert.theta),
            a=float(cert.a),
            center_norm=space.norm(F.constant),
            linear_radius=va,
            shifted_radius=vt,
            shifted_range_inf=mt,
        )

    return groups, read


def growth_inputs_from(F, cert: PseudoDissipativityCertificate,
                       budget: SearchBudget | None = None) -> GrowthInputs:
    """Measure the envelope inputs of F under a certified rotation/shift.

    The radii of A and of the shifted part and the infima of the shifted and
    the rotated part are groups of one sphere search, each on the stream a
    search of it alone would use. The shifted infimum must match the rotated
    infimum minus the shift to 1e-9, since both searches walk the same
    landscape up to a constant; a larger gap means the estimates cannot be
    trusted. Equal matrices (theta = 0, a = 0) are searched once.

    Raises:
        NotCertifiedError: the certificate is not a certified one.
        OracleMismatchError: a p = 2 cross-check or the shift consistency
            check fails.
        ValueError: theta or a is not finite, or F is not a PolyMap.
    """
    groups, read = _linear_searches(F, cert)
    return read(_estimates(F.space, groups, budget))


def generator_certificate(G, verdict=None) -> PseudoDissipativityCertificate:
    """Canonical certificate (theta 0, shift 0, budget ||G(0)||) of a certified
    generator, read off its verdict: z* has dual norm ||z||, so Re<G(z), z*>
    <= Re<G(0), z*>(1 - ||z||^2) <= ||G(0)|| (1 - ||z||^2). Its samples and
    worst_slack are the verdict's: the lines read and their least Re q_v, so
    the slack at every point z of those lines is at least ||z||^2 worst_slack.

    Raises:
        NotCertifiedError: unless verdict (None: certify G now) is "certified".
    """
    verdict = _require_certified(G, verdict)
    return PseudoDissipativityCertificate(
        "certified", 0.0, 0.0, float(G.space.norm(np.asarray(G.constant))),
        verdict.samples, verdict.worst_slack)


@dataclass(frozen=True)
class GrowthBoundReport:
    """Shell-by-shell comparison of measured suprema with the envelopes."""

    inputs: GrowthInputs
    radii: np.ndarray
    lhs: np.ndarray
    sharp: np.ndarray
    coarse: np.ndarray
    slack: np.ndarray
    min_slack: float
    violated: bool


def verify_growth_bound(F, cert: PseudoDissipativityCertificate | None = None,
                        radii=None, budget: SearchBudget | None = None,
                        tolerance: float = 1e-9) -> GrowthBoundReport:
    """Measure sup ||F(z) - F(0)|| on shells and compare against both envelopes.

    Without a certificate F is treated as a generator and the canonical
    certificate is built first (raising NotCertifiedError when it is not
    one). The measured quantity is the deviation from the center value, so
    adding a constant to F shifts both sides identically. Each shell reads
    its supremum off the climb and its radius as the norm of r times the
    climb's maximizer, so a map sitting exactly on an envelope reports
    slack 0.

    Args:
        F: a PolyMap.
        cert: certified rotation/shift certificate, or None.
        radii: nonempty 1-D grid of shell radii, default 0.1 .. 0.95 step 0.05, 0.99.
        budget: search effort for the suprema and range estimates.
        tolerance: slack below -tolerance marks it violated; must be > 0.
    """
    _check_tolerance(tolerance)
    grid = _check_radii(radii, grid=True)
    if cert is None:
        cert = generator_certificate(F)
    linear, read = _linear_searches(F, cert)
    space = F.space
    F0 = np.asarray(F.constant, dtype=np.complex128)
    k = len(linear)

    def shells(V, g):
        return F.eval_batch(grid[g - k][:, None] * V) - F0[None, :]

    # the range searches and the shells climb together, shell i as group
    # k + i on stream salt 11 + i
    found = _estimates(space, linear + [_Group("norm", 11 + i, shells) for i in range(grid.size)],
                       budget)
    inputs = read(found[:k])
    values, maximizers = zip(*found[k:])
    lhs = np.array(values)
    r_eff = space.norm_batch(grid[:, None] * np.array(maximizers))
    sharp = rhs_sharp(inputs, r_eff)
    coarse = rhs_coarse(inputs, r_eff)
    slack = np.minimum(sharp, coarse) - lhs
    min_slack = float(np.min(slack))
    return GrowthBoundReport(
        inputs=inputs, radii=r_eff, lhs=lhs, sharp=np.asarray(sharp),
        coarse=np.asarray(coarse), slack=slack, min_slack=min_slack,
        violated=bool(min_slack < -tolerance))


# -- the intermediate chain ---------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """Stagewise verification of the path from raw suprema to the envelope.

    stages holds (label, per-radius values) pairs in proved order; each
    stage must stay below the next within 1e-9 across the whole grid.
    stage_margins[k] is the worst gap stages[k+1] - stages[k]. The
    coefficient margins cover the per-direction and aggregated bounds the
    chain consumes, and concavity_margins checks the affine majorant
    against the degree constants (equality at degree 2).
    """

    radii: np.ndarray
    stages: tuple
    stage_margins: np.ndarray
    coefficient_margins: dict
    concavity_margins: np.ndarray
    passed: bool


def verify_intermediate_chain(G, budget: SearchBudget | None = None,
                              radii=None, v_count: int = 64, seed: int = 0,
                              inputs: GrowthInputs | None = None) -> ChainReport:
    """Walk every estimate between shell suprema and the sharp envelope.

    Stages on each radius r, for a certified generator with linear part T,
    homogeneous parts Q_j, center norm c = ||G(0)||, radius bounds
    V_T >= |<Tv, v*>| and V_j >= |<Q_j(v), v*>|, depth d = -2 m(T):

      S0  max_v ||sum_(k>=1) r^k G_k(v)||   raw shell supremum of G - G(0)
      S1  max_v [r ||Tv|| + sum_j r^j ||Q_j(v)||]   triangle split
      S2a e r V_T + sum_j k_j V_j r^j        degreewise aggregation
      S2b e r V_T + 4 (c + d) r^2 + sum_(j>=3) k_j d r^j   coefficient bounds
      S3  e r V_T + 4 r^2 c + d sum_(j=2..deg) line(j) r^j  affine majorant
      S4  sharp envelope at shift 0          series resummation

    with k_j the degree constants. The per-direction coefficient bounds
    (|c_2(v)| <= ||G(0)|| - 2 Re c_1(v) and |c_j(v)| <= -2 Re c_1(v), with
    c_j(v) = <Q_j v, v*> and c_1(v) = <Tv, v*> paired off the one
    `PolyMap.line_vectors` batch of Taylor vectors G_k(v), which also gives
    S0, ||Tv|| and ||Q_j(v)||) and the aggregated forms are reported as
    margins; all must clear -1e-8, and the stage margins -1e-9. c, V_T and
    m(T) are read from inputs, the growth inputs of G under its canonical
    certificate as `verify_growth_bound` reports them; None certifies G and
    measures them as `growth_inputs_from` does, in the one climb that also
    searches the radius of every homogeneous part.

    Raises:
        NotCertifiedError: inputs is None and G does not certify.
        ValueError: G is not a PolyMap, or inputs are not canonical.
    """
    _require_polymap(G, "verify_intermediate_chain")
    space = G.space
    grid = _check_radii(radii, grid=True)
    degree = G.degree

    linear, read = [], None
    if inputs is None:
        linear, read = _linear_searches(G, generator_certificate(G))
    elif (inputs.theta, inputs.a, inputs.center_norm) != (0.0, 0.0, space.norm(G.constant)):
        raise ValueError("the chain needs G's canonical growth inputs (theta 0, a 0, ||G(0)||)")
    # the range searches, if any, and every part radius climb together
    found = _estimates(space, linear + [_radius_group(p) for p in G.higher], budget)
    if read is not None:
        inputs = read(found[:len(linear)])
    c0n, vt, mt = inputs.center_norm, inputs.shifted_radius, inputs.shifted_range_inf
    depth = max(0.0, -2.0 * mt)

    vq = {p.degree: est.value for p, est in zip(G.higher, found[len(linear):])}

    V = space.sphere_sample(v_count, seed)
    X = G.line_vectors(V)
    C = _pair_lines(X, space.support_batch(V))
    tv_pair = C[:, 1].real
    tv_norm = space.norm_batch(X[:, 1])
    q_norms = {p.degree: space.norm_batch(X[:, p.degree]) for p in G.higher}

    R = grid[:, None]
    s0 = np.max(space._norm_rows((R ** np.arange(1, degree + 1)) @ X[:, 1:]), axis=0)
    s1_per_v = grid[:, None] * tv_norm[None, :]
    for j, qn in q_norms.items():
        s1_per_v = s1_per_v + (R ** j) * qn[None, :]
    s1 = np.max(s1_per_v, axis=1)
    s2a = E * grid * vt
    for j, est in vq.items():
        s2a = s2a + harris_constant(j) * est * grid ** j
    s2b = E * grid * vt + 4.0 * (c0n + depth) * grid ** 2
    for j in vq:
        if j >= 3:
            s2b = s2b + harris_constant(j) * depth * grid ** j
    js = np.arange(2, max(degree, 2) + 1)
    s3 = (E * grid * vt + 4.0 * grid ** 2 * c0n
          + depth * np.sum(majorant_line(js)[None, :] * grid[:, None] ** js[None, :], axis=1))
    s4 = np.asarray(rhs_sharp(inputs, grid))

    stages = (("shell_supremum", s0), ("triangle_split", s1),
              ("degree_aggregation", s2a), ("coefficient_bounds", s2b),
              ("affine_majorant", s3), ("series_envelope", s4))
    margins = np.array([
        float(np.min(stages[k + 1][1] - stages[k][1])) for k in range(len(stages) - 1)
    ])

    coeff_margins = {
        "linear_dissipation": float(np.min(-tv_pair)),
        "linear_radius": float(np.min(E * vt - tv_norm)),
    }
    for j in vq:
        cap = (c0n - 2.0 * tv_pair) if j == 2 else (-2.0 * tv_pair)
        coeff_margins[f"degree_{j}_direction"] = float(np.min(cap - np.abs(C[:, j])))
        coeff_margins[f"degree_{j}_harris"] = float(
            np.min(harris_constant(j) * vq[j] - q_norms[j]))
        agg_cap = (c0n + depth) if j == 2 else depth
        coeff_margins[f"degree_{j}_aggregate"] = float(agg_cap - vq[j])

    all_j = np.arange(2, 33)
    concavity = majorant_line(all_j) - np.array([harris_constant(int(j)) for j in all_j])

    passed = (bool(np.all(margins >= -1e-9))
              and all(v >= -1e-8 for v in coeff_margins.values())
              and bool(np.all(concavity >= -1e-12)))
    return ChainReport(
        radii=grid, stages=stages, stage_margins=margins,
        coefficient_margins=coeff_margins, concavity_margins=concavity,
        passed=passed)
