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

from .certify import (NotCertifiedError, _annulus, _convex_hull, _require_certified,
                      CertifyBudget, PseudoDissipativityCertificate)
from .numrange import (DEFAULT_BUDGET, OracleMismatchError, SearchBudget,
                       _sphere_search, harris_constant, numerical_radius,
                       numerical_range_inf, polynomial_numerical_radius)
from .spaces import _shell_grid

LN2 = math.log(2.0)
E = math.e

# slope of the affine majorant of the degree constants, tangent at 2
_LINE_SLOPE = 4.0 * (1.0 - LN2)

_DEFAULT_RADII = tuple(round(0.1 + 0.05 * i, 2) for i in range(18)) + (0.99,)


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


def _check_radii(r) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
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


def growth_inputs_from(F, cert: PseudoDissipativityCertificate,
                       budget: SearchBudget | None = None) -> GrowthInputs:
    """Measure the envelope inputs of F under a certified rotation/shift.

    The shifted infimum must match the rotated infimum minus the shift to
    1e-9, since both searches walk the same landscape up to a constant;
    a larger gap means the estimates cannot be trusted.

    Raises:
        NotCertifiedError: the certificate is not a certified one.
        OracleMismatchError: the shift consistency check fails.
        ValueError: F carries no explicit linear part.
    """
    if cert.verdict != "certified":
        raise NotCertifiedError(f"certificate verdict is {cert.verdict!r}")
    if not hasattr(F, "linear"):
        raise ValueError("growth inputs need a map with an explicit linear part")
    space = F.space
    A = np.asarray(F.linear, dtype=np.complex128)
    phase = complex(math.cos(cert.theta), math.sin(cert.theta))
    R = phase * A
    T = R - cert.a * np.eye(space.dim, dtype=np.complex128)
    va = _sharpened(numerical_radius(space, A, budget))
    vt = _sharpened(numerical_radius(space, T, budget))
    mt = _deepened(numerical_range_inf(space, T, budget))
    m_rot = _deepened(numerical_range_inf(space, R, budget))
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


def generator_certificate(G, budget: CertifyBudget | None = None,
                          tolerance: float = 1e-9) -> PseudoDissipativityCertificate:
    """Canonical certificate (theta 0, shift 0, budget ||G(0)||) of a
    certified generator, validated on fresh samples of the annulus of
    width 0.1.

    Raises:
        NotCertifiedError: when G does not certify.
    """
    _require_certified(G, None, budget, tolerance)
    budget = budget or CertifyBudget(sphere=192)
    space = G.space
    b = space.norm(np.asarray(G.constant))
    Z, omega, r2 = _annulus(G, 0.1, space.sphere_sample(budget.sphere, budget.seed))
    slack = b * (1.0 - r2) - np.real(omega)
    hull = _convex_hull(np.column_stack([omega.real, omega.imag]))
    return PseudoDissipativityCertificate(
        "certified", 0.0, 0.0, float(b), 0.1, hull,
        int(Z.shape[0]), float(np.min(slack)), None)


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
    adding a constant to F shifts both sides identically. Every shell uses
    the radius actually attained by the maximizing sample, so a map sitting
    exactly on an envelope reports slack 0.

    Args:
        F: map with an explicit linear part.
        cert: certified rotation/shift certificate, or None.
        radii: shell radii, defaults to 0.1 .. 0.95 step 0.05 plus 0.99.
        budget: search effort for the suprema and range estimates.
        tolerance: slack below -tolerance marks the report violated.
    """
    if cert is None:
        cert = generator_certificate(F)
    inputs = growth_inputs_from(F, cert, budget)
    space = F.space
    F0 = np.asarray(F.constant, dtype=np.complex128)
    grid = np.asarray(radii if radii is not None else _DEFAULT_RADII, dtype=np.float64)
    _check_radii(grid)
    # every shell is one group of a single climb, shell i on stream salt 11 + i
    found = _sphere_search(
        space, lambda V, g: space.norm_batch(F.eval_batch(grid[g][:, None] * V) - F0[None, :]),
        budget or DEFAULT_BUDGET, range(11, 11 + grid.size))
    lhs = np.empty(grid.size)
    r_eff = np.empty(grid.size)
    for i, (r, (val, vmax)) in enumerate(zip(grid, found)):
        z = r * vmax
        r_eff[i] = space.norm(z)
        lhs[i] = space.norm(F.eval_batch(z[None, :])[0] - F0)
        if lhs[i] < val - 1e-12:
            lhs[i] = val
            r_eff[i] = r
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
                              verdict=None, tolerance: float = 1e-9) -> ChainReport:
    """Walk every estimate between shell suprema and the sharp envelope.

    Stages on each radius r, for a certified generator with linear part T,
    homogeneous parts Q_j, center norm c = ||G(0)||, radius bounds
    V_T >= |<Tv, v*>| and V_j >= |<Q_j(v), v*>|, depth d = -2 m(T):

      S0  max_v ||G(r v) - G(0)||            raw shell supremum
      S1  max_v [r ||Tv|| + sum_j r^j ||Q_j(v)||]   triangle split
      S2a e r V_T + sum_j k_j V_j r^j        degreewise aggregation
      S2b e r V_T + 4 (c + d) r^2 + sum_(j>=3) k_j d r^j   coefficient bounds
      S3  e r V_T + 4 r^2 c + d sum_(j=2..deg) line(j) r^j  affine majorant
      S4  sharp envelope at shift 0          series resummation

    with k_j the degree constants. The per-direction coefficient bounds
    (|c_2(v)| <= ||G(0)|| - 2 Re c_1(v) and |c_j(v)| <= -2 Re c_1(v), with
    c_j(v) = <Q_j v, v*> and c_1(v) = <Tv, v*> read from
    `PolyMap.line_coefficients`) and the aggregated forms are reported as
    margins; all must clear -1e-8.

    Raises:
        NotCertifiedError: when G does not certify first.
    """
    _require_certified(G, verdict)
    if not hasattr(G, "higher"):
        raise ValueError("the chain needs an explicit polynomial map")
    space = G.space
    grid = np.asarray(radii if radii is not None else _DEFAULT_RADII, dtype=np.float64)
    _check_radii(grid)
    T = np.asarray(G.linear, dtype=np.complex128)
    g0 = np.asarray(G.constant, dtype=np.complex128)
    c0n = space.norm(g0)
    degree = G.degree

    vt = _sharpened(numerical_radius(space, T, budget))
    mt = _deepened(numerical_range_inf(space, T, budget))
    depth = max(0.0, -2.0 * mt)

    vq = {p.degree: polynomial_numerical_radius(space, p, budget).value for p in G.higher}

    V = space.sphere_sample(v_count, seed)
    C = G.line_coefficients(V)
    tv_pair = C[:, 1].real
    tv_norm = space.norm_batch(V @ T.T)
    q_norms = {p.degree: space.norm_batch(p.eval_batch(V)) for p in G.higher}

    R = grid[:, None]
    Z = _shell_grid(grid, V)
    s0 = np.max(
        space._norm_rows(G.eval_batch(Z) - g0[None, :]).reshape(grid.size, v_count), axis=1)
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
    flat_inputs = GrowthInputs(0.0, 0.0, c0n, vt, vt, mt)
    s4 = np.asarray(rhs_sharp(flat_inputs, grid))

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

    passed = (bool(np.all(margins >= -tolerance))
              and all(v >= -1e-8 for v in coeff_margins.values())
              and bool(np.all(concavity >= -1e-12)))
    return ChainReport(
        radii=grid, stages=stages, stage_margins=margins,
        coefficient_margins=coeff_margins, concavity_margins=concavity,
        passed=passed)
