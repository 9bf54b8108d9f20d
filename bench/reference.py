"""Exact references for the benchmark, computed apart from hologen.

Every map the benchmark checks is a coordinatewise lift
G(z)_k = g_k(z_k) of one-variable polynomials (what `sample_generator`
builds), possibly rotated as z -> U^H G(U z) for a unitary U at p = 2.
For such maps the quantities hologen estimates by sampling have closed
forms or tight brackets:

- the numerical range of the diagonal linear part is the convex hull of
  its entries, so the numerical radius is max_k |a_kk| and the range
  infimum is min_k Re a_kk for every p;
- the polynomial numerical radius of the degree-j part is max_k |c_kj|;
- the shell supremum sup_{||z||_p = r} ||G(z) - G(0)||_p equals
  max_k M_k(r), where M_k(rho) is the maximum of |g_k - g_k(0)| on the
  circle |zeta| = rho (see `shell_sup_bracket` for why);
- all of them are invariant under z -> U^H G(U z) when p = 2.

This module imports numpy (and scipy for the reference integrator) but
nothing from hologen: norms, duality maps, polynomial evaluation and the
generator slack are re-derived here from the map's coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoordMap:
    """Coordinatewise polynomial map on (C^n, ||.||_p).

    coeffs[k, j] is the coefficient of zeta^j in the k-th coordinate
    function g_k, shape (n, degree + 1).
    """

    p: float
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def eval(self, Z) -> np.ndarray:
        """Rows of Z, shape (B, n), mapped to (B, n) by Horner per coordinate."""
        Z = np.asarray(Z, dtype=np.complex128)
        out = np.zeros_like(Z)
        for j in range(self.degree, -1, -1):
            out = out * Z + self.coeffs[None, :, j]
        return out

    def shifted(self, theta: float, a: float) -> "CoordMap":
        """The map z -> e^(i theta) G(z) - a z."""
        c = np.exp(1j * theta) * self.coeffs
        c[:, 1] -= a
        return CoordMap(self.p, c)


def coord_map(space_p: float, constant, linear, parts) -> CoordMap:
    """Read a coordinatewise lift from raw map data.

    Args:
        space_p: norm exponent.
        constant: (n,) constant term.
        linear: (n, n) linear part; must be diagonal.
        parts: iterable of (degree, powers (T, n), coeffs (T, n)); every
            monomial must be a pure power z_k^j whose coefficient vector is
            zero outside coordinate k.

    Raises:
        ValueError: when the data is not a coordinatewise lift.
    """
    constant = np.asarray(constant, dtype=np.complex128)
    linear = np.asarray(linear, dtype=np.complex128)
    n = constant.size
    if np.any(linear[~np.eye(n, dtype=bool)] != 0.0):
        raise ValueError("linear part is not diagonal")
    parts = list(parts)
    top = max([1] + [int(d) for d, _, _ in parts])
    coeffs = np.zeros((n, top + 1), dtype=np.complex128)
    coeffs[:, 0] = constant
    coeffs[:, 1] = np.diag(linear)
    for degree, powers, vecs in parts:
        powers = np.asarray(powers)
        vecs = np.asarray(vecs, dtype=np.complex128)
        for row, vec in zip(powers, vecs):
            (support,) = np.nonzero(row)
            if support.size != 1 or row[support[0]] != degree:
                raise ValueError(f"monomial {row.tolist()} is not a pure power")
            k = int(support[0])
            if np.any(np.delete(vec, k) != 0.0):
                raise ValueError("a monomial feeds a coordinate other than its own")
            coeffs[k, degree] += vec[k]
    return CoordMap(float(space_p), coeffs)


# -- norms and the duality map ------------------------------------------------


def pnorm(Z, p: float) -> np.ndarray:
    """Row-wise p-norms of a (B, n) array."""
    a = np.abs(np.asarray(Z, dtype=np.complex128))
    if math.isinf(p):
        return a.max(axis=1)
    return (a ** p).sum(axis=1) ** (1.0 / p)


def support(Z, p: float) -> np.ndarray:
    """Row-wise support functionals w with Re sum_k z_k w_k = ||z||^2 and
    dual norm ||z||; for p = inf the first coordinate of largest modulus
    carries the functional, for p = 1 zero coordinates get 0."""
    Z = np.asarray(Z, dtype=np.complex128)
    a = np.abs(Z)
    nrm = pnorm(Z, p)
    phase = np.where(a > 0.0, np.conj(Z) / np.where(a > 0.0, a, 1.0), 0.0)
    if math.isinf(p):
        W = np.zeros_like(Z)
        k = np.argmax(a, axis=1)
        rows = np.arange(Z.shape[0])
        W[rows, k] = nrm * phase[rows, k]
        return W
    if p == 1.0:
        return nrm[:, None] * phase
    return nrm[:, None] ** (2.0 - p) * a ** (p - 1.0) * phase


def generator_slack(cm: CoordMap, Z) -> np.ndarray:
    """Re<G(0), z*>(1 - ||z||^2) - Re<G(z), z*> at rows of Z.

    The generator inequality holds at z exactly when this is >= 0.
    """
    Z = np.asarray(Z, dtype=np.complex128)
    W = support(Z, cm.p)
    r2 = pnorm(Z, cm.p) ** 2
    center = np.real(W @ cm.coeffs[:, 0])
    return center * (1.0 - r2) - np.real(np.sum(cm.eval(Z) * W, axis=1))


# -- closed forms ----------------------------------------------------------------


def numerical_radius(cm: CoordMap) -> float:
    """Numerical radius of the diagonal linear part: max_k |a_kk|."""
    return float(np.max(np.abs(cm.coeffs[:, 1])))


def range_inf(cm: CoordMap) -> float:
    """Numerical range infimum of the diagonal linear part: min_k Re a_kk."""
    return float(np.min(cm.coeffs[:, 1].real))


def polynomial_radius(cm: CoordMap, j: int) -> float:
    """Numerical radius of the degree-j part: max_k |c_kj|."""
    if j > cm.degree:
        return 0.0
    return float(np.max(np.abs(cm.coeffs[:, j])))


def circle_max(c, rho: float, angles: int = 4096) -> tuple[float, float]:
    """Bracket [lo, up] of max |sum_(j>=1) c_j zeta^j| over |zeta| = rho.

    lo is the largest of `angles` equispaced samples. For the upper bound
    take the maximizing angle phi* and g(phi) = Re(e^(-i arg) D(rho
    e^(i phi))), a real trigonometric polynomial of degree d with
    max g = g(phi*) = M. Bernstein's inequality gives |g''| <= d^2 M, so
    the sample nearest phi*, at most pi/angles away, still reads at least
    M (1 - d^2 pi^2 / (2 angles^2)).
    """
    c = np.asarray(c, dtype=np.complex128).copy()
    c[0] = 0.0
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return 0.0, 0.0
    d = int(nz[-1])
    loss = d * d * math.pi ** 2 / (2.0 * angles * angles)
    if loss >= 1.0:
        raise ValueError("too few angles for the requested degree")
    zeta = rho * np.exp(2j * np.pi * np.arange(angles) / angles)
    lo = float(np.max(np.abs(np.polynomial.polynomial.polyval(zeta, c[: d + 1]))))
    return lo, lo / (1.0 - loss)


def shell_sup_bracket(cm: CoordMap, r: float, angles: int = 4096) -> tuple[float, float]:
    """Bracket of sup_{||z||_p = r} ||G(z) - G(0)||_p, valid for every p.

    With D_k = g_k - g_k(0) and u_k = |z_k|^p, the p-th power of the norm
    is at most sum_k f_k(u_k) with f_k(u) = M_k(u^(1/p))^p, maximized over
    the simplex sum_k u_k = r^p. Each f_k is convex: log M_k is convex in
    log rho (Hadamard's three circles) with slope >= 1 (M_k(rho)/rho is the
    maximum modulus of D_k(zeta)/zeta, which grows with rho), so log f_k is
    convex in log u with slope >= 1, which makes f_k convex in u. A convex
    function on a simplex peaks at a vertex: all of the radius on one
    coordinate. Hence the supremum is max_k M_k(r), attained at
    r e^(i phi) e_k. At p = inf this holds without the convexity step.
    `shell_sup_convolution` checks the reduction without assuming it.
    """
    lo = up = 0.0
    for k in range(cm.dim):
        a, b = circle_max(cm.coeffs[k], r, angles)
        lo, up = max(lo, a), max(up, b)
    return lo, up


def shell_sup_convolution(cm: CoordMap, r: float, cells: int = 256,
                          angles: int = 1024) -> tuple[float, float]:
    """Bracket of the shell supremum by max-plus convolution, no convexity.

    Splits u_k = |z_k|^p in [0, r^p] into `cells` equal cells. Circle
    maxima grow with the radius, so a cell is bounded above by its top
    edge; the best cell tuple whose lower edges fit under r^p bounds the
    supremum above, and the best tuple of edges summing to r^p exactly is
    a feasible point, hence a lower bound. Only meaningful for p < inf.
    """
    R = r ** cm.p
    u = R * np.arange(cells + 1) / cells
    rho = u ** (1.0 / cm.p)
    lo_f, up_f = [], []
    for k in range(cm.dim):
        br = np.array([circle_max(cm.coeffs[k], x, angles) for x in rho])
        lo_f.append(br[:, 0] ** cm.p)
        up_f.append(np.append(br[1:, 1], br[-1, 1]) ** cm.p)

    def convolve(f, g):
        out = np.full(f.size, -np.inf)
        for i in range(f.size):
            np.maximum(out[i:], f[i] + g[: f.size - i], out=out[i:])
        return out

    lo_c, up_c = lo_f[0], up_f[0]
    for k in range(1, cm.dim):
        lo_c, up_c = convolve(lo_c, lo_f[k]), convolve(up_c, up_f[k])
    return float(lo_c[cells] ** (1.0 / cm.p)), float(np.max(up_c) ** (1.0 / cm.p))


# -- boundary probe ----------------------------------------------------------------


def boundary_probe(cm: CoordMap, lo: float = 0.99, hi: float = 0.9995,
                   directions: int = 512, phases: int = 256,
                   refine_iters: int = 60) -> tuple[float, np.ndarray]:
    """Smallest generator slack found on the layer lo < ||z|| <= hi.

    Probes every coordinate axis at `phases` phases, a fixed cloud of
    random directions, at five radii of the layer, then walks the twelve
    worst points downhill with shrinking Gaussian steps kept inside the
    layer. The probe is seed-free, so its verdict on a map never changes.

    Returns (min_slack, argmin).
    """
    n, p = cm.dim, cm.p
    phi = np.exp(2j * np.pi * np.arange(phases) / phases)
    axes = (phi[:, None, None] * np.eye(n)[None, :, :]).reshape(-1, n)
    rng = np.random.default_rng(20260)
    cloud = rng.standard_normal((directions, n)) + 1j * rng.standard_normal((directions, n))
    dirs = np.concatenate([axes, cloud])
    dirs = dirs / pnorm(dirs, p)[:, None]
    radii = np.linspace(lo, hi, 6)[1:]
    Z = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    s = generator_slack(cm, Z)
    order = np.argsort(s)[:12]
    cur, cur_s = Z[order], s[order]
    sigma = np.full(cur.shape[0], 0.02)
    for _ in range(refine_iters):
        step = rng.standard_normal((8,) + cur.shape) + 1j * rng.standard_normal((8,) + cur.shape)
        props = (cur[None] + sigma[None, :, None] * step).reshape(-1, n)
        nrm = pnorm(props, p)
        props = props * (np.clip(nrm, lo + 1e-12, hi) / nrm)[:, None]
        ps = generator_slack(cm, props).reshape(8, -1)
        j = np.argmin(ps, axis=0)
        best = ps[j, np.arange(cur.shape[0])]
        better = best < cur_s
        cur[better] = props.reshape(8, -1, n)[j, np.arange(cur.shape[0])][better]
        cur_s = np.where(better, best, cur_s)
        sigma = np.where(better, sigma * 1.3, sigma * 0.7)
    i = int(np.argmin(cur_s))
    return float(cur_s[i]), cur[i]


# -- reference flow --------------------------------------------------------------


def flow_endpoint(cm: CoordMap, z0, t: float) -> np.ndarray:
    """State at time t of dz/dt = G(z) by scipy's DOP853 at rtol 1e-12.

    The coordinates of a lift evolve independently, but they are integrated
    together as one real system of size 2n.
    """
    from scipy.integrate import solve_ivp

    n = cm.dim

    def rhs(_t, y):
        v = cm.eval((y[:n] + 1j * y[n:])[None, :])[0]
        return np.concatenate([v.real, v.imag])

    z0 = np.asarray(z0, dtype=np.complex128)
    sol = solve_ivp(rhs, (0.0, t), np.concatenate([z0.real, z0.imag]),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    return y[:n] + 1j * y[n:]
