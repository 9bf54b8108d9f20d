"""Polynomial holomorphic maps on the unit ball, scalar disc functions,
coefficient extraction, and the seeded generator sampler.

A ball map is stored as constant + linear + homogeneous parts of distinct
degrees; a disc function is a scalar function of one complex variable in
one of four shapes: explicit polynomial, positive-real-part atom sum,
generator form built from such a part, or an opaque callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import NormedSpace, space_from_dict, space_to_dict

MAX_DEGREE = 32

_HERGLOTZ_SALT = 202
_CENTER_SALT = 203


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous vector polynomial stored as sparse monomials.

    Args:
        degree: homogeneity degree j >= 1.
        powers: (terms, dim_in) nonnegative integer multi-indices, each row
            summing to `degree`.
        coeffs: (terms, dim_out) complex coefficient vectors.
    """

    degree: int
    powers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {self.degree}")
        powers = np.asarray(self.powers, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if powers.ndim != 2:
            raise ValueError("powers must be a (terms, dim_in) integer array")
        if coeffs.ndim != 2 or coeffs.shape[0] != powers.shape[0]:
            raise ValueError("coeffs must be a (terms, dim_out) array matching powers")
        if np.any(powers < 0):
            raise ValueError("multi-indices must be nonnegative")
        if powers.shape[0] and np.any(powers.sum(axis=1) != self.degree):
            raise ValueError(f"every multi-index must sum to degree {self.degree}")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim_in(self) -> int:
        return self.powers.shape[1]

    @property
    def dim_out(self) -> int:
        return self.coeffs.shape[1]

    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate on rows of Z, shape (B, dim_in) -> (B, dim_out)."""
        Z = np.asarray(Z, dtype=np.complex128)
        if self.powers.shape[0] == 0:
            return np.zeros((Z.shape[0], self.dim_out), dtype=np.complex128)
        mono = np.prod(Z[:, None, :] ** self.powers[None, :, :], axis=2)
        return mono @ self.coeffs

    def __call__(self, z) -> np.ndarray:
        return self.eval_batch(np.asarray(z, dtype=np.complex128)[None, :])[0]


def _unit_direction(space: NormedSpace, v) -> np.ndarray:
    """v as a complex vector, which must have norm within 1e-9 of 1."""
    v = np.asarray(v, dtype=np.complex128)
    if not abs(space.norm(v) - 1.0) <= 1e-9:
        raise ValueError("restriction direction must be a unit vector")
    return v


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map F(z) = constant + linear z + sum of homogeneous parts.

    The higher-degree parts carry distinct degrees between 2 and 32. The map
    is only meant to be evaluated on the open unit ball of `space`;
    `evaluate` enforces that, `eval_batch` is the unchecked batch kernel.
    """

    space: NormedSpace
    constant: np.ndarray
    linear: np.ndarray
    higher: tuple = ()

    def __post_init__(self):
        n = self.space.dim
        c = np.asarray(self.constant, dtype=np.complex128)
        A = np.asarray(self.linear, dtype=np.complex128)
        if c.shape != (n,):
            raise ValueError(f"constant must have shape ({n},), got {c.shape}")
        if A.shape != (n, n):
            raise ValueError(f"linear must have shape ({n}, {n}), got {A.shape}")
        parts = tuple(self.higher)
        degrees = [p.degree for p in parts]
        if any(d < 2 for d in degrees):
            raise ValueError("higher parts must have degree >= 2")
        if len(set(degrees)) != len(degrees):
            raise ValueError("higher parts must have pairwise distinct degrees")
        for p in parts:
            if p.dim_in != n or p.dim_out != n:
                raise ValueError("higher parts must map C^n to C^n")
        parts = tuple(sorted(parts, key=lambda q: q.degree))
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "linear", A)
        object.__setattr__(self, "higher", parts)

    @property
    def degree(self) -> int:
        return self.higher[-1].degree if self.higher else 1

    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        """Unchecked batch evaluation on rows of Z."""
        Z = np.asarray(Z, dtype=np.complex128)
        out = self.constant[None, :] + Z @ self.linear.T
        for part in self.higher:
            out = out + part.eval_batch(Z)
        return out

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at one point of the open unit ball."""
        z = np.asarray(z, dtype=np.complex128)
        if not self.space.norm(z) < 1.0:
            raise ValueError("point lies outside the open unit ball")
        return self.eval_batch(z[None, :])[0]

    __call__ = evaluate

    def part_of_degree(self, j: int):
        """The homogeneous part of degree j >= 2, or None."""
        for part in self.higher:
            if part.degree == j:
                return part
        return None

    def line_coefficients(self, V) -> np.ndarray:
        """(B, degree + 1) array of the Taylor coefficients c_k(v) = <F_k(v), v*>
        of zeta -> <F(zeta v), v*> for the rows v of V, unit rows unchecked.
        Each part is evaluated once per batch; degrees the map lacks read 0."""
        V = np.asarray(V, dtype=np.complex128)
        W = self.space.support_batch(V)
        C = np.zeros((V.shape[0], self.degree + 1), dtype=np.complex128)
        C[:, 0] = W @ self.constant
        C[:, 1] = self.space.pairing_batch(V @ self.linear.T, W)
        for part in self.higher:
            C[:, part.degree] = self.space.pairing_batch(part.eval_batch(V), W)
        return C

    def restrict(self, v) -> "DiscFunction":
        """Exact polynomial zeta -> <F(zeta v), v*>, one `line_coefficients` row.

        Args:
            v: unit vector (norm within 1e-9 of 1).
        """
        v = _unit_direction(self.space, v)
        return DiscFunction.polynomial(self.line_coefficients(v[None, :])[0])

    def shifted(self, theta: float, a: float) -> "PolyMap":
        """The map z -> e^(i theta) F(z) - a z."""
        phase = complex(math.cos(theta), math.sin(theta))
        parts = tuple(
            HomogeneousPoly(p.degree, p.powers, phase * p.coeffs) for p in self.higher
        )
        eye = np.eye(self.space.dim, dtype=np.complex128)
        return PolyMap(
            space=self.space,
            constant=phase * self.constant,
            linear=phase * self.linear - a * eye,
            higher=parts,
        )


@dataclass(frozen=True)
class CallableMap:
    """Opaque holomorphic ball map exposing the PolyMap evaluation surface.

    Args:
        space: ambient space.
        fn: batch evaluator mapping a (B, dim) array to a (B, dim) array.
    """

    space: NormedSpace
    fn: Callable

    @property
    def constant(self) -> np.ndarray:
        return self.eval_batch(np.zeros((1, self.space.dim), dtype=np.complex128))[0]

    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=np.complex128)
        out = np.asarray(self.fn(Z), dtype=np.complex128)
        if out.shape != Z.shape:
            raise ValueError("black-box evaluator must return one row per input row")
        return out

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        if not self.space.norm(z) < 1.0:
            raise ValueError("point lies outside the open unit ball")
        return self.eval_batch(z[None, :])[0]

    __call__ = evaluate

    def shifted(self, theta: float, a: float) -> "CallableMap":
        phase = complex(math.cos(theta), math.sin(theta))
        base = self.fn
        return CallableMap(self.space, lambda Z, _b=base, _p=phase, _a=a: _p * np.asarray(_b(Z)) - _a * np.asarray(Z))

    def restrict(self, v) -> "DiscFunction":
        """Black-box disc function zeta -> <F(zeta v), v*>."""
        v = _unit_direction(self.space, v)
        w = self.space.support_functional(v).vstar

        def slice_fn(zeta, _v=v, _w=w):  # DiscFunction passes a flat array
            return np.sum(self.eval_batch(zeta[:, None] * _v[None, :]) * _w[None, :], axis=1)

        return DiscFunction.blackbox(slice_fn)


@dataclass(frozen=True)
class DiscFunction:
    """Scalar holomorphic function on the unit disc in one of four shapes.

    kinds:
      "polynomial": coefficients c_0..c_d.
      "herglotz":   i*beta + sum_m w_m (1 + u_m zeta)/(1 - u_m zeta) with
                    u_m = exp(-i phi_m) and weights w_m >= 0; the real part
                    is nonnegative on the whole disc.
      "generator":  g(zeta) = g0 - conj(g0) zeta^2 - zeta q(zeta) for a
                    nonnegative-real-part q.
      "blackbox":   an opaque vectorized evaluator.
    """

    kind: str
    coefficients: np.ndarray | None = None
    beta: float = 0.0
    weights: np.ndarray | None = None
    angles: np.ndarray | None = None
    g0: complex = 0.0
    q: "DiscFunction | None" = None
    evaluator: Callable | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def polynomial(cls, coefficients) -> "DiscFunction":
        c = np.atleast_1d(np.asarray(coefficients, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        return cls(kind="polynomial", coefficients=c)

    @classmethod
    def herglotz(cls, beta: float, weights, angles) -> "DiscFunction":
        w = np.asarray(weights, dtype=np.float64)
        phi = np.asarray(angles, dtype=np.float64)
        if w.shape != phi.shape or w.ndim != 1 or w.size == 0:
            raise ValueError("weights and angles must be matching nonempty 1-d arrays")
        if np.any(w < 0.0):
            raise ValueError("atom weights must be nonnegative")
        return cls(kind="herglotz", beta=float(beta), weights=w, angles=phi)

    @classmethod
    def generator_form(cls, g0: complex, q: "DiscFunction") -> "DiscFunction":
        if not isinstance(q, DiscFunction):
            raise ValueError("q must be a DiscFunction")
        return cls(kind="generator", g0=complex(g0), q=q)

    @classmethod
    def blackbox(cls, evaluator: Callable) -> "DiscFunction":
        return cls(kind="blackbox", evaluator=evaluator)

    # -- evaluation -------------------------------------------------------

    def __call__(self, zeta):
        zeta = np.asarray(zeta, dtype=np.complex128)
        scalar = zeta.shape == ()
        z = zeta.reshape(-1)
        if self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(z, self.coefficients)
        elif self.kind == "herglotz":
            u = np.exp(-1j * self.angles)
            t = z[:, None] * u[None, :]
            out = 1j * self.beta + np.sum(self.weights[None, :] * (1.0 + t) / (1.0 - t), axis=1)
        elif self.kind == "generator":
            out = self.g0 - np.conj(self.g0) * z * z - z * self.q(z)
        elif self.kind == "blackbox":
            out = np.asarray(self.evaluator(z), dtype=np.complex128)
            if out.shape != z.shape:
                raise ValueError("black-box evaluator must return one value per input")
        else:
            raise ValueError(f"unknown disc function kind {self.kind!r}")
        out = np.asarray(out, dtype=np.complex128)
        return complex(out[0]) if scalar else out.reshape(zeta.shape)

    # -- exact coefficients -------------------------------------------------

    def coefficient(self, k: int) -> complex:
        """Exact Taylor coefficient at 0; unavailable for black boxes."""
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        if self.kind == "polynomial":
            return complex(self.coefficients[k]) if k < self.coefficients.size else 0.0 + 0.0j
        if self.kind == "herglotz":
            if k == 0:
                return complex(1j * self.beta + self.weights.sum())
            return complex(2.0 * np.sum(self.weights * np.exp(-1j * k * self.angles)))
        if self.kind == "generator":
            out = 0.0 + 0.0j
            if k == 0:
                out += self.g0
            if k == 2:
                out -= np.conj(self.g0)
            if k >= 1:
                out -= self.q.coefficient(k - 1)
            return complex(out)
        raise ValueError("black-box disc functions carry no exact coefficients; "
                         "use taylor_coefficients")

    def polynomial_degree(self) -> int | None:
        """Degree when the function is an exact polynomial, else None."""
        if self.kind == "polynomial":
            nz = np.nonzero(self.coefficients)[0]
            return int(nz[-1]) if nz.size else 0
        if self.kind == "generator" and self.q is not None:
            dq = self.q.polynomial_degree()
            if dq is None:
                return None
            return max(dq + 1, 2 if self.g0 != 0 else 0)
        return None


def taylor_coefficients(f, order: int, radius: float = 0.7, nodes: int | None = None) -> np.ndarray:
    """Taylor coefficients c_0..c_order of f at 0 by circle quadrature.

    Uses N = 4*(order+1) equispaced nodes on |zeta| = radius unless `nodes`
    overrides. c_k = (1/(N r^k)) sum_m f(r e^(2 pi i m/N)) e^(-2 pi i k m/N);
    for functions analytic past the circle the aliasing error decays like
    radius^N.

    Args:
        f: vectorized callable or DiscFunction.
        order: highest coefficient index, 1 <= order <= 512.
        radius: quadrature circle radius in (0, 1).
        nodes: optional node-count override, must exceed `order`.
    """
    if not 1 <= order <= 512:
        raise ValueError(f"order must be in [1, 512], got {order}")
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    N = 4 * (order + 1) if nodes is None else int(nodes)
    if N <= order:
        raise ValueError("need more quadrature nodes than coefficients")
    zeta = radius * np.exp(2j * np.pi * np.arange(N) / N)
    vals = np.asarray(f(zeta), dtype=np.complex128)
    if vals.shape != (N,):
        raise ValueError("evaluator must return one value per quadrature node")
    if not np.all(np.isfinite(vals)):
        raise ValueError("evaluator returned non-finite values on the circle")
    hat = np.fft.fft(vals) / N
    k = np.arange(order + 1)
    return hat[: order + 1] / radius ** k


def herglotz_sample(seed: int, atoms: int = 2) -> DiscFunction:
    """Seeded random function with nonnegative real part on the disc.

    Args:
        seed: stream key; identical seeds give identical functions.
        atoms: number of boundary atoms, >= 1.
    """
    if atoms < 1:
        raise ValueError("atoms must be >= 1")
    rng = np.random.default_rng([seed, _HERGLOTZ_SALT])
    weights = rng.uniform(0.1, 1.0, atoms)
    angles = rng.uniform(0.0, 2.0 * np.pi, atoms)
    beta = float(rng.normal(0.0, 0.3))
    return DiscFunction.herglotz(beta=beta, weights=weights, angles=angles)


def fejer_truncate(f, degree: int) -> DiscFunction:
    """Degree-`degree` polynomial that keeps the sign of Re f.

    Cesaro weighting: coefficient k is scaled by 1 - k/(degree+1), which is
    circle convolution with a nonnegative kernel, so a nonnegative real part
    survives the cut (a plain Taylor truncation does not).
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    try:
        c = np.array([f.coefficient(k) for k in range(degree + 1)], dtype=np.complex128)
    except (AttributeError, ValueError):
        c = taylor_coefficients(f, degree)
    w = 1.0 - np.arange(degree + 1) / (degree + 1.0)
    return DiscFunction.polynomial(c * w)


def _least_real_part(q, radii) -> float:
    """Least Re q over 16 equally spaced angles on each circle |zeta| = r."""
    angles = 2.0 * np.pi * np.arange(16) / 16
    zeta = (np.asarray(radii)[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)
    return float(np.min(np.asarray(q(zeta), dtype=np.complex128).real))


def disc_generator_from(g0: complex, q: DiscFunction) -> DiscFunction:
    """Build g(zeta) = g0 - conj(g0) zeta^2 - zeta q(zeta).

    Args:
        g0: value at the origin.
        q: disc function whose real part must be nonnegative; spot-checked
            at 16 angles on each of the circles |zeta| = 0.3, 0.6, 0.9, 0.97.

    Raises:
        ValueError: when Re q < -1e-9 at a sampled point.
    """
    worst = _least_real_part(q, [0.3, 0.6, 0.9, 0.97])
    if worst < -1e-9:
        raise ValueError(f"invalid dissipation data: Re q = {worst:.3e} < 0 at a sampled point")
    return DiscFunction.generator_form(complex(g0), q)


def _polynomial_coefficients(g: DiscFunction) -> np.ndarray:
    """Exact coefficient array of a polynomial-backed disc function."""
    deg = g.polynomial_degree()
    if deg is None:
        raise ValueError("disc function is not an exact polynomial; truncate it first")
    return np.array([g.coefficient(k) for k in range(deg + 1)], dtype=np.complex128)


def lift_to_ball(space: NormedSpace, disc_functions) -> PolyMap:
    """Coordinatewise ball map G(z)_k = g_k(z_k) as a PolyMap.

    Every disc function must carry exact polynomial data (polynomial kind,
    or generator form over a polynomial part). The restriction of the result
    to the k-th coordinate axis reproduces g_k exactly.

    Raises:
        ValueError: wrong count, non-polynomial input, or degree above 32.
    """
    gens = list(disc_functions)
    n = space.dim
    if len(gens) != n:
        raise ValueError(f"need exactly {n} disc functions, got {len(gens)}")
    coeff_lists = [_polynomial_coefficients(g) for g in gens]
    top = max(c.size - 1 for c in coeff_lists)
    if top > MAX_DEGREE:
        raise ValueError(f"lift degree {top} exceeds the supported maximum {MAX_DEGREE}")
    C = np.zeros((max(top, 1) + 1, n), dtype=np.complex128)  # C[j, k]: z_k^j in g_k
    for k, c in enumerate(coeff_lists):
        C[:c.size, k] = c
    parts = []
    for j in range(2, top + 1):
        k = np.flatnonzero(C[j])
        if k.size:
            parts.append(HomogeneousPoly(j, j * np.eye(n, dtype=np.int64)[k], np.diag(C[j])[k]))
    return PolyMap(space=space, constant=C[0], linear=np.diag(C[1]), higher=tuple(parts))


def sample_generator(space: NormedSpace, seed: int, degree: int = 6, atoms: int = 2) -> PolyMap:
    """Seeded random ball generator of the requested polynomial degree.

    Coordinatewise construction: per coordinate a random nonnegative-real-
    part function is Cesaro-truncated to degree-1 and given an extra
    constant margin so that the coordinatewise lift certifies on the ball of
    `space`; the margin must exceed max_k |g_k(0)| * dim**(1/p), which is
    the worst cross-coordinate leakage of the constant terms.

    Args:
        space: target space; the margin adapts to its p.
        seed: stream key.
        degree: polynomial degree of the result, 2 <= degree <= 32.
        atoms: boundary atoms per coordinate.
    """
    if not 2 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [2, {MAX_DEGREE}], got {degree}")
    n = space.dim
    rng = np.random.default_rng([seed, _CENTER_SALT])
    centers = rng.normal(0.0, 0.35, n) + 1j * rng.normal(0.0, 0.35, n)
    cmax = float(np.max(np.abs(centers)))
    leak = 1.0 if math.isinf(space.p) else float(n) ** (1.0 / space.p)
    delta = cmax * leak + 0.05
    gens = []
    for k in range(n):
        q = herglotz_sample(seed * 64 + k, atoms=atoms)
        qt = fejer_truncate(q, degree - 1)
        c = qt.coefficients.copy()
        c[0] += delta
        gens.append(disc_generator_from(centers[k], DiscFunction.polynomial(c)))
    return lift_to_ball(space, gens)


def unitary_conjugate(pm: PolyMap, U: np.ndarray) -> PolyMap:
    """The map z -> U^H F(U z) for unitary U; meaningful only when p = 2.

    Rotations preserve the 2-norm sphere and its duality map, so this
    produces non-coordinatewise maps with the same certification status.

    Raises:
        ValueError: when the space is not p = 2 or U is not unitary.
    """
    if pm.space.p != 2.0:
        raise ValueError("unitary conjugation preserves structure only for p = 2")
    n = pm.space.dim
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (n, n) or not np.allclose(U.conj().T @ U, np.eye(n), atol=1e-12):
        raise ValueError("U must be unitary of matching dimension")
    Uh = U.conj().T
    constant = Uh @ pm.constant
    linear = Uh @ pm.linear @ U
    parts = []
    for part in pm.higher:
        acc: dict[tuple, np.ndarray] = {}
        for t in range(part.powers.shape[0]):
            expansion = {(0,) * n: np.ones((), dtype=np.complex128)}
            for k in range(n):
                e = int(part.powers[t, k])
                for _ in range(e):
                    nxt: dict[tuple, np.ndarray] = {}
                    for mono, coef in expansion.items():
                        for l in range(n):
                            if U[k, l] == 0.0:
                                continue
                            key = list(mono)
                            key[l] += 1
                            key = tuple(key)
                            nxt[key] = nxt.get(key, 0.0) + coef * U[k, l]
                    expansion = nxt
            vec = Uh @ part.coeffs[t]
            for mono, coef in expansion.items():
                acc[mono] = acc.get(mono, np.zeros(n, dtype=np.complex128)) + coef * vec
        rows = np.array(sorted(acc.keys()), dtype=np.int64)
        vecs = np.array([acc[tuple(r)] for r in rows], dtype=np.complex128)
        parts.append(HomogeneousPoly(part.degree, rows, vecs))
    return PolyMap(space=pm.space, constant=constant, linear=linear, higher=tuple(parts))


# -- JSON round trip -------------------------------------------------------


def _pairs(z) -> list:
    """A complex vector as a list of [re, im] pairs."""
    return [[float(x.real), float(x.imag)] for x in np.asarray(z, dtype=np.complex128)]


def _unpair(data, where: str) -> complex:
    if (not isinstance(data, (list, tuple)) or len(data) != 2
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in data)):
        raise ValueError(f"{where} must be a [re, im] number pair, got {data!r}")
    return complex(data[0], data[1])


def map_to_dict(pm: PolyMap) -> dict:
    """Serialize a PolyMap to the interchange format.

    Layout: {"space": {"dim", "p"}, "constant": [[re, im], ...],
    "linear": [[[re, im], ...], ...], "terms": [{"degree", "monomial",
    "coeff"}, ...]} with one entry per stored monomial.
    """
    terms = []
    for part in pm.higher:
        for t in range(part.powers.shape[0]):
            terms.append({
                "degree": int(part.degree),
                "monomial": [int(x) for x in part.powers[t]],
                "coeff": _pairs(part.coeffs[t]),
            })
    return {
        "space": space_to_dict(pm.space),
        "constant": _pairs(pm.constant),
        "linear": [_pairs(row) for row in pm.linear],
        "terms": terms,
    }


def map_from_dict(data: dict) -> PolyMap:
    """Parse the interchange format back into a PolyMap.

    Raises:
        ValueError: with the offending field named, on any malformed entry.
    """
    if not isinstance(data, dict):
        raise ValueError("map JSON must be an object")
    for key in ("space", "constant", "linear", "terms"):
        if key not in data:
            raise ValueError(f"map JSON missing key '{key}'")
    space = space_from_dict(data["space"])
    n = space.dim
    raw_c = data["constant"]
    if not isinstance(raw_c, list) or len(raw_c) != n:
        raise ValueError(f"'constant' must be a list of {n} [re, im] pairs")
    constant = np.array([_unpair(x, f"constant[{i}]") for i, x in enumerate(raw_c)])
    raw_A = data["linear"]
    if not isinstance(raw_A, list) or len(raw_A) != n:
        raise ValueError(f"'linear' must be a list of {n} rows")
    linear = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(raw_A):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"'linear[{i}]' must be a list of {n} [re, im] pairs")
        for j, x in enumerate(row):
            linear[i, j] = _unpair(x, f"linear[{i}][{j}]")
    raw_terms = data["terms"]
    if not isinstance(raw_terms, list):
        raise ValueError("'terms' must be a list")
    grouped: dict[int, list] = {}
    for idx, term in enumerate(raw_terms):
        if not isinstance(term, dict):
            raise ValueError(f"'terms[{idx}]' must be an object")
        for key in ("degree", "monomial", "coeff"):
            if key not in term:
                raise ValueError(f"'terms[{idx}]' missing key '{key}'")
        degree = term["degree"]
        if isinstance(degree, bool) or not isinstance(degree, int) or not 2 <= degree <= MAX_DEGREE:
            raise ValueError(f"'terms[{idx}].degree' must be an integer in [2, {MAX_DEGREE}]")
        mono = term["monomial"]
        if (not isinstance(mono, list) or len(mono) != n
                or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in mono)):
            raise ValueError(f"'terms[{idx}].monomial' must be {n} nonnegative integers")
        if sum(mono) != degree:
            raise ValueError(f"'terms[{idx}].monomial' must sum to its degree {degree}")
        coeff = term["coeff"]
        if not isinstance(coeff, list) or len(coeff) != n:
            raise ValueError(f"'terms[{idx}].coeff' must be a list of {n} [re, im] pairs")
        vec = np.array([_unpair(x, f"terms[{idx}].coeff[{j}]") for j, x in enumerate(coeff)])
        grouped.setdefault(degree, []).append((np.array(mono, dtype=np.int64), vec))
    parts = []
    for degree in sorted(grouped):
        rows = np.array([m for m, _ in grouped[degree]], dtype=np.int64)
        vecs = np.array([v for _, v in grouped[degree]], dtype=np.complex128)
        parts.append(HomogeneousPoly(degree, rows, vecs))
    return PolyMap(space=space, constant=constant, linear=linear, higher=tuple(parts))
