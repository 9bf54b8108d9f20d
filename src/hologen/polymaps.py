"""Polynomial holomorphic maps on the unit ball, scalar disc functions,
the phase kernel that decides Re q >= 0 on a circle, and the seeded
generator sampler.

A ball map is stored as constant + linear + homogeneous parts of distinct
degrees; a disc function is a scalar function of one complex variable in
one of three shapes: explicit polynomial, positive-real-part atom sum, or
generator form built from such a part.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spaces import NormedSpace, space_from_dict, space_to_dict

MAX_DEGREE = 32

_HERGLOTZ_SALT = 202
_CENTER_SALT = 203

_BLOCK = 1 << 16  # the most gathered factor entries (1 MiB) and gemm M*K*N of a block


@functools.lru_cache
def _exponents(degree: int) -> np.ndarray:
    """(degree + 1, 1, 1) exponents 0..degree of a `_power_table`, built once per degree."""
    return np.arange(degree + 1)[:, None, None]


def _power_table(Z: np.ndarray, degree: int) -> np.ndarray:
    """((degree + 1) * dim, B) coordinate-major table: row k * dim + i is Z[:, i] ** k."""
    powers = np.ascontiguousarray(Z.T)[None] ** _exponents(degree)
    return powers.reshape((degree + 1) * Z.shape[1], len(Z))


def _block_rows(columns: np.ndarray, coeffs: np.ndarray) -> int:
    """Rows of one `_row_blocks` block: gathered factors and gemm M*K*N stay within
    _BLOCK, where OpenBLAS runs zgemm on one thread (threaded, it rounds apart), and
    at least 2, since numpy takes gemv for one row."""
    factors, parts, terms = columns.shape
    return max(2, _BLOCK // max(1, terms * max(factors * parts, coeffs.shape[-1])))


def _row_blocks(rows: int, columns: np.ndarray, coeffs: np.ndarray) -> list:
    """(lo, hi) row blocks of `_eval_parts`: the whole batch if it fits in
    `_block_rows`, else that many rows each, the last starting at most 2 rows
    before the end."""
    step = _block_rows(columns, coeffs)
    return [(0, rows)] if rows <= step else [
        (min(lo, rows - 2), min(lo + step, rows)) for lo in range(0, rows, step)]


def _eval_parts(table: np.ndarray, columns: np.ndarray, coeffs: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """(parts, B, dim_out) values, from a `_power_table`, of stacked parts: their
    nonunit-factor rows (factors, parts, terms) and coeffs (parts, terms, dim_out),
    written into out if given. Factors are gathered table rows, multiplied in as
    binary `*` in one block when the batch is within `_block_rows`, else in
    `_row_blocks`, so a row rounds the same alone, in any batch and on any number
    of BLAS threads."""
    rows = table.shape[1]
    if out is None:
        out = np.empty((columns.shape[1], rows, coeffs.shape[-1]), dtype=np.complex128)
    one = rows <= _block_rows(columns, coeffs)
    for lo, hi in ((0, rows),) if one else _row_blocks(rows, columns, coeffs):
        block = table if one else table[:, lo:hi]
        mono = block[columns[0]]
        for i in range(1, len(columns)):
            mono *= block[columns[i]]
        np.matmul(mono.transpose(0, 2, 1), coeffs, out=out if one else out[:, lo:hi])
    return out


def _pair_lines(X, W) -> np.ndarray:
    """(B, K) pairings <X[b, k], W[b]> of Taylor vectors X (B, K, dim) with
    functionals W (B, dim): the one pairing of every line coefficient."""
    return np.einsum("bkn,bn->bk", X, W)


def _gemm_rows(kernel):
    """Run a one-row call as that row in a two-row batch: numpy's matmul takes
    gemv for one row and gemm from two, and the two round apart."""
    @functools.wraps(kernel)
    def wrapped(self, Z):
        Z = np.asarray(Z, dtype=np.complex128)
        return kernel(self, np.concatenate((Z, Z)))[:1] if len(Z) == 1 else kernel(self, Z)
    return wrapped


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
        if not np.isfinite(coeffs).all():
            raise ValueError(f"coeffs of the degree-{self.degree} part must be finite")
        if np.any(powers < 0):
            raise ValueError("multi-indices must be nonnegative")
        if powers.shape[0] and np.any(powers.sum(axis=1) != self.degree):
            raise ValueError(f"every multi-index must sum to degree {self.degree}")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "coeffs", coeffs)
        # (factors, terms) `_power_table` rows of each monomial's nonunit
        # factors z_i^a_i in coordinate order, padded with the exact 1 of z_0^0
        nonunit = np.count_nonzero(powers, axis=1).max(initial=1)
        coord = np.argsort(powers == 0, axis=1, kind="stable")[:, :nonunit]
        exps = np.take_along_axis(powers, coord, axis=1)
        object.__setattr__(self, "_columns", np.where(exps > 0, exps * self.dim_in + coord, 0).T.copy())

    @property
    def dim_in(self) -> int:
        return self.powers.shape[1]

    @property
    def dim_out(self) -> int:
        return self.coeffs.shape[1]

    @_gemm_rows
    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate on rows of Z, shape (B, dim_in) -> (B, dim_out).

        Powers are bit-identical to `z ** k`. A monomial multiplies its nonunit
        factors left to right with binary `*`, unlike `np.prod` once two are
        nonunit. The matmul is gemm on one BLAS thread, in `_row_blocks`, so a
        row rounds the same alone, in a batch of any size and on any core count."""
        return self._eval_table(_power_table(Z, self.degree))

    def _eval_table(self, table: np.ndarray) -> np.ndarray:
        """Evaluate from a `_power_table` of degree >= self.degree."""
        return _eval_parts(table, self._columns[:, None], self.coeffs[None])[0]

    def __call__(self, z) -> np.ndarray:
        return self.eval_batch(np.asarray(z, dtype=np.complex128)[None, :])[0]


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
        for name, value in (("constant", c), ("linear", A)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
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
        # runs of parts of consecutive degrees and one (factors, terms) shape,
        # stacked for `_eval_parts`; degree - position is constant along a run
        runs = [[q for _, q in run] for _, run in itertools.groupby(
            enumerate(parts), lambda iq: (iq[1]._columns.shape, iq[1].degree - iq[0]))]
        object.__setattr__(self, "_groups", [(np.stack([q._columns for q in run], axis=1),
                                              np.stack([q.coeffs for q in run])) for run in runs])

    @property
    def degree(self) -> int:
        return self.higher[-1].degree if self.higher else 1

    def _part_values(self, Z: np.ndarray, out: np.ndarray, by_degree: bool = False) -> None:
        """Write the values of the homogeneous parts on rows Z into out, group
        by group: the k-th part in degree order into out[k], or with
        by_degree=True the part of degree j into out[j]."""
        table = _power_table(Z, self.degree) if self.higher else None
        k = 0
        for columns, coeffs in self._groups:
            lo = self.higher[k].degree if by_degree else k
            _eval_parts(table, columns, coeffs, out[lo:lo + columns.shape[1]])
            k += columns.shape[1]

    @_gemm_rows
    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        """Unchecked batch evaluation on rows of Z: constant plus linear part in
        slot 0 of one (parts + 1, B, dim) buffer, the homogeneous parts after it
        in degree order, and one sum along the slots, which adds them left to
        right. Every matmul is gemm on one BLAS thread, so a row rounds the same
        alone, in a batch of any size and on any core count."""
        terms = np.empty((len(self.higher) + 1, len(Z), self.space.dim), dtype=np.complex128)
        np.add(self.constant, Z @ self.linear.T, out=terms[0])
        self._part_values(Z, terms[1:])
        return np.add.reduce(terms, axis=0)

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

    @_gemm_rows
    def line_vectors(self, V) -> np.ndarray:
        """(B, degree + 1, dim) array of the Taylor vectors F_k(v) of
        zeta -> F(zeta v) for the rows v of V, rounded as `eval_batch` rounds
        its terms; degrees the map lacks read 0. Each group of parts writes
        straight into its degree columns, and the array starts zeroed only
        when some degree between 2 and the map's is missing."""
        gaps = len(self.higher) < self.degree - 1
        X = (np.zeros if gaps else np.empty)((V.shape[0], self.degree + 1, self.space.dim),
                                             dtype=np.complex128)
        X[:, 0] = self.constant
        X[:, 1] = V @ self.linear.T
        self._part_values(V, X.transpose(1, 0, 2), by_degree=True)
        return X

    def line_coefficients(self, V) -> np.ndarray:
        """(B, degree + 1) array of the Taylor coefficients c_k(v) = <F_k(v), v*>
        of zeta -> <F(zeta v), v*> for the rows v of V, unit rows unchecked:
        the `line_vectors` paired with the support functionals by `_pair_lines`."""
        V = np.asarray(V, dtype=np.complex128)
        return _pair_lines(self.line_vectors(V), self.space.support_batch(V))

    def restrict(self, v) -> "DiscFunction":
        """Exact polynomial zeta -> <F(zeta v), v*>, one `line_coefficients` row.

        Args:
            v: unit vector (norm within 1e-9 of 1).
        """
        v = np.asarray(v, dtype=np.complex128)
        if not abs(self.space.norm(v) - 1.0) <= 1e-9:
            raise ValueError("restriction direction must be a unit vector")
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


# -- the phase kernel ------------------------------------------------------

_PHASES = 24  # grid phases on each line's boundary circle
_PHI = 2.0 * np.pi * np.arange(_PHASES) / _PHASES
_NEWTON = 4  # Newton steps that finish a grid phase


@functools.lru_cache
def _phase_grid(terms: int) -> np.ndarray:
    """(terms, _PHASES) array of e^(i (k - 1) phi) at the grid phases."""
    return np.exp(1j * np.outer(np.arange(terms) - 1, _PHI))


@functools.lru_cache
def _newton_weights(terms: int) -> np.ndarray:
    """(terms, 3) weights 1, k - 1 and (k - 1)^2 that give a row's sum and
    its first two phase derivatives from its terms."""
    j = np.arange(terms) - 1.0
    return np.stack([np.ones_like(j), j, j * j], axis=1)


def _phase_terms(phi, terms: int) -> np.ndarray:
    """(len(phi), terms) array of e^(i (k - 1) phi) with the exponential
    formed for k - 1 >= 1 only: column 1 is 1, and column 0 the conjugate
    of e^(i phi), which is e^(-i phi) bit for bit, signed zeros included."""
    E = np.empty((len(phi), terms), dtype=np.complex128)
    E[:, 1] = 1.0
    ahead = E[:, 2:] if terms > 2 else np.empty((len(phi), 1), dtype=np.complex128)
    np.exp(np.multiply.outer(phi, 1j * np.arange(1.0, ahead.shape[1] + 1)), out=ahead)
    np.conjugate(ahead[:, 0], out=E[:, 0])
    return E


def _phase_max(C, every=False, grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max over phi of Re sum_k C[:, k] e^(i (k - 1) phi), and a
    phase phi* where the sum takes it.

    Newton steps of at most half the grid spacing, uphill where the sum is
    convex, finish the best grid phase, or with every=True each grid phase,
    which also reaches a narrow peak that lower grid values flank. Every
    value is the sum at its phase. grid, if given, holds the rows' grid
    values (C @ _phase_grid).real, which are then not formed again. C times
    each pass's `_phase_terms` array stays an unnamed temporary: from
    256 KiB numpy multiplies it in place with the operands swapped, which
    rounds the imaginary parts apart from a named product (numrange._raw).
    It is the one kernel that decides Re q >= 0 on a circle, for lines,
    discs and disc data (`_min_real_part`) alike, exactly for rows of at
    most 29 terms (a degree-28 map) until ROADMAP item 11.
    """
    J = _newton_weights(C.shape[1])
    P = (C @ _phase_grid(C.shape[1])).real if grid is None else grid
    if every:
        C, phi, best = np.repeat(C, _PHASES, axis=0), np.tile(_PHI, len(P)), P.ravel()
    else:
        i = np.argmax(P, axis=1)
        phi, best = _PHI[i], P[np.arange(len(P)), i]
    cap = np.pi / _PHASES
    at = phi
    for _ in range(_NEWTON + 1):
        # f = Re S0, f' = -Im S1, f'' = -Re S2
        S = (C * _phase_terms(phi, C.shape[1])) @ J
        at = np.where(S[:, 0].real > best, phi, at)
        best = np.maximum(best, S[:, 0].real)
        phi = phi - np.clip(S[:, 1].imag / np.maximum(np.abs(S[:, 2].real), 1e-12), -cap, cap)
    best, at = best.reshape(len(P), -1), at.reshape(len(P), -1)
    i = np.argmax(best, axis=1)
    rows = np.arange(len(P))
    return best[rows, i], at[rows, i]


@dataclass(frozen=True)
class DiscFunction:
    """Scalar holomorphic function on the unit disc in one of three shapes.

    kinds:
      "polynomial": coefficients c_0..c_d.
      "herglotz":   i*beta + sum_m w_m (1 + u_m zeta)/(1 - u_m zeta) with
                    u_m = exp(-i phi_m) and weights w_m >= 0; the real part
                    is nonnegative on the whole disc.
      "generator":  g(zeta) = g0 - conj(g0) zeta^2 - zeta q(zeta) for a
                    nonnegative-real-part q.

    An opaque callable is not a DiscFunction, and nothing here reads one;
    `fejer_truncate` cuts a DiscFunction to a polynomial.
    """

    kind: str
    coefficients: np.ndarray | None = None
    beta: float = 0.0
    weights: np.ndarray | None = None
    angles: np.ndarray | None = None
    g0: complex = 0.0
    q: "DiscFunction | None" = None

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
        else:
            raise ValueError(f"unknown disc function kind {self.kind!r}")
        out = np.asarray(out, dtype=np.complex128)
        return complex(out[0]) if scalar else out.reshape(zeta.shape)

    # -- exact coefficients -------------------------------------------------

    def coefficient(self, k: int) -> complex:
        """Exact Taylor coefficient at 0."""
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
        raise ValueError(f"unknown disc function kind {self.kind!r}")

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


def fejer_truncate(f: DiscFunction, degree: int) -> DiscFunction:
    """Degree-`degree` polynomial that keeps the sign of Re f.

    Cesaro weighting of f's exact coefficients: coefficient k is scaled by
    1 - k/(degree+1), which is circle convolution with a nonnegative kernel,
    so a nonnegative real part survives the cut (a plain Taylor truncation
    does not).

    Raises:
        ValueError: f is not a DiscFunction, or degree lies outside [1, 32].
    """
    if not isinstance(f, DiscFunction):
        raise ValueError(f"fejer_truncate reads the coefficients of a DiscFunction; "
                         f"got {type(f).__name__}")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    c = np.array([f.coefficient(k) for k in range(degree + 1)], dtype=np.complex128)
    w = 1.0 - np.arange(degree + 1) / (degree + 1.0)
    return DiscFunction.polynomial(c * w)


def _min_real_part(q: DiscFunction) -> float:
    """The least Re q on the closed disc: for a Herglotz q 0, or -inf at the
    atom of a weight below 0, which only a bypassed `herglotz` check leaves;
    from exact polynomial data minus one `_phase_max` row of -q's
    coefficients shifted by one slot, as Re q is harmonic. ValueError if q
    is neither."""
    if isinstance(q, DiscFunction) and q.kind == "herglotz":
        return 0.0 if np.all(q.weights >= 0.0) else -math.inf
    row = np.concatenate(([0.0], -_polynomial_coefficients(q)))
    return float(-_phase_max(row[None], every=True)[0][0])


def disc_generator_from(g0: complex, q: DiscFunction) -> DiscFunction:
    """Build g(zeta) = g0 - conj(g0) zeta^2 - zeta q(zeta).

    Args:
        g0: value at the origin.
        q: disc function whose real part must be nonnegative, decided
            exactly (`_min_real_part`) up to degree 27 (ROADMAP item 11).

    Raises:
        ValueError: when Re q < -1e-9 on the disc, or q is neither a
            Herglotz function nor exact polynomial data.
    """
    worst = _min_real_part(q)
    if worst < -1e-9:
        raise ValueError(f"invalid dissipation data: Re q = {worst:.3e} < 0 on the disc")
    return DiscFunction.generator_form(complex(g0), q)


def _polynomial_coefficients(g: DiscFunction) -> np.ndarray:
    """Exact coefficient array of a polynomial-backed disc function."""
    deg = g.polynomial_degree() if isinstance(g, DiscFunction) else None
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
    the worst cross-coordinate leakage of the constant terms. Each q is
    nonnegative by construction, being a Fejer mean of a Herglotz function
    plus a margin of at least 0.05, so it goes into `generator_form`
    unchecked.

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
        gens.append(DiscFunction.generator_form(centers[k], DiscFunction.polynomial(c)))
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
