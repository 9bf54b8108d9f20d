"""Complex p-norm spaces: norms, duality maps, deterministic sphere sampling.

Vectors are plain complex128 ndarrays. The duality map follows the
normalization Re<v, v*> = ||v||^2 = ||v*||^2 with the bilinear pairing
<u, w> = sum_j u_j * w_j, so all conjugation lives inside the functional
entries and callers never conjugate anything themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# |v_j|^(p-2) under/overflows double precision outside this window.
GENERAL_P_MIN = 1.1
GENERAL_P_MAX = 10.0

MAX_DIM = 16

_SPHERE_SALT = 101


@dataclass(frozen=True)
class NormedSpace:
    """(C^n, ||.||_p) with 1 <= n <= 16 and p in {1, 2, inf} union [1.1, 10].

    Args:
        dim: ambient dimension n.
        p: norm exponent; float("inf") selects the max norm.
    """

    dim: int
    p: float

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise ValueError("dim must be an integer")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        p = float(self.p)
        object.__setattr__(self, "p", p)
        if p in (1.0, 2.0, math.inf):
            return
        if not GENERAL_P_MIN <= p <= GENERAL_P_MAX:
            raise ValueError(
                "p must be 1, 2, inf, or lie in "
                f"[{GENERAL_P_MIN}, {GENERAL_P_MAX}], got {p}"
            )

    # -- norms ----------------------------------------------------------

    def norm(self, z) -> float:
        """Return ||z||_p of a length-dim complex vector."""
        z = self._check_vector(z)
        return float(self._norm_rows(z[None, :])[0])

    def norm_batch(self, Z) -> np.ndarray:
        """Row-wise norms of a (B, dim) array."""
        return self._norm_rows(self._check_batch(Z))

    def _norm_rows(self, Z):
        return _p_norm(np.abs(Z), self.p)

    # -- duality map ----------------------------------------------------

    def support_batch(self, Z) -> np.ndarray:
        """Row-wise support functionals v* of a (B, dim) array of nonzero rows.

        The canonical selection: v*_j = ||v||^(2-p) |v_j|^(p-2) conj(v_j) for
        p < inf, 0 where v_j = 0; at p = inf the one entry ||v|| conj(v_k)/|v_k|
        at the smallest k attaining max |v_j|. ValueError on a zero row.
        """
        Z = self._check_batch(Z)
        nrm = self._norm_rows(Z)
        if np.any(nrm == 0.0):
            raise ValueError("support functional undefined at the zero vector")
        if self.p == 2.0:
            # exact entrywise conjugate, no rounding through powers
            return np.conj(Z)
        a = np.abs(Z)
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = np.where(a > 0.0, np.conj(Z) / np.where(a > 0.0, a, 1.0), 0.0 + 0.0j)
        if math.isinf(self.p):
            W = np.zeros_like(Z)
            k = np.argmax(a, axis=1)
            rows = np.arange(Z.shape[0])
            W[rows, k] = nrm * phase[rows, k]
            return W
        if self.p == 1.0:
            return nrm[:, None] * phase
        return nrm[:, None] ** (2.0 - self.p) * a ** (self.p - 1.0) * phase

    # -- sampling -------------------------------------------------------

    def sphere_sample(self, count: int, seed: int) -> np.ndarray:
        """Deterministic unit vectors, shape (count, dim).

        The first 2*dim rows are the coordinate directions e_1, -e_1, e_2,
        -e_2, ... whenever count >= 2*dim; the rest are normalized complex
        Gaussians from a seed-keyed stream. For a fixed seed the first
        min(count, count') rows of two calls agree, so a larger budget only
        appends points.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        n = self.dim
        forced = 2 * n if count >= 2 * n else 0
        out = np.zeros((count, n), dtype=np.complex128)
        for k in range(forced // 2):
            out[2 * k, k] = 1.0
            out[2 * k + 1, k] = -1.0
        m = count - forced
        if m > 0:
            rng = np.random.default_rng([seed, _SPHERE_SALT])
            raw = rng.standard_normal((m, 2 * n))
            pts = raw[:, :n] + 1j * raw[:, n:]
            nrm = self._norm_rows(pts)
            degenerate = nrm < 1e-12
            if np.any(degenerate):
                pts[degenerate] = 0.0
                pts[degenerate, 0] = 1.0
                nrm = self._norm_rows(pts)
            out[forced:] = pts / nrm[:, None]
        return out

    # -- validation helpers ----------------------------------------------

    def _check_vector(self, z) -> np.ndarray:
        arr = np.asarray(z, dtype=np.complex128)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected a vector of shape ({self.dim},), got {arr.shape}")
        return arr

    def _check_batch(self, Z) -> np.ndarray:
        arr = np.asarray(Z, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected an array of shape (B, {self.dim}), got {arr.shape}")
        return arr


def _p_norm(a, p: float):
    """p-norms of moduli a along the last axis."""
    if math.isinf(p):
        return a.max(axis=-1)
    if p == 1.0:
        return a.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    return (a ** p).sum(axis=-1) ** (1.0 / p)


def space_to_dict(space: NormedSpace) -> dict:
    """Serializable descriptor {"dim": n, "p": number | "inf"}."""
    if math.isinf(space.p):
        p = "inf"
    elif float(space.p).is_integer():
        p = int(space.p)
    else:
        p = space.p
    return {"dim": space.dim, "p": p}


def space_from_dict(data: dict) -> NormedSpace:
    """Parse {"dim": n, "p": number | "inf"} into a NormedSpace."""
    if not isinstance(data, dict):
        raise ValueError("space descriptor must be an object with keys 'dim' and 'p'")
    for key in ("dim", "p"):
        if key not in data:
            raise ValueError(f"space descriptor missing key '{key}'")
    p = data["p"]
    if isinstance(p, str):
        if p != "inf":
            raise ValueError(f"space key 'p' must be a number or \"inf\", got {p!r}")
        p = math.inf
    elif isinstance(p, bool) or not isinstance(p, (int, float)):
        raise ValueError(f"space key 'p' must be a number or \"inf\", got {p!r}")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"space key 'dim' must be an integer, got {dim!r}")
    return NormedSpace(dim=dim, p=float(p))
