"""Shared builders for the test suite."""

import math

import numpy as np
import pytest

from hologen.polymaps import DiscFunction, PolyMap
from hologen.spaces import NormedSpace, _p_norm


def make_linear_map(space: NormedSpace, matrix) -> PolyMap:
    """Polynomial map z -> matrix @ z with zero constant and no higher parts."""
    A = np.asarray(matrix, dtype=np.complex128)
    return PolyMap(space=space, constant=np.zeros(space.dim, dtype=np.complex128),
                   linear=A, higher=())


class BlackBox:
    """A map known only through its batch evaluator fn: a drift for the
    integrator, or a non-PolyMap for the checks that reject one."""

    def __init__(self, space: NormedSpace, fn):
        self.space, self.fn = space, fn

    def eval_batch(self, Z) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(Z, dtype=np.complex128)), dtype=np.complex128)


def pairing(U, W) -> np.ndarray:
    """Row-wise bilinear pairings <u, w> = sum_i u_i w_i of two (B, dim) arrays."""
    return np.sum(U * W, axis=1)


def conjugate_exponent(p: float) -> float:
    """Exponent q of the dual norm: 1/p + 1/q = 1."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def dual_norm(space: NormedSpace, w) -> float:
    """Norm of a functional w on `space`: the conjugate-exponent norm of its moduli."""
    return float(_p_norm(np.abs(np.asarray(w, dtype=np.complex128)), conjugate_exponent(space.p)))


def fejer_dip() -> DiscFunction:
    """Degree-11 q with Re q(phi) = 0.95 - F_12(phi - pi/16)/12, F_12 the
    Fejer kernel: -0.05 at its least, at phi = pi/16, yet above 0.33 at
    the angles 2 pi j/16 on every circle |zeta| = r <= 1."""
    k = np.arange(1, 12)
    return DiscFunction.polynomial(np.concatenate((
        [0.95 - 1.0 / 12.0], -(1.0 - k / 12.0) * np.exp(-1j * k * np.pi / 16.0) / 6.0)))


def minus_identity(space: NormedSpace) -> PolyMap:
    return make_linear_map(space, -np.eye(space.dim))


def identity_map(space: NormedSpace) -> PolyMap:
    return make_linear_map(space, np.eye(space.dim))


@pytest.fixture
def l2_2d() -> NormedSpace:
    return NormedSpace(2, 2.0)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for the test and returns
    the list of (args, kwargs) of its calls, in order."""
    def patch(owner, name):
        calls = []
        real = getattr(owner, name)

        def run(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, run)
        return calls
    return patch


def matrix_searches(calls):
    """(radius, infimum) searches of matrices among the groups of the
    recorded `_estimates(space, groups, budget)` calls."""
    groups = [grp for args, _ in calls for grp in args[1] if isinstance(grp.f, np.ndarray)]
    return (sum(grp.kind == "radius" for grp in groups),
            sum(grp.kind == "inf" for grp in groups))


def serial_spread_starts(pts, order, count):
    """Reference start choice: walk `order`, skipping points within 0.05
    squared gap (modulo a global phase) of an earlier pick, then fill any
    remaining slots from `order`."""
    starts: list[int] = []
    for idx in order:
        if len(starts) == count:
            break
        v = pts[idx]
        if all(np.vdot(pts[c], pts[c]).real + np.vdot(v, v).real
               - 2.0 * abs(np.vdot(pts[c], v)) >= 0.05 * np.vdot(pts[c], pts[c]).real
               for c in starts):
            starts.append(int(idx))
    rest = [int(i) for i in order if int(i) not in starts]
    return starts + rest[:count - len(starts)]
