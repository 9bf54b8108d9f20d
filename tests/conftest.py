"""Shared builders for the test suite."""

import numpy as np
import pytest

from hologen.polymaps import PolyMap
from hologen.spaces import NormedSpace


def make_linear_map(space: NormedSpace, matrix) -> PolyMap:
    """Polynomial map z -> matrix @ z with zero constant and no higher parts."""
    A = np.asarray(matrix, dtype=np.complex128)
    return PolyMap(space=space, constant=np.zeros(space.dim, dtype=np.complex128),
                   linear=A, higher=())


def minus_identity(space: NormedSpace) -> PolyMap:
    return make_linear_map(space, -np.eye(space.dim))


def identity_map(space: NormedSpace) -> PolyMap:
    return make_linear_map(space, np.eye(space.dim))


@pytest.fixture
def l2_2d() -> NormedSpace:
    return NormedSpace(2, 2.0)


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
