"""Brute-force checks of the benchmark's reference module on dim 1 and 2.

Run from the root of the repository:

    python3 -m pytest -q bench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402

PS = (1.0, 2.0, math.inf)


def random_coord_map(rng, dim, p, degree):
    c = rng.standard_normal((dim, degree + 1)) + 1j * rng.standard_normal((dim, degree + 1))
    return ref.CoordMap(p, c / np.arange(1, degree + 2))


def sphere_points(rng, dim, p, count, r):
    Z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    # spread the moduli so p = 1 and p = inf reach corners and faces
    Z *= rng.uniform(0.0, 1.0, (count, dim)) ** 3
    Z = Z[ref.pnorm(Z, p) > 0]
    return r * Z / ref.pnorm(Z, p)[:, None]


@pytest.mark.parametrize("degree", [1, 2, 5, 8])
def test_circle_max_brackets_dense_sampling(degree):
    rng = np.random.default_rng(degree)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    for rho in (0.1, 0.6, 0.99):
        lo, up = ref.circle_max(c, rho, angles=256)
        zeta = rho * np.exp(2j * np.pi * np.arange(200000) / 200000)
        brute = np.max(np.abs(np.polynomial.polynomial.polyval(zeta, c) - c[0]))
        assert lo <= brute * (1 + 1e-12)
        assert brute <= up


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("dim", [1, 2])
def test_shell_sup_bracket_against_sphere_samples(dim, p):
    rng = np.random.default_rng([dim, int(min(p, 9))])
    for trial in range(3):
        cm = random_coord_map(rng, dim, p, 2 + 3 * trial)
        for r in (0.3, 0.8, 0.99):
            lo, up = ref.shell_sup_bracket(cm, r)
            Z = sphere_points(rng, dim, p, 20000, r)
            D = cm.eval(Z) - cm.coeffs[None, :, 0]
            brute = float(np.max(ref.pnorm(D, p)))
            assert brute <= up
            # the vertex r e^(i phi) e_k attains lo up to the angle grid
            phi = np.exp(2j * np.pi * np.arange(4096) / 4096)
            axes = r * (phi[:, None, None] * np.eye(dim)[None]).reshape(-1, dim)
            vertex = float(np.max(ref.pnorm(cm.eval(axes) - cm.coeffs[None, :, 0], p)))
            assert vertex == pytest.approx(lo, rel=1e-12)
            assert lo <= up <= lo * (1 + 1e-4)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_convolution_confirms_the_vertex_reduction(p):
    rng = np.random.default_rng(int(p))
    for degree in (2, 4, 7):
        cm = random_coord_map(rng, 2, p, degree)
        for r in (0.5, 0.95):
            lo, up = ref.shell_sup_bracket(cm, r)
            clo, cup = ref.shell_sup_convolution(cm, r, cells=128, angles=512)
            # both are brackets of one number: they must overlap, and the
            # grid search finds nothing above the vertex value
            assert clo <= up * (1 + 1e-12) and lo <= cup * (1 + 1e-12)
            assert clo <= lo * (1 + 1e-3)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("dim", [1, 2])
def test_range_closed_forms_against_sampling(dim, p):
    rng = np.random.default_rng([dim, 7, int(min(p, 9))])
    cm = random_coord_map(rng, dim, p, 3)
    V = sphere_points(rng, dim, p, 50000, 1.0)
    W = ref.support(V, p)
    pair = np.sum(cm.coeffs[None, :, 1] * V * W, axis=1)
    assert np.max(np.abs(pair)) <= ref.numerical_radius(cm) + 1e-12
    assert np.min(pair.real) >= ref.range_inf(cm) - 1e-12
    assert np.max(np.abs(pair)) >= ref.numerical_radius(cm) * (1 - 1e-2)
    for j in (2, 3):
        pj = np.sum(cm.coeffs[None, :, j] * V ** j * W, axis=1)
        assert np.max(np.abs(pj)) <= ref.polynomial_radius(cm, j) + 1e-12


@pytest.mark.parametrize("p", PS)
def test_support_functional_normalisation(p):
    rng = np.random.default_rng(3)
    Z = sphere_points(rng, 2, p, 100, 0.7)
    W = ref.support(Z, p)
    q = 1.0 if math.isinf(p) else (math.inf if p == 1.0 else p / (p - 1.0))
    assert np.allclose(np.real(np.sum(Z * W, axis=1)), 0.49, atol=1e-14)
    assert np.allclose(ref.pnorm(W, q), 0.7, atol=1e-14)


def test_slack_and_map_data_match_hologen():
    from hologen import NormedSpace, generator_slack, sample_generator, unitary_conjugate

    rng = np.random.default_rng(11)
    for p in PS:
        G = sample_generator(NormedSpace(2, p), 5, degree=5)
        cm = ref.coord_map(p, G.constant, G.linear,
                           [(h.degree, h.powers, h.coeffs) for h in G.higher])
        Z = sphere_points(rng, 2, p, 500, 0.9)
        assert np.allclose(cm.eval(Z), G.eval_batch(Z), atol=1e-13)
        assert np.allclose(ref.generator_slack(cm, Z), generator_slack(G, Z), atol=1e-12)
    # the dense copy keeps the base map's shell supremum
    G = sample_generator(NormedSpace(2, 2.0), 5, degree=5)
    D = unitary_conjugate(G, np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
    cm = ref.coord_map(2.0, G.constant, G.linear,
                       [(h.degree, h.powers, h.coeffs) for h in G.higher])
    Z = sphere_points(rng, 2, 2.0, 20000, 0.8)
    brute = np.max(np.linalg.norm(D.eval_batch(Z) - D.constant, axis=1))
    lo, up = ref.shell_sup_bracket(cm, 0.8)
    assert lo * (1 - 1e-2) <= brute <= up
    with pytest.raises(ValueError):
        ref.coord_map(2.0, D.constant, D.linear,
                      [(h.degree, h.powers, h.coeffs) for h in D.higher])


def test_boundary_probe_finds_a_layer_only_violation():
    # g(z) = -z + 2 z^60 breaks the inequality only where |z|^59 > 1/2,
    # i.e. for |z| > 0.98832, inside the probed layer
    c = np.zeros((1, 61), dtype=complex)
    c[0, 1], c[0, 60] = -1.0, 2.0
    worst, z = ref.boundary_probe(ref.CoordMap(2.0, c))
    assert worst < -1e-3 and 0.99 < abs(z[0]) <= 0.9995 + 1e-12
    c[0, 60] = 0.0
    worst, _ = ref.boundary_probe(ref.CoordMap(2.0, c))
    assert worst > 0.9


def test_reference_flow_closed_forms():
    decay = ref.CoordMap(2.0, np.array([[0, -1], [0, -1]], dtype=complex))
    z0 = np.array([0.3 + 0.2j, -0.4j])
    assert np.allclose(ref.flow_endpoint(decay, z0, 2.0), z0 * math.exp(-2.0), atol=1e-12)
    riccati = ref.CoordMap(2.0, np.array([[1, 0, -1]], dtype=complex))
    assert abs(ref.flow_endpoint(riccati, np.array([0j]), 2.0)[0] - math.tanh(2.0)) < 1e-11
