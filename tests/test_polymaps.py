"""Polynomial ball maps, disc functions, coefficient extraction, sampling."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hologen import certify, polymaps
from hologen.polymaps import (
    DiscFunction,
    HomogeneousPoly,
    PolyMap,
    disc_generator_from,
    fejer_truncate,
    herglotz_sample,
    lift_to_ball,
    map_from_dict,
    map_to_dict,
    sample_generator,
    unitary_conjugate,
)
from hologen.spaces import NormedSpace

from conftest import fejer_dip, make_linear_map, pairing


def map_bytes(F) -> list:
    """Every stored array of a PolyMap as bytes, in order."""
    return [F.constant.tobytes(), F.linear.tobytes()] + [
        b for h in F.higher for b in (h.powers.tobytes(), h.coeffs.tobytes())]


def dense_map(space, rng):
    """A dense map with three-term parts of degrees 2 and 4 only."""
    n = space.dim

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    parts = []
    for j in (2, 4):
        powers = np.zeros((3, n), dtype=np.int64)
        for t in range(3):
            np.add.at(powers[t], rng.integers(0, n, j), 1)
        parts.append(HomogeneousPoly(j, powers, cplx(3, n)))
    return PolyMap(space, cplx(n), cplx(n, n), tuple(parts))


def ball_points(space, count, seed, rmax=0.9):
    rng = np.random.default_rng([seed, 77])
    V = space.sphere_sample(count, seed)
    return V * rng.uniform(0.05, rmax, count)[:, None]


class TestHomogeneousPoly:
    def test_homogeneity(self):
        P = HomogeneousPoly(3, np.array([[2, 1], [0, 3]]),
                            np.array([[1.0, -2.0j], [0.5, 0.0]]))
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        t = 0.37 - 0.2j
        lhs = P.eval_batch(t * Z)
        rhs = t ** 3 * P.eval_batch(Z)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_frozen_evaluation(self):
        # P(z) = (z2^2, 0)
        P = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        out = P(np.array([0.5, 0.25j]))
        np.testing.assert_allclose(out, np.array([-0.0625, 0.0]), atol=1e-15)

    def test_empty_part_is_zero(self):
        P = HomogeneousPoly(2, np.zeros((0, 2), dtype=np.int64),
                            np.zeros((0, 2), dtype=np.complex128))
        out = P.eval_batch(np.ones((3, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            HomogeneousPoly(0, np.array([[0, 0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(33, np.array([[33, 0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(2, np.array([[1, 2]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(2, np.array([[3, -1]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            HomogeneousPoly(2, np.array([[1, 1], [2, 0]]), np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="coeffs of the degree-2 part must be finite"):
            HomogeneousPoly(2, np.array([[2, 0], [1, 1]]), np.array([[1.0, 0.0], [0.0, bad]]))


def reference_part(part, Z):
    """The evaluation formula before power tables: a complex power per
    entry, then an np.prod reduction over the input coordinates."""
    return np.prod(Z[:, None, :] ** part.powers[None, :, :], axis=2) @ part.coeffs


def binary_product_part(part, Z):
    """The monomials as binary `*` of every factor z_i ** a_i in coordinate
    order, unit factors included, then the coefficient matmul in 8-row
    pieces, each small enough that OpenBLAS runs it on one thread."""
    factors = [Z[:, None, i] ** part.powers[None, :, i] for i in range(Z.shape[1])]
    mono = functools.reduce(np.multiply, factors)
    return np.concatenate([mono[b:b + 8] @ part.coeffs for b in range(0, len(Z), 8)])


def dense_copy(dim, seed, degree):
    rng = np.random.default_rng([seed, dim, 31])
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return unitary_conjugate(sample_generator(NormedSpace(dim, 2.0), seed, degree), U)


def summed_parts(F, Z):
    """sum(part values in degree order, constant + Z @ linear.T), a one-row
    call taken as that row of a two-row batch, as `PolyMap.eval_batch` runs it."""
    W = np.concatenate((Z, Z)) if len(Z) == 1 else Z
    return sum((part.eval_batch(W) for part in F.higher),
               F.constant[None, :] + W @ F.linear.T)[:len(Z)]


SLOT_PAIRS = [(dim, p) for dim in (1, 2, 4) for p in (1.0, 2.0, math.inf)]


class TestPowerTableKernel:
    @pytest.mark.parametrize("dim,p", SLOT_PAIRS)
    def test_coordinatewise_maps_match_reference_bit_for_bit(self, dim, p):
        space = NormedSpace(dim, p)
        for degree in range(2, 9):
            F = sample_generator(space, seed=40 + degree, degree=degree)
            for count in (0, 1, 2, 8, 608, 2432):
                Z = (ball_points(space, count, seed=count + degree, rmax=0.99) if count
                     else np.zeros((0, dim), dtype=np.complex128))
                # a one-row call is evaluated as that row inside a two-row batch
                R = np.concatenate((Z, Z)) if count == 1 else Z
                expected = (F.constant[None, :] + R @ F.linear.T)[:count]
                for part in F.higher:
                    ref = reference_part(part, R)[:count]
                    assert part.eval_batch(Z).tobytes() == ref.tobytes()
                    expected = expected + ref
                assert F.eval_batch(Z).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("degree", [2, 8, 32])
    def test_parts_add_in_degree_order(self, degree):
        # in-place accumulation keeps the association of a `sum` over the parts
        for dim, p in SLOT_PAIRS:
            F = sample_generator(NormedSpace(dim, p), seed=degree, degree=degree)
            assert len(F.higher) == degree - 1
            for count in (1, 2):
                Z = ball_points(F.space, count, seed=degree + count, rmax=0.99)
                assert F.eval_batch(Z).tobytes() == summed_parts(F, Z).tobytes()

    def test_dense_parts_add_alike_at_the_one_block_bound(self):
        F = dense_copy(4, seed=8, degree=8)
        columns, coeffs = F._groups[-1]
        step = polymaps._block_rows(columns, coeffs)
        assert len(polymaps._row_blocks(step, columns, coeffs)) == 1
        assert len(polymaps._row_blocks(step + 1, columns, coeffs)) == 2
        for count in (step, step + 1):
            Z = ball_points(F.space, count, seed=count, rmax=0.99)
            assert F.eval_batch(Z).tobytes() == summed_parts(F, Z).tobytes()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_dense_maps_agree_to_rounding(self, dim):
        space = NormedSpace(dim, 2.0)
        for degree in range(2, 9):
            F = dense_copy(dim, seed=degree, degree=degree)
            Z = ball_points(space, 608, seed=degree, rmax=0.99)
            for part in F.higher:
                ref = reference_part(part, Z)
                assert np.max(np.abs(part.eval_batch(Z) - ref)) <= 1e-14 * np.max(np.abs(ref))
                # dropping the unit factors keeps the left-to-right product's bits
                assert part.eval_batch(Z).tobytes() == binary_product_part(part, Z).tobytes()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_monomials_do_not_depend_on_batch_size(self, dim):
        # identity coefficients make the output the monomials themselves:
        # products with exact 0 and 1 leave the matmul nothing to round but
        # the sign of a zero, which assert_array_equal does not compare
        F = dense_copy(dim, seed=5, degree=7)
        Z = ball_points(NormedSpace(dim, 2.0), 64, seed=6)
        for part in F.higher:
            terms = part.powers.shape[0]
            mono = HomogeneousPoly(part.degree, part.powers, np.eye(terms))
            alone = np.concatenate([mono.eval_batch(Z[b:b + 1]) for b in range(64)])
            eights = np.concatenate([mono.eval_batch(Z[b:b + 8]) for b in range(0, 64, 8)])
            np.testing.assert_array_equal(eights, alone)
            np.testing.assert_array_equal(mono.eval_batch(Z), alone)

    @pytest.mark.parametrize("dim,p,dense", [*((d, p, False) for d, p in SLOT_PAIRS),
                                             (2, 2.0, True), (4, 2.0, True)])
    def test_rows_round_alike_alone_and_in_a_batch(self, dim, p, dense):
        space = NormedSpace(dim, p)
        F = dense_copy(dim, seed=3, degree=7) if dense else sample_generator(space, seed=3, degree=7)
        V = space.sphere_sample(2432, seed=4)
        Z = ball_points(space, 2432, seed=4, rmax=0.99)
        whole = (F.eval_batch(Z), F.line_vectors(V))
        for size in (1, 2, 3, 8, 64, 608):
            pieces = range(0, 2432, size)
            cut = (np.concatenate([F.eval_batch(Z[b:b + size]) for b in pieces]),
                   np.concatenate([F.line_vectors(V[b:b + size]) for b in pieces]))
            for a, b in zip(cut, whole):
                assert a.tobytes() == b.tobytes()

    def test_dense_part_rounds_alike_in_pieces(self):
        # 165 terms: one 4,096-row gemm would run on several BLAS threads
        part = dense_copy(4, seed=8, degree=8).higher[-1]
        Z = ball_points(NormedSpace(4, 2.0), 4096, seed=8, rmax=0.99)
        whole = part.eval_batch(Z)
        for size in (2, 64):
            cut = np.concatenate([part.eval_batch(Z[b:b + size]) for b in range(0, 4096, size)])
            assert cut.tobytes() == whole.tobytes()
        # 100 rows are blocks 0:99 and 98:100, which overlap in one row
        assert part.eval_batch(Z[:100]).tobytes() == whole[:100].tobytes()

    def test_dense_part_rounds_alike_on_one_blas_thread(self, tmp_path):
        part = dense_copy(4, seed=8, degree=8).higher[-1]
        Z = ball_points(NormedSpace(4, 2.0), 4096, seed=8, rmax=0.99)
        np.savez(tmp_path / "part.npz", powers=part.powers, coeffs=part.coeffs, Z=Z)
        script = ("import sys, numpy as np; from hologen.polymaps import HomogeneousPoly; "
                  "d = np.load(sys.argv[1]); "
                  "np.save(sys.argv[2], HomogeneousPoly(8, d['powers'], d['coeffs']).eval_batch(d['Z']))")
        src = os.path.dirname(os.path.dirname(polymaps.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "part.npz"),
                        str(tmp_path / "one.npy")], env=env, check=True)
        assert np.load(tmp_path / "one.npy").tobytes() == part.eval_batch(Z).tobytes()

    def test_dense_map_memory_does_not_grow_with_batch_times_terms(self):
        F = dense_copy(4, seed=5, degree=7)
        Z = ball_points(NormedSpace(4, 2.0), 4096, seed=5, rmax=0.99)
        F.eval_batch(Z[:8])
        tracemalloc.start()
        try:
            F.eval_batch(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("dense", [False, True])
    def test_row_blocks_stay_single_threaded_gemm(self, dense):
        shapes = []
        for dim in (1, 2, 4):
            for degree in range(2, 9):
                F = (dense_copy(dim, seed=degree, degree=degree) if dense and dim > 1
                     else sample_generator(NormedSpace(dim, 2.0), seed=degree, degree=degree))
                shapes += F._groups
        # a dense dim-4 degree-32 part admits only 2-row blocks
        shapes.append((np.zeros((4, 1, 6545), dtype=np.int64),
                       np.zeros((1, 6545, 4), dtype=np.complex128)))
        for columns, coeffs in shapes:
            factors, parts, terms = columns.shape
            for rows in (2, 3, 4, 5, 99, 100, 101, 608, 4095, 4096, 4097):
                blocks = polymaps._row_blocks(rows, columns, coeffs)
                assert blocks[0][0] == 0 and blocks[-1][1] == rows
                for (lo, hi), (nlo, _) in zip(blocks, blocks[1:] + [(rows, None)]):
                    assert lo < nlo <= hi
                if len(blocks) == 1:
                    continue
                for lo, hi in blocks:
                    assert hi - lo >= 2
                    assert (hi - lo) * terms * coeffs.shape[-1] <= 65536
                    assert (hi - lo) * factors * parts * terms <= 65536

    def test_parts_keep_only_their_nonunit_factors(self):
        for dim in (1, 2, 4):
            for part in sample_generator(NormedSpace(dim, 2.0), seed=2, degree=7).higher:
                assert part._columns.shape == (1, part.powers.shape[0])
            if dim > 1:
                for part in dense_copy(dim, seed=2, degree=7).higher:
                    assert part._columns.shape == (min(dim, part.degree), part.powers.shape[0])

    def test_empty_part_inside_a_map_is_zero(self, l2_2d):
        empty = HomogeneousPoly(3, np.zeros((0, 2), dtype=np.int64),
                                np.zeros((0, 2), dtype=np.complex128))
        quad = HomogeneousPoly(2, np.array([[1, 1]]), np.array([[1.0, 2.0j]]))
        with_empty = PolyMap(l2_2d, np.zeros(2), np.eye(2), (quad, empty))
        without = PolyMap(l2_2d, np.zeros(2), np.eye(2), (quad,))
        for count in (1, 5):
            V = l2_2d.sphere_sample(count, seed=count)
            Z = 0.5 * V
            assert with_empty.eval_batch(Z).tobytes() == without.eval_batch(Z).tobytes()
            np.testing.assert_array_equal(with_empty.line_coefficients(V)[:, 3], 0.0)
        np.testing.assert_array_equal(empty.eval_batch(np.zeros((0, 2))), np.zeros((0, 2)))

    def test_map_without_parts_builds_no_table(self, l2_2d, count_calls):
        # -id, the decay closed form of the flow checks, has no power to tabulate
        tables = count_calls(polymaps, "_power_table")
        F = make_linear_map(l2_2d, -np.eye(2))
        V = l2_2d.sphere_sample(4, seed=3)
        np.testing.assert_array_equal(F.eval_batch(0.5 * V), -0.5 * V)
        np.testing.assert_array_equal(F.line_coefficients(V), np.array([[0.0, -1.0]] * 4))
        assert tables == []


def stacked_line_vectors(F, V):
    """The Taylor vectors as zeros with the stacked part values assigned to
    their degree columns, a one-row call taken as that row of a two-row batch."""
    W = np.concatenate((V, V)) if len(V) == 1 else V
    X = np.zeros((len(W), F.degree + 1, F.space.dim), dtype=np.complex128)
    X[:, 0] = F.constant
    X[:, 1] = W @ F.linear.T
    if F.higher:
        X[:, [q.degree for q in F.higher]] = np.stack([q.eval_batch(W) for q in F.higher], axis=1)
    return X[:len(V)]


def gapped_map(space, degrees, seed):
    """Dense two-term parts of the given degrees, one (factors, terms) shape."""
    rng = np.random.default_rng([seed, space.dim, 53])
    n, parts = space.dim, []
    for j in degrees:
        powers = np.zeros((2, n), dtype=np.int64)
        powers[:, 0] = j - 1
        powers[:, -1] += 1
        coeffs = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        parts.append(HomogeneousPoly(j, powers, coeffs))
    return PolyMap(space, rng.standard_normal(n) + 0.5j, np.eye(n) - 0.3j, tuple(parts))


def line_vector_maps():
    """pytest params of maps with gapped, contiguous and dense parts, and none."""
    empty = HomogeneousPoly(3, np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.complex128))
    quad = HomogeneousPoly(2, np.array([[1, 1], [2, 0]]), np.array([[1.0, 2.0j], [0.5, -1.0]]))
    l2 = NormedSpace(2, 2.0)
    maps = [("linear-only", make_linear_map(NormedSpace(3, 1.0), np.arange(9.0).reshape(3, 3) - 4j)),
            ("empty-part", PolyMap(l2, np.zeros(2), np.eye(2), (quad, empty))),
            ("gaps-2-5", gapped_map(l2, (2, 5), 1)),
            ("gaps-3-4-7", gapped_map(NormedSpace(4, math.inf), (3, 4, 7), 2))]
    for dim in (1, 2, 3, 4):
        maps.append((f"contiguous-dim{dim}", sample_generator(NormedSpace(dim, 1.0), 5 + dim, 6)))
        maps.append((f"dense-dim{dim}", dense_copy(dim, seed=dim, degree=7)))
    return [pytest.param(F, id=label) for label, F in maps]


class TestLineVectors:
    """line_vectors writes the parts into their degree columns in place,
    with the bits of zeros filled by stacked part values."""

    @pytest.mark.parametrize("F", line_vector_maps())
    @pytest.mark.parametrize("count", [1, 2, 300])
    def test_bytes_match_stacked_assignment(self, F, count):
        V = F.space.sphere_sample(count, seed=count)
        X = F.line_vectors(V)
        expected = stacked_line_vectors(F, V)
        assert X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()
        C = polymaps._pair_lines(expected, F.space.support_batch(V))
        assert F.line_coefficients(V).tobytes() == C.tobytes()
        # a gap in the degrees splits a group, which must not move eval_batch's bits
        assert F.eval_batch(0.5 * V).tobytes() == summed_parts(F, 0.5 * V).tobytes()

    def test_dense_batch_runs_in_row_blocks(self):
        # the 300-row dense dim-4 batch above crosses `_row_blocks`
        columns, coeffs = dense_copy(4, seed=4, degree=7)._groups[-1]
        assert len(polymaps._row_blocks(300, columns, coeffs)) > 1


class TestPolyMap:
    def test_evaluation_composition(self, l2_2d):
        P = HomogeneousPoly(2, np.array([[2, 0]]), np.array([[0.0, 1.0]]))
        F = PolyMap(space=l2_2d, constant=np.array([0.1, 0.0]),
                    linear=np.array([[0.0, 1.0], [-1.0, 0.0]]), higher=(P,))
        z = np.array([0.2, 0.3j])
        expected = np.array([0.1 + 0.3j, -0.2 + 0.04])
        np.testing.assert_allclose(F(z), expected, atol=1e-15)

    def test_ball_check_only_on_evaluate(self, l2_2d):
        F = make_linear_map(l2_2d, np.eye(2))
        with pytest.raises(ValueError):
            F(np.array([1.0, 0.0]))
        out = F.eval_batch(np.array([[2.0, 0.0]]))
        np.testing.assert_array_equal(out[0], np.array([2.0, 0.0]))

    def test_degree_and_parts(self, l2_2d):
        lin = make_linear_map(l2_2d, np.eye(2))
        assert lin.degree == 1
        assert lin.part_of_degree(2) is None
        P = HomogeneousPoly(4, np.array([[2, 2]]), np.array([[1.0, 0.0]]))
        F = PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.eye(2), higher=(P,))
        assert F.degree == 4
        assert F.part_of_degree(4) is P

    def test_distinct_degrees_required(self, l2_2d):
        P1 = HomogeneousPoly(2, np.array([[2, 0]]), np.array([[1.0, 0.0]]))
        P2 = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.eye(2), higher=(P1, P2))

    def test_shape_validation(self, l2_2d):
        with pytest.raises(ValueError):
            PolyMap(space=l2_2d, constant=np.zeros(3), linear=np.eye(2), higher=())
        with pytest.raises(ValueError):
            PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.eye(3), higher=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_non_finite_constant_or_linear_rejected(self, l2_2d, bad):
        # a NaN coefficient makes every slack NaN, which no comparison refutes
        with pytest.raises(ValueError, match="constant must be finite"):
            PolyMap(space=l2_2d, constant=np.array([0.0, bad]), linear=np.eye(2), higher=())
        with pytest.raises(ValueError, match="linear must be finite"):
            PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.array([[bad, 0.0], [0.0, 1.0]]),
                    higher=())

    def test_restrict_frozen_example(self, l2_2d):
        # F(z) = (z2^2, 0) restricted to the diagonal direction picks up
        # the factor <F(v), v*> = 2^(-3/2) on the zeta^2 coefficient.
        P = HomogeneousPoly(2, np.array([[0, 2]]), np.array([[1.0, 0.0]]))
        F = PolyMap(space=l2_2d, constant=np.zeros(2), linear=np.zeros((2, 2)), higher=(P,))
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        g = F.restrict(v)
        assert g.kind == "polynomial"
        assert g.coefficient(2) == pytest.approx(2.0 ** -1.5, rel=1e-12)
        assert g.coefficient(0) == 0.0 and g.coefficient(1) == 0.0

    def test_restrict_matches_direct_slice(self, l2_2d):
        F = sample_generator(l2_2d, seed=5, degree=4)
        v = l2_2d.sphere_sample(8, seed=1)[6]
        g = F.restrict(v)
        W = l2_2d.support_batch(v[None, :])
        for zeta in (0.3, -0.5j, 0.2 + 0.6j):
            direct = pairing(F.eval_batch(zeta * v[None, :]), W)[0]
            assert g(zeta) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_line_coefficients_match_direct_slices(self, p, n):
        # a dense map with parts of degrees 2 and 4 only, so column 3 must
        # read 0; the ±e_k rows, a row with zero coordinates and a row of
        # tied moduli are where the p = 1 and p = inf selections matter
        space = NormedSpace(n, p)
        F = dense_map(space, np.random.default_rng([n, int(10 * min(p, 9.0))]))
        special = np.zeros((2, n), dtype=np.complex128)
        special[0, 0] = 1.0
        special[0, n - 1] += 1.0j
        special[1] = [(1.0, -1.0j, 1.0j, -1.0)[k] for k in range(n)]
        special /= space.norm_batch(special)[:, None]
        V = np.vstack([space.sphere_sample(2 * n + 3, seed=n), special])
        C = F.line_coefficients(V)
        assert C.shape == (V.shape[0], 5)
        np.testing.assert_array_equal(C[:, 3], 0.0)
        zetas = np.array([0.3, -0.5j, 0.2 + 0.6j, 0.9])
        for v, row in zip(V, C):
            w = space.support_batch(v[None, :])[0]
            direct = pairing(F.eval_batch(zetas[:, None] * v[None, :]), w[None, :])
            recovered = np.polynomial.polynomial.polyval(zetas, row)
            np.testing.assert_allclose(recovered, direct, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(F.restrict(v).coefficients, row, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_line_coefficients_are_the_certifiers_rows(self, p, n):
        # one pairing serves both: the rows certify reads off its lines are
        # line_coefficients bit for bit, where no l1 entry is free
        space = NormedSpace(n, p)
        F = dense_map(space, np.random.default_rng([n, 29]))
        V = space.sphere_sample(40, seed=n)
        mag = np.abs(V)
        V = V[np.all(mag >= certify._FACE_SNAP * mag.max(axis=1, keepdims=True), axis=1)]
        X, W, free = certify._lines(F, V, unit=True)
        assert not free.any()
        # at p = 1 the certifier renormalizes its rows first
        U = certify._snap(space, V, unit=True)[0]
        np.testing.assert_array_equal(F.line_coefficients(U), certify._line_rows(X, W, free)[1])

    def test_line_coefficients_of_degree_one_map(self):
        space = NormedSpace(2, 1.0)
        A = np.array([[-1.0, 0.5j], [0.25, -2.0 + 1.0j]])
        F = PolyMap(space, np.array([0.1, -0.2j]), A, ())
        V = np.array([[1.0, 0.0], [0.0, -1.0j], [0.5, 0.5j]])
        C = F.line_coefficients(V)
        assert C.shape == (3, 2)
        W = space.support_batch(V)
        np.testing.assert_allclose(C[:, 0], W @ F.constant, rtol=1e-15)
        np.testing.assert_allclose(C[:, 1], np.sum((V @ A.T) * W, axis=1), rtol=1e-15)
        assert F.restrict(V[2]).coefficients.size == 2

    def test_restrict_requires_unit_direction(self, l2_2d):
        F = make_linear_map(l2_2d, np.eye(2))
        with pytest.raises(ValueError):
            F.restrict(np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="unit vector"):
            F.restrict(np.array([math.nan, 0.0]))

    def test_evaluate_rejects_nan_point(self, l2_2d):
        with pytest.raises(ValueError, match="open unit ball"):
            make_linear_map(l2_2d, np.eye(2)).evaluate(np.array([math.nan, 0.0]))

    def test_shifted_pointwise_identity(self, l2_2d):
        F = sample_generator(l2_2d, seed=2, degree=3)
        theta, a = 1.1, -0.7
        G = F.shifted(theta, a)
        Z = ball_points(l2_2d, 12, seed=4)
        phase = complex(math.cos(theta), math.sin(theta))
        np.testing.assert_allclose(
            G.eval_batch(Z), phase * F.eval_batch(Z) - a * Z, rtol=1e-13, atol=1e-13)


class TestDiscFunction:
    def test_polynomial_evaluation_and_coefficients(self):
        f = DiscFunction.polynomial([1.0, 0.0, -2.0j])
        assert f(0.5) == pytest.approx(1.0 - 0.5j)
        assert f.coefficient(2) == -2.0j
        assert f.coefficient(7) == 0.0
        assert f.polynomial_degree() == 2
        with pytest.raises(ValueError):
            f.coefficient(-1)

    def test_herglotz_atom_formulas(self):
        # One unit atom at angle 0: f = (1 + zeta)/(1 - zeta).
        f = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        assert f(0.5) == pytest.approx(3.0, rel=1e-14)
        assert f.coefficient(0) == pytest.approx(1.0)
        for k in (1, 2, 5):
            assert f.coefficient(k) == pytest.approx(2.0)

    def test_herglotz_coefficients_match_quadrature(self):
        f = herglotz_sample(seed=12, atoms=3)
        # an FFT of 28 values on |zeta| = 0.3, far from the boundary poles,
        # adds c_(k + 28) 0.3^28, below 2e-14, to each c_k
        r, nodes = 0.3, 28
        quad = np.fft.fft(f(r * np.exp(2j * np.pi * np.arange(nodes) / nodes))) / nodes
        exact = np.array([f.coefficient(k) for k in range(7)])
        np.testing.assert_allclose(quad[:7] / r ** np.arange(7), exact, atol=1e-12)

    def test_herglotz_real_part_nonnegative(self):
        f = herglotz_sample(seed=3, atoms=2)
        rng = np.random.default_rng(0)
        zeta = rng.uniform(0, 0.999, 400) * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
        assert float(np.min(f(zeta).real)) >= -1e-12

    def test_herglotz_validation(self):
        with pytest.raises(ValueError):
            DiscFunction.herglotz(beta=0.0, weights=[-1.0], angles=[0.0])
        with pytest.raises(ValueError):
            DiscFunction.herglotz(beta=0.0, weights=[1.0, 2.0], angles=[0.0])
        with pytest.raises(ValueError):
            herglotz_sample(seed=0, atoms=0)

    def test_generator_form_coefficients(self):
        g0 = 0.3 + 0.2j
        q = DiscFunction.polynomial([0.5, 0.1])
        g = DiscFunction.generator_form(g0, q)
        assert g.coefficient(0) == pytest.approx(g0)
        assert g.coefficient(1) == pytest.approx(-0.5)
        assert g.coefficient(2) == pytest.approx(-np.conj(g0) - 0.1)
        assert g.coefficient(3) == 0.0
        assert g.polynomial_degree() == 2
        zeta = 0.4 - 0.3j
        assert g(zeta) == pytest.approx(g0 - np.conj(g0) * zeta ** 2 - zeta * q(zeta))


class TestFejerTruncate:
    def test_plain_truncation_loses_positivity(self):
        # (1 + zeta)/(1 - zeta) cut at degree 1 gives 1 + 2 zeta, negative
        # at zeta = -0.9; the Cesaro cut gives 1 + zeta, which stays >= 0.
        f = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        plain = np.polynomial.polynomial.polyval(-0.9, [f.coefficient(0), f.coefficient(1)])
        assert plain.real < 0.0
        cut = fejer_truncate(f, 1)
        np.testing.assert_allclose(cut.coefficients, [1.0, 1.0], atol=1e-14)
        assert cut(-0.9).real == pytest.approx(0.1, abs=1e-12)

    def test_positivity_on_dense_grid(self):
        f = herglotz_sample(seed=7, atoms=2)
        cut = fejer_truncate(f, 8)
        rng = np.random.default_rng(1)
        zeta = rng.uniform(0, 0.9999, 500) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        assert float(np.min(cut(zeta).real)) >= -1e-12

    def test_weights_shrink_linearly(self):
        f = DiscFunction.polynomial([1.0, 1.0, 1.0, 1.0])
        cut = fejer_truncate(f, 3)
        np.testing.assert_allclose(cut.coefficients, [1.0, 0.75, 0.5, 0.25], atol=1e-15)

    def test_degree_validation(self):
        f = DiscFunction.polynomial([1.0])
        with pytest.raises(ValueError):
            fejer_truncate(f, 0)
        with pytest.raises(ValueError):
            fejer_truncate(f, 33)

    def test_callable_is_rejected(self):
        # a plain callable carries no exact coefficients to weight
        with pytest.raises(ValueError, match="DiscFunction"):
            fejer_truncate(lambda z: 1.0 + z, 4)


class TestDiscGeneratorFrom:
    def test_accepts_positive_real_part(self):
        q = DiscFunction.herglotz(beta=0.1, weights=[0.5], angles=[1.0])
        g = disc_generator_from(0.2j, q)
        assert g.kind == "generator"
        assert g.g0 == 0.2j

    def test_rejects_negative_real_part(self):
        with pytest.raises(ValueError, match="dissipation"):
            disc_generator_from(0.0, DiscFunction.polynomial([-1.0]))

    @pytest.mark.parametrize("q, least", [
        (fejer_dip(), "-5.000e-02"),
        (DiscFunction.polynomial([1.0] + [0.0] * 15 + [2.2]), "-1.200e\\+00")],
        ids=["fejer-dip", "zeta-16"])
    def test_rejects_a_dip_between_the_angles_of_a_spot_check(self, q, least):
        # both are positive at the angles 2 pi j/16 on every circle: the dip
        # is -0.05 at phi = pi/16, and 1 + 2.2 zeta^16 is -1.2 where zeta^16 = -1
        with pytest.raises(ValueError, match=f"Re q = {least}"):
            disc_generator_from(0.3, q)

    def test_rejects_a_herglotz_function_with_a_negative_weight(self):
        # the dataclass constructor skips the weight check of `herglotz`
        q = DiscFunction(kind="herglotz", weights=np.array([1.0, -0.5]), angles=np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="Re q = -inf"):
            disc_generator_from(0.3, q)

    def test_rejects_data_without_exact_coefficients(self):
        herglotz = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        for q in (lambda z: 1.0 + z, DiscFunction.generator_form(0.0, herglotz)):
            with pytest.raises(ValueError, match="truncate it first"):
                disc_generator_from(0.3, q)


class TestLiftToBall:
    def test_frozen_two_coordinate_example(self, l2_2d):
        g1 = DiscFunction.polynomial([1.0, 0.0, -1.0])
        g2 = DiscFunction.polynomial([0.0, -1.0])
        F = lift_to_ball(l2_2d, [g1, g2])
        np.testing.assert_array_equal(F.constant, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(F.linear, np.array([[0.0, 0.0], [0.0, -1.0]]))
        assert F.degree == 2
        z = np.array([0.3, 0.4j])
        np.testing.assert_allclose(F(z), np.array([1.0 - 0.09, -0.4j]), atol=1e-15)

    def test_axis_restriction_reproduces_inputs(self, l2_2d):
        g1 = DiscFunction.polynomial([1.0, 0.0, -1.0])
        g2 = DiscFunction.polynomial([0.0, -1.0])
        F = lift_to_ball(l2_2d, [g1, g2])
        r1 = F.restrict(np.array([1.0, 0.0]))
        np.testing.assert_allclose(r1.coefficients, [1.0, 0.0, -1.0], atol=1e-15)
        r2 = F.restrict(np.array([0.0, 1.0]))
        np.testing.assert_allclose(r2.coefficients, [0.0, -1.0, 0.0], atol=1e-15)

    def test_validation(self, l2_2d):
        g = DiscFunction.polynomial([0.0, -1.0])
        with pytest.raises(ValueError):
            lift_to_ball(l2_2d, [g])
        herg = DiscFunction.herglotz(beta=0.0, weights=[1.0], angles=[0.0])
        with pytest.raises(ValueError):
            lift_to_ball(l2_2d, [g, herg])
        too_high = DiscFunction.polynomial([0.0] * 33 + [1.0])
        with pytest.raises(ValueError):
            lift_to_ball(l2_2d, [g, too_high])


class TestSampleGenerator:
    def test_determinism_and_degree(self, l2_2d):
        a = sample_generator(l2_2d, seed=11, degree=5)
        b = sample_generator(l2_2d, seed=11, degree=5)
        assert map_to_dict(a) == map_to_dict(b)
        assert a.degree == 5
        c = sample_generator(l2_2d, seed=12, degree=5)
        assert map_to_dict(a) != map_to_dict(c)

    def test_nonzero_center(self):
        for p in (1.0, 2.0, math.inf):
            space = NormedSpace(3, p)
            G = sample_generator(space, seed=4, degree=3)
            assert space.norm(G.constant) > 0.0

    def test_lift_of_exactly_checked_disc_data(self):
        # sample_generator skips the check of disc_generator_from, whose q is
        # nonnegative by construction: each q passes it, and the map keeps
        # its bytes, over the nine (dim, p, degree) slots of the benchmark
        slots = [((1, 2, 4)[i % 3], (1.0, 2.0, math.inf)[i // 3], 2 + i % 7) for i in range(9)]
        for seed in range(20):
            for n, p, degree in slots:
                space = NormedSpace(n, p)
                rng = np.random.default_rng([seed, polymaps._CENTER_SALT])
                centers = rng.normal(0.0, 0.35, n) + 1j * rng.normal(0.0, 0.35, n)
                leak = 1.0 if math.isinf(p) else float(n) ** (1.0 / p)
                gens = []
                for k in range(n):
                    c = fejer_truncate(herglotz_sample(seed * 64 + k), degree - 1).coefficients
                    c[0] += float(np.max(np.abs(centers))) * leak + 0.05
                    q = DiscFunction.polynomial(c)
                    assert polymaps._min_real_part(q) >= 0.05 - 1e-12
                    gens.append(disc_generator_from(centers[k], q))
                assert map_bytes(sample_generator(space, seed, degree)) == map_bytes(
                    lift_to_ball(space, gens))

    def test_degree_validation(self, l2_2d):
        with pytest.raises(ValueError):
            sample_generator(l2_2d, seed=0, degree=1)
        with pytest.raises(ValueError):
            sample_generator(l2_2d, seed=0, degree=33)


class TestUnitaryConjugate:
    def test_pointwise_identity(self, l2_2d):
        F = sample_generator(l2_2d, seed=9, degree=4)
        rng = np.random.default_rng(3)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U, _ = np.linalg.qr(M)
        G = unitary_conjugate(F, U)
        Z = ball_points(l2_2d, 10, seed=8)
        np.testing.assert_allclose(
            G.eval_batch(Z), (F.eval_batch(Z @ U.T)) @ np.conj(U), rtol=1e-11, atol=1e-11)

    def test_requires_p2_and_unitarity(self):
        F = sample_generator(NormedSpace(2, 1.0), seed=0, degree=2)
        with pytest.raises(ValueError):
            unitary_conjugate(F, np.eye(2))
        F2 = sample_generator(NormedSpace(2, 2.0), seed=0, degree=2)
        with pytest.raises(ValueError):
            unitary_conjugate(F2, 2.0 * np.eye(2))


class TestMapSerialization:
    def test_roundtrip_exact(self):
        for p in (1.0, 2.0, math.inf):
            space = NormedSpace(2, p)
            F = sample_generator(space, seed=6, degree=4)
            again = map_from_dict(map_to_dict(F))
            assert again.space == F.space
            np.testing.assert_array_equal(again.constant, F.constant)
            np.testing.assert_array_equal(again.linear, F.linear)
            assert len(again.higher) == len(F.higher)
            for pa, pb in zip(again.higher, F.higher):
                assert pa.degree == pb.degree
                np.testing.assert_array_equal(pa.powers, pb.powers)
                np.testing.assert_array_equal(pa.coeffs, pb.coeffs)

    def test_layout_keys(self, l2_2d):
        F = sample_generator(l2_2d, seed=1, degree=3)
        data = map_to_dict(F)
        assert set(data) == {"space", "constant", "linear", "terms"}
        assert all(set(t) == {"degree", "monomial", "coeff"} for t in data["terms"])

    def test_malformed_fields_are_named(self, l2_2d):
        good = map_to_dict(sample_generator(l2_2d, seed=1, degree=3))

        with pytest.raises(ValueError, match="'space'"):
            map_from_dict({k: v for k, v in good.items() if k != "space"})

        bad = {**good, "constant": [[0.0, 0.0]]}
        with pytest.raises(ValueError, match="constant"):
            map_from_dict(bad)

        bad = {**good, "linear": [[[0.0, 0.0], "x"], good["linear"][1]]}
        with pytest.raises(ValueError, match=r"linear\[0\]\[1\]"):
            map_from_dict(bad)

        bad = {**good, "terms": [{**good["terms"][0], "monomial": [1, 0]}]}
        with pytest.raises(ValueError, match="monomial"):
            map_from_dict(bad)

        bad = {**good, "terms": [{**good["terms"][0], "degree": True}]}
        with pytest.raises(ValueError, match="degree"):
            map_from_dict(bad)

        bad = {**good, "terms": "nope"}
        with pytest.raises(ValueError, match="'terms'"):
            map_from_dict(bad)

    def test_boolean_pair_rejected(self, l2_2d):
        good = map_to_dict(sample_generator(l2_2d, seed=1, degree=3))
        bad = {**good, "constant": [[True, False], good["constant"][1]]}
        with pytest.raises(ValueError, match=r"constant\[0\]"):
            map_from_dict(bad)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            map_from_dict([1, 2, 3])
