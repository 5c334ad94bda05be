import numpy as np
import pytest

from btucker.errors import DegenerateRowError
from btucker.linalg import (BETA_CAP, gram_inverse, noise_precision, orthonormalize_rows,
                            squared_norm, svd)


def jacobi_eigenvalues(a, sweeps=100, tol=1e-14):
    """Cyclic Jacobi eigensolver for symmetric matrices (test oracle)."""
    a = a.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(a**2) - np.sum(np.diag(a) ** 2))
        if off < tol * np.linalg.norm(a):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.s, 1.0, atol=1e-14)

    def test_rank_one_outer_product(self):
        a = np.array([2.0, 0.0, 0.0])
        b = np.array([0.0, 3.0, 0.0, 0.0])
        res = svd(np.outer(a, b))
        assert abs(res.s[0] - 6.0) < 1e-10
        assert np.all(res.s[1:] < 1e-10)

    def test_against_jacobi_eigensolver(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10, 6))
        res = svd(a)
        eigs = jacobi_eigenvalues(a.T @ a)
        assert np.max(np.abs(res.s**2 - eigs)) / eigs[0] < 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(7, 5))
        res = svd(a)
        back = res.U @ np.diag(res.s) @ res.V.T
        assert np.linalg.norm(back - a) / np.linalg.norm(a) < 1e-8

    def test_truncated_reconstruction_error(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 6))
        full = svd(a)
        for r in (1, 3, 5):
            res = svd(a, rank=r)
            err = np.linalg.norm(res.U @ np.diag(res.s) @ res.V.T - a)
            assert abs(err - np.sqrt(np.sum(full.s[r:] ** 2))) < 1e-8

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(9, 4))
        res = svd(a)
        assert np.max(np.abs(res.U.T @ res.U - np.eye(4))) < 1e-10
        assert np.max(np.abs(res.V.T @ res.V - np.eye(4))) < 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(11)
        res = svd(rng.normal(size=(6, 6)))
        assert np.all(np.diff(res.s) <= 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 5))
        res = svd(a)
        pivots = np.argmax(np.abs(res.U), axis=0)
        assert np.all(res.U[pivots, np.arange(5)] > 0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            svd(np.eye(2), rank=0)


def pinv_of(a):
    """pinv(a) as gram_inverse gives it: (a a^T)^+ a is pinv(a)^T."""
    return (gram_inverse(a) @ a).T


class TestPseudoinverse:
    """pinv(a), as the core solve takes it from gram_inverse."""

    def test_identity(self):
        assert np.allclose(pinv_of(np.eye(4)), np.eye(4), atol=1e-12)

    def test_singular_diagonal(self):
        a = np.diag([2.0, 0.0])
        assert np.allclose(pinv_of(a), np.diag([0.5, 0.0]), atol=1e-12)

    def test_full_rank_against_normal_equations(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(8, 3))
        p = pinv_of(a)
        oracle = np.linalg.inv(a.T @ a) @ a.T
        assert np.max(np.abs(p - oracle)) < 1e-8
        assert np.max(np.abs(p @ a - np.eye(3))) < 1e-8

    @pytest.mark.parametrize("shape,seed", [((6, 4), 1), ((4, 6), 2), ((5, 5), 3)])
    def test_penrose_conditions(self, shape, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape)
        # make one rank-deficient variant too
        if seed == 3:
            a[:, -1] = a[:, 0]
        p = pinv_of(a)
        na = np.linalg.norm(a)
        ap, pa = a @ p, p @ a
        assert np.linalg.norm(a @ p @ a - a) / na < 1e-8
        assert np.linalg.norm(p @ a @ p - p) / max(np.linalg.norm(p), 1) < 1e-8
        assert np.linalg.norm(ap.T - ap) / max(na, 1) < 1e-8
        assert np.linalg.norm(pa.T - pa) / max(na, 1) < 1e-8

    def test_zero_matrix(self):
        assert np.array_equal(pinv_of(np.zeros((3, 2))), np.zeros((2, 3)))


class TestGramInverse:
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
    def test_ridge_against_the_inverse(self, shape):
        a = np.random.default_rng(14).normal(size=shape)
        want = np.linalg.inv(a @ a.T + 0.3 * np.eye(shape[0]))
        assert np.max(np.abs(gram_inverse(a, 0.3) - want)) < 1e-12 * np.max(np.abs(want))

    def test_condition_1e7_against_numpy_pinv(self):
        # a a^T has condition 1e14: a pseudoinverse of it with a 1e-12 cutoff drops a direction
        rng = np.random.default_rng(15)
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        v = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        a = (u * np.logspace(0, -7, 4)) @ v.T
        want = np.linalg.pinv(a)
        assert np.max(np.abs(pinv_of(a) - want)) < 1e-8 * np.max(np.abs(want))


class TestOrthonormalizeRows:
    def test_already_orthonormal_unchanged(self):
        u = np.eye(2)
        out = orthonormalize_rows(u, 1)
        assert np.allclose(out, u, atol=1e-15)

    def test_two_dim_by_hand(self):
        u = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = orthonormalize_rows(u, 1)
        assert np.allclose(out[1], [0.0, 1.0], atol=1e-12)
        assert np.array_equal(out[0], u[0])

    def test_random_full_orthonormalization(self):
        rng = np.random.default_rng(14)
        u = rng.normal(size=(4, 20))
        u[0] /= np.linalg.norm(u[0])
        for row in range(4):
            u = orthonormalize_rows(u, row)
        gram = u @ u.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_idempotent_on_orthonormal(self):
        rng = np.random.default_rng(15)
        u = rng.normal(size=(3, 10))
        for row in range(3):
            u = orthonormalize_rows(u, row)
        again = u.copy()
        for row in range(3):
            again = orthonormalize_rows(again, row)
        assert np.max(np.abs(again - u)) < 1e-12

    def test_degenerate_row_error(self):
        u = np.array([[1.0, 0.0], [1.0, 1e-15]])
        with pytest.raises(DegenerateRowError) as err:
            orthonormalize_rows(u, 1)
        assert err.value.row == 1

    def test_start_row_out_of_range(self):
        with pytest.raises(ValueError):
            orthonormalize_rows(np.eye(2), 5)


class TestSquaredNorm:
    def test_sum_of_squares_of_any_shape(self):
        a = np.arange(24.0).reshape(2, 3, 4) - 10.0
        assert squared_norm(a) == np.sum(a * a)
        assert squared_norm(np.zeros((0, 3))) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [np.array([[1.0, 1e160]]), np.full((3, 3), 8e153)],
                             ids=["one-entry", "finite-squares"])
    def test_overflow_raises_without_a_warning(self, a):
        with pytest.raises(FloatingPointError, match="overflows float64"):
            squared_norm(a)


class TestNoisePrecision:
    def test_inverse_mean_square(self):
        assert noise_precision(6.0, 4) == 4 / 6

    def test_capped_for_near_exact_fits(self):
        assert noise_precision(0.0, 5) == BETA_CAP
        assert noise_precision(5e-20, 5) == BETA_CAP

    @pytest.mark.parametrize("ssq", [np.inf, np.nan])
    def test_non_finite_square_raises(self, ssq):
        # a residual whose squares overflow has no precision, not a precision of 0
        with pytest.raises(FloatingPointError, match="overflows float64"):
            noise_precision(ssq, 160)

