import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import btucker
from btucker import datagen, decomp, linalg
from btucker.cli import build_config
from btucker.decomp import (
    BETA_CAP,
    DEFAULT_FACTOR_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RESIDUAL_CANCELLATION,
    SELF_CONSISTENCY_TOL,
    FitReport,
    TuckerModel,
    _contracted,
    _CoreNorm,
    _top_left_vectors,
    _least_squares_core,
    btud_fit,
    estimate_beta,
    hooi,
    load_model,
    posterior_stats,
    save_model,
    self_consistency_check,
)
from btucker.errors import DegenerateComponentError
from btucker.tensor import Tensor3, frobenius_norm, reconstruct, unfold
from oracles import (
    SwappedCoreNorm,
    design_matrix,
    reference_btud_fit,
    reference_core_norm,
    reference_hooi,
    reference_hosvd,
    reference_posterior,
    reference_residual,
)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def random_tensor(dims, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor3(rng.normal(size=dims))


def random_model(dims, ranks, seed=0):
    """Random Tucker model with orthonormal factor rows."""
    rng = np.random.default_rng(seed)
    factors = []
    for d, r in zip(dims, ranks):
        q, _ = np.linalg.qr(rng.normal(size=(d, r)))
        factors.append(q.T)
    core = rng.normal(size=ranks)
    return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])


def separable_tensor(dims, seed=0):
    """Exactly rank-(1,1,1) tensor a x b x c with unit-norm factors."""
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=d) for d in dims)
    a, b, c = a / np.linalg.norm(a), b / np.linalg.norm(b), c / np.linalg.norm(c)
    return Tensor3(3.0 * np.einsum("i,j,k->ijk", a, b, c)), (a, b, c)


def assert_models_close(got, want, tol):
    for name in ("core", "u1", "u2", "u3"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) < tol, name


def planted_tensor(dims, ranks, noise, seed):
    """A random Tucker model plus Gaussian noise: well-separated singular values."""
    model = random_model(dims, ranks, seed=seed)
    rng = np.random.default_rng(seed + 1)
    core = model.core + 5.0 * np.sign(model.core)
    planted = TuckerModel(core=core, u1=model.u1, u2=model.u2, u3=model.u3)
    return Tensor3(reconstruct(planted).values + noise * rng.normal(size=dims))


class TestHooi:
    def test_exactly_low_rank_recovery(self):
        t, _ = separable_tensor((6, 5, 4), seed=4)
        model, report = hooi(t, (1, 1, 1))
        assert report.converged
        assert report.residual_history[-1] <= 1e-8

    def test_residual_history_non_increasing(self):
        t = random_tensor((10, 8, 6), seed=5)
        _, report = hooi(t, (3, 3, 3))
        diffs = np.diff(report.residual_history)
        assert np.all(diffs <= 1e-7)

    def test_improves_on_hosvd(self):
        t = random_tensor((10, 8, 6), seed=6)
        _, report = hooi(t, (3, 2, 2))
        # history[0] is the error of the HOSVD's U2 and U3 with their optimal U1
        assert report.residual_history[-1] <= report.residual_history[0] + 1e-12

    def test_factor_orthonormality(self):
        t = random_tensor((8, 7, 6), seed=7)
        model, _ = hooi(t, (3, 3, 2))
        for u in (model.u1, model.u2, model.u3):
            assert np.max(np.abs(u @ u.T - np.eye(u.shape[0]))) < 1e-8

    def test_parameter_validation(self):
        t = random_tensor((3, 3, 3))
        with pytest.raises(ValueError):
            hooi(t, (2, 2, 2), max_iter=0)
        with pytest.raises(ValueError, match="rank 4 of mode 1 must satisfy 1 <= rank <= 3"):
            hooi(t, (4, 1, 1))
        for bad in ({"tol": 0.0}, {"factor_tol": 0.0}, {"factor_tol": -1e-7},
                    {"factor_tol": float("nan")}):
            with pytest.raises(ValueError, match="must be positive"):
                hooi(t, (2, 2, 2), **bad)

    @pytest.mark.parametrize("ranks", [(3, 1, 1), (1, 3, 1), (1, 1, 3)])
    def test_rank_above_product_of_others_rejected(self, ranks):
        t = random_tensor((20, 4, 4), seed=43)
        with pytest.raises(ValueError, match="product of the other two ranks"):
            hooi(t, ranks)

    @pytest.mark.parametrize("dims", [(30, 4, 3), (5, 4, 3)], ids=["tall", "short"])
    def test_one_sweep_matches_reference(self, dims):
        # tall: N > M*K, so the sweeps run on G = X(1)^T X(1); short: N <= M*K
        ranks = (2, 2, 2)
        t = planted_tensor(dims, ranks, noise=0.1, seed=44)
        model, report = hooi(t, ranks, max_iter=1)
        expected, history = reference_hooi(t, ranks, max_iter=1, tol=DEFAULT_TOL,
                                           factor_tol=DEFAULT_FACTOR_TOL)
        assert report.sweeps == 1
        for got, want in zip((model.core, model.u1, model.u2, model.u3),
                             (expected.core, expected.u1, expected.u2, expected.u3)):
            assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(report.residual_history - history)) < 1e-12

    @pytest.mark.parametrize("ranks", [(3, 2, 2), (2, 2, 2)])
    @pytest.mark.parametrize("dims", [(30, 4, 3), (5, 4, 3)], ids=["tall", "short"])
    def test_exactly_rank_deficient(self, dims, ranks):
        # exact rank (2, 2, 2): at L1 = 3 one mode-1 direction has a zero singular
        # value, and the factor_tol test must not see it move between sweeps
        t = reconstruct(random_model(dims, (2, 2, 2), seed=53))
        model, report = hooi(t, ranks, factor_tol=1e-9)
        assert report.stop_reason == "factor_tol" and report.sweeps <= 3
        assert report.residual_history[-1] <= 1e-12
        for u in (model.u1, model.u2, model.u3):
            assert np.max(np.abs(u @ u.T - np.eye(u.shape[0]))) <= 1e-12
        core = _least_squares_core(t.values, (model.u1, model.u2, model.u3))
        assert np.max(np.abs(model.core - core)) <= 1e-12

    def test_degenerate_gap_keeps_sweeping_plainly(self):
        # mode-1 rank 2 at L1 = 3: the 3rd and 4th eigenvalues of A^T A are both zero, so
        # the Hessian is undefined and the fit must end by plain sweeps, those of the reference
        # (whose arbitrary third U1 row keeps it from stopping by itself)
        rng = np.random.default_rng(72)
        t = Tensor3(np.einsum("ai,ajk->ijk", rng.normal(size=(2, 12)), rng.normal(size=(2, 6, 5))))
        with np.errstate(all="raise"):
            model, report = hooi(t, (3, 2, 2))
        assert report.stop_reason == "factor_tol" and report.newton_steps == 0
        assert report.final_gradient_norm is None and report.sweeps > 100
        expected, _ = reference_hooi(t, (3, 2, 2), max_iter=report.sweeps, tol=DEFAULT_TOL,
                                     factor_tol=DEFAULT_FACTOR_TOL)
        for got, want in ((model.u2, expected.u2), (model.u3, expected.u3)):
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("dims, ranks", [((10, 8, 6), (3, 3, 3)), ((30, 8, 6), (3, 2, 2))],
                             ids=["10x8x6", "30x8x6"])
    def test_default_fit_reaches_the_certified_fixed_point(self, dims, ranks):
        t = random_tensor(dims, seed=45)
        model, report = hooi(t, ranks)
        assert report.converged and report.stop_reason == "factor_tol"
        assert report.final_factor_change < DEFAULT_FACTOR_TOL
        assert report.sweeps == report.residual_history.size - 1
        check = self_consistency_check(t, model, alpha=0.0, beta=estimate_beta(t, model))
        assert check.tol == SELF_CONSISTENCY_TOL and check.self_consistent

    def test_spiked_entry_reaches_the_certified_fixed_point(self):
        # one entry 1e6 above unit noise: the SVD path of the top vectors must keep the
        # directions above the rounding level, not only those above the squared noise floor
        x = np.random.default_rng(0).standard_normal((10, 4, 4))
        x[0, 0, 0] = 1e6
        t = Tensor3(x)
        model, report = hooi(t, (2, 2, 2))
        assert report.converged and report.sweeps > 2
        check = self_consistency_check(t, model, alpha=0.0, beta=estimate_beta(t, model))
        assert check.self_consistent

    @pytest.mark.parametrize("spike", [1e8, 1e10, 1e12])
    def test_large_spike_certifies(self, spike):
        # the core unfoldings' singular values span over 1e7, their Grams' over 1e14: a solve
        # that squares G(m) loses the weak direction to rounding
        x = np.random.default_rng(0).standard_normal((10, 4, 4))
        x[0, 0, 0] = spike
        t = Tensor3(x)
        model, report = hooi(t, (2, 2, 2))
        assert report.converged
        check = self_consistency_check(t, model, alpha=0.0, beta=estimate_beta(t, model))
        assert check.self_consistent and check.max_mode_deviation < 1e-7

    def test_max_iter_stop_reason(self):
        t = random_tensor((10, 8, 6), seed=46)
        _, report = hooi(t, (3, 3, 3), max_iter=2, tol=1e-15)
        assert not report.converged
        assert report.stop_reason == "max_iter"


class TestHooiRoutes:
    """hooi's two mode-1 routes: on G = X(1)^T X(1) once N >= M*K (tall), on X(1) otherwise."""

    # tall: 40 >= 4*3, so the sweeps run on G; short: 12 < 5*4, so they run on R.  Neither
    # fit meets the residual criterion within 20 sweeps, so each is plain HOOI throughout
    CASES = {"tall": ((40, 4, 3), (2, 2, 2), 60), "short": ((12, 5, 4), (3, 2, 2), 60)}

    @pytest.mark.parametrize("max_iter", [5, 20])
    @pytest.mark.parametrize("shape", ["tall", "short"])
    def test_sweeps_match_reference(self, monkeypatch, shape, max_iter):
        dims, ranks, seed = self.CASES[shape]
        t = random_tensor(dims, seed=seed)
        shapes = []

        def contracted(x, *args, **kwargs):  # records the shape of every array contracted
            shapes.append(x.shape)
            return _contracted(x, *args, **kwargs)

        monkeypatch.setattr(decomp, "_contracted", contracted)
        model, report = hooi(t, ranks, max_iter=max_iter)
        expected, history = reference_hooi(t, ranks, max_iter=max_iter, tol=DEFAULT_TOL,
                                           factor_tol=DEFAULT_FACTOR_TOL)
        assert report.sweeps == max_iter and report.newton_steps == 0
        for got, want in zip((model.core, model.u1, model.u2, model.u3),
                             (expected.core, expected.u1, expected.u2, expected.u3)):
            assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(report.residual_history - history)) < 1e-12
        # an (M*K)^2 matrix, G, is formed exactly when N >= M*K
        gram_shape = (dims[1] * dims[2], dims[1], dims[2])
        assert (gram_shape in shapes) == (shape == "tall")

    @pytest.mark.parametrize("ranks", [(2, 2, 2), (3, 2, 2)])
    def test_exact_rank_on_g(self, monkeypatch, ranks):
        # exact rank (2, 2, 2) and N >= M*K: every residual is below 1e-6 |x|, so each one is
        # recomputed from the model and the data (at L1 = 2 through the lazily formed V1), and
        # at L1 = 3 the third eigenvalue of A^T A is zero, so each sweep's mode 1 takes the top
        # vectors of A = X(1) (U2 kron U3)^T itself; the only other (N, L2*L3) matrix they are
        # taken of is the one of the returned U1's lift
        dims = (30, 4, 3)
        t = reconstruct(random_model(dims, (2, 2, 2), seed=53))
        shapes = []

        def top_left_vectors(b, rank, *gram):
            # the start passes its Gram matrix, with b a function for the SVD fallback
            shapes.append(None if gram else b.shape)
            return _top_left_vectors(b, rank, *gram)

        monkeypatch.setattr(decomp, "_top_left_vectors", top_left_vectors)
        model, report = hooi(t, ranks, max_iter=3, tol=1e-300)
        expected, history = reference_hooi(t, ranks, max_iter=3, tol=1e-300,
                                           factor_tol=DEFAULT_FACTOR_TOL)
        assert report.sweeps == 3 and shapes.count((30, 4)) == (4 if ranks[0] == 3 else 1)
        assert np.max(report.residual_history) < 1e-13 * frobenius_norm(t)
        assert np.max(np.abs(report.residual_history - history)) < 1e-12
        # rows beyond the data's rank 2 are arbitrary in both
        for got, want in ((model.u1[:2], expected.u1[:2]), (model.u2, expected.u2),
                          (model.u3, expected.u3), (model.core[:2], expected.core[:2])):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_no_qr_and_no_large_eigensolve(self, monkeypatch):
        # the tall fit works from G alone: the only QR is the trust region's (dim x rank)
        # retraction, and no eigensolve is larger than max(L2*L3, M, K)
        dims, ranks, seed = self.CASES["tall"]
        t = random_tensor(dims, seed=seed)
        qr_shapes, eigh_shapes = [], []
        qr, eigh = np.linalg.qr, np.linalg.eigh
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs:
                            qr_shapes.append(a.shape) or qr(a, *args, **kwargs))
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs:
                            eigh_shapes.append(a.shape) or eigh(a, *args, **kwargs))
        _, report = hooi(t, ranks)
        assert report.newton_steps >= 1
        assert set(qr_shapes) == {(dims[1], ranks[1]), (dims[2], ranks[2])}
        assert max(map(max, eigh_shapes)) <= max(ranks[1] * ranks[2], dims[1], dims[2])

    @pytest.mark.parametrize("singular", [False, True], ids=["cholesky", "singular"])
    def test_trust_region_data(self, monkeypatch, singular):
        # the trust region runs on the Cholesky factor R of G (R^T R = G, M*K rows); a zero
        # column of X(1) (x[:, 0, 0] = 0) makes G singular, and there it runs on the R of a
        # QR of X(1), M*K rows too
        dims, ranks, seed = self.CASES["tall"]
        x = np.random.default_rng(seed).normal(size=dims)
        if singular:
            x[:, 0, 0] = 0.0
        t = Tensor3(x)
        rows, qr_shapes = [], []

        class CoreNorm(_CoreNorm):
            def __init__(self, work, *args):
                rows.append(work.shape[0])
                super().__init__(work, *args)

        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs:
                            qr_shapes.append(a.shape) or qr(a, *args, **kwargs))
        monkeypatch.setattr(decomp, "_CoreNorm", CoreNorm)
        model, report = hooi(t, ranks)
        assert report.newton_steps >= 1
        assert set(rows) == {dims[1] * dims[2]}
        assert qr_shapes.count((dims[0], dims[1] * dims[2])) == (1 if singular else 0)
        check = self_consistency_check(t, model, alpha=0.0, beta=estimate_beta(t, model))
        assert check.self_consistent
        expected, _ = reference_hooi(t, ranks, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL,
                                     factor_tol=DEFAULT_FACTOR_TOL)
        want = float(np.sum(expected.core ** 2))
        assert abs(float(np.sum(model.core ** 2)) - want) <= 1e-10 * want

    def test_near_exact_residual_from_the_data(self):
        # 1e-9 noise on a rank-(2, 2, 2) model: every residual is below 1e-6 |x|, where
        # sqrt(|x|^2 - |core|^2) would cancel to about sqrt(eps) |x|, so each one is formed by
        # subtracting the model from the data, as the reference forms it.  The model's entries
        # round at eps |x_ijk|, against residual entries of 1e-9: the two sides agree to 2.1e-10
        # of the residual here (3.1e-10 when the residual was formed on the data's QR factor),
        # so the bound is 1e-9
        t = planted_tensor((80, 8, 8), (2, 2, 2), noise=1e-9, seed=80)
        _, report = hooi(t, (2, 2, 2))
        _, history = reference_hooi(t, (2, 2, 2), max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL,
                                    factor_tol=DEFAULT_FACTOR_TOL)
        assert report.residual_history.size == history.size
        assert np.max(history) < 1e-6 * np.linalg.norm(t.values)
        assert np.all(np.abs(report.residual_history - history) <= 1e-9 * history)


class TestTopLeftVectors:
    @pytest.mark.parametrize("shape", [(6, 15), (15, 6)], ids=["wide", "tall"])
    def test_matches_svd(self, shape):
        b = np.random.default_rng(49).normal(size=shape)
        got = _top_left_vectors(b, 4)
        assert got.shape == (4, shape[0])
        assert np.max(np.abs(got - linalg.svd(b, rank=4).U.T)) < 1e-10


class TestContraction:
    """The one contraction kernel against np.einsum: columns (q, p), p fastest, as in unfold."""

    SUBSCRIPTS = {1: "ijk,bj,ck->icb", 2: "ijk,ai,ck->jca", 3: "ijk,ai,bj->kba"}

    @pytest.mark.parametrize("identity", [(), (0,), (1,), (0, 1)],
                             ids=["factors", "u1-none", "u2-none", "u1-u2-none"])
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_einsum(self, mode, identity):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(7, 5, 4))
        # general factors: neither square nor orthonormal
        factors = [rng.normal(size=(r, d)) for r, d in zip((3, 2, 3), x.shape)]
        want_factors = [np.eye(d) if i in identity else u
                        for i, (u, d) in enumerate(zip(factors, x.shape))]
        want = np.einsum(self.SUBSCRIPTS[mode], x,
                         *(u for i, u in enumerate(want_factors) if i != mode - 1))
        want = want.reshape(x.shape[mode - 1], -1)
        got = _contracted(x, *(None if i in identity else u for i, u in enumerate(factors)), mode)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture(scope="module", params=[1000, 1001])
def preset_fits(request):
    """A synthetic-block member fitted by hooi and by the reference, both with the preset."""
    cfg = build_config("synthetic-block")
    t, _ = datagen.gen_synthetic_block(datagen.SyntheticBlockParams(seed=request.param))
    kwargs = {"max_iter": cfg.max_iter, "tol": cfg.tol, "factor_tol": cfg.factor_tol}
    model, report = hooi(t, cfg.ranks, **kwargs)
    expected, history = reference_hooi(t, cfg.ranks, **kwargs)
    return model, report, expected, history, t


class TestAcceleratedHooi:
    def test_reaches_the_reference_fixed_point(self, preset_fits):
        model, report, expected, history, _ = preset_fits
        assert report.converged and report.stop_reason == "factor_tol"
        assert report.residual_history[-1] <= history[-1] + 1e-9
        for got, want in zip((model.u1, model.u2, model.u3), (expected.u1, expected.u2, expected.u3)):
            assert np.max(np.abs(got - want)) < 1e-4

    def test_finishes_by_newton_steps_and_stays_monotone(self, preset_fits):
        _, report, _, _, _ = preset_fits
        assert report.newton_steps >= 1 and report.final_gradient_norm < 1e-6
        assert np.all(np.diff(report.residual_history) <= 1e-7)
        assert report.sweeps == report.residual_history.size - 1


class TestCoreNorm:
    """hooi's trust-region kernel against central differences of the reference ||core||^2."""

    def test_value_gradient_and_hessian(self):
        t = planted_tensor((12, 6, 5), (3, 2, 2), noise=0.3, seed=60)
        start = reference_hosvd(t, (3, 2, 2))
        u2, u3 = start.u2, start.u3
        def at(v2, v3):
            return _CoreNorm(t.values, v2, v3, 3)

        def retract(u, xi):  # QR with a positive diagonal, so the basis moves continuously
            q, r = np.linalg.qr((u + xi).T)
            return (q * np.sign(np.diag(r))).T

        def moved(s):
            return retract(u2, s * x2), retract(u3, s * x3)

        def gradient_at_u(s):  # the gradient at the moved point, projected at (u2, u3)
            there = at(*moved(s))
            g2, g3 = there.split(there.grad)
            return np.concatenate(((g2 - g2 @ u2.T @ u2).ravel(), (g3 - g3 @ u3.T @ u3).ravel()))

        rng = np.random.default_rng(61)
        point = at(u2, u3)
        assert point.f == pytest.approx(reference_core_norm(t, u2, u3, 3), rel=1e-12)
        xi, eta = (point._project(rng.normal(size=u2.shape), rng.normal(size=u3.shape))
                   for _ in range(2))
        x2, x3 = point.split(xi)
        h = 1e-5
        f = [reference_core_norm(t, *moved(s), 3) for s in (-h, 0.0, h)]
        assert (f[2] - f[0]) / (2 * h) == pytest.approx(point.grad @ xi, rel=1e-6)
        hess_xi = point.hessian(xi)
        assert (f[2] - 2 * f[1] + f[0]) / h**2 == pytest.approx(xi @ hess_xi, rel=1e-4)
        difference = (gradient_at_u(h) - gradient_at_u(-h)) / (2 * h)
        assert np.linalg.norm(difference - hess_xi) <= 1e-6 * np.linalg.norm(hess_xi)
        assert eta @ hess_xi == pytest.approx(xi @ point.hessian(eta), rel=1e-10)
        # a direction off the tangent space, mixing each factor's rows, moves nothing
        vertical = np.concatenate(((rng.normal(size=(2, 2)) @ u2).ravel(),
                                   (rng.normal(size=(2, 2)) @ u3).ravel()))
        assert np.linalg.norm(point.hessian(vertical)) <= 1e-10 * np.linalg.norm(hess_xi)


    @pytest.mark.parametrize("dims", [(40, 6, 5), (12, 6, 5)], ids=["cholesky", "data"])
    def test_matches_the_swapped_copy_route(self, dims):
        # R x2 U2 from R alone sums in another order than the kernel on R's swapped copy:
        # f, the gradient and Hessian products agree to 1e-13, relative
        t = planted_tensor(dims, (3, 2, 2), noise=0.3, seed=62)
        sweeper = decomp._Sweeper(t, (3, 2, 2), DEFAULT_FACTOR_TOL)
        work, (u2, u3) = sweeper.trust_data, sweeper.start()
        assert work.shape[0] == min(dims[0], dims[1] * dims[2])
        point, want = _CoreNorm(work, u2, u3, 3), SwappedCoreNorm(work, u2, u3, 3)
        assert point.f == pytest.approx(want.f, rel=1e-13)
        assert np.linalg.norm(point.grad - want.grad) <= 1e-13 * np.linalg.norm(want.grad)
        rng = np.random.default_rng(63)
        for _ in range(3):
            xi = point._project(rng.normal(size=u2.shape), rng.normal(size=u3.shape))
            got, expected = point.hessian(xi), want.hessian(xi)
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


class TestTrustRegionStep:
    """The trust region's acceptance and radius rule, with the CG step and the trial's f stubbed.

    Each ratio sits on both sides of its threshold, so moving any of 0.1, 0.25, 0.75 or the
    boundary's 0.99 by more than 1e-4 fails a case.
    """

    @pytest.mark.parametrize("rho, length, radius, kept, new_radius", [
        (0.0999, 1.0, 0.5, False, 0.125),  # rho <= 0.1: rejected, the radius quartered
        (0.1001, 1.0, 0.5, True, 0.125),  # 0.1 < rho < 0.25: kept, the radius quartered
        (0.2499, 1.0, 0.5, True, 0.125),
        (0.2501, 1.0, 0.5, True, 0.5),  # 0.25 <= rho <= 0.75: the radius unchanged
        (0.7499, 1.0, 0.5, True, 0.5),
        (0.7501, 1.0, 0.25, True, 0.5),  # rho > 0.75 at the boundary: doubled ...
        (0.7501, 1.0, decomp.TR_RADIUS, True, decomp.TR_RADIUS),  # ... up to TR_RADIUS
        (0.9, 0.9901, 0.25, True, 0.5),  # the boundary is any step of at least 0.99 radius
        (0.9, 0.9899, 0.25, True, 0.25),  # inside it: the radius unchanged
    ])
    def test_ratio_and_radius_rule(self, monkeypatch, rho, length, radius, kept, new_radius):
        t = random_tensor((40, 4, 3), seed=60)
        sweeper = decomp._Sweeper(t, (2, 2, 2), DEFAULT_FACTOR_TOL)
        point = _CoreNorm(sweeper.trust_data, *sweeper.start(), 2)
        step = length * radius * point.grad / np.linalg.norm(point.grad)
        predicted = 1.0
        noise = 1e3 * np.finfo(float).eps * point.f  # the offset the ratio carries

        class Trial:
            def __init__(self, work, u2, u3, l1):
                self.u2, self.u3 = u2, u3
                self.f = point.f + rho * (predicted + noise) - noise

        monkeypatch.setattr(decomp, "_truncated_cg", lambda *args: (step, predicted))
        monkeypatch.setattr(decomp, "_CoreNorm", Trial)
        trial, change, radius = decomp._trust_region_step(sweeper, point, radius)
        assert (trial is not None) == kept and radius == new_radius
        assert change == np.max(np.abs(step))
        if kept:
            want = [decomp._retract(u, xi) for u, xi in zip((point.u2, point.u3), point.split(step))]
            assert np.array_equal(trial.u2, want[0]) and np.array_equal(trial.u3, want[1])


# Fits the preset's seeds 1000 and 1001 and saves their factors to the .npz file named by argv[1].
PRESET_FACTORS_SCRIPT = """
import sys
import numpy as np
from btucker import cli, datagen, decomp
cfg = cli.build_config("synthetic-block")
factors = []
for seed in (1000, 1001):
    t, _ = datagen.gen_synthetic_block(datagen.SyntheticBlockParams(seed=seed))
    model, _ = decomp.hooi(t, cfg.ranks)
    factors += [model.u1, model.u2, model.u3]
np.savez(sys.argv[1], *factors)
"""


class TestThreadIndependence:
    def test_preset_fits_agree_across_blas_thread_counts(self, tmp_path):
        # the fit ends at the fixed point to rounding, not wherever a linear tail stopped
        src = str(Path(btucker.__file__).parents[1])
        fits = []
        for threads in ("1", "2"):
            path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": path}
            out = tmp_path / f"threads-{threads}.npz"
            subprocess.run([sys.executable, "-c", PRESET_FACTORS_SCRIPT, str(out)], env=env,
                           check=True)
            with np.load(out) as saved:
                fits.append([saved[name] for name in saved.files])
        assert len(fits[0]) == 6
        for one, two in zip(*fits):
            assert np.max(np.abs(one - two)) <= 1e-10


class TestBtudMatchesReference:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("dims", [(30, 4, 3), (5, 4, 3)], ids=["tall", "short"])
    def test_three_sweeps_from_hosvd(self, dims, alpha):
        t = random_tensor(dims, seed=51)
        init = reference_hosvd(t, (2, 2, 2))
        model, beta, report = btud_fit(t, init, alpha=alpha, max_sweeps=3, tol=1e-15)
        expected, history, want_beta, sweeps, converged = reference_btud_fit(t, init, alpha, 3, 1e-15)
        assert report.sweeps == sweeps == 3 and report.converged is converged is False
        assert_models_close(model, expected, 1e-12)
        assert np.max(np.abs(report.residual_history - history)) < 1e-12
        assert abs(beta - want_beta) <= 1e-12 * want_beta

    def test_preset_refit(self, preset_fits):
        init, _, _, _, t = preset_fits
        model, _, report = btud_fit(t, init, alpha=0.0, max_sweeps=5, tol=1e-6)
        expected, history, _, sweeps, converged = reference_btud_fit(t, init, 0.0, 5, 1e-6)
        assert report.sweeps == sweeps == 1 and report.converged and converged
        assert_models_close(model, expected, 1e-12)
        assert np.max(np.abs(report.residual_history - history)) < 1e-12


class TestPosteriorMatchesDesignMatrix:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["orthonormal", "general", "rank-deficient", "ill-conditioned"])
    def test_mean_and_cov(self, kind, mode, alpha):
        dims, ranks = (7, 6, 5), (3, 2, 2)
        model = random_model(dims, ranks, seed=52)
        core, factors = model.core.copy(), (model.u1, model.u2, model.u3)
        rtol = 1e-12
        if kind == "general":
            rng = np.random.default_rng(53)
            factors = tuple(rng.normal(size=u.shape) for u in factors)
        elif kind == "rank-deficient":
            np.moveaxis(core, mode - 1, 0)[1] = 0.0  # G(m) loses a row
        elif kind == "ill-conditioned":
            # G(m)'s singular values span 1e7, the Gram's 1e14: squaring G(m) loses the weakest
            g = np.moveaxis(core, mode - 1, 0)
            u, s, vt = np.linalg.svd(g.reshape(g.shape[0], -1), full_matrices=False)
            g[...] = ((u * np.logspace(0, -7, s.size)) @ vt).reshape(g.shape)
            rtol = 1e-8  # about eps times the condition number of Phi, 1e7
        model = TuckerModel(core, *factors)
        t = random_tensor(dims, seed=54)
        beta = 1.7
        mean, cov = posterior_stats(t, model, mode, alpha=alpha, beta=beta)
        want_mean, want_cov = reference_posterior(t, model, mode, alpha, beta)
        assert np.max(np.abs(mean - want_mean)) < rtol * max(1.0, np.max(np.abs(want_mean)))
        assert np.max(np.abs(cov - want_cov)) < rtol * np.max(np.abs(want_cov))


class TestDesignMatrix:
    def test_rank_one_constant_closed_form(self):
        n, m, k = 3, 4, 5
        model = TuckerModel(
            core=np.ones((1, 1, 1)),
            u1=np.full((1, n), 1 / np.sqrt(n)),
            u2=np.full((1, m), 1 / np.sqrt(m)),
            u3=np.full((1, k), 1 / np.sqrt(k)),
        )
        phi = design_matrix(model, 1)
        assert phi.shape == (m * k, 1)
        assert np.allclose(phi, 1 / np.sqrt(m * k), atol=1e-14)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_brute_force_loop_oracle(self, mode):
        model = random_model((5, 4, 3), (2, 3, 2), seed=8)
        phi = design_matrix(model, mode)
        core, u1, u2, u3 = model.core, model.u1, model.u2, model.u3
        n, m, k = model.dims
        if mode == 1:
            expected = np.zeros((m * k, 2))
            for j in range(m):
                for kk in range(k):
                    for a in range(2):
                        expected[j + m * kk, a] = sum(
                            core[a, b, c] * u2[b, j] * u3[c, kk]
                            for b in range(3)
                            for c in range(2)
                        )
        elif mode == 2:
            expected = np.zeros((n * k, 3))
            for i in range(n):
                for kk in range(k):
                    for b in range(3):
                        expected[i + n * kk, b] = sum(
                            core[a, b, c] * u1[a, i] * u3[c, kk]
                            for a in range(2)
                            for c in range(2)
                        )
        else:
            expected = np.zeros((n * m, 2))
            for i in range(n):
                for j in range(m):
                    for c in range(2):
                        expected[i + n * j, c] = sum(
                            core[a, b, cc] * u1[a, i] * u2[b, j]
                            for a in range(2)
                            for b in range(3)
                            for cc in [c]
                        )
        assert np.max(np.abs(phi - expected)) < 1e-12

    def test_regression_consistency_identity(self):
        # unfold(reconstruct(model), 1) == u1^T @ phi^T
        model = random_model((6, 5, 4), (2, 2, 3), seed=9)
        phi = design_matrix(model, 1)
        lhs = unfold(reconstruct(model), 1)
        rhs = model.u1.T @ phi.T
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestCoreRegression:
    def test_recovers_core_from_exact_model(self):
        model = random_model((5, 4, 3), (2, 2, 2), seed=10)
        t = reconstruct(model)
        got = _least_squares_core(t.values, (model.u1, model.u2, model.u3))
        assert np.max(np.abs(got - model.core)) < 1e-10

    def test_scalar_case(self):
        u1 = np.array([[1.0]])
        u2 = np.array([[-1.0]])
        u3 = np.array([[1.0]])
        t = Tensor3(np.array([[[4.0]]]))
        got = _least_squares_core(t.values, (u1, u2, u3))
        assert np.isclose(got[0, 0, 0], -4.0, atol=1e-14)

    def test_projection_equals_pseudoinverse_path(self):
        model = random_model((4, 3, 3), (2, 2, 2), seed=11)
        t = random_tensor((4, 3, 3), seed=12)
        fast = _least_squares_core(t.values, (model.u1, model.u2, model.u3))
        # literal regression on the Kronecker design (oracle)
        a = np.kron(model.u3.T, np.kron(model.u2.T, model.u1.T))
        g, *_ = np.linalg.lstsq(a, t.values.ravel(order="F"), rcond=None)
        assert np.max(np.abs(fast - g.reshape((2, 2, 2), order="F"))) < 1e-9

    def test_non_orthonormal_factors_fall_back(self):
        rng = np.random.default_rng(13)
        t = random_tensor((4, 4, 4), seed=14)
        u1 = rng.normal(size=(2, 4))
        u2 = rng.normal(size=(2, 4))
        u3 = rng.normal(size=(2, 4))
        got = _least_squares_core(t.values, (u1, u2, u3))
        a = np.kron(u3.T, np.kron(u2.T, u1.T))
        g, *_ = np.linalg.lstsq(a, t.values.ravel(order="F"), rcond=None)
        assert np.max(np.abs(got - g.reshape((2, 2, 2), order="F"))) < 1e-9


    def test_mixed_factors_match_kronecker_regression(self):
        # an orthonormal factor enters as itself, the others through their pseudoinverse
        rng = np.random.default_rng(55)
        t = random_tensor((5, 4, 4), seed=56)
        u1 = random_model((5, 4, 4), (2, 2, 2), seed=57).u1
        u2, u3 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        got = _least_squares_core(t.values, (u1, u2, u3))
        a = np.kron(u3.T, np.kron(u2.T, u1.T))
        g, *_ = np.linalg.lstsq(a, t.values.ravel(order="F"), rcond=None)
        assert np.max(np.abs(got - g.reshape((2, 2, 2), order="F"))) < 1e-9


class TestPosteriorStats:
    def test_self_consistency_on_exact_model(self):
        model = random_model((6, 5, 4), (2, 2, 2), seed=15)
        t = reconstruct(model)
        for mode in (1, 2, 3):
            mean, _ = posterior_stats(t, model, mode, alpha=0.0, beta=1.0)
            u = model.factor(mode)
            flips = np.where(np.sum(mean * u, axis=1) < 0, -1.0, 1.0)
            assert np.max(np.abs(mean * flips[:, None] - u)) < 1e-9

    def test_large_alpha_shrinks_mean(self):
        model = random_model((5, 4, 3), (2, 2, 2), seed=16)
        t = random_tensor((5, 4, 3), seed=17)
        mean, _ = posterior_stats(t, model, 1, alpha=1e12, beta=1.0)
        assert np.max(np.abs(mean)) < 1e-6

    def test_single_column_least_squares(self):
        # L1 = 1: mean_i = <phi, x_i> / <phi, phi>
        model = random_model((5, 4, 3), (1, 1, 1), seed=18)
        t = random_tensor((5, 4, 3), seed=19)
        mean, _ = posterior_stats(t, model, 1, alpha=0.0, beta=1.0)
        phi = design_matrix(model, 1)[:, 0]
        x1 = unfold(t, 1)
        expected = x1 @ phi / (phi @ phi)
        assert np.max(np.abs(mean[0] - expected)) < 1e-10

    def test_cov_shape_and_symmetry(self):
        model = random_model((5, 4, 3), (2, 2, 2), seed=20)
        t = random_tensor((5, 4, 3), seed=21)
        for mode, l in ((1, 2), (2, 2), (3, 2)):
            _, cov = posterior_stats(t, model, mode, alpha=0.5, beta=2.0)
            assert cov.shape == (l, l)
            assert np.max(np.abs(cov - cov.T)) < 1e-12
            assert np.all(np.linalg.eigvalsh(cov) > -1e-10)

    def test_beta_validation(self):
        model = random_model((4, 3, 3), (1, 1, 1))
        t = random_tensor((4, 3, 3))
        with pytest.raises(ValueError):
            posterior_stats(t, model, 1, alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("alpha, beta, name", [
        (float("nan"), 1.0, "alpha"), (float("inf"), 1.0, "alpha"), (-1.0, 1.0, "alpha"),
        (0.0, float("nan"), "beta"), (0.0, float("inf"), "beta"), (0.0, -1.0, "beta"),
    ], ids=["nan-alpha", "inf-alpha", "negative-alpha", "nan-beta", "inf-beta", "negative-beta"])
    def test_non_finite_or_out_of_range_precision_rejected(self, alpha, beta, name):
        # NaN fails every comparison, so a sign test alone lets it through to the SVD
        model = random_model((4, 3, 3), (1, 1, 1))
        t = random_tensor((4, 3, 3))
        for call in (lambda: posterior_stats(t, model, 1, alpha=alpha, beta=beta),
                     lambda: self_consistency_check(t, model, alpha=alpha, beta=beta)):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                call()


class TestEstimateBeta:
    def test_unit_residuals(self):
        model = random_model((4, 4, 4), (1, 1, 1), seed=27)
        recon = reconstruct(model).values
        signs = np.where(np.arange(64).reshape(4, 4, 4) % 2 == 0, 1.0, -1.0)
        t = Tensor3(recon + signs)
        assert np.isclose(estimate_beta(t, model), 1.0, rtol=1e-12)

    def test_exact_fit_cap(self):
        model = random_model((4, 4, 4), (2, 2, 2), seed=28)
        t = reconstruct(model)
        assert estimate_beta(t, model) == 1e12

    @pytest.mark.parametrize("scale, size", [(1.0, 1e-10), (1e-150, 1e-160)],
                             ids=["1e-10", "underflowing-square"])
    def test_near_exact_fit_cap(self, tmp_path, scale, size):
        # size / ssq would be 1e20, or inf once the squares underflow: both report the cap
        model = random_model((4, 4, 4), (2, 2, 2), seed=28)
        model = TuckerModel(core=scale * model.core, u1=model.u1, u2=model.u2, u3=model.u3)
        signs = np.where(np.arange(64).reshape(4, 4, 4) % 2 == 0, size, -size)
        beta = estimate_beta(Tensor3(reconstruct(model).values + signs), model)
        assert beta == BETA_CAP
        save_model(model, tmp_path / "model.json", beta=beta)
        assert load_model(tmp_path / "model.json")[1]["beta"] == BETA_CAP

    def test_naive_loop_oracle(self):
        model = random_model((4, 3, 3), (2, 2, 2), seed=29)
        t = random_tensor((4, 3, 3), seed=30)
        recon = reconstruct(model).values
        ssq = 0.0
        for i in range(4):
            for j in range(3):
                for k in range(3):
                    ssq += (t.values[i, j, k] - recon[i, j, k]) ** 2
        assert np.isclose(estimate_beta(t, model), t.values.size / ssq, rtol=1e-12)

    @pytest.mark.parametrize("dims", [(1, 4, 3), (6, 3, 3)], ids=["n-is-1", "m-differs"])
    def test_dims_must_match(self, dims):
        # N = 1 used to broadcast against the 6 x 4 x 3 data and return a beta
        t = random_tensor((6, 4, 3), seed=71)
        model = random_model(dims, (1, 1, 1), seed=72)
        message = f"model dims {dims} do not match tensor dims (6, 4, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_beta(t, model)


def residual_case(kind, dims, scale):
    """(data, model) with the data scaled by `scale`; the model is a least-squares fit or not."""
    ranks = (2, 2, 2)
    t = Tensor3(scale * random_tensor(dims, seed=73).values)
    if kind == "least-squares":
        return t, reference_hosvd(t, ranks)
    model = random_model(dims, ranks, seed=74)  # orthonormal factors, a core unrelated to t
    factors = (model.u1, model.u2, model.u3)
    if kind == "non-orthonormal":
        rng = np.random.default_rng(75)
        factors = tuple(u + 0.3 * rng.normal(size=u.shape) for u in factors)
    return t, TuckerModel(scale * model.core, *factors)


def orthogonal_noise_case(ratio):
    """A model plus noise off its factors' rows in every mode, ||noise||^2 = ratio ||x||^2.

    The model is then the data's own least-squares fit, and a btud fixed point.
    """
    dims = (12, 5, 4)
    model = random_model(dims, (2, 2, 2), seed=76)
    off = [np.eye(u.shape[1]) - u.T @ u for u in (model.u1, model.u2, model.u3)]
    e = np.einsum("il,jm,kn,lmn->ijk", *off, np.random.default_rng(77).normal(size=dims))
    e *= np.sqrt(ratio / (1 - ratio) * np.sum(model.core ** 2)) / np.linalg.norm(e)
    return Tensor3(reconstruct(model).values + e), model


def assert_rel(got, want):
    """got within 1e-12 of want, relative (approx's default abs of 1e-12 would pass a beta of
    1e-121, as for data scaled by 2^200)."""
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.abs(want))


def counted_explicit_residuals(monkeypatch) -> list:
    """A list that gets one entry per call of decomp._explicit_residual from here on."""
    calls, form = [], decomp._explicit_residual
    monkeypatch.setattr(decomp, "_explicit_residual", lambda *a: calls.append(a) or form(*a))
    return calls


class TestResidualFromCore:
    """estimate_beta and btud_fit's residuals against the explicitly reconstructed residual."""

    KINDS = ["least-squares", "arbitrary-core", "non-orthonormal"]
    DIMS = {"tall": (30, 4, 3), "short": (6, 5, 4)}  # N >= M*K and N < M*K
    SCALES = {"2^-200": 2.0 ** -200, "1": 1.0, "2^200": 2.0 ** 200}

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("shape", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_estimate_beta(self, kind, shape, scale):
        t, model = residual_case(kind, self.DIMS[shape], self.SCALES[scale])
        assert_rel(estimate_beta(t, model), reference_residual(t, model)[1])

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("shape", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_btud_fit(self, kind, shape, scale):
        t, init = residual_case(kind, self.DIMS[shape], self.SCALES[scale])
        for sweeps in (1, 2):
            model, beta, report = btud_fit(t, init, alpha=0.0, max_sweeps=sweeps, tol=1e-15)
            assert report.sweeps == sweeps
            want_norm, want_beta = reference_residual(t, model)
            assert_rel(report.residual_history[0], reference_residual(t, init)[0])
            assert_rel(report.residual_history[-1], want_norm)
            assert_rel(beta, want_beta)

    @pytest.mark.parametrize("side", [1.05, 0.95], ids=["above", "below"])
    def test_fallback_cut(self, monkeypatch, side):
        # above the cut the residual comes from the core alone; at or below it the residual is
        # formed explicitly, once per residual
        t, model = orthogonal_noise_case(side * RESIDUAL_CANCELLATION)
        norm, want_beta = reference_residual(t, model)
        assert bool(norm ** 2 > RESIDUAL_CANCELLATION * np.sum(t.values ** 2)) is (side > 1)
        calls = counted_explicit_residuals(monkeypatch)
        assert_rel(estimate_beta(t, model), want_beta)
        fit, beta, report = btud_fit(t, model, alpha=0.0, max_sweeps=1)
        assert report.converged
        assert len(calls) == (0 if side > 1 else 3)
        fit_norm, fit_beta = reference_residual(t, fit)
        assert_rel(report.residual_history, [norm, fit_norm])
        assert_rel(beta, fit_beta)

    def test_overflowing_square_takes_the_explicit_residual(self, monkeypatch):
        # ||x||^2 is inf at entries of 1e160, though the residual's squares are finite
        model = random_model((6, 5, 4), (2, 2, 2), seed=78)
        model = TuckerModel(1e160 * model.core, model.u1, model.u2, model.u3)
        noise = 1e150 * np.random.default_rng(79).normal(size=model.dims)
        t = Tensor3(reconstruct(model).values + noise)
        calls = counted_explicit_residuals(monkeypatch)
        assert estimate_beta(t, model) == reference_residual(t, model)[1] > 0
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residual_raises(self):
        # x 2^520 and a fit of x scaled with it: ||x||^2 overflows, and so do the explicit
        # residual's squares; that is no precision, and in particular not a beta of 0
        x = np.random.default_rng(0).standard_normal((10, 4, 4))
        fit, _ = hooi(Tensor3(x), (2, 2, 2))
        t = Tensor3(x * 2.0 ** 520)
        model = TuckerModel(fit.core * 2.0 ** 520, fit.u1, fit.u2, fit.u3)
        with pytest.raises(FloatingPointError, match="residual overflows"):
            estimate_beta(t, model)
        with pytest.raises(FloatingPointError, match="residual overflows"):
            btud_fit(t, model, alpha=0.0, max_sweeps=1)


@pytest.fixture(scope="module")
def preset_member():
    """Synthetic-block member 1000 fitted by hooi with the preset."""
    cfg = build_config("synthetic-block")
    t, _ = datagen.gen_synthetic_block(datagen.SyntheticBlockParams(seed=1000))
    model, _ = hooi(t, cfg.ranks, max_iter=cfg.max_iter, tol=cfg.tol, factor_tol=cfg.factor_tol)
    return t, model


def traced_peak(call) -> int:
    """The traced peak of call() above what was traced when it started, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTemporaries:
    """The memory each tensor path holds beyond its data (3.2 MB on the preset member)."""

    @pytest.mark.parametrize("call", ["estimate_beta", "btud_fit", "self_consistency_check"])
    def test_peak_below_half_the_data(self, preset_member, call):
        # residuals from the core, contractions on the data's own layout: no tensor-sized copy
        t, model = preset_member
        beta = estimate_beta(t, model)
        run = {"estimate_beta": lambda: estimate_beta(t, model),
               "btud_fit": lambda: btud_fit(t, model, alpha=0.0, max_sweeps=5),
               "self_consistency_check": lambda: self_consistency_check(t, model, 0.0, beta)}
        assert traced_peak(run[call]) < t.values.nbytes / 2

    def test_generation_holds_the_data_once(self, preset_member):
        # the generator's array becomes the tensor without a copy, and the finiteness check
        # takes its min and max with no boolean mask: 3.22 MB on seeds 1000, 1001, 1003 and
        # 1017, against 3.60 MB with the mask (0.4 MB); a copy took the peak to 6.40 MB
        from btucker import cli
        t, _ = preset_member
        peak = traced_peak(lambda: cli.generate_data(build_config("synthetic-block"), 1000))
        assert peak <= t.values.nbytes + 0.5e6

    def test_hooi_peak(self, preset_member):
        # above the data: G and the trust region's R (1.28 MB each), the U1 lift and the
        # trust-region points; 5.24-5.26 MB measured on seeds 1000, 1001, 1003 and 1017,
        # against 6.52-6.54 MB when the trust region also held R's mode-2/3-swapped copy
        t, _ = preset_member
        assert traced_peak(lambda: hooi(t, build_config("synthetic-block").ranks)) < 5.5e6

    def test_explicit_residuals_in_place(self):
        # a near-exact fit forms every residual from the data; the model's einsum leaves its
        # product in another layout, so the model is a second tensor-sized array, and the
        # residual then takes the model's place, where _residual also squares it
        t = planted_tensor((80, 8, 8), (2, 2, 2), noise=1e-9, seed=80)
        model, _ = hooi(t, (2, 2, 2))
        sweeper = decomp._Sweeper(t, (2, 2, 2), DEFAULT_FACTOR_TOL)
        y3 = _contracted(t.values, model.u1, model.u2, None, 3)
        x_sq = linalg._sum_of_squares(t.values)
        bound = 2 * t.values.nbytes + 0.25 * t.values.nbytes  # two arrays, and rank-sized ones
        assert traced_peak(lambda: decomp._residual(t, x_sq, model, y3)) < bound

        def residual():
            return sweeper.residual(model.core, lambda: model.u1, model.u2, model.u3)

        assert traced_peak(residual) < bound
        assert residual() == float(np.linalg.norm((t.values - reconstruct(model).values).ravel()))


class TestBtudFit:
    def test_leaves_the_certificate_to_self_consistency_check(self):
        t = random_tensor((10, 8, 6), seed=31)
        init, _ = hooi(t, (2, 2, 2), max_iter=20000, tol=1e-8, factor_tol=1e-7)
        for alpha in (0.0, 0.5):
            model, beta, report = btud_fit(t, init, alpha=alpha, max_sweeps=1, tol=1e-15)
            assert report.self_consistent is None and report.max_mode_deviation is None
            if alpha == 0.0:
                check = self_consistency_check(t, model, alpha=0.0, beta=beta)
                assert check.self_consistent and check.max_mode_deviation <= SELF_CONSISTENCY_TOL

    def test_converges_immediately_from_hooi(self):
        t = random_tensor((10, 8, 6), seed=31)
        init, _ = hooi(t, (2, 2, 2), max_iter=2000, tol=1e-10, factor_tol=1e-9)
        _, _, report = btud_fit(t, init, alpha=0.0, max_sweeps=10, tol=1e-6)
        assert report.converged
        assert report.sweeps <= 1

    def test_exactly_low_rank_small_residual(self):
        t, _ = separable_tensor((6, 5, 4), seed=32)
        init = reference_hosvd(t, (1, 1, 1))
        model, _, report = btud_fit(t, init, alpha=0.0, max_sweeps=20, tol=1e-8)
        assert report.residual_history[-1] <= 1e-6

    def test_residual_history_non_increasing(self):
        t = random_tensor((8, 6, 5), seed=33)
        init = reference_hosvd(t, (3, 2, 2))
        _, _, report = btud_fit(t, init, alpha=0.0, max_sweeps=5, tol=1e-10)
        assert np.all(np.diff(report.residual_history) <= 1e-7)

    def test_factor_orthonormality_after_fit(self):
        t = random_tensor((8, 6, 5), seed=34)
        init = reference_hosvd(t, (2, 2, 2))
        model, _, _ = btud_fit(t, init, alpha=0.0, max_sweeps=3, tol=1e-10)
        for u in (model.u1, model.u2, model.u3):
            assert np.max(np.abs(u @ u.T - np.eye(u.shape[0]))) < 1e-8

    def test_ridge_branch_shrinks_low_signal_rows(self):
        # alpha >> data scale: coefficient rows shrink before normalization;
        # property check is that the fit still runs and stays orthonormal
        t = random_tensor((6, 5, 4), seed=35)
        init = reference_hosvd(t, (2, 2, 2))
        model, _, _ = btud_fit(t, init, alpha=10.0, max_sweeps=2, tol=1e-10)
        for u in (model.u1, model.u2, model.u3):
            assert np.max(np.abs(u @ u.T - np.eye(u.shape[0]))) < 1e-8

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        t = random_tensor((4, 4, 4), seed=36)
        with pytest.raises(ValueError, match="^alpha must be finite and >= 0"):
            btud_fit(t, reference_hosvd(t, (2, 2, 2)), alpha=alpha)

    def test_degenerate_component_error(self):
        # all-zero tensor: the first regression returns a zero row
        t = Tensor3(np.zeros((4, 4, 4)))
        init = random_model((4, 4, 4), (2, 2, 2), seed=36)
        with pytest.raises(DegenerateComponentError):
            btud_fit(t, init, alpha=0.0, max_sweeps=1, tol=1e-8)


class TestSelfConsistency:
    def test_converged_hooi_is_consistent(self):
        t = random_tensor((12, 9, 7), seed=37)
        model, _ = hooi(t, (3, 2, 2), max_iter=3000, tol=1e-12, factor_tol=1e-9)
        beta = estimate_beta(t, model)
        check = self_consistency_check(t, model, alpha=0.0, beta=beta, tol=1e-6)
        assert check.self_consistent

    def test_perturbed_model_fails(self):
        t = random_tensor((12, 9, 7), seed=38)
        model, _ = hooi(t, (3, 2, 2), max_iter=2000, tol=1e-10, factor_tol=1e-9)
        u1 = model.u1.copy()
        rng = np.random.default_rng(39)
        u1 += 0.1 * rng.normal(size=u1.shape)
        for row in range(u1.shape[0]):
            u1 = linalg.orthonormalize_rows(u1, row)
        perturbed = TuckerModel(core=model.core, u1=u1, u2=model.u2, u3=model.u3)
        beta = estimate_beta(t, perturbed)
        check = self_consistency_check(t, perturbed, alpha=0.0, beta=beta, tol=1e-6)
        assert not check.self_consistent

    def test_perturbed_core_entry_fails(self):
        # factors untouched, so the least-squares core is unchanged: the deviation is the change
        t = random_tensor((12, 9, 7), seed=38)
        model, _ = hooi(t, (3, 2, 2))
        core = model.core.copy()
        core[1, 0, 1] += 1e-4
        perturbed = TuckerModel(core=core, u1=model.u1, u2=model.u2, u3=model.u3)
        check = self_consistency_check(t, perturbed, alpha=0.0, beta=estimate_beta(t, model))
        assert not check.self_consistent
        assert abs(check.core_deviation - 1e-4) <= 1e-12

    @pytest.mark.parametrize("orthonormal, reads", [(True, 3), (False, 4)])
    def test_reads_the_data_once_per_mode(self, monkeypatch, orthonormal, reads):
        # the core solve reuses mode 3's Y(3) where every factor is its own map; a factor that
        # is not orthonormal enters as pinv(u)^T, which takes a fourth pass over the data
        t = random_tensor((12, 9, 7), seed=38)
        model = reference_hosvd(t, (3, 2, 2))
        if not orthonormal:
            model = TuckerModel(core=model.core, u1=1.1 * model.u1, u2=model.u2, u3=model.u3)
        passes = []

        def contracted(x, *args, **kwargs):
            passes.append(x is t.values)
            return _contracted(x, *args, **kwargs)

        monkeypatch.setattr(decomp, "_contracted", contracted)
        check = self_consistency_check(t, model, alpha=0.0, beta=1.0)
        assert passes.count(True) == reads
        core = _least_squares_core(t.values, (model.u1, model.u2, model.u3))
        assert check.core_deviation == float(np.max(np.abs(model.core - core)))

    def test_exact_separable_model(self):
        t, (a, b, c) = separable_tensor((6, 5, 4), seed=40)
        model = TuckerModel(
            core=np.array([[[3.0]]]), u1=a[None, :], u2=b[None, :], u3=c[None, :]
        )
        check = self_consistency_check(t, model, alpha=0.0, beta=1.0, tol=1e-6)
        assert check.self_consistent
        assert check.max_mode_deviation <= 1e-10
        assert check.core_deviation <= 1e-10


class TestModelSerialization:
    def test_round_trip_exact(self, tmp_path):
        t = random_tensor((6, 5, 4), seed=41)
        model, report = hooi(t, (2, 2, 2))
        path = tmp_path / "model.json"
        save_model(model, path, beta=3.5, alpha=0.0, report=report)
        back, meta = load_model(path)
        assert np.array_equal(back.core, model.core)
        assert np.array_equal(back.u1, model.u1)
        assert np.array_equal(back.u2, model.u2)
        assert np.array_equal(back.u3, model.u3)
        assert meta["beta"] == 3.5
        assert meta["fit_report"]["sweeps"] == report.sweeps

    def test_unchecked_report_is_strict_json(self, tmp_path):
        t = random_tensor((6, 5, 4), seed=50)
        model, report = hooi(t, (2, 2, 2))
        assert report.self_consistent is None and report.max_mode_deviation is None
        path = tmp_path / "model.json"
        save_model(model, path, beta=1.0, alpha=0.0, report=report)
        doc = json.loads(path.read_text(), parse_constant=reject_constant)
        fit = doc["fit_report"]
        assert fit["self_consistent"] is None and fit["max_mode_deviation"] is None
        assert fit["stop_reason"] == report.stop_reason
        _, _, refit = btud_fit(t, model, max_sweeps=3)
        for fitted in (report, refit):
            save_model(model, path, report=fitted)
            fit = json.loads(path.read_text(), parse_constant=reject_constant)["fit_report"]
            assert fit["final_factor_change"] == fitted.final_factor_change
            assert isinstance(fit["final_factor_change"], float)
        assert report.final_factor_change < DEFAULT_FACTOR_TOL
        # no factor change is measured before the residual criterion holds
        _, unmeasured = hooi(t, (2, 2, 2), max_iter=1)
        save_model(model, path, report=unmeasured)
        fit = json.loads(path.read_text(), parse_constant=reject_constant)["fit_report"]
        assert unmeasured.final_factor_change is None and fit["final_factor_change"] is None
        assert fit["newton_steps"] == 0 and fit["final_gradient_norm"] is None
        unfinite = FitReport(sweeps=0, residual_history=np.array([np.nan]),
                             converged=False, stop_reason="max_iter")
        with pytest.raises(ValueError):
            save_model(model, path, report=unfinite)

    def test_json_is_plain_document(self, tmp_path):
        model = random_model((4, 3, 3), (1, 1, 1), seed=42)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.load(open(path))
        assert doc["ranks"] == [1, 1, 1]
        assert len(doc["core"]) == 1
