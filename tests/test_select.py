import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainccinv

from btucker import linalg
from btucker.decomp import TuckerModel
from btucker.errors import DegenerateVarianceError, FileFormatError, SigmaOptimizationError
from btucker.select import (
    _SIGMA_BAND,
    DEFAULT_BINS,
    DEFAULT_EXCLUSION_THRESHOLD,
    _sigma_grid,
    _sigma_objectives,
    bh_adjust,
    btud_statistic,
    chi2_sf,
    optimize_sigma,
    rank_components_by_core,
    read_selection_csv,
    select_features,
    standardize_columns,
    svd_select,
    td_pvalues,
    td_statistic,
    write_selection_csv,
)
from btucker.tensor import Tensor3
from oracles import reference_matrix_posterior, reference_residual, reference_sigma_objectives


def bh_oracle(p):
    """Exhaustive step-up oracle: q_(i) = min_{j>=i} m*p_(j)/j, clipped."""
    m = len(p)
    order = np.argsort(p, kind="stable")
    out = np.empty(m)
    for pos, idx in enumerate(order):
        candidates = [m * p[order[j]] / (j + 1) for j in range(pos, m)]
        out[idx] = min(1.0, min(candidates))
    return out


class TestChi2Sf:
    def test_zero_statistic(self):
        for dof in (1, 2, 5):
            assert chi2_sf(0.0, dof) == 1.0

    def test_dof2_closed_form(self):
        xs = np.linspace(0.0, 40.0, 100)
        assert np.max(np.abs(chi2_sf(xs, 2) - np.exp(-xs / 2))) < 1e-12

    def test_dof2_half_point(self):
        assert abs(chi2_sf(2 * np.log(2.0), 2) - 0.5) < 1e-12

    def test_dof1_against_quadrature(self):
        # chi^2_1 density integrated numerically: f(t) = exp(-t/2)/sqrt(2*pi*t)
        def density(t):
            return np.exp(-t / 2.0) / np.sqrt(2.0 * np.pi * t)

        for x in (0.5, 1.0, 4.0, 9.0):
            integral, _ = quad(density, x, np.inf)
            assert abs(chi2_sf(x, 1) - integral) < 1e-10

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 20.0, 50)
        vals = chi2_sf(xs, 3)
        assert np.all(np.diff(vals) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestBhAdjust:
    def test_single_value(self):
        assert bh_adjust([0.03])[0] == pytest.approx(0.03)

    def test_hand_case(self):
        out = bh_adjust([0.01, 0.02, 0.03, 0.04])
        assert np.allclose(out, [0.04, 0.04, 0.04, 0.04], atol=1e-15)

    def test_all_ones(self):
        assert np.array_equal(bh_adjust([1.0, 1.0]), [1.0, 1.0])

    def test_against_oracle_exact(self):
        rng = np.random.default_rng(50)
        for trial in range(1000):
            n = rng.integers(1, 12)
            p = rng.random(n)
            got = bh_adjust(p)
            want = bh_oracle(p)
            assert np.array_equal(got, want), f"trial {trial}"

    def test_monotone_in_sorted_order(self):
        rng = np.random.default_rng(51)
        p = rng.random(200)
        adj = bh_adjust(p)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(adj[order]) >= 0)
        assert np.all(adj >= p)

    def test_validation(self):
        with pytest.raises(ValueError):
            bh_adjust([0.5, 1.5])
        with pytest.raises(ValueError):
            bh_adjust([-0.1])


class TestBtudPvalues:
    def test_zero_mean_gives_one(self):
        means = np.zeros((2, 4))
        cov = np.eye(2)
        p = chi2_sf(btud_statistic(means, cov, [1, 2]), 2)
        assert np.allclose(p, 1.0)

    def test_single_component_closed_form(self):
        means = np.array([[2.0]])
        cov = np.array([[1.0]])
        p = chi2_sf(btud_statistic(means, cov, [1]), 1)
        assert abs(p[0] - chi2_sf(4.0, 1)) < 1e-14
        assert abs(p[0] - 0.0455) < 5e-4

    def test_two_components_closed_form(self):
        means = np.array([[1.0], [1.0]])
        cov = np.eye(2)
        p = chi2_sf(btud_statistic(means, cov, [1, 2]), 2)
        assert abs(p[0] - np.exp(-1.0)) < 1e-12

    def test_degenerate_variance(self):
        means = np.ones((2, 3))
        cov = np.diag([1.0, 0.0])
        with pytest.raises(DegenerateVarianceError) as err:
            btud_statistic(means, cov, [1, 2])
        assert err.value.component == 2

    def test_calibrated_widens_variance(self):
        rng = np.random.default_rng(52)
        means = rng.normal(size=(1, 500))
        means[0, :5] += 20.0  # outliers widen the observed spread
        cov = np.array([[1.0]])
        plain = btud_statistic(means, cov, [1])
        calib = btud_statistic(means, cov, [1], calibrate=True)
        assert np.all(calib <= plain + 1e-12)

    def test_calibrated_matches_plain_under_null(self):
        # pure-noise spread below the posterior variance leaves the statistic alone
        rng = np.random.default_rng(53)
        means = 0.1 * rng.normal(size=(1, 300))
        cov = np.array([[1.0]])
        assert np.array_equal(
            btud_statistic(means, cov, [1]),
            btud_statistic(means, cov, [1], calibrate=True),
        )

    def test_component_validation(self):
        with pytest.raises(ValueError):
            btud_statistic(np.ones((2, 3)), np.eye(2), [])
        with pytest.raises(ValueError):
            btud_statistic(np.ones((2, 3)), np.eye(2), [3])


class TestTdPvalues:
    def test_zero_row(self):
        u = np.zeros((1, 5))
        assert np.allclose(td_pvalues(u, 1.0, [1]), 1.0)

    def test_single_component_closed_form(self):
        u = np.array([[3.0]])
        p = td_pvalues(u, 1.0, [1])
        assert abs(p[0] - chi2_sf(9.0, 1)) < 1e-14
        assert abs(p[0] - 0.0027) < 1e-4

    def test_sigma_scaling_identity(self):
        rng = np.random.default_rng(54)
        u = rng.normal(size=(2, 10))
        s1 = td_statistic(u, 1.0, [1, 2])
        s2 = td_statistic(u, 2.0, [1, 2])
        assert np.allclose(s2, s1 / 4.0, rtol=1e-14)

    def test_ranking_invariant_under_common_scale(self):
        rng = np.random.default_rng(55)
        u = rng.normal(size=(2, 50))
        s1 = td_statistic(u, 0.7, [1, 2])
        s2 = td_statistic(u, 2.9, [1, 2])
        assert np.array_equal(np.argsort(s1), np.argsort(s2))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            td_pvalues(np.ones((1, 3)), 0.0, [1])


class TestOptimizeSigma:
    def test_standard_normal_calibration(self):
        rng = np.random.default_rng(56)
        u = rng.normal(size=(2, 20000))
        fit = optimize_sigma(u, [1, 2])
        # within one grid step of 1.0 (grid ratio (25)**(1/100))
        step = 25.0 ** (1.0 / 100.0)
        assert 1.0 / step**1.5 <= fit.sigma <= step**1.5
        n_prime = u.shape[1]
        assert fit.sigma_h <= 2.0 * np.sqrt(n_prime / DEFAULT_BINS)

    def test_constant_input_fails(self):
        u = np.ones((1, 100))
        with pytest.raises(SigmaOptimizationError):
            optimize_sigma(u, [1])

    def test_every_candidate_excluding_all_fails(self):
        # loadings far from zero against their spread: BH excludes every row at every candidate
        u = 1000.0 + np.random.default_rng(62).normal(size=(1, 300))
        assert np.all(np.isinf(reference_sigma_objectives(u, [1], _sigma_grid(u, np.array([1])))))
        with pytest.raises(SigmaOptimizationError, match="excluded all features"):
            optimize_sigma(u, [1])

    @pytest.mark.parametrize("components", [(1,), (1, 2)])
    @pytest.mark.parametrize("spiked", [False, True])
    def test_objectives_match_the_plain_loop(self, components, spiked):
        rng = np.random.default_rng(63 + len(components) + 2 * spiked)
        u = rng.normal(size=(3, 2000))
        if spiked:
            u[:, :200] *= 4.0  # a signal in 10% of the rows
        comps = np.array(components)
        grid = _sigma_grid(u, comps)
        expected = reference_sigma_objectives(u, comps, grid)
        assert np.array_equal(_sigma_objectives(u, comps, grid), expected)
        fit = optimize_sigma(u, components)
        assert fit.sigma == grid[np.argmin(expected)]
        assert fit.sigma_h == np.min(expected)

    @pytest.mark.parametrize("dof", [1, 2])
    def test_rows_on_the_bin_edges(self, dof):
        # one row exactly on each edge of 1 - P at candidate 50: inside the band, binned by P
        rng = np.random.default_rng(64)
        u = rng.normal(size=(dof, 1000))
        comps = np.arange(1, dof + 1)
        grid = _sigma_grid(u, comps)
        edges = np.linspace(0.0, 1.0, DEFAULT_BINS + 1)[1:-1]
        levels = 2.0 * gammainccinv(dof / 2.0, 1.0 - edges)
        u[:, : edges.size] = grid[50] * np.sqrt(levels / dof)
        stat = td_statistic(u[:, : edges.size], grid[50], comps)
        assert np.all(np.abs(stat / levels - 1.0) < _SIGMA_BAND / 2)
        x = 1.0 - chi2_sf(stat, dof)
        assert np.any(x < edges) and np.any(x >= edges)  # both sides of an edge occur
        assert np.array_equal(_sigma_objectives(u, comps, grid),
                              reference_sigma_objectives(u, comps, grid))

    @pytest.mark.parametrize("dof", [1, 2])
    def test_row_on_a_bh_cut(self, dof):
        # at candidate 50 rows 1..6 lie well past their cuts and row 7 exactly on its own,
        # so whether BH excludes 6 or 7 rows is decided inside the band
        rng = np.random.default_rng(65)
        m, j = 400, 7
        comps = np.arange(1, dof + 1)
        grid = _sigma_grid(rng.normal(size=(dof, m)), comps)
        u = 0.01 * rng.normal(size=(dof, m))
        cuts = 2.0 * gammainccinv(dof / 2.0, DEFAULT_EXCLUSION_THRESHOLD * np.arange(1, j + 1) / m)
        u[:, :j] = grid[50] * np.sqrt(cuts * np.array([3.0] * (j - 1) + [1.0]) / dof)
        stat = td_statistic(u[:, j - 1 : j], grid[50], comps)[0]
        assert abs(stat / cuts[-1] - 1.0) < _SIGMA_BAND / 2
        assert np.array_equal(_sigma_objectives(u, comps, grid),
                              reference_sigma_objectives(u, comps, grid))

    def test_candidate_excluding_every_feature(self):
        # loadings around 6 with unit spread: the small candidates exclude every row
        u = 6.0 + np.random.default_rng(66).normal(size=(1, 500))
        grid = _sigma_grid(u, np.array([1]))
        expected = reference_sigma_objectives(u, [1], grid)
        assert np.isinf(expected[0]) and np.isfinite(expected[-1])
        assert np.array_equal(_sigma_objectives(u, np.array([1]), grid), expected)
        assert optimize_sigma(u, [1]).sigma == grid[np.argmin(expected)]

    @pytest.mark.parametrize("dof", [1, 2, 3, 4])
    def test_band_covers_the_quantile_rounding(self, dof):
        # half the band from each threshold, P is already on the threshold's far side:
        # the other half covers the rounding of s / sigma^2 against (u / sigma)^2
        inner, outer = 1.0 - _SIGMA_BAND / 2, 1.0 + _SIGMA_BAND / 2
        edges = np.linspace(0.0, 1.0, DEFAULT_BINS + 1)[1:-1]
        levels = 2.0 * gammainccinv(dof / 2.0, 1.0 - edges)
        assert np.all(1.0 - chi2_sf(levels * inner, dof) < edges)
        assert np.all(1.0 - chi2_sf(levels * outer, dof) >= edges)
        for m in (1, 37, 20000):
            rank = np.arange(1, m + 1)
            cuts = 2.0 * gammainccinv(dof / 2.0, DEFAULT_EXCLUSION_THRESHOLD * rank / m)
            assert np.all(chi2_sf(cuts * inner, dof) * m / rank > DEFAULT_EXCLUSION_THRESHOLD)
            assert np.all(chi2_sf(cuts * outer, dof) * m / rank <= DEFAULT_EXCLUSION_THRESHOLD)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(57)
        u = rng.normal(size=(1, 5000))
        f1 = optimize_sigma(u, [1])
        f2 = optimize_sigma(3.0 * u, [1])
        # optimal sigma scales with the data, up to one grid step
        ratio = f2.sigma / f1.sigma
        step = 25.0 ** (1.0 / 100.0)
        assert 3.0 / step**1.01 <= ratio <= 3.0 * step**1.01


class TestRankComponents:
    def test_single_nonzero(self):
        core = np.zeros((3, 2, 2))
        core[1, 0, 0] = 5.0
        ranked = rank_components_by_core(core, {2: 1, 3: 1})
        assert ranked[0] == (2, 5.0)
        assert [c for c, _ in ranked] == [2, 1, 3]

    def test_tie_break_by_smaller_index(self):
        core = np.ones((3, 2, 2))
        ranked = rank_components_by_core(core, {2: 1})
        assert [c for c, _ in ranked] == [1, 2, 3]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(59)
        core = rng.normal(size=(4, 3, 2))
        fixed = {2: [1, 3], 3: 2}
        ranked = rank_components_by_core(core, fixed)
        weights = {}
        for a in range(4):
            weights[a + 1] = max(abs(core[a, b - 1, 1]) for b in (1, 3))
        expected = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [(c, pytest.approx(w)) for c, w in expected] == ranked

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rank_components_by_core(np.ones((2, 2, 2)), {2: 5})
        with pytest.raises(ValueError):
            rank_components_by_core(np.ones((2, 2, 2)), {1: 1})


class TestSelectFeatures:
    def test_nothing_selected_at_p_one(self):
        res = select_features(np.ones(5), 0.05)
        assert res.n_selected == 0

    def test_step_up_by_hand(self):
        res = select_features(np.array([1e-6, 0.5, 0.9]), 0.05)
        assert abs(res.p_adjusted[0] - 3e-6) < 1e-18
        assert list(res.selected) == [True, False, False]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(60)
        p = rng.random(100) ** 3
        strict = select_features(p, 0.01).selected
        loose = select_features(p, 0.05).selected
        assert np.all(loose[strict])  # strict selection is a subset

    def test_selected_derivable_from_fields(self):
        rng = np.random.default_rng(61)
        res = select_features(rng.random(50), 0.2)
        assert np.array_equal(res.selected, res.p_adjusted <= res.threshold)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            select_features(np.array([0.5]), 0.0)


class TestSvdSelect:
    def test_planted_constant_row(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(200, 30))
        x[7] = 40.0
        res = svd_select(x, [1], mode="btud", threshold=0.05)[0]
        assert res.selected[7]
        assert res.n_selected <= 3

    def test_td_mode_on_planted_row(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(400, 40))
        x[3] = 25.0
        res = svd_select(x, [1], mode="td", threshold=0.05)[0]
        assert res.selected[3]

    def test_td_mode_ignores_common_row_level(self):
        # every row shares a level of 2; only rows 0-4 carry a sample pattern.
        # On the raw matrix the leading loadings are that level, far from the
        # zero-mean null, and all 300 rows would be selected.
        rng = np.random.default_rng(67)
        x = rng.normal(size=(300, 40)) + 2.0
        x[:5] += 3.0 * np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        res = svd_select(x, [1], mode="td", threshold=0.05)[0]
        assert res.selected[:5].all()
        assert res.n_selected <= 15

    @pytest.mark.parametrize("components, found", [((1, 2), 20), ((2,), 10)], ids=["1-2", "2"])
    def test_btud_mode_matches_the_explicit_design(self, components, found):
        # (2,): component 1 is in the rank-2 model but not scored
        rng = np.random.default_rng(70)
        x = rng.normal(size=(300, 40))
        x[:20] += 2.0 * np.sin(np.arange(40) * 2.0 * np.pi / 3.0 + rng.uniform(0, 2 * np.pi, (20, 1)))
        res = svd_select(x, components, mode="btud")[0]
        means, cov = reference_matrix_posterior(x, max(components))
        want = btud_statistic(means, cov, components, calibrate=True)
        assert res.selected[:20].sum() == found
        assert np.max(np.abs(res.statistic - want) / want) < 1e-12

    @pytest.mark.parametrize("noise", [1.0, 1e-9], ids=["noisy", "near-exact"])
    def test_btud_beta_from_the_spectrum_tail(self, monkeypatch, noise):
        # beta from the squared singular values the rank-2 model leaves out, against the
        # explicit residual of that model as the N x 1 x M tensor; near-exact, the tail has
        # no cancellation, and both reach BETA_CAP
        rng = np.random.default_rng(75)
        x = rng.normal(size=(300, 2)) @ rng.normal(size=(2, 40))
        x += noise * rng.normal(size=(300, 40))
        betas, rule = [], linalg.noise_precision
        monkeypatch.setattr(linalg, "noise_precision",
                            lambda *a: betas.append(rule(*a)) or betas[-1])
        svd = svd_select(x, [1, 2], mode="btud")[1]
        model = TuckerModel(np.diag(svd.s[:2])[:, None, :], svd.U[:, :2].T, np.ones((1, 1)),
                            svd.V[:, :2].T)
        want = reference_residual(Tensor3(x[:, None, :]), model)[1]
        assert len(betas) == 1 and abs(betas[0] - want) <= 1e-12 * want
        assert (want == linalg.BETA_CAP) is (noise < 1)

    @pytest.mark.parametrize("mode", ["btud", "td"])
    def test_rank_deficient_component_raises(self, mode):
        rng = np.random.default_rng(71)
        x = np.outer(rng.normal(size=200), rng.normal(size=30))  # rank 1
        with pytest.raises(DegenerateVarianceError) as err:
            svd_select(x, [1, 2], mode=mode)
        assert err.value.component == 2
        assert svd_select(x, [1], mode=mode)[0].p_raw.shape == (200,)

    def test_td_mode_takes_one_svd(self, monkeypatch):
        calls = []
        real_svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
        x = np.random.default_rng(69).normal(size=(80, 12))
        svd_select(x, [1], mode="td")
        assert len(calls) == 1

    def test_standardize_columns(self):
        rng = np.random.default_rng(68)
        x = rng.normal(size=(50, 6)) * 3.0 + 2.0
        x[:, 4] = 7.0  # zero-variance columns: only centred
        x[:, 5] = 0.1  # its float mean is not exactly 0.1
        z = standardize_columns(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(np.sum(z[:, :4] ** 2, axis=0), 50.0, rtol=1e-12)
        assert np.array_equal(z[:, 4], np.zeros(50))
        assert np.max(np.abs(z[:, 5])) < 1e-15

    def test_pure_noise_fdr(self):
        # expected false-selection count stays below threshold * N over ensembles
        rng = np.random.default_rng(64)
        counts = []
        for _ in range(20):
            x = rng.normal(size=(150, 25))
            res = svd_select(x, [1], mode="btud", threshold=0.05)[0]
            counts.append(res.n_selected)
        assert np.mean(counts) <= 0.05 * 150

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            svd_select(np.zeros((4, 4)), [1], mode="magic")


class TestNullFdrProperty:
    def test_null_selection_fraction_bounded(self):
        # i.i.d. Gaussian rows: selected fraction stays below q + 3 binomial SDs
        rng = np.random.default_rng(65)
        q = 0.05
        n = 120
        fractions = []
        for _ in range(100, 0, -1):
            u = rng.normal(size=(1, n))
            sigma = u.std(ddof=1)
            res = select_features(td_pvalues(u, sigma, [1]), q)
            fractions.append(res.n_selected / n)
        bound = q + 3 * np.sqrt(q * (1 - q) / n)
        assert np.mean(fractions) <= bound


class TestSelectionCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(66)
        stat = rng.random(10) * 5
        p = chi2_sf(stat, 1)
        res = select_features(p, 0.2, statistic=stat, dof=1)
        path = tmp_path / "sel.csv"
        write_selection_csv(res, path)
        back = read_selection_csv(path)
        assert np.array_equal(back.selected, res.selected)
        assert np.array_equal(back.p_raw, res.p_raw)
        assert np.array_equal(back.p_adjusted, res.p_adjusted)
        assert np.array_equal(back.statistic, res.statistic)

    @pytest.mark.parametrize("flag", ["2", "-1", " 1", "1.0", "true", ""])
    def test_flag_other_than_0_or_1_raises(self, tmp_path, flag):
        path = tmp_path / "sel.csv"
        path.write_text("feature_index,statistic,p_raw,p_adjusted,selected\r\n"
                        f"1,0.5,0.5,0.5,{flag}\r\n", newline="")
        with pytest.raises(FileFormatError, match="unparsable selection CSV"):
            read_selection_csv(path)

    def test_header(self, tmp_path):
        res = select_features(np.array([0.5]), 0.05)
        path = tmp_path / "sel.csv"
        write_selection_csv(res, path)
        header = open(path).readline().strip()
        assert header == "feature_index,statistic,p_raw,p_adjusted,selected"
