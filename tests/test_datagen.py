import hashlib
import json
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from btucker.cli import main
from btucker.datagen import (
    GcmParams,
    SinusoidParams,
    SyntheticBlockParams,
    _PURPOSE_GCM_COUPLING_ROW,
    _PURPOSE_GCM_INITIAL,
    _PURPOSE_SIN_ROW,
    _coupling_matrix,
    _substream,
    gen_sinusoid,
    gen_synthetic_block,
    read_truth_csv,
    simulate_rcs_gcm,
    write_truth_csv,
)
from btucker.errors import DivergenceError, FileFormatError
from oracles import reference_coupling_matrix


class TestSyntheticBlock:
    def test_determinism_bitwise(self):
        p = SyntheticBlockParams(N=50, M=6, K=6, N1=5, mu=1.0, seed=77)
        t1, m1 = gen_synthetic_block(p)
        t2, m2 = gen_synthetic_block(p)
        assert np.array_equal(t1.values, t2.values)
        assert np.array_equal(m1, m2)

    def test_different_seeds_differ(self):
        t1, _ = gen_synthetic_block(SyntheticBlockParams(N=20, M=4, K=4, N1=2, seed=1))
        t2, _ = gen_synthetic_block(SyntheticBlockParams(N=20, M=4, K=4, N1=2, seed=2))
        assert not np.array_equal(t1.values, t2.values)

    def test_null_case_mu_zero(self):
        p = SyntheticBlockParams(N=200, M=10, K=10, N1=20, mu=0.0, seed=5)
        t, mask = gen_synthetic_block(p)
        block = t.values[:20, :5, :5]
        rest = t.values[20:]
        se = np.sqrt(1.0 / block.size + 1.0 / rest.size)
        assert abs(block.mean() - rest.mean()) < 4 * se

    def test_block_mean_clt_bound(self):
        p = SyntheticBlockParams(seed=6)  # benchmark defaults
        t, mask = gen_synthetic_block(p)
        block = t.values[: p.N1, : p.M // 2, : p.K // 2]
        assert abs(block.mean() - p.mu) < 4.0 / np.sqrt(block.size)
        assert mask.sum() == p.N1

    def test_background_moments(self):
        p = SyntheticBlockParams(seed=7)
        t, _ = gen_synthetic_block(p)
        rest = t.values[p.N1 :]
        assert abs(rest.mean()) < 4.0 / np.sqrt(rest.size)
        assert abs(rest.var() - 1.0) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticBlockParams(N=5, N1=10)
        with pytest.raises(ValueError):
            SyntheticBlockParams(M=7)


class TestSinusoid:
    def test_planted_rows_bounded_by_one(self):
        p = SinusoidParams(N=50, M=30, N1=10, seed=8)
        x, mask = gen_sinusoid(p)
        assert np.all(np.abs(x[:10]) <= 1.0 + 1e-15)
        assert mask.sum() == 10

    def test_planted_row_formula_naive_loop(self):
        p = SinusoidParams(N=5, M=12, N1=3, seed=9)
        x, _ = gen_sinusoid(p)
        for i in range(3):
            eps = ndtri(_substream(9, _PURPOSE_SIN_ROW, i).random(1) + 2.0**-54)[0]
            expected = [np.sin(2 * np.pi * j / 3.0 + eps) for j in range(1, 13)]
            assert np.allclose(x[i], expected, atol=0)

    def test_planted_block_numerical_rank_two(self):
        p = SinusoidParams(N=300, M=60, N1=120, seed=10)
        x, _ = gen_sinusoid(p)
        s = np.linalg.svd(x[:120], compute_uv=False)
        assert s[2] < 1e-8 * s[0]

    def test_determinism(self):
        p = SinusoidParams(N=40, M=20, N1=10, seed=11)
        x1, _ = gen_sinusoid(p)
        x2, _ = gen_sinusoid(p)
        assert np.array_equal(x1, x2)

    def test_period_validation(self):
        with pytest.raises(ValueError):
            SinusoidParams(period=0.0)


class TestRcsGcm:
    def test_randomized_coupling_matches_double_loop(self):
        # x_i <- g_ii f_i + (1/N) sum_i' g_ii' f_i', g = (1 - c) delta + c eps, one shared a
        n, steps, a, c, seed = 16, 25, 1.75, 0.1, 18  # smaller N escapes to infinity
        out = simulate_rcs_gcm(GcmParams(N=n, steps=steps, a=a, c=c, seed=seed))
        eps = [_substream(seed, _PURPOSE_GCM_COUPLING_ROW, i).random(n) for i in range(n)]
        g = [[(1.0 - c) * (i == k) + c * eps[i][k] for k in range(n)] for i in range(n)]
        x = list(_substream(seed, _PURPOSE_GCM_INITIAL).random(n))
        for j in range(steps):
            f = [1.0 - a * x[i] * x[i] for i in range(n)]
            expected = []
            for i in range(n):
                coupled = 0.0
                for k in range(n):
                    coupled += g[i][k] * f[k]
                expected.append(g[i][i] * f[i] + coupled / n)
            assert np.allclose(out[:, j], expected, rtol=0, atol=1e-13)
            x = list(out[:, j])  # one step at a time: chaos would amplify rounding

    def test_bounded_at_defaults_small(self):
        p = GcmParams(N=500, steps=100, seed=13)
        out = simulate_rcs_gcm(p)
        assert np.max(np.abs(out)) < 2.0

    def test_determinism(self):
        p = GcmParams(N=50, steps=10, seed=14)
        assert np.array_equal(simulate_rcs_gcm(p), simulate_rcs_gcm(p))

    def test_shape_columns_are_time(self):
        p = GcmParams(N=30, steps=7, seed=15)
        assert simulate_rcs_gcm(p).shape == (30, 7)

    def test_divergence_error(self):
        # row weights sum to about 1 + c (eps_ii - 1/2) + (1 - c)/N, so a small system escapes
        p = GcmParams(N=8, steps=25, a=1.75, c=0.1, seed=18)
        with pytest.raises(DivergenceError):
            simulate_rcs_gcm(p)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_threaded_fill_equals_the_serial_rows(self, threads):
        # 301 rows do not split evenly over 2, 3 or 4 threads; a short switch interval
        # interleaves the threads' re-keying as often as it can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eps = _coupling_matrix(301, 19, threads)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(eps, reference_coupling_matrix(301, 19))

    def test_coupling_rows_regenerable(self):
        # per-row substreams: the same row key always yields the same entries
        row5a = _substream(17, _PURPOSE_GCM_COUPLING_ROW, 5).random(100)
        row5b = _substream(17, _PURPOSE_GCM_COUPLING_ROW, 5).random(100)
        row6 = _substream(17, _PURPOSE_GCM_COUPLING_ROW, 6).random(100)
        assert np.array_equal(row5a, row5b)
        assert not np.array_equal(row5a, row6)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            gen_synthetic_block(SyntheticBlockParams(N=4, M=2, K=2, N1=1, seed=seed))

    def test_largest_seed_generates(self):
        t, _ = gen_synthetic_block(SyntheticBlockParams(N=4, M=2, K=2, N1=1, seed=2**64 - 1))
        assert np.all(np.isfinite(t.values))


class TestRowStreams:
    def test_rekeyed_generator_draws_as_a_new_one(self):
        used = _substream(3, _PURPOSE_SIN_ROW, 0)
        used.random(5)
        rekeyed = _substream(17, _PURPOSE_GCM_COUPLING_ROW, 5, used)
        assert rekeyed is used
        assert np.array_equal(rekeyed.random(100),
                              _substream(17, _PURPOSE_GCM_COUPLING_ROW, 5).random(100))


# SHA-256 of the files `generate` writes for small configs, recorded before the generators
# re-keyed one Philox per call instead of building one per row: same keys, same bytes
PINNED_FILES = {
    "synthetic-block": ({"N": 40, "M": 6, "K": 4, "N1": 5, "mu": 2.0}, 7, {
        "data.txt": "741300e51adc989e3aa9ac856827aea58657822a8681ea02e40d35f2e66996cb",
        "truth.csv": "149e6b7feb1c7e843592d5f226ac588e93905f484027b3876dbf3f9e3fa07b5b"}),
    "sinusoid": ({"N": 60, "M": 12, "N1": 10}, 8, {
        "data.txt": "d72c13411c6ee3ec24a6129026c538219bcbfe05e02e328dbb6c2fe8403bb42c",
        "truth.csv": "eb3d38067ed60d05a47d26c9de4c6b300786ca13f212825419a9b06072cc48ee"}),
    "rcs-gcm": ({"N": 50, "steps": 20}, 9, {
        "data.txt": "0a0ea4ab62560f989bc8477904fb09ec35867927190ed4b8a12df8453c8ab75c"}),
}


class TestPinnedChecksums:
    @pytest.mark.parametrize("experiment", sorted(PINNED_FILES))
    def test_generated_files(self, tmp_path, experiment):
        generator, seed, digests = PINNED_FILES[experiment]
        config, out = tmp_path / "cfg.json", tmp_path / "run"
        config.write_text(json.dumps({"generator": generator}))
        assert main(["generate", "--experiment", experiment, "--config", str(config),
                     "--seed", str(seed), "--out-dir", str(out)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == digests


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        mask = np.array([True, False, True, True, False])
        path = tmp_path / "truth.csv"
        write_truth_csv(mask, path)
        assert np.array_equal(read_truth_csv(path), mask)

    @pytest.mark.parametrize("flag", ["2", "-1", " 1", "1.0", "true", ""])
    def test_flag_other_than_0_or_1_raises(self, tmp_path, flag):
        path = tmp_path / "truth.csv"
        path.write_text(f"truth\r\n1\r\n{flag}\r\n", newline="")
        with pytest.raises(FileFormatError, match="unparsable truth mask"):
            read_truth_csv(path)
