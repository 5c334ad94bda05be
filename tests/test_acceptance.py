"""Acceptance suite: one pass/fail line per criterion.

Default run uses the reduced CI scales; set BTUCKER_ACCEPT_FULL=1 for the
full benchmark scales (about 15-30 minutes).  All runs are deterministic
(fixed base seeds).
"""

import os

import numpy as np
import pytest
from scipy.stats import spearmanr, ttest_ind

from btucker import datagen, decomp, linalg, select
from btucker.cli import build_config, confusion_counts, generate_data, select_from_matrix
from btucker.tensor import Tensor3, _folding, unfold

FULL = os.environ.get("BTUCKER_ACCEPT_FULL", "0") not in ("", "0")

BLOCK_SEED = 1000
SINUSOID_SEED = 4000
GCM_SEED = 5000

BLOCK_ENSEMBLES = 100 if FULL else 20
SINUSOID_ENSEMBLES = 100 if FULL else 10
GCM_N = 10000 if FULL else 2000


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] {name}" + (f" -- {detail}" if detail else ""), flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def block_runs():
    """Shared full pipeline over all synthetic-block ensembles."""
    cfg = build_config("synthetic-block")
    members = []
    for e in range(BLOCK_ENSEMBLES):
        seed = BLOCK_SEED + e
        t, truth = datagen.gen_synthetic_block(
            datagen.SyntheticBlockParams(seed=seed)
        )
        model, fit = decomp.hooi(t, cfg.ranks)
        beta = decomp.estimate_beta(t, model)
        check = decomp.self_consistency_check(t, model, alpha=0.0, beta=beta, tol=1e-6)
        _, _, refit = decomp.btud_fit(t, model, alpha=0.0, max_sweeps=5, tol=1e-6)
        means, cov = decomp.posterior_stats(t, model, 1, alpha=0.0, beta=beta)
        stat = select.btud_statistic(means, cov, [1], calibrate=True)
        result = select.select_features(
            select.chi2_sf(stat, 1), 0.05, statistic=stat, dof=1
        )
        tn, fn, fp, tp = confusion_counts(result.selected, truth)

        m, k = model.u2.shape[1], model.u3.shape[1]
        p_u1j = ttest_ind(model.u2[0, : m // 2], model.u2[0, m // 2 :],
                          equal_var=False).pvalue
        p_u1k = ttest_ind(model.u3[0, : k // 2], model.u3[0, k // 2 :],
                          equal_var=False).pvalue
        products = np.outer(model.u2[0], model.u3[0])
        in_block = np.zeros((m, k), dtype=bool)
        in_block[: m // 2, : k // 2] = True
        p_prod = ttest_ind(products[in_block], products[~in_block],
                           equal_var=False).pvalue

        members.append({
            "seed": seed,
            "tensor": t,
            "truth": truth,
            "model": model,
            "beta": beta,
            "confusion": (tn, fn, fp, tp),
            "self_consistent": check.self_consistent,
            "max_deviation": check.max_mode_deviation,
            "btud_sweeps": refit.sweeps,
            "btud_converged": refit.converged,
            "p_u1j": p_u1j,
            "p_u1k": p_u1k,
            "p_product": p_prod,
            "p_btud": select.chi2_sf(stat, 1),
            "selected_btud": result.selected,
        })
    return members


class TestSyntheticBlockBenchmark:
    def test_confusion(self, block_runs):
        rows = np.array([m["confusion"] for m in block_runs], dtype=float)
        tn, fn, fp, tp = rows.mean(axis=0)
        if FULL:
            ok = 9.5 <= tp <= 10.0 and fp <= 0.3 and fn <= 0.5
        else:
            ok = tp >= 9.0 and fp <= 1.0
        _report(
            f"Synthetic-block benchmark confusion ({BLOCK_ENSEMBLES} ensembles)",
            ok,
            f"mean TP {tp:.2f} FP {fp:.2f} FN {fn:.2f}",
        )


class TestSelfConsistency:
    def test_hooi_replacement_claim(self, block_runs):
        all_consistent = all(m["self_consistent"] for m in block_runs)
        worst = max(m["max_deviation"] for m in block_runs)
        all_one_sweep = all(
            m["btud_sweeps"] <= 1 and m["btud_converged"] for m in block_runs
        )
        _report(
            "Self-consistency at 1e-6 and immediate one-sweep convergence",
            all_consistent and all_one_sweep,
            f"worst deviation {worst:.2e}, "
            f"max sweeps {max(m['btud_sweeps'] for m in block_runs)}",
        )


class TestFactorClassCoincidence:
    def test_coincidence_rates(self, block_runs):
        frac_j = np.mean([m["p_u1j"] <= 0.05 for m in block_runs])
        frac_k = np.mean([m["p_u1k"] <= 0.05 for m in block_runs])
        frac_prod = np.mean([m["p_product"] <= 0.05 for m in block_runs])
        ok = frac_j >= 0.70 and frac_k >= 0.70 and frac_prod >= 0.80
        _report(
            "Factor/class coincidence rates",
            ok,
            f"u1j {frac_j:.2f} u1k {frac_k:.2f} product {frac_prod:.2f}",
        )


class TestSinusoidBenchmark:
    def test_sinusoid_confusion(self):
        rows = []
        for e in range(SINUSOID_ENSEMBLES):
            x, truth = datagen.gen_sinusoid(
                datagen.SinusoidParams(seed=SINUSOID_SEED + e)
            )
            result, _ = select.svd_select(x, [1, 2], mode="btud", threshold=0.05)
            rows.append(confusion_counts(result.selected, truth))
        rows = np.array(rows, dtype=float)
        tp, fp = rows[:, 3].mean(), rows[:, 2].mean()
        ok = tp >= 999.0 and fp <= 2.0
        _report(
            f"Sinusoid benchmark confusion ({SINUSOID_ENSEMBLES} ensembles)",
            ok,
            f"mean TP {tp:.2f} FP {fp:.2f}",
        )


@pytest.fixture(scope="module")
def gcm_run():
    """The rcs-gcm preset's selection, and each row's correlation with the leading pattern."""
    cfg = build_config("rcs-gcm", overrides={"generator": {"N": GCM_N}})
    _, x, _ = generate_data(cfg, GCM_SEED)
    result, _ = select_from_matrix(x, cfg)  # the preset's route: svd_select(x, [1], mode="td")
    z = select.standardize_columns(x)
    pattern = linalg.svd(z, rank=1).V[:, 0]
    zc = z - z.mean(axis=1, keepdims=True)
    pc = pattern - pattern.mean()
    corr = (zc @ pc) / (np.linalg.norm(zc, axis=1) * np.linalg.norm(pc) + 1e-300)
    return {"result": result, "corr": corr}


class TestCoupledMapBenchmark:
    def test_correlation_property(self, gcm_run):
        sel = gcm_run["result"].selected
        corr = np.abs(gcm_run["corr"])
        non_empty = int(sel.sum()) > 0
        ok = non_empty and corr[sel].mean() > corr[~sel].mean()
        _report(
            f"Coupled-map benchmark correlation property (N={GCM_N})",
            ok,
            f"selected {int(sel.sum())}, |corr| selected {corr[sel].mean():.3f} "
            f"vs rest {corr[~sel].mean():.3f}",
        )

    def test_selected_count_range(self, gcm_run):
        count = gcm_run["result"].n_selected
        lo, hi = (500, 3500) if FULL else (100, 700)
        ok = lo <= count <= hi
        _report(
            f"Coupled-map benchmark selected-count range [{lo}, {hi}] (N={GCM_N})",
            ok,
            f"selected {count} of {GCM_N}",
        )


class TestNumericalKernels:
    def test_property_suite(self):
        rng = np.random.default_rng(777)
        checks = []

        # Penrose conditions <= 1e-8
        penrose_ok = True
        for _ in range(10):
            a = rng.normal(size=rng.integers(3, 9, size=2))
            p = (linalg.gram_inverse(a) @ a).T  # pinv(a)
            na = max(np.linalg.norm(a), 1.0)
            ap, pa = a @ p, p @ a
            penrose_ok &= np.linalg.norm(a @ p @ a - a) / na < 1e-8
            penrose_ok &= np.linalg.norm(p @ a @ p - p) / max(np.linalg.norm(p), 1) < 1e-8
            penrose_ok &= np.linalg.norm(ap.T - ap) / na < 1e-8
            penrose_ok &= np.linalg.norm(pa.T - pa) / na < 1e-8
        checks.append(("penrose", penrose_ok))

        # fold/unfold exact round trip
        round_ok = True
        for mode in (1, 2, 3):
            t = Tensor3(rng.normal(size=(4, 5, 6)))
            round_ok &= np.array_equal(_folding(unfold(t, mode), mode, t.dims), t.values)
        checks.append(("fold/unfold", round_ok))

        # HOOI residual monotone within 1e-7
        t = Tensor3(rng.normal(size=(10, 8, 6)))
        _, report = decomp.hooi(t, (3, 3, 3))
        checks.append(("hooi-monotone", bool(np.all(np.diff(report.residual_history) <= 1e-7))))

        # factor orthonormality <= 1e-8
        model, _ = decomp.hooi(Tensor3(rng.normal(size=(9, 7, 5))), (3, 2, 2))
        orth_ok = all(
            np.max(np.abs(u @ u.T - np.eye(u.shape[0]))) < 1e-8
            for u in (model.u1, model.u2, model.u3)
        )
        checks.append(("orthonormality", orth_ok))

        # projection core == pseudoinverse core on 50 random models, 1e-9
        core_ok = True
        for _ in range(50):
            dims = tuple(rng.integers(3, 6, size=3))
            ranks = tuple(min(2, d) for d in dims)
            factors = []
            for d, r in zip(dims, ranks):
                q, _ = np.linalg.qr(rng.normal(size=(d, r)))
                factors.append(q.T)
            data = Tensor3(rng.normal(size=dims))
            fast = decomp._least_squares_core(data.values, factors)
            a = np.kron(factors[2].T, np.kron(factors[1].T, factors[0].T))
            g, *_ = np.linalg.lstsq(a, data.values.ravel(order="F"), rcond=None)
            core_ok &= np.max(np.abs(fast - g.reshape(ranks, order="F"))) < 1e-9
        checks.append(("core-two-path", core_ok))

        # chi2_sf(x, 2) == exp(-x/2) within 1e-12 on a 100-point grid
        xs = np.linspace(0.0, 60.0, 100)
        checks.append(("chi2-dof2", bool(np.max(np.abs(select.chi2_sf(xs, 2) - np.exp(-xs / 2))) <= 1e-12)))

        # bh_adjust equals brute-force oracle on 1000 random vectors, exact
        def oracle(p):
            n = len(p)
            order = np.argsort(p, kind="stable")
            out = np.empty(n)
            for pos, idx in enumerate(order):
                out[idx] = min(1.0, min(n * p[order[j]] / (j + 1) for j in range(pos, n)))
            return out

        bh_ok = True
        for _ in range(1000):
            p = rng.random(rng.integers(1, 10))
            bh_ok &= np.array_equal(select.bh_adjust(p), oracle(p))
        checks.append(("bh-oracle", bh_ok))

        ok = all(flag for _, flag in checks)
        _report(
            "Numerical-kernel property suite",
            ok,
            ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks),
        )


class TestEquivalence:
    def test_td_btud_equivalence(self, block_runs):
        member = block_runs[0]
        model = member["model"]
        fit = select.optimize_sigma(model.u1, [1])
        p_td = select.td_pvalues(model.u1, fit.sigma, [1])
        p_btud = member["p_btud"]
        rho = spearmanr(p_td, p_btud).statistic
        sel_td = select.select_features(p_td, 0.05).selected
        diff = int(np.sum(sel_td ^ member["selected_btud"]))
        ok = rho >= 0.95 and diff <= 2
        _report(
            "Equivalence of factor-route and posterior-route P-values",
            ok,
            f"spearman {rho:.4f}, selected-set symmetric difference {diff}",
        )
