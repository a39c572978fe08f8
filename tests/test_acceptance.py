"""Acceptance suite: the structural and statistical exit criteria.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
tolerances are pinned in the assertions.
"""

import time

import numpy as np
import pytest

import gfda
from gfda import linalg, reference
from gfda.classify import evaluate
from gfda.synth import class_mixture_bases, convex_mixture


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def sweep_cases(per_cell=5, limit=200):
    cases = []
    for C in range(2, 11):
        for N in range(1, 6):
            for s in range(per_cell):
                cases.append((C, N, s))
    return cases[:limit]


def restricted_generalized_spectrum(pair):
    """Nonzero generalized eigenvalues of (between, within) on range(within)."""
    eig = linalg.sym_eig(pair.within)
    keep = eig.values > linalg.RANK_TOL * eig.values[-1]
    Q = eig.vectors[:, keep]
    A = reference.whitening(Q.T @ pair.within @ Q)
    return linalg.sym_eig(A.T @ (Q.T @ pair.between @ Q) @ A).values


def test_criterion_1_flat_criterion_spectrum():
    t0 = time.monotonic()
    worst = 0.0
    cases = sweep_cases()
    for C, N, s in cases:
        ens = gfda.subspace_config(C, N, 4 * C * N, seed=1000 * C + 10 * N + s)
        vals = restricted_generalized_spectrum(gfda.scatter_ladder(ens, "gFDA"))
        nonzero = vals[-(C - 1):]
        zero = vals[:-(C - 1)]
        worst = max(worst, float(np.max(np.abs(nonzero - C)) / C))
        if zero.size:
            worst = max(worst, float(np.max(np.abs(zero)) / C))
    elapsed = time.monotonic() - t0
    report(1, "criterion spectrum flat at C",
           worst <= 1e-8 and elapsed < 30.0,
           f"{len(cases)} ensembles, worst relative deviation {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_duality_of_forms():
    t0 = time.monotonic()
    worst = 0.0
    cases = sweep_cases()
    for C, N, s in cases:
        ens = gfda.subspace_config(C, N, 4 * C * N, seed=1000 * C + 10 * N + s)
        prod = gfda.gfda_product_form(ens).effective_basis()
        lin = gfda.gfda_linear_form(ens).effective_basis()
        cos = linalg.canonical_angles(prod, lin).cosines
        worst = max(worst, float(1.0 - cos.min()))
    elapsed = time.monotonic() - t0
    report(2, "product/linear forms coincide",
           worst <= 1e-8 and elapsed < 60.0,
           f"{len(cases)} ensembles, worst cosine defect {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_3_difference_subspace_cross_construction():
    import warnings as _warnings

    worst = 0.0
    rng = np.random.default_rng(303)
    for _ in range(100):
        big = int(rng.integers(1, 4))
        small = int(rng.integers(1, big + 1))
        L = 4 * (big + small)
        c1 = gfda.fit_class(rng.standard_normal((big, L)), label="a")
        c2 = gfda.fit_class(rng.standard_normal((small, L)), label="b")
        geo = gfda.difference_subspace_geometric(c1, c2)
        with _warnings.catch_warnings():
            # unpaired directions of the larger subspace sit exactly at
            # eigenvalue 1 and are excluded by design
            _warnings.filterwarnings("ignore", message=".*exactly 1.*",
                                     category=RuntimeWarning)
            ana = gfda.difference_subspace_analytic(c1, c2)
        cos = linalg.canonical_angles(geo, ana.basis).cosines
        worst = max(worst, float(1.0 - cos.min()))

    phi1 = np.array([1.0, 0.0])
    phi2 = np.array([0.5, np.sqrt(3) / 2])
    P = np.outer(phi1, phi1) + np.outer(phi2, phi2)
    spectrum_dev = float(np.max(np.abs(np.linalg.eigvalsh(P) - [0.5, 1.5])))
    report(3, "difference-subspace constructions agree",
           worst <= 1e-8 and spectrum_dev <= 1e-12,
           f"100 pairs, worst cosine defect {worst:.2e}; 60-degree spectrum "
           f"deviation {spectrum_dev:.2e}")


def test_criterion_4_decomposition_identities():
    worst_g = worst_ghat = 0.0
    for C in range(2, 9):
        for N in range(1, 5):
            ens = gfda.subspace_config(C, N, 3 * C * N, seed=40 + 10 * C + N)
            G = gfda.sum_matrix(ens)
            term_b, w5 = gfda.gds_decomposition(ens)
            scale = np.linalg.norm(G)
            worst_g = max(worst_g,
                          float(np.max(np.abs(term_b + w5 - G)) / scale))
            pair = gfda.scatter_ladder(ens, "gFDA")
            ghat = pair.within - pair.between / C
            coef = 1.0 / (2 * (C - 1)) - 1.0 / C
            worst_ghat = max(worst_ghat, float(
                np.max(np.abs(coef * pair.between + w5 - ghat)) / scale))

    rng = np.random.default_rng(404)
    worst_b = worst_r = 0.0
    for _ in range(25):
        C = int(rng.integers(2, 7))
        L = int(rng.integers(3, 12))
        means = rng.standard_normal((C, L))
        counts = rng.integers(1, 30, size=C)
        b1 = gfda.between_scatter(means, counts)
        b2 = gfda.between_scatter_pairwise(means, counts)
        worst_b = max(worst_b,
                      float(np.linalg.norm(b1 - b2) / np.linalg.norm(b1)))
        X = rng.standard_normal((int(rng.integers(2, 20)), L)) \
            + rng.standard_normal(L)
        R = X.T @ X / X.shape[0]
        Cc = (X - X.mean(0)).T @ (X - X.mean(0)) / X.shape[0]
        m = X.mean(0)
        worst_r = max(worst_r, float(
            np.linalg.norm(R - Cc - np.outer(m, m)) / np.linalg.norm(R)))
    ok = worst_g <= 1e-10 and worst_ghat <= 1e-10 \
        and worst_b <= 1e-12 and worst_r <= 1e-12
    report(4, "decomposition and scatter identities", ok,
           f"G {worst_g:.2e}, Ghat {worst_ghat:.2e}, between-forms "
           f"{worst_b:.2e}, autocorrelation {worst_r:.2e}")


def test_criterion_5_heuristic_principle():
    t0 = time.monotonic()
    configs = ((10, None, 2000), (100, 0.85, 1000), (1000, 0.9, 500))
    all_corrs = []
    means = {}
    for L, decay, n in configs:
        scales = None if decay is None else decay ** np.arange(L)
        corrs = []
        for t in range(100):
            rng = np.random.default_rng(1000 * L + t)
            direction = rng.standard_normal(L)
            X = gfda.gaussian_class(L, direction, mean_norm=2.0,
                                    sigma_max=1.0, n=n,
                                    seed=55000 + 1000 * L + t,
                                    axis_scales=scales)
            model = gfda.fit_class(X, dim=1)
            m = X.mean(axis=0)
            corrs.append(abs(model.basis[:, 0] @ m) / np.linalg.norm(m))
        means[L] = float(np.mean(corrs))
        all_corrs.extend(corrs)
    elapsed = time.monotonic() - t0
    frac = float(np.mean(np.asarray(all_corrs) > 0.995))
    ok = all(v > 0.998 for v in means.values()) and frac >= 0.95 \
        and elapsed < 60.0
    report(5, "mean/first-component correspondence", ok,
           f"means {means}, fraction above 0.995 = {frac:.2f}, "
           f"{elapsed:.1f}s")


def test_criterion_6_gap_index_and_eigencurve_divergence():
    sigma = {C: gfda.gap_index(C) for C in range(2, 101)}
    values = list(sigma.values())
    gap_ok = sigma[2] == 1.0 \
        and all(b > a for a, b in zip(values, values[1:])) \
        and 2.0 - sigma[100] <= 0.02 + 1e-12

    divergence = []
    for C in (3, 5, 20, 100):
        ens = gfda.subspace_config(C, 3, 12 * C, seed=60 + C)
        pair = gfda.scatter_ladder(ens, "gFDA")
        G = pair.within
        ghat = G - pair.between / C
        eig = linalg.sym_eig(G)
        keep = eig.values > linalg.RANK_TOL * eig.values[-1]
        span = eig.vectors[:, keep]
        vals_h = linalg.sym_eig(span.T @ ghat @ span).values
        divergence.append(float(np.linalg.norm(eig.values[keep] - vals_h)))
    mono = all(b > a for a, b in zip(divergence, divergence[1:]))
    report(6, "gap index and eigencurve divergence", gap_ok and mono,
           f"sigma(2)={sigma[2]}, sigma(100)={sigma[100]:.4f}, divergence "
           f"{[round(d, 3) for d in divergence]}")


def test_criterion_7_discriminant_power():
    worst = 0.0
    totals = {}
    for C in (3, 5, 8):
        ens = gfda.subspace_config(C, 2, 8 * C, seed=70 + C)
        pair = gfda.scatter_ladder(ens, "gFDA")
        model = gfda.gfda_linear_form(ens)
        powers = gfda.discriminant_power_curve(model.projector, pair)
        worst = max(worst, float(np.max(np.abs(powers - C)) / C))
        totals[C] = float(powers.sum())
    ok = worst <= 1e-8 and abs(totals[3] - 6.0) <= 1e-8
    report(7, "flat discriminant power C with total C(C-1)", ok,
           f"worst relative deviation {worst:.2e}, total at C=3: "
           f"{totals[3]:.10f}")


def test_criterion_8_single_sample_bypass():
    C, L = 10, 100
    Xall, yall = gfda.labeled_gaussians(C, L, 21, mean_norm=8.0,
                                        sigma_max=1.0, seed=5001)
    yall = np.asarray(yall)
    Xtr, ytr, Xte, yte = [], [], [], []
    for lab in sorted(set(yall.tolist())):
        idx = np.nonzero(yall == lab)[0]
        Xtr.append(Xall[idx[0]])
        ytr.append(lab)
        Xte.append(Xall[idx[1:]])
        yte += [lab] * (idx.size - 1)
    Xtr = np.array(Xtr)
    Xte = np.vstack(Xte)

    # one sample per class: the within-class scatter is exactly zero, so
    # plain FDA cannot run and pcaLDA's native route fails (flagged fallback)
    with pytest.raises(gfda.ValidationError):
        gfda.fda(Xtr, ytr)
    pca_model = gfda.pca_lda(Xtr, ytr, residual_threshold=1e-9)
    fallback_flagged = "fallback" in pca_model.info

    ens = gfda.fit_ensemble(Xtr, ytr)
    single = all(c.count == 1 and c.dim == 1 for c in ens.classes)
    model = gfda.with_normalization(gfda.gfda_linear_form(ens))
    rec = evaluate(model, Xte, yte, rule="nearest-mean").recognition_rate
    ok = single and fallback_flagged and rec > 90.0
    report(8, "one-sample-per-class bypass", ok,
           f"recognition {rec:.1f}% (> 90 required), pcaLDA fallback "
           f"flagged: {fallback_flagged}")


def test_criterion_9_normalization_surrogate_sweep():
    t0 = time.monotonic()
    C, L, spread, n_test, n_seeds = 10, 60, 0.55, 20, 60
    rec = {}
    eer = {}
    for n in range(2, 6):
        r = {False: [], True: []}
        e = {False: [], True: []}
        for s in range(n_seeds):
            families = class_mixture_bases(C, L, seed=9000 + s,
                                           anchor_spread=spread)
            Xte, yte = [], []
            for c, basis in enumerate(families):
                t = convex_mixture(basis, "Set2", n_test,
                                   seed=77000 + 100 * s + c)
                Xte.append(t)
                yte += [c] * n_test
            Xte = np.vstack(Xte)
            classes = []
            for c, basis in enumerate(families):
                tr = convex_mixture(basis, "Set1", n,
                                    seed=33000 + 100 * s + c)
                classes.append(gfda.fit_class(tr, label=c))
            ens = gfda.SubspaceEnsemble(classes=tuple(classes), ambient_dim=L)
            model = gfda.gfda_linear_form(ens)
            for norm in (False, True):
                rep = evaluate(gfda.with_normalization(model, norm),
                               Xte, yte, rule="nearest-mean")
                r[norm].append(rep.recognition_rate)
                e[norm].append(rep.eer)
        rec[n] = (float(np.mean(r[False])), float(np.mean(r[True])))
        eer[n] = (float(np.mean(e[False])), float(np.mean(e[True])))
    elapsed = time.monotonic() - t0
    rec_ok = all(rec[n][1] >= rec[n][0] for n in rec)
    eer_ok = all(eer[n][1] <= eer[n][0] + 0.5 for n in eer)
    detail = ", ".join(
        f"n={n}: rec {rec[n][0]:.2f}->{rec[n][1]:.2f} "
        f"eer {eer[n][0]:.2f}->{eer[n][1]:.2f}" for n in rec)
    report(9, "normalization never hurts on the surrogate sweep",
           rec_ok and eer_ok and elapsed < 300.0,
           detail + f"; {elapsed:.0f}s")


def test_criterion_10_byte_identical_reruns(tmp_path):
    import subprocess
    import sys

    files = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        train = d / "train.csv"
        ev = d / "eval.csv"
        fits = [["gfda-linear", "--normalize"], ["regLDA"], ["pcaLDA"],
                ["gds", "--gds-dims", "3"], ["nullLDA"]]
        models = [d / f"model_{fit[0]}.json" for fit in fits]
        # fresh interpreter per command: determinism must survive restarts
        for argv in (
            ["synth", "--kind", "mixture-set1", "--classes", "5",
             "--dim", "50", "--count", "8", "--seed", "77",
             "--out", str(train)],
            *(["fit", "--train", str(train), "--method", *fit,
               "--out", str(model)] for fit, model in zip(fits, models)),
            ["eval", "--train", str(train), "--method", "gfda-linear",
             "--normalize", "--train-count", "4", "--repetitions", "3",
             "--seed", "13", "--out", str(ev)],
        ):
            proc = subprocess.run([sys.executable, "-m", "gfda"] + argv,
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
        files[tag] = [p.read_bytes() for p in (train, *models, ev)]
    ok = files["one"] == files["two"]
    report(10, "byte-identical reruns", ok,
           "synth + fit + eval reproduced exactly across fresh processes"
           if ok else "files differ")
