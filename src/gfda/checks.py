"""Seeded invariant batteries behind the ``invariants`` CLI verb.

Each battery exercises one structural property of the construction on
randomly generated ensembles and reports the worst residual against its
tolerance.  They are deliberately fast; the full-scale sweeps live in the
test suite.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .fisher import (between_scatter, gfda_linear_form, gfda_product_form,
                     within_scatter)
from .reference import (between_scatter_pairwise, canonical_angles,
                        difference_subspace_analytic,
                        difference_subspace_geometric,
                        discriminant_power_curve, gap_index,
                        gds_decomposition, gfda_null_space, scatter_ladder,
                        sum_matrix, whitening)
from .subspace import fit_class
from .synth import gaussian_class, subspace_config


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str = ""


def _restricted_criterion_spectrum(pair):
    """Generalized eigenvalues of (between, within) on the range of the
    within matrix, through its whitening map."""
    A = whitening(pair.within)
    return linalg.sym_eig(A.T @ pair.between @ A).values


def check_c1(classes=(2, 3, 5, 7), dims=(1, 3), seed=7):
    """Nonzero spectrum of the geometrical criterion is flat at C."""
    worst = 0.0
    for C in classes:
        for N in dims:
            ens = subspace_config(C, N, 4 * C * N, seed=seed + 13 * C + N)
            vals = _restricted_criterion_spectrum(scatter_ladder(ens, "gFDA"))
            nonzero = vals[-(C - 1):]
            zero = vals[:-(C - 1)]
            worst = max(worst,
                        float(np.max(np.abs(nonzero - C)) / C),
                        float(np.max(np.abs(zero)) / C) if zero.size else 0.0)
    tol = 1e-8
    return CheckResult("c1-flat-spectrum", worst <= tol, worst, tol,
                       f"C in {classes}, N in {dims}")


def check_duality(classes=(2, 3, 5, 7), dims=(1, 3), seed=11):
    """Product-form and linear-form discriminant spaces coincide, each with
    the L x L null space of W - B/C (reference.gfda_null_space) and with
    each other."""
    worst = 0.0
    for C in classes:
        for N in dims:
            ens = subspace_config(C, N, 4 * C * N, seed=seed + 17 * C + N)
            oracle = gfda_null_space(ens)
            prod = linalg.gram_schmidt(gfda_product_form(ens).projector)
            lin = linalg.gram_schmidt(gfda_linear_form(ens).projector)
            for a, b in ((prod, oracle), (lin, oracle), (prod, lin)):
                cos = canonical_angles(a, b).cosines
                worst = max(worst, float(1.0 - cos.min()))
    tol = 1e-8
    return CheckResult("c2-duality", worst <= tol, worst, tol,
                       f"C in {classes}, N in {dims}")


def check_ds(trials=25, seed=3):
    """Geometric and analytic difference subspaces span the same space."""
    worst = 0.0
    for t in range(trials):
        ens = subspace_config(2, 2, 9, seed=seed + t)
        c1, c2 = ens.classes
        geo = difference_subspace_geometric(c1, c2)
        ana = difference_subspace_analytic(c1, c2).basis
        cos = canonical_angles(geo, ana).cosines
        worst = max(worst, float(1.0 - cos.min()))
    tol = 1e-8
    return CheckResult("ds-cross-construction", worst <= tol, worst, tol,
                       f"{trials} random pairs")


def check_decomposition(classes=(2, 3, 5, 8), dims=(1, 2, 4), seed=19):
    """G and its gFDA counterpart decompose into the documented parts."""
    worst = 0.0
    for C in classes:
        for N in dims:
            ens = subspace_config(C, N, 3 * C * N, seed=seed + 7 * C + N)
            G = sum_matrix(ens)
            term_b, w5 = gds_decomposition(ens)
            scale = np.linalg.norm(G)
            worst = max(worst, float(
                np.max(np.abs(term_b + w5 - G)) / scale))
            pair = scatter_ladder(ens, "gFDA")
            coef = 1.0 / (2.0 * (C - 1)) - 1.0 / C
            ghat = pair.within - pair.between / C
            recon = coef * pair.between + w5
            worst = max(worst, float(np.max(np.abs(recon - ghat)) / scale))
    tol = 1e-10
    return CheckResult("gds-decomposition", worst <= tol, worst, tol,
                       f"C in {classes}, N in {dims}")


def check_identities(trials=10, seed=29):
    """Scatter-matrix rewrites agree with their direct definitions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        C = int(rng.integers(2, 6))
        L = int(rng.integers(3, 12))
        groups = [rng.standard_normal((int(rng.integers(2, 9)), L)) + rng.standard_normal(L)
                  for _ in range(C)]
        means = np.array([g.mean(axis=0) for g in groups])
        counts = np.array([g.shape[0] for g in groups])
        b1 = between_scatter(means, counts)
        b2 = between_scatter_pairwise(means, counts)
        worst = max(worst, float(np.linalg.norm(b1 - b2) / np.linalg.norm(b1)))
        n = counts.sum()
        sw = within_scatter(groups)
        sw_r = sum(g.shape[0] * ((g.T @ g) / g.shape[0]
                                 - np.outer(g.mean(0), g.mean(0)))
                   for g in groups) / n
        worst = max(worst, float(np.linalg.norm(sw - sw_r) / np.linalg.norm(sw)))
        g = groups[0]
        R = g.T @ g / g.shape[0]
        Cc = (g - g.mean(0)).T @ (g - g.mean(0)) / g.shape[0]
        lhs = Cc + np.outer(g.mean(0), g.mean(0))
        worst = max(worst, float(np.linalg.norm(R - lhs) / np.linalg.norm(R)))
    tol = 1e-12
    return CheckResult("scatter-identities", worst <= tol, worst, tol,
                       f"{trials} random configurations")


def check_gap(classes=(2, 3, 5, 20, 100)):
    """Gap index values and monotone growth toward 2."""
    values = [gap_index(C) for C in classes]
    ok = abs(values[0] - 1.0) < 1e-15 and all(
        b > a for a, b in zip(values, values[1:])) and values[-1] < 2.0
    table = ", ".join(f"sigma({C})={v:.6g}" for C, v in zip(classes, values))
    return CheckResult("gap-index", ok, 0.0 if ok else 1.0, 0.0, table)


def check_heuristic(trials=20, ratio=2.0, seed=37):
    """First uncentered principal direction tracks the sample mean.

    Low dimensions use an isotropic profile; in higher dimensions the
    per-axis deviations decay geometrically (sigma_max still attained on
    the first axis), keeping the accumulated off-mean noise bounded the
    way structured data keeps it bounded.
    """
    configs = ((10, None, 2000), (100, 0.85, 1000))
    worst = 1.0
    for L, decay, n in configs:
        scales = None if decay is None else decay ** np.arange(L)
        for t in range(trials):
            rng = np.random.default_rng(seed + 1000 * L + t)
            direction = rng.standard_normal(L)
            X = gaussian_class(L, direction, mean_norm=ratio, sigma_max=1.0,
                               n=n, seed=seed + 7919 * L + t,
                               axis_scales=scales)
            model = fit_class(X, dim=1)
            m = X.mean(axis=0)
            corr = abs(model.basis[:, 0] @ m) / np.linalg.norm(m)
            worst = min(worst, float(corr))
    tol = 0.995
    return CheckResult("heuristic-mean-direction", worst >= tol,
                       1.0 - worst, 1.0 - tol,
                       f"min correlation {worst:.6f} over L in (10, 100)")


def check_power(classes=(3, 5), dims=(2,), seed=41):
    """Every geometrical discriminant vector of either form carries power
    exactly C under the L x L gFDA pair."""
    worst = 0.0
    for C in classes:
        for N in dims:
            ens = subspace_config(C, N, 4 * C * N, seed=seed + C + N)
            pair = scatter_ladder(ens, "gFDA")
            for build in (gfda_linear_form, gfda_product_form):
                powers = discriminant_power_curve(build(ens).projector, pair)
                worst = max(worst, float(np.max(np.abs(powers - C)) / C))
    tol = 1e-8
    return CheckResult("gfda-power", worst <= tol, worst, tol,
                       f"C in {classes}, both forms")


BATTERIES = {
    "c1": check_c1,
    "duality": check_duality,
    "ds": check_ds,
    "decomposition": check_decomposition,
    "identities": check_identities,
    "gap": check_gap,
    "heuristic": check_heuristic,
    "power": check_power,
}


def run(scopes=None):
    """Run the selected batteries (all by default); returns CheckResults.
    An unknown name raises ValidationError before any battery runs."""
    names = list(scopes) if scopes else list(BATTERIES)
    for name in names:
        if name not in BATTERIES:
            raise ValidationError(
                f"unknown scope {name!r}; pick from {sorted(BATTERIES)}")
    return [BATTERIES[name]() for name in names]
