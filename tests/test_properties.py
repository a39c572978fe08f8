"""Property tests against slow references.

Each construction reference below is the algorithm as it runs on full
L x L matrices: eigendecompose the summed projection matrix G
(sum_matrix), keep its nonzero part, and work with the gFDA pair from
scatter_ladder.  The constructions under test never form an L x L matrix;
they must give the same spans (canonical angles to 1e-8), the same GDS
dimension, and the same eigenvalues (to 1e-10 of the spectrum's scale).
pcaLDA, which takes its PCA step from the thin SVD of the centered data, is
checked against the same step on the L x L covariance.  nullLDA, regLDA
and FDA solve in the frame of the centred training data; nullLDA is checked
against the null space of the L x L within scatter and the L x L between
scatter projected there, regLDA and FDA against the L x L generalized
eigenproblem.  Batched evaluation is checked against a
per-sample scoring loop, and the batched ensemble fit against fit_class on
each class and against the thin SVD of each class on its own.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gfda
from gfda import classify, fisher, linalg, reference
from gfda.classify import COSINE, NEAREST_MEAN, RULES

SPAN_TOL = 1e-8
EIG_TOL = 1e-10

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def ensembles(draw):
    C = draw(st.integers(2, 6))
    N = draw(st.integers(1, 3))
    L = C * N + draw(st.integers(0, 3 * C * N))
    separation = draw(st.sampled_from([1.0, 0.8, 0.5, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return gfda.subspace_config(C, N, L, separation=separation, seed=seed)


def same_span(A, B):
    assert A.shape == B.shape
    cos = linalg.canonical_angles(A, B).cosines
    assert 1.0 - cos.min() <= SPAN_TOL


def nonzero_spectrum_of_g(ens):
    eig = linalg.sym_eig(gfda.sum_matrix(ens))
    keep = eig.values > linalg.RANK_TOL * eig.values[-1]
    return eig.values[keep], eig.vectors[:, keep]


def loop_pairwise_difference(F):
    C, L = F.shape
    S = np.zeros((L, L))
    for i in range(C):
        for j in range(i + 1, C):
            d = F[i] - F[j]
            S += np.outer(d, d)
    return S


@PROPERTY
@given(ensembles())
def test_linear_form_matches_full_route(ens):
    C = ens.n_classes
    pair = gfda.scatter_ladder(ens, "gFDA")
    _, span = nonzero_spectrum_of_g(ens)
    ghat = pair.within - pair.between / C
    eig = linalg.sym_eig(span.T @ ghat @ span)

    model = gfda.gfda_linear_form(ens)
    same_span(model.projector, span @ eig.vectors[:, :C - 1])
    scale = max(abs(eig.values[-1]), 1.0)
    npt.assert_allclose(model.info["selected_eigenvalues"],
                        eig.values[:C - 1], rtol=0, atol=EIG_TOL * scale)


@PROPERTY
@given(ensembles())
def test_product_form_matches_full_route(ens):
    C = ens.n_classes
    pooled = np.hstack([c.basis for c in ens.classes])
    reducer = linalg.gram_schmidt(pooled)
    projected = reducer.T @ pooled
    white = reference.whitening(projected @ projected.T)
    wmap = white.T @ reducer.T
    hats = wmap @ gfda.aligned_first_vectors(ens).T
    eig = linalg.sym_eig(loop_pairwise_difference(hats.T))
    top = eig.vectors[:, ::-1][:, :C - 1]

    model = gfda.gfda_product_form(ens)
    same_span(model.effective_basis(), linalg.gram_schmidt(wmap.T @ top))
    npt.assert_allclose(model.info["criterion_eigenvalues"],
                        eig.values[::-1][:C - 1], rtol=0, atol=EIG_TOL * C)


@PROPERTY
@given(ensembles(), st.integers(1, 12))
def test_gds_fixed_dims_matches_full_route(ens, dims):
    vals, vecs = nonzero_spectrum_of_g(ens)
    dims = min(dims, vals.size)
    model = gfda.gds_discriminant(ens, dims=dims)
    assert model.info["selection"]["dims"] == dims
    same_span(model.projector, vecs[:, :dims])
    npt.assert_allclose(model.info["eigenvalues"], vals[:dims], rtol=0,
                        atol=EIG_TOL * vals[-1])


@PROPERTY
@given(ensembles(), st.sampled_from([0.5, 0.7, 0.9]))
def test_gds_gamma_matches_full_route(ens, gamma):
    C = ens.n_classes
    vals, vecs = nonzero_spectrum_of_g(ens)
    powers = gfda.discriminant_power_curve(vecs,
                                           gfda.scatter_ladder(ens, "gFDA"))
    cumulative = np.cumsum(powers)
    dims = int(np.nonzero(cumulative >= C * (C - 1) * gamma - 1e-9)[0][0]) + 1

    model = gfda.gds_discriminant(ens, gamma=gamma)
    assert model.info["selection"]["dims"] == dims
    same_span(model.projector, vecs[:, :dims])
    npt.assert_allclose(model.info["eigenvalues"], vals[:dims], rtol=0,
                        atol=EIG_TOL * vals[-1])
    npt.assert_allclose(model.info["selection"]["achieved_power"],
                        cumulative[dims - 1], rtol=0, atol=EIG_TOL * C * C)


@PROPERTY
@given(st.integers(2, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_pairwise_difference_closed_form(C, L, seed):
    F = np.random.default_rng(seed).standard_normal((C, L))
    expected = loop_pairwise_difference(F)
    npt.assert_allclose(fisher.pairwise_difference_matrix(F), expected,
                        rtol=0, atol=1e-12 * max(np.abs(expected).max(), 1.0))


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]),
                          st.floats(allow_nan=False)),
                min_size=1, max_size=60))
def test_eer_knots_match_unique(scores):
    # signed zeros and repeats included: the knots must be np.unique's, bytes
    # and all, so that the EER stays bit for bit what it was
    scores = np.array(scores)
    assert (classify._sorted_distinct(scores).tobytes()
            == np.unique(scores).tobytes())


@PROPERTY
@given(ensembles())
def test_gds_decomposition_closed_form(ens):
    C = ens.n_classes
    L = ens.ambient_dim
    F = gfda.aligned_first_vectors(ens)
    coef = 1.0 / (2.0 * (C - 1))
    B = np.zeros((L, L))
    W5 = np.zeros((L, L))
    for j in range(C):
        for k in range(j + 1, C):
            z, zp = F[j] - F[k], F[j] + F[k]
            B += np.outer(z, z)
            W5 += coef * np.outer(zp, zp)
    for c in ens.classes:
        W5 += c.basis[:, 1:] @ c.basis[:, 1:].T

    term_b, w5 = gfda.gds_decomposition(ens)
    npt.assert_allclose(term_b, coef * B, rtol=0, atol=1e-12 * C)
    npt.assert_allclose(w5, W5, rtol=0, atol=1e-12 * C)


def classify_nearest_mean(model, x):
    """Nearest-mean label of one vector, scored by evaluate's own path."""
    row = np.reshape(np.asarray(x, dtype=float), (1, -1))
    scores = classify._scores(model, row, NEAREST_MEAN)
    return model.class_labels[classify._predict(model, scores)[0]]


def covariance_pca_lda(X, y, threshold):
    """pcaLDA on the L x L covariance: its full spectrum, clipped at zero and
    reversed, picks the components; the reduced FDA falls back to a 1e-8
    ridge when the reduced within scatter is singular.  Returns
    (n_components, fallback, basis, class_refs)."""
    y = np.asarray(y)
    labels = sorted(set(y.tolist()))
    centered = X - X.mean(axis=0)
    eig = linalg.sym_eig(centered.T @ centered / X.shape[0])
    vals = np.clip(eig.values[::-1], 0.0, None)
    residual = 1.0 - np.cumsum(vals) / vals.sum()
    k = min(int(np.searchsorted(residual <= threshold + 1e-15, True)) + 1,
            vals.size)
    P = eig.vectors[:, ::-1][:, :k]
    zgroups = [centered[y == lab] @ P for lab in labels]
    zmeans = np.array([g.mean(axis=0) for g in zgroups])
    Sb = gfda.between_scatter(zmeans, [g.shape[0] for g in zgroups])
    Sw = sum((g - g.mean(axis=0)).T @ (g - g.mean(axis=0))
             for g in zgroups) / X.shape[0]
    w = np.linalg.eigvalsh(Sw)
    fallback = bool(w[0] <= linalg.RANK_TOL * max(w[-1], 0.0))
    if fallback:
        Sw = Sw + 1e-8 * np.eye(k)
    _, V = scipy.linalg.eigh(Sb, Sw)
    basis = linalg.gram_schmidt(P @ V[:, ::-1][:, :len(labels) - 1])
    refs = np.array([basis.T @ X[y == lab].mean(axis=0) for lab in labels])
    return k, fallback, basis, refs


@PROPERTY
@given(st.integers(2, 5), st.integers(1, 6), st.booleans(),
       st.sampled_from([1e-2, 0.3]), st.integers(0, 2**32 - 1))
def test_pca_lda_matches_covariance_route(C, n, wide, threshold, seed):
    # wide: n < L (the small-sample regime; one sample per class leaves no
    # within-class scatter at all), else n > L
    L = C * n + 1 + seed % 7 if wide else max(C, C * n - 1 - seed % 3)
    X, y = gfda.labeled_gaussians(C, L, n, mean_norm=4.0, sigma_max=1.0,
                                  seed=seed)
    Xte, _ = gfda.labeled_gaussians(C, L, 3, mean_norm=4.0, sigma_max=1.0,
                                    seed=seed, sample_seed=seed + 1)
    k, fallback, basis, refs = covariance_pca_lda(X, y, threshold)

    model = gfda.pca_lda(X, y, residual_threshold=threshold)
    assert model.info["n_components"] == k
    assert ("fallback" in model.info) == fallback
    same_span(model.projector, basis)
    # Each column is fixed only up to its sign.  Under the fallback's 1e-8
    # ridge, rounding of order eps * ||Sw|| in the reduced within scatter is
    # amplified by 1 / 1e-8 (both routes alike); with one sample per class
    # Sw is exactly zero and nothing is amplified.
    tol = 1e-10
    if fallback:
        _, groups = fisher.group_by_label(X, y)
        tol += 100 * np.finfo(float).eps * np.linalg.norm(
            gfda.within_scatter(groups), 2) / 1e-8
    signs = np.sign(np.sum(model.projector * basis, axis=0))
    npt.assert_allclose(model.class_refs, refs * signs, rtol=0,
                        atol=tol * np.abs(refs).max())
    full = replace(model, projector=basis, class_refs=refs)
    assert [classify_nearest_mean(model, x) for x in Xte] == \
        [classify_nearest_mean(full, x) for x in Xte]


@PROPERTY
@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10),
       st.integers(0, 2**32 - 1))
def test_null_lda_matches_full_route(C, n, extra, seed):
    X, y = gfda.labeled_gaussians(C, C * n + extra, n, mean_norm=4.0,
                                  sigma_max=1.0, seed=seed)
    labels, groups = fisher.group_by_label(X, y)
    means = np.array([g.mean(axis=0) for g in groups])
    eig = linalg.sym_eig(gfda.within_scatter(groups))
    N = eig.vectors[:, eig.values <= linalg.RANK_TOL * eig.values[-1]]
    between = gfda.between_scatter(means, [g.shape[0] for g in groups])
    top = linalg.sym_eig(N.T @ between @ N).vectors[:, ::-1][:, :C - 1]
    basis = linalg.gram_schmidt(N @ top)
    refs = means @ basis

    model = gfda.null_lda(X, y)
    assert model.info["null_dim"] == N.shape[1]
    same_span(model.projector, basis)
    signs = np.sign(np.sum(model.projector * basis, axis=0))
    npt.assert_allclose(model.class_refs, refs * signs, rtol=0,
                        atol=1e-10 * np.abs(refs).max())


def full_generalized_route(X, y, delta):
    """The L x L generalized eigenproblem (S_b, S_w + delta I): its C - 1
    leading eigenvectors, orthonormalized, and the class means projected
    onto them.  Returns (eigenvalues, basis, class_refs)."""
    labels, groups = fisher.group_by_label(X, y)
    means = np.array([g.mean(axis=0) for g in groups])
    between = gfda.between_scatter(means, [g.shape[0] for g in groups])
    within = gfda.within_scatter(groups) + delta * np.eye(X.shape[1])
    w, V = scipy.linalg.eigh(between, within)
    k = len(labels) - 1
    basis = linalg.gram_schmidt(V[:, ::-1][:, :k])
    return w[::-1][:k], basis, means @ basis


def same_model(model, basis, refs):
    same_span(model.projector, basis)
    signs = np.sign(np.sum(model.projector * basis, axis=0))
    npt.assert_allclose(model.class_refs, refs * signs, rtol=0,
                        atol=1e-10 * np.abs(refs).max())


@PROPERTY
@given(st.integers(2, 5), st.integers(1, 6), st.booleans(),
       st.sampled_from([1e-4, 1.0]), st.integers(0, 2**32 - 1))
def test_reg_lda_matches_full_route(C, n, wide, delta, seed):
    # wide: n < L, where S_w and S_b vanish off the centred-data frame;
    # else n > L and the frame fills the space
    L = C * n + 1 + seed % 7 if wide else max(C, C * n - 1 - seed % 3)
    X, y = gfda.labeled_gaussians(C, L, n, mean_norm=4.0, sigma_max=1.0,
                                  seed=seed)
    _, basis, refs = full_generalized_route(X, y, delta)
    same_model(gfda.reg_lda(X, y, delta=delta), basis, refs)


@PROPERTY
@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_fda_matches_full_route(C, n, seed):
    # n >= L + C samples, so the within scatter is nonsingular
    L = max(1, C * n - C - seed % 3)
    X, y = gfda.labeled_gaussians(C, L, n, mean_norm=4.0, sigma_max=1.0,
                                  seed=seed)
    vals, basis, refs = full_generalized_route(X, y, 0.0)
    model = gfda.fda(X, y)
    same_model(model, basis, refs)
    npt.assert_allclose(model.info["eigenvalues"], vals, rtol=1e-10,
                        atol=1e-10 * vals[0])


def per_sample_evaluate(model, X, y, rule):
    """One sample at a time: project, score every class, pick the smallest
    label among exactly equal top scores, split off the genuine score."""
    refs = model.class_refs
    rnorms = np.linalg.norm(refs, axis=1)
    correct, confusion, genuine, impostor = 0, {}, [], []
    for x, true in zip(X, y):
        t = model.projector.T @ x
        if rule == COSINE or model.normalized:
            t = t / np.linalg.norm(t)
        if rule == NEAREST_MEAN:
            d = (refs / rnorms[:, None] if model.normalized else refs) - t
            scores = -np.sum(d * d, axis=1)
        else:
            scores = refs @ t / rnorms
        top = np.max(scores)
        pred = min(lab for lab, s in zip(model.class_labels, scores)
                   if s == top)
        correct += pred == true
        confusion[(true, pred)] = confusion.get((true, pred), 0) + 1
        i = model.class_labels.index(true)
        genuine.append(scores[i])
        impostor.extend(np.delete(scores, i))
    return (100.0 * correct / len(y), confusion, np.array(genuine),
            np.array(impostor))


def build(method, X, y, normalized):
    if method == "regLDA":
        return gfda.with_normalization(gfda.reg_lda(X, y), normalized)
    ens = gfda.fit_ensemble(X, y)
    if method == "gfda-product":
        model = gfda.gfda_product_form(ens)
    elif method == "gfda-linear":
        model = gfda.gfda_linear_form(ens)
    elif method == "gds-dims":
        model = gfda.gds_discriminant(ens, dims=ens.n_classes)
    else:
        model = gfda.gds_discriminant(ens, gamma=0.9)
    return gfda.with_normalization(model, normalized)


@PROPERTY
@given(st.integers(2, 5), st.integers(2, 4), st.integers(1, 12),
       st.sampled_from(["gfda-product", "gfda-linear", "gds-dims",
                        "gds-gamma", "regLDA"]),
       st.booleans(), st.sampled_from(RULES), st.data())
def test_batched_evaluate_matches_per_sample_loop(C, n, extra, method,
                                                  normalized, rule, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    L = C * n + extra
    X, y = gfda.labeled_gaussians(C, L, n, mean_norm=4.0, sigma_max=1.0,
                                  seed=seed)
    Xte, yte = gfda.labeled_gaussians(C, L, 3, mean_norm=4.0, sigma_max=1.0,
                                      seed=seed, sample_seed=seed + 1)
    model = build(method, X, y, normalized)
    # relabel so the model's labels are not in sorted order
    names = data.draw(st.permutations([f"k{i}" for i in range(C)]))
    rename = dict(zip(model.class_labels, names))
    refs = model.class_refs.copy()
    if rule == NEAREST_MEAN and data.draw(st.booleans()):
        refs[1] = refs[0]  # the first two classes tie exactly on every sample
    model = replace(model, class_labels=tuple(names), class_refs=refs)
    yte = [rename[lab] for lab in yte]

    report = gfda.evaluate(model, Xte, yte, rule=rule)
    rate, confusion, genuine, impostor = per_sample_evaluate(model, Xte, yte,
                                                             rule)
    assert report.recognition_rate == rate
    assert report.confusion == confusion
    scale = max(np.abs(genuine).max(), np.abs(impostor).max())
    npt.assert_allclose(report.genuine_scores, genuine, rtol=1e-12,
                        atol=1e-12 * scale)
    npt.assert_allclose(report.impostor_scores, impostor, rtol=1e-12,
                        atol=1e-12 * scale)
    npt.assert_allclose(report.eer, gfda.equal_error_rate(genuine, impostor),
                        rtol=0, atol=1e-12)


@st.composite
def labeled_classes(draw):
    """Rows of 2-5 classes of 1-7 samples in dimension 1-8, shuffled, with
    unsorted integer or string labels; a class may be rank-deficient or,
    rarely, all zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    names = draw(st.sampled_from([[7, 3, 11, 0, 5],
                                  ["k", "b", "x", "a", "m"]]))
    X, y = [], []
    for c, n in enumerate(sizes):
        rank = draw(st.integers(1, min(n, L))) * (rng.random() > 0.05)
        rows = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, L))
        X.append(rows + (0.5 if rank and draw(st.booleans()) else 0.0))
        y += [names[c]] * n
    order = rng.permutation(len(y))
    return np.vstack(X)[order], [y[i] for i in order]


def first_fit_or_error(X, y, dim, energy):
    """The per-class loop: fit_class on each class in sorted label order,
    stopping at the first error."""
    models = []
    for label in sorted(set(y)):
        rows = X[[i for i, lab in enumerate(y) if lab == label]]
        try:
            models.append(gfda.fit_class(rows, label=label, dim=dim,
                                         energy=energy))
        except gfda.ValidationError as exc:
            return str(exc)
    return models


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(labeled_classes(),
       st.sampled_from([(None, None), (1, None), (2, None), (3, None),
                        (None, 0.5), (None, 0.9), (None, 1.0), (1, 0.5)]))
def test_fit_ensemble_matches_per_class_fit(data, rule):
    X, y = data
    dim, energy = rule
    expected = first_fit_or_error(X, y, dim, energy)
    if isinstance(expected, str):
        with pytest.raises(gfda.ValidationError) as caught:
            gfda.fit_ensemble(X, y, dim=dim, energy=energy)
        assert str(caught.value) == expected
        return
    ens = gfda.fit_ensemble(X, y, dim=dim, energy=energy)
    assert ens.labels == tuple(sorted(set(y)))
    for got, want in zip(ens.classes, expected):
        assert got.label == want.label and got.count == want.count
        npt.assert_array_equal(got.basis, want.basis)
        npt.assert_array_equal(got.eigenvalues, want.eigenvalues)
        npt.assert_array_equal(got.mean, want.mean)
        # the thin SVD of the class alone: U cut at the rank rule, each
        # column's first nonzero entry positive, eigenvalues s^2 / n
        rows = X[[i for i, lab in enumerate(y) if lab == got.label]]
        U, s, _ = np.linalg.svd(rows.T, full_matrices=False)
        keep = s**2 > linalg.RANK_TOL * s[0] ** 2
        U = U[:, keep]
        U *= np.where(U[np.argmax(np.abs(U) > 1e-12 * np.abs(U).max(axis=0),
                                  axis=0), np.arange(U.shape[1])] < 0,
                      -1.0, 1.0)
        npt.assert_array_equal(got.basis, U[:, :got.dim])
        npt.assert_array_equal(got.eigenvalues,
                               (s[keep] ** 2 / rows.shape[0])[:got.dim])
        npt.assert_array_equal(got.mean, rows.mean(axis=0))
