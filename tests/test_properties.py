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
eigenproblem.  The centred-data frame itself, built from the n x n Gram
of the centred rows, is checked against the thin SVD of those rows, and so
are the regLDA, nullLDA, pcaLDA and FDA models built on either frame.  The
gFDA family, built in the union Gram's coordinates, is checked against the
same constructions on the whole thin-SVD frame of the pooled bases.
Batched evaluation is checked against a
per-sample scoring loop, and the batched ensemble fit against fit_class on
each class and against the thin SVD of each class on its own.  The EER,
read off one merge of the sorted genuine and impostor scores, is checked
bit for bit against the same rule read at np.unique's knots.
"""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
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
    cos = reference.canonical_angles(A, B).cosines
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
    same_span(linalg.gram_schmidt(model.projector),
              linalg.gram_schmidt(wmap.T @ top))
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


def knot_equal_error_rate(genuine, impostor):
    """The EER read at np.unique's knots, with a sentinel on each side and
    one searchsorted pass per side for #impostor <= t and #genuine < t."""
    genuine, impostor = np.sort(genuine), np.sort(impostor)
    knots = np.unique(np.concatenate([genuine, impostor]))
    knots = np.concatenate([[knots[0] - 1.0], knots, [knots[-1] + 1.0]])
    far = 1.0 - np.searchsorted(impostor, knots, side="right") / impostor.size
    frr = np.searchsorted(genuine, knots, side="left") / genuine.size
    diff = far - frr
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return 100.0 * float(far[k])
    s = diff[k - 1] / (diff[k - 1] - diff[k])
    return 100.0 * float(far[k - 1] + s * (far[k] - far[k - 1]))


# signed zeros, repeats and any finite float; heavy ties; one-score sides
EER_SIDES = st.one_of(
    st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]),
                       st.floats(allow_nan=False, allow_infinity=False)),
             min_size=1, max_size=60),
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
             min_size=1, max_size=60),
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=1, max_size=1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(EER_SIDES, EER_SIDES)
def test_eer_matches_knot_route(genuine, impostor):
    genuine, impostor = np.array(genuine), np.array(impostor)
    eer = classify.equal_error_rate(genuine, impostor)
    assert (np.float64(eer).tobytes()
            == np.float64(knot_equal_error_rate(genuine, impostor)).tobytes())


@PROPERTY
@given(EER_SIDES, st.sampled_from([np.nan, np.inf, -np.inf]),
       st.booleans(), st.integers(0, 60))
def test_eer_rejects_non_finite_scores(scores, bad, on_genuine, where):
    where %= len(scores) + 1
    scores = scores[:where] + [bad] + scores[where:]
    sides = (scores, [0.0]) if on_genuine else ([0.0], scores)
    with pytest.raises(gfda.ValidationError, match="finite"):
        classify.equal_error_rate(*sides)


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
    import scipy.linalg  # here, so the file runs without scipy elsewhere

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


def svd_centred_frame(X, y):
    """Oracle for fisher._centred_frame: the thin SVD of the centred rows,
    X - m = W S V^T, cut where s^2 <= RANK_TOL s_max^2, with V's columns
    sign-fixed as the frame Q, Z = (X - m) Q and lift(D) = Q D."""
    X = np.asarray(X, dtype=float)
    labels, rows = fisher.group_by_label(np.arange(len(X)), y)
    centred = X - X.mean(axis=0)
    _, s, Vt = np.linalg.svd(centred, full_matrices=False)
    r = int(np.sum(s**2 > linalg.RANK_TOL * s[0] ** 2))
    Q = linalg.fix_signs(Vt[:r].T)
    return labels, rows, s[:r], centred @ Q, lambda D: Q[:, :len(D)] @ D


def frame_of(centred_frame, X, y):
    """(s, Q): the singular values and the (L, r) frame a _centred_frame
    return implies, Q = lift(I)."""
    *_, s, _, lift = centred_frame(X, y)
    return s, lift(np.eye(s.size))


def gram_route(s):
    """Whether _centred_frame takes the n x n route for singular values s
    (descending): Z = W diag(s) is then accurate to about
    eps s_max^2 / s_min^2, within linalg.ORTHO_IP_TOL."""
    return np.finfo(float).eps * s[0] ** 2 <= linalg.ORTHO_IP_TOL * s[-1] ** 2


def sine_distance(U_ref, U):
    """||(I - U_ref U_ref^T) U||_2: resolves angles below sqrt(2 eps)."""
    return np.linalg.norm(U - U_ref @ (U_ref.T @ U), 2)


def spectrum_rows(rng, sizes, L, ratio, distinct):
    """Rows of classes of the given sizes in dimension L.  Class c has
    distinct[c] distinct rows, repeated in turn to fill its size; the m
    centred distinct rows have r = min(m - 1, L) singular values falling
    geometrically from 1 to ratio = s_min/s_max, around a random offset."""
    m = sum(distinct)
    r = min(m - 1, L)
    left = rng.standard_normal((m, r))
    left = np.linalg.qr(left - left.mean(axis=0))[0]
    right = np.linalg.qr(rng.standard_normal((L, r)))[0]
    rows = (left * ratio ** (np.arange(r) / max(r - 1, 1))) @ right.T
    rows += 3.0 * rng.standard_normal(L)
    starts = np.cumsum([0] + list(distinct))
    X = np.vstack([rows[a + np.arange(k) % d]
                   for a, k, d in zip(starts, sizes, distinct)])
    return X, np.repeat(np.arange(len(sizes)), sizes)


@st.composite
def centred_spectra(draw):
    """Rows of 2-6 classes of 2-5 samples, n in all, in dimension L: either
    n - 3 <= L < n, where the frame fills the space, or n <= L <= 200.  The
    centred distinct rows have singular values falling geometrically from 1
    to s_min/s_max in {1, 1e-2, 1e-4}.  With repeats, each class repeats
    some of its rows, so rank(X - m) < n - 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=6))
    n = sum(sizes)
    L = (n - draw(st.integers(1, 3)) if draw(st.booleans())
         else draw(st.integers(n, 200)))
    ratio = draw(st.sampled_from([1.0, 1e-2, 1e-4]))
    repeats = draw(st.booleans())
    distinct = [draw(st.integers(1, k - 1)) if repeats else k for k in sizes]
    return spectrum_rows(rng, sizes, L, ratio, distinct)


FDA_FAMILY = (gfda.fda, gfda.reg_lda, gfda.pca_lda, gfda.null_lda)


def built(build, X, y):
    """The model, or the error text of a construction that does not apply."""
    try:
        return build(X, y)
    except gfda.GfdaError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_models(X, y, tol=1e-9):
    """Every FDA-family model built on _centred_frame matches the one built
    on the SVD frame: the same error, or the same dimension, pcaLDA
    components, fallback and null dimension, an orthonormal projector and a
    projector span within tol.  Under pcaLDA's 1e-8 ridge, rounding of order
    eps ||S_w|| is amplified by 1 / 1e-8."""
    with mock.patch.object(fisher, "_centred_frame", svd_centred_frame):
        want = [built(build, X, y) for build in FDA_FAMILY]
    for got, ref in zip([built(build, X, y) for build in FDA_FAMILY], want):
        if isinstance(ref, str):
            assert got == ref
            continue
        assert got.method == ref.method and got.dim == ref.dim
        for key in ("n_components", "null_dim"):
            assert got.info.get(key) == ref.info.get(key)
        assert ("fallback" in got.info) == ("fallback" in ref.info)
        linalg.as_ortho_basis(got.projector)
        bound = tol
        if "fallback" in ref.info:
            bound += 100 * np.finfo(float).eps * np.linalg.norm(
                gfda.within_scatter(fisher.group_by_label(X, y)[1]), 2) / 1e-8
        assert sine_distance(ref.projector, got.projector) <= bound


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(centred_spectra())
def test_centred_frame_matches_svd_route(data):
    """The Gram route's frame, Q = lift(I), has the SVD route's rank and
    spans its frame to 1e-10 in the sine form; s^2 agrees to the
    eigensolver's scale, 1e-13 s_max^2.  Only a frame near the rank cut is
    lifted to L dimensions as a whole.  Every FDA-family model built on it
    matches the one built on the SVD frame (assert_same_models)."""
    X, y = data
    with mock.patch.object(linalg, "_lifted_frame",
                           wraps=linalg._lifted_frame) as lift_step:
        s, Q = frame_of(fisher._centred_frame, X, y)
    assert lift_step.called != gram_route(s)
    s_ref, Q_ref = frame_of(svd_centred_frame, X, y)
    assert Q.shape == Q_ref.shape
    assert sine_distance(Q_ref, Q) <= 1e-10
    npt.assert_allclose(s**2, s_ref**2, rtol=0, atol=1e-13 * s_ref[0] ** 2)
    assert_same_models(X, y)


@pytest.mark.parametrize("L", [5, 9])
@pytest.mark.parametrize("ratio", [1e-2, 1e-4])
def test_centred_frame_guard(ratio, L):
    """Nine rows in classes of 2, 2 and 5 whose centred singular values
    fall to s_min/s_max = ratio.  At ratio 1e-2 (s^2 ratio 1e-4) the frame
    takes the n x n route and no (L, r) frame is formed; at 1e-4 (s^2
    ratio 1e-8, below eps / ORTHO_IP_TOL = 2.2e-6) it is lifted and
    re-orthonormalized, because W diag(s) drifts as eps s_max^2 / s_min^2:
    taken from the Gram there, FDA's projector at L = 5 sat 5.0e-8 and
    nullLDA's at L = 9 1.3e-9 from the SVD route's.  FDA applies at L = 5,
    nullLDA at L = 9."""
    X, y = spectrum_rows(np.random.default_rng(43), [2, 2, 5], L, ratio,
                         [2, 2, 5])
    s, _ = frame_of(svd_centred_frame, X, y)
    assert gram_route(s) == (ratio == 1e-2)
    with mock.patch.object(linalg, "_lifted_frame",
                           wraps=linalg._lifted_frame) as lift_step:
        assert_same_models(X, y)
    assert lift_step.called != gram_route(s)


def svd_union_frame(ens):
    """Oracle for fisher.union_frame: the thin SVD of the pooled basis,
    Phi = U S V^T, cut where s^2 <= RANK_TOL s_max^2, with U's columns
    sign-fixed and ordered by ascending s^2, the whole (L, K) frame formed,
    and B_U = (F U)'s pairwise-difference matrix from L-dimensional
    products.  Returns (U, s2, F, B_U)."""
    Phi = np.hstack([c.basis for c in ens.classes])
    U, s, _ = np.linalg.svd(Phi, full_matrices=False)
    r = int(np.sum(s**2 > linalg.RANK_TOL * s[0] ** 2))
    U = linalg.fix_signs(U[:, :r][:, ::-1])
    F = gfda.aligned_first_vectors(ens)
    return U, s[:r][::-1] ** 2, F, fisher.pairwise_difference_matrix(F @ U)


@st.composite
def frame_ensembles(draw):
    """2-6 classes of 1-3 dimensions in L = K + 2, 2 K or 4 K for K = C N,
    at separations from well apart (1) to near overlap (0.01), where
    s^2_min / s^2_max falls below the Gram route's guard on some draws."""
    C = draw(st.integers(2, 6))
    N = draw(st.integers(1, 3))
    L = C * N + draw(st.sampled_from([2, C * N, 3 * C * N]))
    separation = draw(st.sampled_from([1.0, 0.3, 0.05, 0.01]))
    seed = draw(st.integers(0, 2**32 - 1))
    return gfda.subspace_config(C, N, L, separation=separation, seed=seed)


def test_union_frame_constructions_match_svd_oracle():
    """gFDA-product, gFDA-linear, and GDS by dims and by gamma, built in the
    union Gram's coordinates, match the same constructions on the whole
    thin-SVD frame: spans to 1e-8 in the sine form, the same dims, and the
    selected eigenvalues and achieved power to rounding.  The draws take
    both sides of the Gram route's guard."""
    lifted = set()

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(frame_ensembles(), st.sampled_from([0.5, 0.9]),
           st.sampled_from(["one", "C-1", "K"]))
    def check(ens, gamma, which):
        C = ens.n_classes
        U, s2, F, B_U = svd_union_frame(ens)
        K = s2.size
        dims = {"one": 1, "C-1": C - 1, "K": K}[which]
        with mock.patch.object(linalg, "_lifted_frame",
                               wraps=linalg._lifted_frame) as lift_step:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                linear = gfda.gfda_linear_form(ens)
            product = gfda.gfda_product_form(ens)
            by_dims = gfda.gds_discriminant(ens, dims=dims)
            by_gamma = gfda.gds_discriminant(ens, gamma=gamma)
        lifted.add(lift_step.called)

        values, vectors = np.linalg.eigh(np.diag(s2) - B_U / C)
        assert sine_distance(U @ vectors[:, :C - 1], linear.projector) <= 1e-8
        npt.assert_allclose(linear.info["selected_eigenvalues"],
                            values[:C - 1], rtol=0,
                            atol=EIG_TOL * max(abs(values[-1]), 1.0))

        s = np.sqrt(s2)
        hats = F @ U / s
        centred = hats - hats.mean(axis=0)
        basis = linalg.gram_schmidt(centred[:C - 1].T)
        assert sine_distance(linalg.gram_schmidt(U @ (basis / s[:, None])),
                             linalg.gram_schmidt(product.projector)) <= 1e-8
        npt.assert_allclose(product.info["criterion_eigenvalues"],
                            C * np.sum((centred @ basis) ** 2, axis=0),
                            rtol=EIG_TOL)

        cumulative = np.cumsum(np.diag(B_U) / s2)
        reached = int(np.argmax(cumulative >= C * (C - 1) * gamma - 1e-9))
        for model, k in ((by_dims, dims), (by_gamma, reached + 1)):
            assert model.info["selection"]["dims"] == k
            assert sine_distance(U[:, :k], model.projector) <= 1e-8
            npt.assert_allclose(model.info["eigenvalues"], s2[:k], rtol=1e-10,
                                atol=1e-13 * s2[-1])
        npt.assert_allclose(by_gamma.info["selection"]["achieved_power"],
                            cumulative[reached], rtol=1e-10)

    check()
    assert lifted == {False, True}


def full_generalized_route(X, y, delta):
    """The L x L generalized eigenproblem (S_b, S_w + delta I): its C - 1
    leading eigenvectors, orthonormalized, and the class means projected
    onto them.  Returns (eigenvalues, basis, class_refs)."""
    import scipy.linalg  # here, so the file runs without scipy elsewhere

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
    """One sample at a time: score every class by its direct difference or
    cosine, pick the smallest label among exactly equal top scores, split
    off the genuine score.  The rows are projected by the one product
    evaluate takes: at a common offset of 1e6 a per-sample product rounds
    the projections differently by about 1e-10, which alone moves O(1)
    scores by 3e-11 of their largest."""
    refs = model.class_refs
    rnorms = np.linalg.norm(refs, axis=1)
    correct, confusion, genuine, impostor = 0, {}, [], []
    for t, true in zip(X @ model.projector, y):
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
    if rule == NEAREST_MEAN and not normalized:
        # a common offset of the test rows, carried into the references
        # (for regLDA, the projected training means) as if added to every
        # training row: O(1) distances between projections of order 1e6,
        # which -|t|^2 + 2 t.r - |r|^2 without centring loses to cancellation
        u = np.random.default_rng(seed).standard_normal(L)
        u *= data.draw(st.sampled_from([0.0, 1e6])) / np.linalg.norm(u)
        Xte = Xte + u
        refs += u @ model.projector
    if rule == NEAREST_MEAN and data.draw(st.booleans()):
        refs[1] = refs[0]  # the first two classes tie exactly on every sample
    model = replace(model, class_labels=tuple(names), class_refs=refs)
    yte = [rename[lab] for lab in yte]

    report = gfda.evaluate(model, Xte, yte, rule=rule)
    rate, confusion, genuine, impostor = per_sample_evaluate(model, Xte, yte,
                                                             rule)
    assert report.recognition_rate == rate
    assert report.confusion == confusion
    if rule == NEAREST_MEAN:  # minus a squared distance
        assert (report.genuine_scores <= 0).all()
        assert (report.impostor_scores <= 0).all()
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(labeled_classes(),
       st.sampled_from([(None, None), (1, None), (2, None), (None, 0.5),
                        (None, 0.9)]))
def test_fitted_models_pass_the_public_checks(data, rule):
    """Fitted ClassModels skip __post_init__; each is bitwise the model the
    public constructor builds from the same arrays, and that constructor
    accepts it."""
    X, y = data
    dim, energy = rule
    try:
        ens = gfda.fit_ensemble(X, y, dim=dim, energy=energy)
    except gfda.ValidationError:
        return
    for got in ens.classes:
        rebuilt = gfda.ClassModel(label=got.label, basis=got.basis,
                                  eigenvalues=got.eigenvalues, mean=got.mean,
                                  count=got.count)
        assert type(got) is gfda.ClassModel
        assert rebuilt.label == got.label and rebuilt.count == got.count
        assert type(rebuilt.count) is type(got.count)
        for name in ("basis", "eigenvalues", "mean"):
            want, have = getattr(rebuilt, name), getattr(got, name)
            assert want.dtype == have.dtype
            npt.assert_array_equal(have, want)


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
