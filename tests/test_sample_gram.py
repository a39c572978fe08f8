"""The sample-Gram route: class fits and every gFDA/GDS construction from
the Gram G = X X^T of the fitted rows, against the thin SVD of each class
and the stacked bases (the route a hand-built ensemble takes) and against
the L x L route of gfda.reference.  numpy only."""

import pickle
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfda
from gfda import linalg, reference
from gfda.errors import OverlapError, ValidationError

SPAN_TOL = 1e-8

# the tail of a class's singular values, and what the fit does with it:
# s^2 ratios 0.09 and 1e-4 stay in the Gram's coordinates (the second one
# with the CholeskyQR pass where its basis is formed), 1e-8 is past the
# guard's eps / ORTHO_IP_TOL = 2.2e-6, 4e-10 is kept just above the rank
# cut (and past the guard), 2.5e-11 is dropped just below it
TAILS = (0.3, 1e-2, 1e-4, 2e-5, 5e-6)


def sine_distance(U_ref, U):
    """||(I - U_ref U_ref^T) U||_2 for orthonormal U_ref and U."""
    return np.linalg.norm(U - U_ref @ (U_ref.T @ U), 2)


def orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@st.composite
def sample_sets(draw):
    """(X, y, tails): rows of 2-5 classes of 1-6 samples in L = 2, 4, 12 or
    30, shuffled; class c has rank r <= min(n, max(1, L // C)) (larger
    class subspaces meet, which ties eigenvalues of W, and any basis of a
    tied eigenspace is a valid answer), singular values falling
    geometrically from 1 to tails[c], and a random scale.  A class after
    the first may share its last right singular vector with the first
    class's (overlap: the pooled bases are dependent)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = draw(st.integers(2, 5))
    L = draw(st.sampled_from([2, 4, 12, 30]))
    shared = orthonormal(rng, L, 1)
    X, y, tails = [], [], []
    for c in range(C):
        n = draw(st.integers(1, 6))
        r = min(draw(st.integers(1, 4)), n, max(1, L // C))
        tail = draw(st.sampled_from(TAILS)) if r > 1 else 1.0
        V = orthonormal(rng, L, r)
        if c and r > 1 and draw(st.booleans()):
            V = np.linalg.qr(np.hstack([V[:, :-1], shared]))[0]
        s = np.geomspace(1.0, tail, r) * 4.0 ** draw(st.integers(-3, 3))
        X.append((orthonormal(rng, n, r) * s) @ V.T)
        y += [c] * n
        tails.append(tail)
    order = rng.permutation(len(y))
    return np.vstack(X)[order], [y[i] for i in order], tails


def svd_route(X, y, dim, energy):
    """The thin SVD of each class, cut by the rank rule and the rules,
    its columns sign-fixed, in a hand-built ensemble (bases stacked); or
    the first class's error text.  Also each class's kept s^2 ratio."""
    classes, ratios = [], []
    for label in sorted(set(y)):
        rows = X[[i for i, lab in enumerate(y) if lab == label]]
        n, L = rows.shape
        U, s, _ = np.linalg.svd(rows.T, full_matrices=False)
        vals = s[linalg.nonzero(s ** 2)] ** 2 / n
        if dim is not None and not 1 <= dim <= min(n, L):
            return f"dim must be in [1, min(n={n}, L={L})]", None
        if dim is not None and dim > vals.size:
            return (f"requested {dim} components but numerical rank is "
                    f"{vals.size}"), None
        k = dim or vals.size
        if energy is not None:
            share = np.cumsum(vals) / np.sum(vals)
            k = min(int(np.searchsorted(share, energy - 1e-15) + 1), vals.size)
        classes.append(gfda.ClassModel(label, linalg.fix_signs(U[:, :k]),
                                       vals[:k], rows.mean(axis=0), n))
        ratios.append(vals[k - 1] / vals[0])
    return gfda.SubspaceEnsemble(tuple(classes), X.shape[1]), ratios


CONSTRUCTIONS = {
    "linear": gfda.gfda_linear_form,
    "product": gfda.gfda_product_form,
    "gds-1": lambda ens: gfda.gds_discriminant(ens, dims=1),
    "gds-c": lambda ens: gfda.gds_discriminant(ens, dims=ens.n_classes - 1),
    "gds-gamma": lambda ens: gfda.gds_discriminant(ens, gamma=0.9),
}


def built(build, ens):
    """The model's orthonormalized projector, or the OverlapError type."""
    try:
        with mock.patch("warnings.warn"):  # the linear form's overlap warning
            return linalg.gram_schmidt(build(ens).projector)
    except (OverlapError, ValidationError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sample_sets(),
       st.sampled_from([(None, None), (1, None), (2, None), (None, 0.5),
                        (None, 0.9), (None, 1.0)]))
def test_sample_gram_route_matches_svd_and_full_routes(data, rule):
    """Each class's basis spans its thin SVD's to 1e-8 in the sine form,
    with the same dimension (ranks near the cut included), eigenvalues to
    1e-9 relative, the dim/energy rules' errors word for word, and every
    class past the guard fitted by the SVD itself, once, as is every class
    of an ensemble with a class of n > L rows.  The ensemble keeps its
    sample Gram exactly when no class took the SVD.
    Every gFDA/GDS projector spans the SVD route's to 1e-8 in the sine
    form, and the L x L route's (the null space of W - B/C, the leading
    nonzero eigenvectors of G = sum P_c) by the canonical-angle test; the
    product form raises OverlapError on both routes or on neither.  A GDS
    space whose dims cut a tie of G's spectrum (classes of unequal
    dimension tie G's eigenvalue 1) has no one answer and is skipped."""
    X, y, tails = data
    dim, energy = rule
    oracle, ratios = svd_route(X, y, dim, energy)
    if isinstance(oracle, str):
        with pytest.raises(ValidationError) as caught:
            gfda.fit_ensemble(X, y, dim=dim, energy=energy)
        assert str(caught.value) == oracle
        return
    with mock.patch.object(linalg, "range_basis",
                           wraps=linalg.range_basis) as svd:
        ens = gfda.fit_ensemble(X, y, dim=dim, energy=energy)
    sizes = [c.count for c in ens.classes]
    by_svd = [n > X.shape[1] or ratio < 2.2e-6
              for n, ratio in zip(sizes, ratios)]
    if any(n > X.shape[1] for n in sizes):  # no Gram: one SVD per class
        assert svd.call_count == len(sizes) and ens.samples is None
    else:
        assert svd.call_count == sum(by_svd)
    if dim is None and not any(by_svd):
        assert ens.samples is not None
    if any(by_svd):
        assert ens.samples is None
    for got, want in zip(ens.classes, oracle.classes):
        assert got.dim == want.dim and got.count == want.count
        assert sine_distance(want.basis, got.basis) <= SPAN_TOL
        npt.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-9)
        npt.assert_array_equal(linalg.fix_signs(got.basis), got.basis)
    eig = linalg.sym_eig(reference.sum_matrix(oracle))
    kept = linalg.nonzero(eig.values)
    vals, vecs = eig.values[kept], eig.vectors[:, kept]  # ascending

    def tied(d):  # d dims of GDS cut a tie of G's spectrum: no one answer
        return d < vals.size and vals[d] - vals[d - 1] <= 1e-8 * vals[-1]

    for name, build in CONSTRUCTIONS.items():
        if name == "gds-c" and ens.n_classes - 1 > vals.size:
            continue
        got, want = built(build, ens), built(build, oracle)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            continue
        if name.startswith("gds") and (tied(got.shape[1])
                                       or tied(want.shape[1])):
            continue
        assert sine_distance(want, got) <= SPAN_TOL
        full = (vecs[:, :got.shape[1]] if name.startswith("gds")
                else reference.gfda_null_space(oracle))
        cos = reference.canonical_angles(full, got).cosines
        assert 1.0 - cos.min() <= SPAN_TOL


def image_like(seed=2):
    """12 classes of 4 mixtures in L = 200: K = 48, far below L."""
    return gfda.labeled_mixtures(12, 200, 4, "Set1", seed=seed)


@pytest.mark.parametrize("build", list(CONSTRUCTIONS.values()),
                         ids=list(CONSTRUCTIONS))
def test_well_conditioned_build_forms_no_pooled_basis(monkeypatch, build):
    """A fit and a build in the paper's regime run in the sample Gram's
    coordinates: no SVD, no stacked (L, K) pooled basis, no class basis
    formed, and the frame, where one is taken, is of X^T Mc with M from
    the Gram.  The model is the stacked route's on the same class models
    (the fitted bases stacked, ``samples`` dropped) to 1e-10 of its
    largest entry (measured: 1.0e-13 for the gFDA forms, 2.9e-12 for GDS,
    whose eigenvectors carry M's rounding over their eigengaps)."""
    X, y = image_like()
    svds, stacked, framed = [], [], []
    svd, hstack, frame = np.linalg.svd, np.hstack, linalg.gram_frame
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svds.append(1) or svd(*a, **k))
    monkeypatch.setattr(np, "hstack",
                        lambda arrays: stacked.append(1) or hstack(arrays))
    monkeypatch.setattr(linalg, "gram_frame", lambda A, G=None, C=None: (
        framed.append((A.shape, C is None)) or frame(A, G, C)))
    ens = gfda.fit_ensemble(X, y)
    model = build(ens)
    assert svds == [] and stacked == []
    assert all(shape == (200, 48) and not plain for shape, plain in framed)
    assert not any("basis" in vars(c) for c in ens.classes)
    monkeypatch.undo()
    plain = build(gfda.SubspaceEnsemble(ens.classes, 200))
    for got, want in ((model.projector, plain.projector),
                      (model.class_refs, plain.class_refs)):
        npt.assert_allclose(got, want, rtol=0,
                            atol=1e-10 * np.abs(want).max())


def test_basis_is_formed_on_first_use():
    """A fitted basis is formed once, when first read, from the class's
    rows: orthonormal, sign-fixed, and fit_class's on those rows.  A model
    pickles with its basis formed."""
    X, y = image_like(3)
    ens = gfda.fit_ensemble(X, y)
    c = ens.classes[4]
    assert "basis" not in vars(c) and c.dim == 4 and c.ambient_dim == 200
    basis = c.basis
    assert c.basis is basis and "basis" in vars(c)
    linalg.as_ortho_basis(basis)
    npt.assert_array_equal(linalg.fix_signs(basis), basis)
    rows = X[[i for i, lab in enumerate(y) if lab == c.label]]
    npt.assert_allclose(gfda.fit_class(rows).basis, basis, rtol=0,
                        atol=1e-12)
    with pytest.raises(AttributeError):
        c.missing  # noqa: B018
    copied = pickle.loads(pickle.dumps(ens))
    assert copied.samples is not None
    npt.assert_array_equal(copied.classes[0].basis, ens.classes[0].basis)
    npt.assert_array_equal(gfda.gfda_linear_form(copied).projector,
                           gfda.gfda_linear_form(ens).projector)


def test_small_subspace_dim_keeps_the_sample_gram():
    """One vector from each 20-row class still comes from the rows' Gram:
    the route is chosen by the class sizes alone.  Its classes are
    fit_class's, their vectors the leading ones of the fit that keeps
    every vector, and each model is the stacked route's on the same class
    models to rounding."""
    X, y = gfda.labeled_mixtures(3, 50, 20, "Set1", seed=4)
    ens = gfda.fit_ensemble(X, y, dim=1)
    assert ens.samples is not None and ens.samples[2].shape == (60, 3)
    pooled = gfda.fit_ensemble(X, y)
    for c, full in zip(ens.classes, pooled.classes):
        rows = X[[i for i, lab in enumerate(y) if lab == c.label]]
        one = gfda.fit_class(rows, label=c.label, dim=1)
        npt.assert_allclose(c.basis, one.basis, rtol=0, atol=1e-12)
        npt.assert_allclose(c.eigenvalues, one.eigenvalues, rtol=1e-12)
        npt.assert_allclose(c.basis[:, 0], full.basis[:, 0], rtol=0,
                            atol=1e-12)
    for build in CONSTRUCTIONS.values():
        model = build(ens)
        stacked = build(gfda.SubspaceEnsemble(ens.classes, 50))
        npt.assert_allclose(model.projector, stacked.projector, rtol=0,
                            atol=1e-10 * np.abs(stacked.projector).max())


def test_fitted_bases_do_not_follow_changed_rows():
    """fit_class fits a copy of the rows, so a later change to the
    caller's array leaves its model as it was.  fit_ensemble keeps the
    caller's rows and forms a basis from them when first read, so a basis
    read before a change stays, and one read after a change that breaks
    its orthonormality raises its class's error, on every read."""
    X, y = image_like(3)
    rows = X[[i for i, lab in enumerate(y) if lab == y[0]]]
    want = gfda.fit_class(rows.copy(), label=y[0])
    one = gfda.fit_class(rows, label=y[0])
    read = gfda.fit_ensemble(X, y)
    kept = [c.basis.copy() for c in read.classes]
    for change in (lambda A: A.__imul__(2.0), lambda A: A.fill(0.0)):
        fresh = gfda.fit_ensemble(X, y)
        change(rows)
        change(X)
        npt.assert_array_equal(one.basis, want.basis)
        npt.assert_array_equal(one.mean, want.mean)
        for c, basis in zip(read.classes, kept):
            npt.assert_array_equal(c.basis, basis)
        for _ in range(2):
            with pytest.raises(ValidationError,
                               match="class .c00. basis columns are not unit"):
                fresh.classes[0].basis  # noqa: B018


def test_rows_out_of_label_runs_are_reordered():
    """Rows already in label runs are the ensemble's own (no copy); others
    are copied into runs once, and the fit and the models agree to
    rounding, as the class Grams' rows come in another order."""
    X, y = image_like(5)
    ens = gfda.fit_ensemble(X, y)
    assert ens.samples[0] is X
    order = np.random.default_rng(0).permutation(len(y))
    shuffled = gfda.fit_ensemble(X[order], [y[i] for i in order])
    assert shuffled.samples[0] is not X
    for a, b in zip(ens.classes, shuffled.classes):
        npt.assert_allclose(a.basis, b.basis, rtol=0, atol=1e-12)
    for build in CONSTRUCTIONS.values():
        a, b = build(ens).projector, build(shuffled).projector
        npt.assert_allclose(a, b, rtol=0, atol=1e-10 * np.abs(a).max())


@pytest.mark.parametrize("k", [-400, -60, 60, 400])
def test_power_of_two_scale_leaves_models_unchanged(k):
    """X 2^k fits the same bases and eigenvalues times 4^k, so every gFDA
    and GDS model is X's bit for bit: the class Grams are rescaled by an
    exact power of two before their eigh, which LAPACK would otherwise
    rescale by a rounded factor past 1e146 or below 1e-146."""
    X, y = gfda.labeled_mixtures(10, 60, 4, "Set1", seed=1)
    ens, scaled = gfda.fit_ensemble(X, y), gfda.fit_ensemble(np.ldexp(X, k), y)
    for a, b in zip(ens.classes, scaled.classes):
        npt.assert_array_equal(a.basis, b.basis)
        npt.assert_array_equal(np.ldexp(a.eigenvalues, 2 * k), b.eigenvalues)
    for build in CONSTRUCTIONS.values():
        a, b = build(ens), build(scaled)
        npt.assert_array_equal(a.projector, b.projector)
        npt.assert_array_equal(a.class_refs, b.class_refs)
