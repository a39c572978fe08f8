import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gfda
from gfda import fisher, linalg, reference
from gfda.errors import (NotApplicableError, OverlapError,
                         UndefinedDirectionError, ValidationError)


def line_model(label, direction, mean=None):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return gfda.ClassModel(label=label, basis=d[:, None],
                           eigenvalues=np.array([1.0]),
                           mean=d.copy() if mean is None else np.asarray(mean, float),
                           count=1)


def uncertified(ens, closed_form=fisher._gfda_map):
    """fisher._gfda_map with the Cholesky's certificate withheld, so both
    gFDA forms take the closed form on the frame gram_frame(Phi, M)."""
    with mock.patch.object(fisher, "_certified", lambda M: False):
        return closed_form(ens)


def rank_deficient_ensemble():
    """Three 2-dimensional classes in R^8 whose second basis vector is the
    same e_1: the pooled basis has rank 4 < K = 6, while the first basis
    vectors are independent."""
    rng = np.random.default_rng(94)
    e1 = np.eye(8)[0]
    classes = []
    for i in range(3):
        B = linalg.gram_schmidt(
            np.column_stack([e1, rng.standard_normal(8)]))[:, ::-1]
        classes.append(gfda.ClassModel(i, B, np.array([2.0, 1.0]), B[:, 0], 5))
    return gfda.SubspaceEnsemble(tuple(classes), 8)


def readme_scale_ensemble():
    """small-protocol's shape: the README-scale Set1 mixture (C = 10,
    L = 60) fitted from 4 rows per class, seed 3."""
    return gfda.fit_ensemble(*gfda.labeled_mixtures(10, 60, 4, "Set1", seed=3))


def sixty_degree_ensemble():
    c1 = line_model("a", [1.0, 0.0])
    c2 = line_model("b", [0.5, np.sqrt(3) / 2])
    return gfda.SubspaceEnsemble((c1, c2), ambient_dim=2)


class TestScatterMatrices:
    def test_within_zero_when_samples_equal_means(self):
        groups = [np.tile([1.0, 2.0], (4, 1)), np.tile([3.0, -1.0], (3, 1))]
        npt.assert_allclose(gfda.within_scatter(groups), np.zeros((2, 2)))

    def test_within_one_dimensional(self):
        npt.assert_allclose(gfda.within_scatter([np.array([[0.0], [2.0]])]),
                            [[1.0]])

    def test_within_matches_autocorrelation_form(self):
        rng = np.random.default_rng(50)
        groups = [rng.standard_normal((n, 6)) + rng.standard_normal(6)
                  for n in (5, 8, 3)]
        n = sum(g.shape[0] for g in groups)
        direct = gfda.within_scatter(groups)
        rform = sum(g.shape[0] * (g.T @ g / g.shape[0]
                                  - np.outer(g.mean(0), g.mean(0)))
                    for g in groups) / n
        npt.assert_allclose(direct, rform, atol=1e-12)
        loop = sum((g - g.mean(0)).T @ (g - g.mean(0)) for g in groups) / n
        npt.assert_allclose(direct, loop, atol=1e-12)

    def test_between_zero_when_means_equal(self):
        means = np.tile([1.0, 2.0], (3, 1))
        counts = np.array([4, 5, 6])
        npt.assert_allclose(gfda.between_scatter(means, counts),
                            np.zeros((2, 2)), atol=1e-15)

    def test_between_forms_symmetric_pair(self):
        u = np.array([1.0, -2.0]) / np.sqrt(5)
        means = np.array([u, -u])
        counts = np.array([7, 7])
        b1 = gfda.between_scatter(means, counts)
        b2 = gfda.between_scatter_pairwise(means, counts)
        npt.assert_allclose(b1, b2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_between_forms_random(self, seed):
        rng = np.random.default_rng(seed)
        means = rng.standard_normal((4, 7))
        counts = rng.integers(1, 20, size=4)
        b1 = gfda.between_scatter(means, counts)
        b2 = gfda.between_scatter_pairwise(means, counts)
        assert np.linalg.norm(b1 - b2) <= 1e-12 * np.linalg.norm(b1)

    def test_autocorrelation_identity(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((20, 5)) + 3.0
        R = X.T @ X / 20
        cov = (X - X.mean(0)).T @ (X - X.mean(0)) / 20
        m = X.mean(0)
        assert np.linalg.norm(R - (cov + np.outer(m, m))) \
            <= 1e-12 * np.linalg.norm(R)


class TestScatterLadder:
    def test_gfda_two_class_construction(self):
        ens = sixty_degree_ensemble()
        pair = gfda.scatter_ladder(ens, "gFDA")
        p1 = ens.classes[0].basis[:, 0]
        p2 = ens.classes[1].basis[:, 0]
        z = p1 - p2
        npt.assert_allclose(pair.between, np.outer(z, z), atol=1e-14)
        npt.assert_allclose(pair.within,
                            np.outer(p1, p1) + np.outer(p2, p2), atol=1e-14)

    def test_identical_subspaces_zero_between(self):
        d = np.array([0.6, 0.8])
        ens = gfda.SubspaceEnsemble(
            (line_model("a", d), line_model("b", d)), ambient_dim=2)
        pair = gfda.scatter_ladder(ens, "gFDA")
        npt.assert_allclose(pair.between, np.zeros((2, 2)), atol=1e-14)

    @pytest.mark.parametrize("C", [3, 5, 8])
    def test_between_rank_is_c_minus_one(self, C):
        ens = gfda.subspace_config(C, 2, 4 * C, seed=60 + C)
        pair = gfda.scatter_ladder(ens, "gFDA")
        vals = np.linalg.eigvalsh(pair.between)
        assert np.sum(vals > 1e-10 * vals.max()) == C - 1

    def test_fda_rung_matches_data_scatter(self):
        # full-spectrum class models reproduce the data-space matrices
        rng = np.random.default_rng(61)
        groups = [rng.standard_normal((6, 4)) + m
                  for m in (np.zeros(4), np.full(4, 2.0), np.full(4, -1.0))]
        X = np.vstack(groups)
        y = ["a"] * 6 + ["b"] * 6 + ["c"] * 6
        ens = gfda.fit_ensemble(X, y)
        pair = gfda.scatter_ladder(ens, "FDA")
        npt.assert_allclose(pair.within, gfda.within_scatter(groups),
                            atol=1e-10)
        means = np.array([g.mean(0) for g in groups])
        counts = np.array([6, 6, 6])
        npt.assert_allclose(pair.between,
                            gfda.between_scatter(means, counts), atol=1e-10)

    def test_variance_clamp_warns(self):
        # a truncated fit can leave lambda_1 below ||mean||^2
        basis = np.array([[1.0], [0.0]])
        c1 = gfda.ClassModel("a", basis, np.array([0.5]),
                             mean=np.array([1.0, 0.0]), count=1)
        c2 = line_model("b", [0.0, 1.0])
        ens = gfda.SubspaceEnsemble((c1, c2), ambient_dim=2)
        with pytest.warns(RuntimeWarning, match="clamped"):
            gfda.scatter_ladder(ens, "aFDA")

    def test_unequal_counts_warn(self):
        rng = np.random.default_rng(62)
        X = np.vstack([rng.standard_normal((3, 4)) + 2,
                       rng.standard_normal((5, 4)) - 2])
        y = ["a"] * 3 + ["b"] * 5
        ens = gfda.fit_ensemble(X, y)
        with pytest.warns(RuntimeWarning, match="counts"):
            gfda.scatter_ladder(ens, "aFDA")

    def test_ladder_consistency_afda_approaches_fda(self):
        # class means dominate the spread: the approximated rung converges
        # to the exact one (||m|| / sigma = 100; n large enough that the
        # sampling floor sigma^2 sqrt(L/n) is well below the class scale)
        rng = np.random.default_rng(63)
        L, n = 6, 2000
        means = 100.0 * np.vstack([np.eye(L)[i] for i in range(3)])
        groups = [m + rng.standard_normal((n, L)) for m in means]
        X = np.vstack(groups)
        y = sum(([lab] * n for lab in "abc"), [])
        ens = gfda.fit_ensemble(X, y)
        fda_pair = gfda.scatter_ladder(ens, "FDA")
        afda_pair = gfda.scatter_ladder(ens, "aFDA")
        k = 2
        d_fda, _ = fisher._top_generalized_directions(
            fda_pair.between, fda_pair.within, k)
        d_afda, _ = fisher._top_generalized_directions(
            afda_pair.between, afda_pair.within, k)
        cos = reference.canonical_angles(linalg.gram_schmidt(d_fda),
                                         linalg.gram_schmidt(d_afda)).cosines
        assert cos.min() >= 0.999

    def test_unknown_rung_rejected(self):
        ens = sixty_degree_ensemble()
        with pytest.raises(ValidationError):
            gfda.scatter_ladder(ens, "xFDA")


class TestFisherCriterion:
    def test_zero_for_null_between_direction(self):
        pair = reference.ScatterPair(between=np.diag([1.0, 0.0]),
                                     within=np.eye(2), rung="FDA")
        assert gfda.fisher_criterion([0.0, 1.0], pair) == 0.0

    def test_gfda_basis_vector_scores_c(self):
        ens = gfda.subspace_config(4, 2, 24, seed=64)
        pair = gfda.scatter_ladder(ens, "gFDA")
        model = gfda.gfda_linear_form(ens)
        for j in range(model.dim):
            f = gfda.fisher_criterion(model.projector[:, j], pair)
            assert abs(f - 4) <= 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(65)
        B = rng.standard_normal((5, 5))
        W = rng.standard_normal((5, 5))
        pair = reference.ScatterPair(between=B @ B.T, within=W @ W.T,
                                     rung="FDA")
        d = rng.standard_normal(5)
        npt.assert_allclose(gfda.fisher_criterion(7.0 * d, pair),
                            gfda.fisher_criterion(d, pair), rtol=1e-12)

    def test_undefined_direction(self):
        pair = reference.ScatterPair(between=np.eye(2),
                                     within=np.diag([1.0, 0.0]), rung="FDA")
        with pytest.raises(UndefinedDirectionError):
            gfda.fisher_criterion([0.0, 1.0], pair)


class TestCriterionSpectrum:
    """Structural properties behind the dual forms."""

    @pytest.mark.parametrize("C,N", [(2, 1), (3, 2), (5, 1), (7, 3)])
    def test_flat_spectrum(self, C, N):
        ens = gfda.subspace_config(C, N, 4 * C * N, seed=70 + C + N)
        pair = gfda.scatter_ladder(ens, "gFDA")
        eig = linalg.sym_eig(pair.within)
        keep = eig.values > 1e-10 * eig.values[-1]
        Q = eig.vectors[:, keep]
        A = reference.whitening(Q.T @ pair.within @ Q)
        vals = linalg.sym_eig(A.T @ (Q.T @ pair.between @ Q) @ A).values
        npt.assert_allclose(vals[-(C - 1):], np.full(C - 1, C), atol=1e-8 * C)
        if vals.size > C - 1:
            assert np.max(np.abs(vals[:-(C - 1)])) <= 1e-8 * C

    @pytest.mark.parametrize("C,N", [(2, 1), (3, 2), (5, 1), (7, 3)])
    def test_duality_of_forms(self, C, N):
        ens = gfda.subspace_config(C, N, 4 * C * N, seed=80 + C + N)
        prod = linalg.gram_schmidt(gfda.gfda_product_form(ens).projector)
        lin = linalg.gram_schmidt(gfda.gfda_linear_form(ens).projector)
        oracle = reference.gfda_null_space(ens)
        for a, b in ((prod, oracle), (lin, oracle), (prod, lin)):
            assert reference.canonical_angles(a, b).cosines.min() >= 1 - 1e-8

    @pytest.mark.parametrize("C", range(2, 9))
    def test_reference_difference_matrix_spectrum(self, C):
        M = C * np.eye(C) - np.ones((C, C))
        vals = linalg.sym_eig(M).values
        npt.assert_allclose(vals, [0.0] + [float(C)] * (C - 1), atol=1e-10)

    @pytest.mark.parametrize("C,N", [(2, 2), (4, 3), (6, 1)])
    def test_ghat_weight_identity(self, C, N):
        ens = gfda.subspace_config(C, N, 3 * C * N, seed=90 + C + N)
        pair = gfda.scatter_ladder(ens, "gFDA")
        _, w5 = gfda.gds_decomposition(ens)
        ghat = pair.within - pair.between / C
        coef = 1.0 / (2 * (C - 1)) - 1.0 / C
        recon = coef * pair.between + w5
        assert np.max(np.abs(recon - ghat)) <= 1e-10 * np.linalg.norm(ghat)


class TestGfdaForms:
    def test_two_class_direction(self):
        ens = sixty_degree_ensemble()
        p1 = ens.classes[0].basis[:, 0]
        p2 = ens.classes[1].basis[:, 0]
        z = (p2 - p1) / np.linalg.norm(p2 - p1)
        for model in (gfda.gfda_product_form(ens), gfda.gfda_linear_form(ens)):
            eff = linalg.gram_schmidt(model.projector)
            assert eff.shape == (2, 1)
            assert abs(eff[:, 0] @ z) >= 1 - 1e-10

    def test_whitened_first_vectors_orthogonal(self):
        ens = gfda.subspace_config(3, 2, 20, seed=91)
        model = gfda.gfda_product_form(ens)
        firsts = gfda.aligned_first_vectors(ens)
        # whitening by W^(-1/2) on the range of W: hats^T hats = F W^+ F^T
        gram = firsts @ np.linalg.pinv(gfda.sum_matrix(ens), rcond=1e-10) \
            @ firsts.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8
        npt.assert_allclose(np.diag(gram), np.ones(3), atol=1e-8)
        P = model.projector
        white = P.T @ gfda.sum_matrix(ens) @ P
        npt.assert_allclose(white, np.eye(model.dim), atol=1e-8)
        npt.assert_allclose(gfda.aligned_first_vectors(ens) @ P,
                            model.class_refs, atol=1e-8)

    def test_product_form_dimensions(self):
        ens = gfda.subspace_config(5, 2, 30, seed=92)
        model = gfda.gfda_product_form(ens)
        assert model.dim == 4
        assert model.method == "gFDA-product"
        assert model.class_refs.shape == (5, 4)
        assert model.projector.shape == (30, 4)

    def test_product_form_independent_of_frame_basis(self, monkeypatch):
        # mutually orthogonal class subspaces give G = sum_c P_c with every
        # s^2 = 1, so U R is as valid a frame as U for any orthogonal R; the
        # model must not depend on which one the factorization returns.
        # Their pooled Gram is I, certified, so the frame is the closed
        # form's on gram_frame(Phi, M), taken by withholding the certificate
        rng = np.random.default_rng(96)
        C, N, L = 5, 2, 24
        Q = np.linalg.qr(rng.standard_normal((L, C * N)))[0]
        ens = gfda.SubspaceEnsemble(tuple(
            gfda.ClassModel(c, Q[:, c * N:(c + 1) * N], np.array([2.0, 1.0]),
                            3.0 * Q[:, c * N], 4) for c in range(C)), L)
        closed = gfda.gfda_product_form(ens)
        monkeypatch.setattr(fisher, "_gfda_map", uncertified)
        plain = gfda.gfda_product_form(ens)
        npt.assert_allclose(plain.projector, closed.projector, atol=1e-12)
        A, Mc, M, _, _ = fisher._pooled(ens)
        s, Z, lift = linalg.gram_frame(A, M, Mc)
        npt.assert_allclose(s**2, np.ones(C * N), atol=1e-12)
        R = np.linalg.qr(rng.standard_normal((C * N, C * N)))[0]
        # the frame U R: coordinates Z R, lift(D) = U R D and lift() = U R,
        # with U = lift(I), the frame in the column order of Z
        U = lift(np.eye(C * N))
        monkeypatch.setattr(linalg, "gram_frame", lambda *args: (
            s, Z @ R, lambda D=None: U @ R if D is None else U @ (R @ D)))
        rotated = gfda.gfda_product_form(ens)
        npt.assert_allclose(rotated.projector, plain.projector, atol=1e-12)
        npt.assert_allclose(rotated.class_refs, plain.class_refs, atol=1e-12)
        npt.assert_allclose(rotated.info["criterion_eigenvalues"],
                            np.full(C - 1, float(C)), rtol=1e-12)

    def test_product_form_overlap_rejected(self):
        d = np.array([1.0, 0.0, 0.0])
        ens = gfda.SubspaceEnsemble((line_model("a", d), line_model("b", d)),
                                    ambient_dim=3)
        with pytest.raises(OverlapError):
            gfda.gfda_product_form(ens)

    def test_linear_form_near_zero_eigenvalues(self):
        ens = gfda.subspace_config(4, 3, 36, seed=93)
        model = gfda.gfda_linear_form(ens)
        assert max(model.info["selected_eigenvalues"]) <= 1e-8

    def test_linear_form_overlap_warns(self):
        # three 2-dimensional classes sharing one exact direction: the
        # selected eigenvalues lift off zero and the diagnostic fires
        rng = np.random.default_rng(94)
        e1 = np.eye(8)[0]
        classes = []
        for i in range(3):
            B = linalg.gram_schmidt(np.column_stack([e1, rng.standard_normal(8)]))
            classes.append(gfda.ClassModel(i, B, np.array([2.0, 1.0]),
                                           B[:, 0], 5))
        ens = gfda.SubspaceEnsemble(tuple(classes), 8)
        with pytest.warns(RuntimeWarning, match="overlap"):
            gfda.gfda_linear_form(ens)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_form_basis_follows_the_data(self, seed):
        # the C - 1 selected eigenvalues all sit at zero, so an eigensolver
        # may return any basis of that eigenspace; the projector is chosen
        # from the data, and two ensembles 1e-15 apart give the same one
        # (an eigh basis moved by 1.2-1.8x the largest entry here)
        ens = gfda.subspace_config(6, 3, 72, seed=seed)
        rng = np.random.default_rng(seed)
        nudged = gfda.SubspaceEnsemble(tuple(
            replace(c, basis=c.basis + 1e-15 * rng.standard_normal(
                c.basis.shape)) for c in ens.classes), ens.ambient_dim)
        P = gfda.gfda_linear_form(ens).projector
        other = gfda.gfda_linear_form(nudged).projector
        assert P.shape == other.shape == (72, 5)
        npt.assert_allclose(other, P, rtol=0, atol=1e-9 * np.abs(P).max())

    def test_linear_form_single_sample_per_class(self):
        # the small-sample regime the linear combination form exists for
        rng = np.random.default_rng(95)
        X = rng.standard_normal((4, 50)) + 5.0
        y = list("abcd")
        ens = gfda.fit_ensemble(X, y)
        assert all(c.count == 1 and c.dim == 1 for c in ens.classes)
        model = gfda.gfda_linear_form(ens)
        assert model.dim == 3

    def test_normalized_variant_tags(self):
        ens = sixty_degree_ensemble()
        model = gfda.with_normalization(gfda.gfda_linear_form(ens))
        assert model.method == "gFDA-linear+N"
        back = gfda.with_normalization(model, False)
        assert back.method == "gFDA-linear"
        again = gfda.with_normalization(back)
        assert again.method == "gFDA-linear+N" and again.normalized


class TestGdsDiscriminant:
    def test_selection_recorded(self):
        ens = gfda.subspace_config(5, 3, 40, seed=96)
        model = gfda.gds_discriminant(ens, gamma=0.9)
        assert model.method == "GDS"
        sel = model.info["selection"]
        assert sel["rule"] == "power" and sel["beta"] == pytest.approx(18.0)
        assert model.dim == sel["dims"]

    def test_normalized_tag(self):
        ens = gfda.subspace_config(3, 1, 9, seed=97)
        model = gfda.with_normalization(gfda.gds_discriminant(ens, dims=2))
        assert model.method == "GDS+N"


def count_framings(monkeypatch):
    """Wrap linalg.gram_frame, the one factorization behind every union-span
    frame, and linalg._formed_frame, which forms frame columns in L
    dimensions; returns the log of each call's (A, Gram) argument pair
    ("framed") and of the number of columns formed ("formed")."""
    log = {"framed": [], "formed": []}
    frame, form = linalg.gram_frame, linalg._formed_frame

    def framed(A, G=None, C=None):
        log["framed"].append((A, G))
        return frame(A, G, C)

    def formed(A, W, reorthonormalize, Z=None):
        log["formed"].append(W.shape[1])
        return form(A, W, reorthonormalize, Z)

    monkeypatch.setattr(linalg, "gram_frame", framed)
    monkeypatch.setattr(linalg, "_formed_frame", formed)
    return log


def watch_pooling(monkeypatch):
    """Mark every array np.hstack returns as a pooled basis, and log: the
    marked arrays ("stacked"), the number of products of a marked array
    with a marked one, that is of pooled Grams ("grams"), count_framings'
    "framed" and "formed", and the eigh, eigvalsh and svd calls
    ("factorized")."""
    log = {"stacked": [], "grams": 0, "factorized": [],
           **count_framings(monkeypatch)}

    class Pooled(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and all(isinstance(x, Pooled)
                                          for x in inputs):
                log["grams"] += 1
            def plain(arrays):
                return [x.view(np.ndarray) if isinstance(x, Pooled) else x
                        for x in arrays]
            if "out" in kwargs:
                kwargs["out"] = tuple(plain(kwargs["out"]))
            return getattr(ufunc, method)(*plain(inputs), **kwargs)

        def __array_wrap__(self, array, context=None, return_scalar=False):
            # np.linalg wraps its factors of a marked array (svd's U, say)
            # in the array's type: they are not the pooled basis
            return array.view(np.ndarray)

    def logged(record, real, mark=False):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            if mark:
                out = out.view(Pooled)
            record.append(out if mark else args[0])
            return out
        return call

    monkeypatch.setattr(np, "hstack", logged(log["stacked"], np.hstack,
                                             mark=True))
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, logged(
            log["factorized"], getattr(np.linalg, name)))
    return log


class TestUnionFrame:
    def test_frame_matches_full_route(self):
        # GDS at dims = K keeps the whole union frame U: its projector, the
        # K nonzero eigenvalues of G, F U as class_refs, and their
        # pairwise-difference matrix B_U
        ens = gfda.subspace_config(4, 2, 20, seed=91)
        gds = gfda.gds_discriminant(ens, dims=8)
        U, s2, F_U = (gds.projector, np.array(gds.info["eigenvalues"]),
                      gds.class_refs)
        B_U = fisher.pairwise_difference_matrix(F_U)
        pair = gfda.scatter_ladder(ens, "gFDA")
        npt.assert_allclose((U * s2) @ U.T, pair.within, rtol=0, atol=1e-12)
        npt.assert_allclose(B_U, U.T @ pair.between @ U, rtol=0, atol=1e-12)
        F = gfda.aligned_first_vectors(ens)
        npt.assert_allclose(F_U, F @ U, rtol=0, atol=1e-14)
        npt.assert_allclose(F_U @ U.T, F, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build,frames", [
        (gfda.gfda_linear_form, False),
        (gfda.gfda_product_form, False),
        (lambda ens: gfda.gds_discriminant(ens, dims=3), True),
        (lambda ens: gfda.gds_discriminant(ens, gamma=0.9), True),
    ], ids=["linear", "product", "gds-dims", "gds-gamma"])
    def test_construction_frames_once(self, monkeypatch, build, frames):
        """Every construction stacks the pooled basis Phi once and forms its
        Gram once.  GDS frames that Phi once, from that Gram, and forms in
        L dimensions only the columns it keeps (dims = 3 < K = 8 by dims),
        and those only in the Gram's coordinates: past the guard they are
        the thin SVD's.  On an ensemble whose pooled Gram the Cholesky
        certifies the gFDA forms frame nothing and call no eigensolver and
        no SVD; on one it does not certify (separation 0.003,
        s^2_min / s^2_max = 3.1e-7), and on one of rank K - 2
        (rank_deficient_ensemble, where the product form raises
        OverlapError), they frame the Phi already stacked, once, from that
        Gram.  No gFDA form forms frame columns."""
        ensembles = [(gfda.subspace_config(4, 2, 20, separation=separation,
                                           seed=92), separation == 1.0)
                     for separation in (1.0, 0.003)]
        if not frames:
            ensembles.append((rank_deficient_ensemble(), False))
        for i, (ens, certified) in enumerate(ensembles):
            with monkeypatch.context() as patch:
                log = watch_pooling(patch)
                try:
                    model = build(ens)
                except OverlapError:
                    assert build is gfda.gfda_product_form and i == 2
            (Phi,) = log["stacked"]
            if frames or not certified:
                ((framed, gram),) = log["framed"]
                assert framed is Phi and gram.shape == (Phi.shape[1],) * 2
            else:
                assert log["framed"] == []
                assert log["factorized"] == []
            assert log["grams"] == 1
            assert log["formed"] == ([model.dim] if frames and certified
                                     else [])
            if frames and model.info["selection"]["rule"] == "fixed":
                assert model.dim == 3

    def test_eigencurves_frames_once(self, monkeypatch, tmp_path):
        """eigencurves frames the pooled basis once, from its Gram, and
        reads its curves from the frame's coordinates: no frame column is
        formed in L dimensions."""
        from gfda import cli

        log = count_framings(monkeypatch)
        assert cli.main(["eigencurves", "--classes", "5", "--subspace-dim",
                         "3", "--seed", "0", "--out",
                         str(tmp_path / "curves.csv")]) == 0
        ((Phi, gram),) = log["framed"]
        assert Phi.shape == (60, 15) and gram.shape == (15, 15)
        assert log["formed"] == []


def sine_distance(U_ref, U):
    """||(I - U_ref U_ref^T) U||_2 for orthonormal U_ref and U."""
    return np.linalg.norm(U - U_ref @ (U_ref.T @ U), 2)


def frame_route(ens):
    """Both gFDA forms with the Cholesky's certificate withheld: the closed
    form on the frame gram_frame(Phi, M) where the pooled basis has full
    column rank K, the union frame's eigh route where it does not; the product
    form is None there (OverlapError)."""
    with mock.patch.object(fisher, "_gfda_map", uncertified):
        linear = gfda.gfda_linear_form(ens)
        try:
            return linear, gfda.gfda_product_form(ens)
        except OverlapError:
            return linear, None


def spans(models):
    """Orthonormal bases of the models' projectors, None skipped."""
    return [linalg.gram_schmidt(m.projector) for m in models if m is not None]


def thin_svd_closed_form(ens):
    """Orthonormal basis of the gFDA space G^+ F^T Q_H = U diag(1/s) V^T
    E Q_H from the thin SVD Phi = U S V^T of a pooled basis of full column
    rank, which resolves it to about eps s_max / s_min.  E holds each
    class's alignment sign (its first basis vector against its mean) at
    the row of that basis column, and the first C - 1 columns of the
    centring matrix I - 1 1^T / C stand for Q_H, whose span they share."""
    C = ens.n_classes
    firsts = np.cumsum([0] + [c.dim for c in ens.classes[:-1]])
    E = np.zeros((sum(c.dim for c in ens.classes), C))
    E[firsts, np.arange(C)] = [-1.0 if c.basis[:, 0] @ c.mean < 0 else 1.0
                               for c in ens.classes]
    U, s, Vt = np.linalg.svd(np.hstack([c.basis for c in ens.classes]),
                             full_matrices=False)
    EQ = (E - E.mean(axis=1, keepdims=True))[:, :C - 1]
    return linalg.gram_schmidt(U @ (Vt @ EQ / s[:, None]))


@st.composite
def near_overlap_ensembles(draw):
    """2-6 classes of 1-3 dimensions in L = K, K + 2 or 2 K for K = C N,
    at separations from near overlap (0.05) to nearer the rank cut
    (0.001), where most pooled Grams are not certified.  Some classes
    have their basis negated, so that their first vector points away from
    the class mean and its aligned copy is flipped back."""
    C = draw(st.integers(2, 6))
    N = draw(st.integers(1, 3))
    L = C * N + draw(st.sampled_from([0, 2, C * N]))
    separation = draw(st.sampled_from([0.05, 0.01, 0.003, 0.001]))
    seed = draw(st.integers(0, 2**32 - 1))
    flips = draw(st.lists(st.booleans(), min_size=C, max_size=C))
    ens = gfda.subspace_config(C, N, L, separation=separation, seed=seed)
    return gfda.SubspaceEnsemble(tuple(
        replace(c, basis=-c.basis) if flip else c
        for c, flip in zip(ens.classes, flips)), L)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(near_overlap_ensembles())
def test_closed_form_and_eigh_route_match_the_full_route(ens):
    """A certified pooled Gram is one that gram_frame keeps whole (K
    columns) in its coordinate branch.  There both gFDA forms, by the
    solve and by the closed form on that frame alike, span the L x L null
    space of W - B/C (reference.gfda_null_space) to 1e-8 in the sine form,
    and gFDA-linear's Rayleigh quotients on W - B/C are at most 1e-14
    (measured: at most 3.5e-17 on 600 such draws, 3.0e-15 at C = 30,
    L = 1024), six orders below OVERLAP_TOL, so the closed form has no
    overlap warning to give.  Every other draw of full rank takes the
    closed form on the frame, bit for bit, and is held to the thin-SVD
    closed form (thin_svd_closed_form) to 1e-9 in the sine form, and to
    the L x L route by the canonical-angle test (cosines within 1e-8 of
    1): below the guard the L x L route itself resolves the space only to
    about eps s^2_max / s^2_min in the sine form.  A rank-deficient draw
    takes the eigh route, bit for bit, held to the L x L route by the
    canonical-angle test."""
    Phi, _, M, _, _ = fisher._pooled(ens)
    *_, P, _, _ = fisher._gfda_map(ens)
    oracle = reference.gfda_null_space(ens)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        by_frame = frame_route(ens)
        if P is None:
            npt.assert_array_equal(gfda.gfda_linear_form(ens).projector,
                                   by_frame[0].projector)
            for basis in spans(by_frame):
                cos = reference.canonical_angles(oracle, basis).cosines
                assert 1.0 - cos.min() <= 1e-8
            return
    closed = gfda.gfda_linear_form(ens), gfda.gfda_product_form(ens)
    if not fisher._certified(M):
        for model, framed in zip(closed, by_frame):
            npt.assert_array_equal(model.projector, framed.projector)
        svd_basis = thin_svd_closed_form(ens)
        for basis in spans(closed):
            assert sine_distance(svd_basis, basis) <= 1e-9
            cos = reference.canonical_angles(oracle, basis).cosines
            assert 1.0 - cos.min() <= 1e-8
        return
    with mock.patch.object(linalg, "_lifted_frame",
                           wraps=linalg._lifted_frame) as lift_step:
        s, _, _ = linalg.gram_frame(Phi)
    assert s.size == Phi.shape[1] and not lift_step.called
    for basis in spans(by_frame + closed):
        assert sine_distance(oracle, basis) <= 1e-8
    assert np.abs(closed[0].info["selected_eigenvalues"]).max() <= 1e-14


def householder_route(ens):
    """gFDA-linear's basis built in L dimensions from P = lift(Y) of a
    pooled basis of full column rank: one Householder QR of P, then
    Gram-Schmidt of the first C - 1 centred aligned first vectors
    projected onto span(P)."""
    C = ens.n_classes
    _, lift, _, Y, _, _ = fisher._gfda_map(ens)
    Q = np.linalg.qr(lift(Y))[0]
    F = gfda.aligned_first_vectors(ens)
    return Q @ linalg.gram_schmidt(Q.T @ (F - F.mean(axis=0))[:C - 1].T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(near_overlap_ensembles())
@example(rank_deficient_ensemble())
@example(readme_scale_ensemble())
def test_linear_form_basis_from_the_solve(ens):
    """gFDA-linear's basis, from the solve or, past a rank deficit, from
    the union frame's eigh: its projector is orthonormal to 8 k eps for
    its k = C - 1 columns, CholeskyQR2's bound (test_properties), and its
    class_refs are F times it to 1e-12.  Where Phi has full column rank
    the projector is the Householder route's (householder_route) and the
    product form's class_refs F P are Q_H, the identity F P = Q_H, each to
    1e-12 of ||P||_2, the scale at which P = G^+ F^T Q_H is rounded.
    Measured on 600 such draws (264 certified, 323 uncertified, 14
    rank-deficient): |P^T P - I| at most 3 k eps (6.7e-16), class_refs
    within 4.6e-13 of F P, the Householder route within 7.9e-15 ||P||_2,
    and F P - Q_H within 5.8e-14 ||P||_2 (up to 2.6e-11 absolute).
    rank_deficient_ensemble and readme_scale_ensemble, where one CholeskyQR
    pass leaves |P^T P - I| at 1.3e-13, are added to the 60."""
    C = ens.n_classes
    _, lift, _, Y, _, _ = fisher._gfda_map(ens)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = gfda.gfda_linear_form(ens)
    P = model.projector
    assert np.abs(P.T @ P - np.eye(C - 1)).max() <= (
        8 * (C - 1) * np.finfo(float).eps)
    F = gfda.aligned_first_vectors(ens)
    assert np.abs(model.class_refs - F @ P).max() <= 1e-12
    if Y is None:
        return
    scale = np.linalg.norm(lift(Y), 2)
    assert np.abs(P - householder_route(ens)).max() <= 1e-12 * scale
    refs = gfda.gfda_product_form(ens).class_refs
    assert np.abs(refs - fisher._helmert(C)).max() <= 1e-12 * scale


def _gaussians(L, n):
    return gfda.labeled_gaussians(3, L, n, mean_norm=4.0, sigma_max=1.0,
                                  seed=99)


def _zero_lead():
    # two constant leading features zero the centred frame's first rows
    X, y = gfda.labeled_mixtures(10, 200, 5, "Set1", seed=3)
    X[:, :2] = 0.0
    return X, y


def _identical_classes():
    # classes c00 and c01 share their 4 rows: the projected first vectors
    # are dependent, so eigenvectors complete gFDA-linear's basis
    X, y = gfda.labeled_mixtures(3, 20, 4, "Set1", seed=2)
    X[4:8] = X[0:4]
    return gfda.fit_ensemble(X, y)


def _completed_linear_form():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return gfda.gfda_linear_form(_identical_classes())


def test_identical_classes_reach_the_completion_branch():
    """The projected first vectors of two identical classes are dependent,
    so a second gram_schmidt takes eigenvectors to complete the basis."""
    with mock.patch.object(linalg, "gram_schmidt",
                           wraps=linalg.gram_schmidt) as gram_schmidt:
        model = _completed_linear_form()
    assert gram_schmidt.call_count == 2 and model.dim == 2
    linalg.as_ortho_basis(model.projector)


def _negate_odd(v):
    return v * np.where(np.arange(v.shape[-1]) % 2, -1.0, 1.0)


@pytest.mark.parametrize("build,signed", [
    (lambda: gfda.gfda_product_form(gfda.fit_ensemble(*_gaussians(12, 3))),
     False),
    (lambda: gfda.gfda_linear_form(gfda.fit_ensemble(*_gaussians(12, 3))),
     False),
    (lambda: gfda.gfda_linear_form(rank_deficient_ensemble()), False),
    (_completed_linear_form, False),
    (lambda: gfda.gds_discriminant(gfda.fit_ensemble(*_gaussians(12, 3)),
                                   dims=4), True),
    (lambda: gfda.fda(*_gaussians(4, 10)), True),
    (lambda: gfda.reg_lda(*_gaussians(12, 3)), True),
    (lambda: gfda.pca_lda(*_gaussians(12, 3)), True),
    (lambda: gfda.null_lda(*_gaussians(12, 3)), True),
    (lambda: gfda.reg_lda(*_zero_lead()), True),
    (lambda: gfda.null_lda(*_zero_lead()), True),
], ids=["gfda-product", "gfda-linear", "gfda-linear-rank-deficient",
        "gfda-linear-completed", "gds", "fda", "regLDA", "pcaLDA", "nullLDA",
        "regLDA-zero-lead", "nullLDA-zero-lead"])
def test_models_do_not_depend_on_lapack_signs(monkeypatch, build, signed):
    """Signs are fixed once, where vectors reach L dimensions, and vectors
    in coordinates carry LAPACK's signs exactly into what they form:
    negating what numpy's eigh and svd return, in every column or only in
    the odd ones, leaves each model bitwise unchanged.  That includes
    gFDA-linear's completing eigenvectors, signed by their lift.  GDS and
    the FDA family follow the sign rule in L dimensions: their projectors
    are their own fix_signs."""
    expected = build()
    if signed:
        npt.assert_array_equal(linalg.fix_signs(expected.projector),
                               expected.projector)
    eigh, svd = np.linalg.eigh, np.linalg.svd
    for negate in (np.negative, _negate_odd):
        def negated_eigh(a):
            w, v = eigh(a)
            return w, negate(v)

        def negated_svd(a, **kwargs):
            u, s, vt = svd(a, **kwargs)
            return negate(u), s, negate(vt.swapaxes(-1, -2)).swapaxes(-1, -2)

        monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
        monkeypatch.setattr(np.linalg, "svd", negated_svd)
        model = build()
        npt.assert_array_equal(model.projector, expected.projector)
        npt.assert_array_equal(model.class_refs, expected.class_refs)


@pytest.mark.parametrize("build", [
    lambda X, y: gfda.reg_lda(X, y),
    lambda X, y: gfda.gfda_linear_form(gfda.fit_ensemble(X, y)),
], ids=["regLDA", "gfda-linear"])
@pytest.mark.parametrize("constant", [1, 50])
def test_constant_first_feature_stays_in_gram_coordinates(monkeypatch, build,
                                                          constant):
    """Constant leading features (border pixels) zero the frame's leading
    rows.  No sign rule reads the frame: only the output columns are
    sign-fixed, in L dimensions, so the frame stays in Gram coordinates and
    is not lifted."""
    X, y = gfda.labeled_mixtures(30, 1024, 5, "Set1", seed=1)
    X[:, :constant] = 0.0
    lifted = []
    real = linalg._lifted_frame
    monkeypatch.setattr(linalg, "_lifted_frame",
                        lambda *args: lifted.append(1) or real(*args))
    model = build(X, y)
    assert not lifted and model.dim == 29
    linalg.as_ortho_basis(model.projector)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", [gfda.fda, gfda.reg_lda, gfda.pca_lda,
                                    gfda.null_lda],
                         ids=["fda", "regLDA", "pcaLDA", "nullLDA"])
def test_non_finite_sample_rejected(method, bad):
    X, y = _gaussians(4, 10)
    X[7, 1] = bad
    with pytest.raises(ValidationError, match="samples must be finite"):
        method(X, y)


class TestBaselines:
    @staticmethod
    def _three_blobs(seed=98, n=30, spread=1.0):
        rng = np.random.default_rng(seed)
        centers = np.array([[4.0, 0, 0, 0, 0], [0, 4.0, 0, 0, 0],
                            [0, 0, 4.0, 0, 0]])
        X = np.vstack([c + spread * rng.standard_normal((n, 5))
                       for c in centers])
        y = ["a"] * n + ["b"] * n + ["c"] * n
        return X, y

    def test_reg_lda_large_delta_approaches_between_eigvectors(self):
        X, y = self._three_blobs()
        model = gfda.reg_lda(X, y, delta=1e6)
        labels, groups = fisher.group_by_label(X, y)
        means = np.array([g.mean(0) for g in groups])
        counts = np.array([len(g) for g in groups])
        eig = linalg.sym_eig(gfda.between_scatter(means, counts))
        direct = linalg.gram_schmidt(eig.vectors[:, ::-1][:, :2])
        cos = reference.canonical_angles(model.projector, direct).cosines
        assert cos.min() >= 1 - 1e-4

    def test_reg_lda_small_delta_matches_plain_fda(self):
        X, y = self._three_blobs()
        model = gfda.reg_lda(X, y, delta=1e-12)
        plain = gfda.fda(X, y)
        cos = reference.canonical_angles(model.projector, plain.projector).cosines
        assert cos.min() >= 1 - 1e-6

    @pytest.mark.parametrize("scale", [5e5, 1e6])
    def test_reg_lda_ridge_rule_leaves_full_rank_within_alone(self, scale):
        # at n > L the within scatter can be nonsingular, so a ridge far
        # below its rounding does no harm: the frame's Cholesky decides,
        # and the model is plain FDA's (the n <= L ridge rule would raise
        # here, since delta = 1e-4 < eps tr(S_t) ~ 4e-4 at scale 1e6)
        X = scale * np.random.default_rng(0).standard_normal((100, 2))
        y = np.repeat(["a", "b"], 50)
        total = np.trace(np.cov(X.T, bias=True))
        assert 1e-4 <= np.finfo(float).eps * total * 10
        model = gfda.reg_lda(X, y)
        cos = reference.canonical_angles(model.projector,
                                         gfda.fda(X, y).projector).cosines
        assert model.dim == 1 and cos.min() >= 1 - 1e-12

    def test_reg_lda_default_delta(self):
        import inspect
        assert inspect.signature(gfda.reg_lda).parameters["delta"].default \
            == 1e-4

    def test_reg_lda_requires_positive_delta(self):
        X, y = self._three_blobs()
        with pytest.raises(ValidationError):
            gfda.reg_lda(X, y, delta=0.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_reg_lda_rejects_non_finite_delta(self, delta):
        X, y = self._three_blobs()
        with pytest.raises(ValidationError, match="finite"):
            gfda.reg_lda(X, y, delta=delta)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_pca_lda_rejects_non_finite_threshold(self, threshold):
        # nan used to keep every component and write NaN into info
        X, y = self._three_blobs()
        with pytest.raises(ValidationError, match="finite"):
            gfda.pca_lda(X, y, residual_threshold=threshold)

    def test_pca_lda_threshold_zero_equals_fda(self):
        X, y = self._three_blobs()
        model = gfda.pca_lda(X, y, residual_threshold=0.0)
        plain = gfda.fda(X, y)
        cos = reference.canonical_angles(model.projector, plain.projector).cosines
        assert cos.min() >= 1 - 1e-8
        assert "fallback" not in model.info

    def test_pca_lda_threshold_zero_keeps_at_most_min_n_l(self):
        # n < L: the centered data have rank n - 1, the rest of the L
        # directions carry no variance and are not kept
        rng = np.random.default_rng(101)
        X = rng.standard_normal((12, 40)) + np.repeat(4.0 * np.eye(3, 40), 4,
                                                      axis=0)
        model = gfda.pca_lda(X, list("aaaabbbbcccc"), residual_threshold=0.0)
        assert model.info["n_components"] <= min(X.shape)
        assert "fallback" in model.info

    @pytest.mark.parametrize("threshold", [1e-2, 1e-9])
    def test_pca_lda_reference_thresholds_run(self, threshold):
        X, y = self._three_blobs()
        model = gfda.pca_lda(X, y, residual_threshold=threshold)
        assert model.dim == 2

    def test_pca_lda_small_sample_smoke(self):
        # n << L: the workaround regime; stays within 5 points of the
        # ridge baseline on the same data
        from gfda.classify import evaluate
        rng = np.random.default_rng(99)
        L, n = 60, 4
        centers = 6.0 * np.vstack([rng.standard_normal(L) /
                                   np.linalg.norm(rng.standard_normal(L))
                                   for _ in range(3)])
        Xtr = np.vstack([c + rng.standard_normal((n, L)) for c in centers])
        ytr = ["a"] * n + ["b"] * n + ["c"] * n
        Xte = np.vstack([c + rng.standard_normal((20, L)) for c in centers])
        yte = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        pca_model = gfda.pca_lda(Xtr, ytr, residual_threshold=1e-9)
        reg_model = gfda.reg_lda(Xtr, ytr)
        pca_rec = evaluate(pca_model, Xte, yte).recognition_rate
        reg_rec = evaluate(reg_model, Xte, yte).recognition_rate
        assert pca_rec >= reg_rec - 5.0

    def test_null_lda_zero_within_reduces_to_between_pca(self):
        X = 5.0 * np.eye(3)
        y = ["a", "b", "c"]
        model = gfda.null_lda(X, y)
        labels, groups = fisher.group_by_label(X, y)
        means = np.array([g.mean(0) for g in groups])
        counts = np.ones(3)
        eig = linalg.sym_eig(gfda.between_scatter(means, counts))
        direct = linalg.gram_schmidt(eig.vectors[:, ::-1][:, :2])
        cos = reference.canonical_angles(model.projector, direct).cosines
        assert cos.min() >= 1 - 1e-8

    def test_null_lda_orthogonal_to_within_direction(self):
        # within-class spread along e1 only, class means differ along e2
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = ["a", "a", "b", "b"]
        model = gfda.null_lda(X, y)
        assert abs(model.projector[0, 0]) <= 1e-10

    def test_null_lda_separable_small_sample_set(self):
        from gfda.classify import evaluate
        rng = np.random.default_rng(100)
        L, C = 40, 5
        centers = 8.0 * np.vstack([rng.standard_normal(L) for _ in range(C)])
        Xtr = np.vstack([np.tile(c, (2, 1)) + 0.01 * rng.standard_normal((2, L))
                         for c in centers])
        ytr = sum(([f"c{i}"] * 2 for i in range(C)), [])
        model = gfda.null_lda(Xtr, ytr)
        assert evaluate(model, Xtr, ytr).recognition_rate == 100.0

    def test_null_lda_not_applicable_when_full_rank(self):
        X, y = self._three_blobs()  # 90 samples in dimension 5
        with pytest.raises(NotApplicableError):
            gfda.null_lda(X, y)

    @staticmethod
    def _means_in_within_range(seed=102):
        # 3 classes x 4 rows in one 4-dimensional subspace of L = 10: the
        # within scatter already spans the centred data, so its null space
        # holds no centred class mean
        rng = np.random.default_rng(seed)
        span = rng.standard_normal((4, 10))
        X = rng.standard_normal((12, 4)) @ span
        X[:4] += span[0]
        return X, list("aaaabbbbcccc")

    def test_null_lda_rejects_means_in_within_range(self):
        X, y = self._means_in_within_range()
        with pytest.raises(NotApplicableError,
                           match="range of the within-class scatter"):
            gfda.null_lda(X, y)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_repeated_rows_leave_no_within_scatter(self, seed):
        # every class is one row repeated, so S_w is zero up to rounding,
        # which is relative to the total scatter: all of the frame is null
        # for nullLDA and singular for pcaLDA.  Cut against S_w's own
        # largest eigenvalue, nullLDA lost a null direction (both seeds) or
        # raised NotApplicableError
        rng = np.random.default_rng(seed)
        X = np.repeat(rng.standard_normal((3, 24)) + 3.0, 3, axis=0)
        y = np.repeat(["a", "b", "c"], 3)
        model = gfda.null_lda(X, y)
        assert model.info["null_dim"] == 24 and model.dim == 2
        assert "fallback" in gfda.pca_lda(X, y).info

    @pytest.mark.parametrize("build,C,L,n,seed", [
        (gfda.null_lda, 10, 200, 5, 2), (gfda.null_lda, 5, 40, 3, 4),
        (gfda.reg_lda, 10, 200, 5, 2), (gfda.reg_lda, 5, 40, 3, 4),
    ], ids=["10-200-5-2", "5-40-3-4", "regLDA-10-200-5-2", "regLDA-5-40-3-4"])
    def test_null_lda_signs_follow_the_data(self, monkeypatch, build, C, L, n,
                                            seed):
        # N_r is whatever basis eigh returns for S_w's zero eigenspace, and
        # another frame of the same span (the thin SVD's) gives another
        # one; the projector and class references must not follow it, nor
        # the signs of either frame's columns.  Both build from the centred
        # rows' Gram here (n <= L), so their other model is the SVD
        # frame's, which the same sign rule must reach
        X, y = gfda.labeled_mixtures(C, L, n, "Set1", seed=seed)
        model = build(X, y)

        def svd_frame(X, y):
            labels, rows = fisher.group_by_label(np.arange(len(X)), y)
            centred = X - X.mean(axis=0)
            _, s, Vt = np.linalg.svd(centred, full_matrices=False)
            r = int(np.sum(linalg.nonzero(s**2)))
            Q = linalg.fix_signs(Vt[:r].T)
            return (labels, rows, s[:r], centred @ Q,
                    lambda D: Q[:, :len(D)] @ D)

        monkeypatch.setattr(fisher, "_centred_frame", svd_frame)
        monkeypatch.setattr(fisher, "_gram_reg_lda", lambda *args: None)
        monkeypatch.setattr(fisher, "_gram_null_lda", lambda *args: None)
        other = build(X, y)
        npt.assert_allclose(model.projector, other.projector, rtol=0,
                            atol=1e-12)
        npt.assert_allclose(model.class_refs, other.class_refs, rtol=0,
                            atol=1e-12 * np.abs(other.class_refs).max())

    def test_null_lda_records_between_eigenvalues(self):
        X = 5.0 * np.eye(3)
        model = gfda.null_lda(X, ["a", "b", "c"])
        vals = model.info["between_eigenvalues"]
        assert len(vals) == 2 and min(vals) > 0
        npt.assert_allclose(vals, [25.0 / 3] * 2, rtol=1e-12)

    def test_fda_requires_nonsingular_within(self):
        X = 5.0 * np.eye(3)
        with pytest.raises(ValidationError):
            gfda.fda(X, ["a", "b", "c"])

    def test_rows_with_no_variance(self):
        # equal rows leave a rank-0 centred frame: regLDA and pcaLDA say so
        # (regLDA raised gram_schmidt's internal error), FDA finds the
        # within scatter singular and nullLDA no separating direction
        X = np.full((6, 4), 2.5)
        y = np.repeat(["a", "b"], 3)
        for build in (gfda.reg_lda, gfda.pca_lda):
            with pytest.raises(ValidationError,
                               match="^pooled data has no variance$"):
                build(X, y)
        with pytest.raises(ValidationError, match="^within-class scatter is singular"):
            gfda.fda(X, y)
        with pytest.raises(NotApplicableError, match="^the centred class means lie"):
            gfda.null_lda(X, y)


class TestPowerAndGap:
    def test_gap_index_reference_values(self):
        assert gfda.gap_index(2) == 1.0
        npt.assert_allclose(gfda.gap_index(3), 4.0 / 3.0)
        npt.assert_allclose(gfda.gap_index(5), 1.6)
        npt.assert_allclose(gfda.gap_index(20), 1.9)
        npt.assert_allclose(gfda.gap_index(100), 1.98)

    def test_gap_index_increases_toward_two(self):
        values = [gfda.gap_index(C) for C in range(2, 101)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 2.0
        with pytest.raises(ValidationError):
            gfda.gap_index(1)

    @pytest.mark.parametrize("C", [3, 5])
    def test_power_curve_flat_with_total(self, C):
        ens = gfda.subspace_config(C, 2, 4 * C * 2, seed=101 + C)
        pair = gfda.scatter_ladder(ens, "gFDA")
        model = gfda.gfda_linear_form(ens)
        powers = gfda.discriminant_power_curve(model.projector, pair)
        npt.assert_allclose(powers, np.full(C - 1, C), atol=1e-8)
        npt.assert_allclose(powers.sum(), C * (C - 1), atol=1e-8)


    def test_power_curve_matches_per_vector_criterion(self):
        ens = gfda.subspace_config(4, 2, 24, seed=103)
        pair = gfda.scatter_ladder(ens, "gFDA")
        basis = np.random.default_rng(104).standard_normal((24, 6))
        expected = [gfda.fisher_criterion(basis[:, j], pair)
                    for j in range(6)]
        npt.assert_allclose(gfda.discriminant_power_curve(basis, pair),
                            expected, rtol=1e-12)

    def test_power_curve_rejects_zero_energy_direction(self):
        ens = gfda.subspace_config(3, 1, 12, seed=105)
        pair = gfda.scatter_ladder(ens, "gFDA")
        span = np.hstack([c.basis for c in ens.classes])
        outside = np.linalg.svd(span)[0][:, -1]  # orthogonal to every class
        basis = np.column_stack([span[:, 0], outside])
        with pytest.raises(UndefinedDirectionError):
            gfda.fisher_criterion(outside, pair)
        with pytest.raises(UndefinedDirectionError):
            gfda.discriminant_power_curve(basis, pair)


class TestModelSerialization:
    def test_round_trip(self):
        ens = gfda.subspace_config(3, 2, 18, seed=102)
        model = gfda.with_normalization(gfda.gfda_product_form(ens))
        back = fisher.DiscriminantModel.from_dict(model.to_dict())
        npt.assert_array_equal(back.projector, model.projector)
        npt.assert_array_equal(back.class_refs, model.class_refs)
        assert back.method == model.method
        assert back.normalized == model.normalized
        assert back.class_labels == model.class_labels
