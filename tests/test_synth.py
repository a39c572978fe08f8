import numpy as np
import numpy.testing as npt
import pytest

import gfda
from gfda import reference, synth
from gfda.errors import ValidationError


class TestGaussianClass:
    def test_tiny_spread_collapses_to_mean(self):
        X = gfda.gaussian_class(4, [1.0, 0, 0, 0], mean_norm=3.0,
                                sigma_max=1e-12, n=10, seed=1)
        npt.assert_allclose(X, np.tile([3.0, 0, 0, 0], (10, 1)), atol=1e-9)

    def test_seed_determinism(self):
        a = gfda.gaussian_class(6, np.ones(6), 2.0, 1.0, 25, seed=77)
        b = gfda.gaussian_class(6, np.ones(6), 2.0, 1.0, 25, seed=77)
        npt.assert_array_equal(a, b)
        c = gfda.gaussian_class(6, np.ones(6), 2.0, 1.0, 25, seed=78)
        assert np.any(a != c)

    def test_mean_direction_correlation_at_ratio_two(self):
        # ratio ||m|| / sigma_max = 2 with a decaying per-axis profile:
        # the first uncentered principal direction tracks the sample mean
        L, n = 100, 1000
        scales = 0.85 ** np.arange(L)
        rng = np.random.default_rng(19)
        X = gfda.gaussian_class(L, rng.standard_normal(L), mean_norm=2.0,
                                sigma_max=1.0, n=n, seed=20,
                                axis_scales=scales)
        model = gfda.fit_class(X, dim=1)
        m = X.mean(axis=0)
        corr = abs(model.basis[:, 0] @ m) / np.linalg.norm(m)
        assert corr > 0.998

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            gfda.gaussian_class(3, [1, 0, 0], -1.0, 1.0, 5, seed=0)
        with pytest.raises(ValidationError):
            gfda.gaussian_class(3, [1, 0, 0], 1.0, 0.0, 5, seed=0)
        with pytest.raises(ValidationError):
            gfda.gaussian_class(3, [1, 0], 1.0, 1.0, 5, seed=0)
        with pytest.raises(ValidationError):
            gfda.gaussian_class(3, [1, 0, 0], 1.0, 1.0, 5, seed=0,
                                axis_scales=[2.0, 1.0, 1.0])

    @pytest.mark.parametrize("L,direction,mean_norm,sigma_max,scales", [
        (-5, [1, 0, 0], 1.0, 1.0, None),
        (0, [], 1.0, 1.0, None),
        (3, [1, 0, 0], np.nan, 1.0, None),
        (3, [1, 0, 0], np.inf, 1.0, None),
        (3, [1, 0, 0], 1.0, np.inf, None),
        (3, [1, 0, 0], 1.0, np.nan, None),
        (3, [np.nan, 0, 0], 1.0, 1.0, None),
        (3, [1, 0, 0], 1.0, 1.0, [1.0, np.nan, 1.0]),
    ])
    def test_non_finite_or_empty_parameters_rejected(self, L, direction,
                                                     mean_norm, sigma_max,
                                                     scales):
        with pytest.raises(ValidationError):
            gfda.gaussian_class(L, direction, mean_norm, sigma_max, 5,
                                seed=0, axis_scales=scales)


class TestConvexMixture:
    def test_identical_basis_vectors_return_the_direction(self):
        u = np.ones(5) / np.sqrt(5)
        B = np.tile(u, (9, 1))
        X = gfda.convex_mixture(B, "Set1", 7, seed=2)
        npt.assert_allclose(X, np.tile(u, (7, 1)), atol=1e-12)

    @pytest.mark.parametrize("mode", ["Set1", "Set2"])
    def test_unit_norm_outputs(self, mode):
        B = synth.class_mixture_bases(2, 12, seed=3)[0]
        X = gfda.convex_mixture(B, mode, 40, seed=4)
        npt.assert_allclose(np.linalg.norm(X, axis=1), np.ones(40),
                            atol=1e-12)

    def test_simplex_draws(self):
        rng = np.random.default_rng(5)
        for k in (2, 5, 9):
            for _ in range(50):
                c = synth._simplex(rng, k)
                assert np.all(c >= 0)
                assert abs(c.sum() - 1.0) <= 1e-12

    def test_set1_tighter_than_set2(self):
        # the mean-anchored set clusters; the biased set spreads out
        tighter = 0
        for seed in range(60):
            B = synth.class_mixture_bases(2, 20, seed=600 + seed)[0]
            s1 = gfda.convex_mixture(B, "Set1", 15, seed=700 + seed)
            s2 = gfda.convex_mixture(B, "Set2", 15, seed=800 + seed)

            def mean_pairwise_cos(S):
                G = S @ S.T
                off = G[np.triu_indices_from(G, k=1)]
                return off.mean()

            if mean_pairwise_cos(s1) > mean_pairwise_cos(s2):
                tighter += 1
        assert tighter == 60

    def test_validation(self):
        B = synth.class_mixture_bases(2, 6, seed=6)[0]
        with pytest.raises(ValidationError):
            gfda.convex_mixture(B * 2.0, "Set1", 3, seed=0)
        with pytest.raises(ValidationError):
            gfda.convex_mixture(B, "Set3", 3, seed=0)
        with pytest.raises(ValidationError):
            gfda.convex_mixture(B, "Set1", 0, seed=0)

    def test_non_finite_basis_rejected(self):
        B = synth.class_mixture_bases(2, 6, seed=6)[0]
        for bad in (np.nan, np.inf):
            C = B.copy()
            C[1, 2] = bad
            with pytest.raises(ValidationError, match="unit-normalized"):
                gfda.convex_mixture(C, "Set1", 3, seed=0)


class TestSubspaceConfig:
    def test_separated_config_has_expected_null_count(self):
        ens = gfda.subspace_config(3, 3, 30, separation=1.0, seed=7)
        model = gfda.gfda_linear_form(ens)
        selected = np.asarray(model.info["selected_eigenvalues"])
        assert selected.size == 2
        assert np.all(selected <= 1e-8)

    def test_two_line_toy(self):
        ens = gfda.subspace_config(2, 1, 2, seed=8)
        assert ens.n_classes == 2
        assert all(c.dim == 1 for c in ens.classes)
        pair = gfda.scatter_ladder(ens, "gFDA")
        vals = np.linalg.eigvalsh(pair.within)
        assert vals.size == 2

    def test_gap_index_at_hundred_classes(self):
        npt.assert_allclose(gfda.gap_index(100), 1.98)

    def test_capacity_validation(self):
        with pytest.raises(ValidationError):
            gfda.subspace_config(4, 3, 11, seed=0)

    def test_determinism(self):
        a = gfda.subspace_config(3, 2, 12, seed=9)
        b = gfda.subspace_config(3, 2, 12, seed=9)
        for ca, cb in zip(a.classes, b.classes):
            npt.assert_array_equal(ca.basis, cb.basis)

    def test_separation_pulls_classes_together(self):
        spread = gfda.subspace_config(3, 2, 20, separation=1.0, seed=10)
        packed = gfda.subspace_config(3, 2, 20, separation=0.1, seed=10)

        def max_cos(ens):
            worst = 0.0
            for i in range(3):
                for j in range(i + 1, 3):
                    cos = reference.canonical_angles(ens.classes[i].basis,
                                                     ens.classes[j].basis).cosines
                    worst = max(worst, cos.max())
            return worst

        assert max_cos(packed) > max_cos(spread)

    @pytest.mark.parametrize("separation", [0.3, 1.0])
    def test_bases_do_not_depend_on_lapack_qr_signs(self, monkeypatch,
                                                    separation):
        expected = gfda.subspace_config(4, 2, 40, separation=separation, seed=3)
        qr = np.linalg.qr

        def negated_qr(a, *args, **kwargs):
            q, r = qr(a, *args, **kwargs)
            return -q, -r

        monkeypatch.setattr(np.linalg, "qr", negated_qr)
        ens = gfda.subspace_config(4, 2, 40, separation=separation, seed=3)
        for got, want in zip(ens.classes, expected.classes):
            npt.assert_array_equal(got.basis, want.basis)
            npt.assert_array_equal(got.mean, want.mean)

    def test_class_model_invariants(self):
        ens = gfda.subspace_config(4, 2, 16, seed=11)
        for c in ens.classes:
            npt.assert_allclose(c.basis.T @ c.basis, np.eye(2), atol=1e-12)
            npt.assert_allclose(c.mean, c.basis[:, 0])
            assert c.count == 2


class TestLabeledSets:
    def test_labeled_gaussians_shapes(self):
        X, y = gfda.labeled_gaussians(4, 10, 6, mean_norm=5.0,
                                      sigma_max=1.0, seed=12)
        assert X.shape == (24, 10)
        assert sorted(set(y)) == ["c00", "c01", "c02", "c03"]

    def test_labeled_mixtures_deterministic(self):
        X1, y1 = gfda.labeled_mixtures(3, 15, 5, "Set1", seed=13)
        X2, y2 = gfda.labeled_mixtures(3, 15, 5, "Set1", seed=13)
        npt.assert_array_equal(X1, X2)
        assert y1 == y2

    @pytest.mark.parametrize("L,basis_count,spread", [
        (-5, 9, 0.4), (0, 9, 0.4), (10, -1, 0.4), (10, 0, 0.4),
        (10, 9, np.nan), (10, 9, np.inf)])
    def test_mixture_bases_parameters_rejected(self, L, basis_count, spread):
        with pytest.raises(ValidationError):
            synth.class_mixture_bases(3, L, seed=0, basis_count=basis_count,
                                      anchor_spread=spread)

    def test_labeled_gaussians_negative_dimension_rejected(self):
        with pytest.raises(ValidationError, match="L >= 1"):
            gfda.labeled_gaussians(3, -5, 4, 5.0, 1.0, seed=0)

    def test_mixture_bases_pairwise_positive_means(self):
        fams = synth.class_mixture_bases(5, 30, seed=14)
        anchors = np.array([f.mean(axis=0) for f in fams])
        gram = anchors @ anchors.T
        assert np.all(gram > 0)


@pytest.mark.parametrize("draw", [
    lambda: gfda.gaussian_class(3, [1.0, 0.0, 0.0], 1.0, 1.0, 5, seed=-1),
    lambda: gfda.convex_mixture(np.eye(3), "Set1", 4, seed=-1),
    lambda: synth.class_mixture_bases(3, 5, -1),
], ids=["gaussian_class", "convex_mixture", "class_mixture_bases"])
def test_negative_seed_rejected(draw):
    with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
        draw()
