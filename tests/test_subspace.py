import numpy as np
import numpy.testing as npt
import pytest

import gfda
from gfda import linalg, reference
from gfda.errors import DegeneratePairError, ValidationError


def line_model(label, direction, mean=None):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return gfda.ClassModel(label=label, basis=d[:, None],
                           eigenvalues=np.array([1.0]),
                           mean=d.copy() if mean is None else np.asarray(mean, float),
                           count=1)


def sixty_degree_pair():
    return (line_model("a", [1.0, 0.0]),
            line_model("b", [0.5, np.sqrt(3) / 2]))


class TestFitClass:
    def test_single_sample(self):
        x = np.array([3.0, 4.0])
        m = gfda.fit_class([x], label="one")
        npt.assert_allclose(m.basis[:, 0], x / 5.0)
        npt.assert_allclose(m.eigenvalues, [25.0])
        npt.assert_allclose(m.mean, x)
        assert m.count == 1

    def test_two_unit_vectors(self):
        m = gfda.fit_class(np.eye(2))
        npt.assert_allclose(m.eigenvalues, [0.5, 0.5])
        # the basis spans the whole plane
        npt.assert_allclose(m.basis @ m.basis.T, np.eye(2), atol=1e-12)

    def test_first_component_tracks_mean_direction(self):
        rng = np.random.default_rng(21)
        direction = rng.standard_normal(15)
        direction /= np.linalg.norm(direction)
        samples = direction + 0.15 * rng.standard_normal((9, 15))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        m = gfda.fit_class(samples)
        mean = samples.mean(axis=0)
        corr = abs(m.basis[:, 0] @ mean) / np.linalg.norm(mean)
        assert corr > 0.99

    def test_gram_path_matches_direct_route(self):
        # n < L: compare against numpy's eigendecomposition of the
        # explicit autocorrelation matrix.
        rng = np.random.default_rng(22)
        X = rng.standard_normal((6, 40)) + 2.0
        m = gfda.fit_class(X)
        R = X.T @ X / X.shape[0]
        vals, vecs = np.linalg.eigh(R)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        npt.assert_allclose(m.eigenvalues, vals[:m.dim], rtol=1e-10)
        # spans agree column by column up to sign
        for j in range(m.dim):
            assert abs(m.basis[:, j] @ vecs[:, j]) > 1 - 1e-8
        for j in range(m.dim):
            resid = R @ m.basis[:, j] - m.eigenvalues[j] * m.basis[:, j]
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(R)

    def test_energy_rule(self):
        X = np.diag([4.0, 2.0, 1.0, 0.5])  # eigenvalues prop to squares
        m = gfda.fit_class(X, energy=0.9)
        total = np.sum(np.array([4.0, 2.0, 1.0, 0.5]) ** 2) / 4
        kept = np.sum(m.eigenvalues)
        assert kept / total >= 0.9
        m_less = gfda.fit_class(X, energy=0.5)
        assert m_less.dim < m.dim

    def test_errors(self):
        with pytest.raises(ValidationError):
            gfda.fit_class(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            gfda.fit_class(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            gfda.fit_class(np.eye(3), dim=4)
        with pytest.raises(ValidationError):
            gfda.fit_class(np.eye(3), dim=1, energy=0.5)


class TestFitEnsemble:
    # three failing classes of different sizes, so each has its own stacked
    # SVD: rank 1 below dim 2, all zero, and one row below dim 2
    FAILURES = {
        "rank": (np.array([[1.0, 2.0, 0.0, 1.0]] * 2),
                 "requested 2 components but numerical rank is 1"),
        "zero": (np.zeros((3, 4)), "all samples are zero vectors"),
        "short": (np.array([[0.0, 1.0, 1.0, 0.0]]),
                  "dim must be in [1, min(n=1, L=4)]"),
    }

    @pytest.mark.parametrize("order", [("rank", "zero", "short"),
                                       ("zero", "short", "rank"),
                                       ("short", "rank", "zero")])
    def test_first_bad_class_in_label_order_raises(self, order):
        rows, y = [], []
        for label, kind in zip(("a", "b", "c"), order):
            rows.append(self.FAILURES[kind][0])
            y += [label] * len(rows[-1])
        good = np.random.default_rng(3).standard_normal((2, 4))
        X = np.vstack(rows + [good])[::-1]  # rows out of label order
        y = (y + ["d", "d"])[::-1]
        with pytest.raises(ValidationError) as caught:
            gfda.fit_ensemble(X, y, dim=2)
        assert str(caught.value) == self.FAILURES[order[0]][1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fit", [
        lambda X, y: gfda.fit_class(X),
        lambda X, y: gfda.fit_ensemble(X, y),
    ], ids=["fit_class", "fit_ensemble"])
    def test_non_finite_sample_rejected(self, fit, bad):
        X = np.random.default_rng(4).standard_normal((6, 5))
        X[4, 2] = bad
        with pytest.raises(ValidationError, match="samples must be finite"):
            fit(X, [0, 0, 0, 1, 1, 1])

    def test_underflowing_samples_rejected(self):
        # s^2 underflows to 0, so the rank rule keeps no direction
        with pytest.raises(ValidationError, match="numerical rank 0"):
            gfda.fit_ensemble(np.vstack([np.full((3, 4), 1e-170), np.eye(4)]),
                              ["a"] * 3 + ["b"] * 4)

    @pytest.mark.parametrize("sizes, corrupt", [
        ((3, 3, 3), {"b": "scale"}),
        ((3, 3, 3), {"b": "skew", "c": "scale"}),
        ((2, 3, 2), {"b": "skew"}),
        ((3, 4, 4), {"a": "skew", "c": "scale"}),
    ])
    def test_corrupted_basis_raises_its_class_error(self, monkeypatch, sizes,
                                                    corrupt):
        """A class of n > L = 2 rows sends every class to its own thin SVD,
        each basis checked as it is cut; a failing class raises the error
        its public constructor raises, the first in label order."""
        labels = ("a", "b", "c")
        rng = np.random.default_rng(5)
        X = np.vstack([rng.standard_normal((n, 2)) for n in sizes])
        y = [lab for lab, n in zip(labels, sizes) for _ in range(n)]
        order = rng.permutation(len(y))  # rows out of label order
        X, y = X[order], [y[i] for i in order]
        rows = {lab: X[[i for i, m in enumerate(y) if m == lab]].T
                for lab in labels}
        range_basis = linalg.range_basis

        def corrupted(A):
            U, s, r = range_basis(A)
            U = U.copy()
            label, = [lab for lab, R in rows.items()
                      if R.shape == A.shape and (R == A).all()]
            if corrupt.get(label) == "scale":
                U[:, 0] *= 2.0
            elif corrupt.get(label) == "skew":
                U[:, 1] = (U[:, 1] + U[:, 0]) / np.sqrt(2.0)
            return U, s, r

        monkeypatch.setattr(linalg, "range_basis", corrupted)
        first = min(corrupt)
        want = "not unit vectors" if corrupt[first] == "scale" \
            else "not mutually orthogonal"
        with pytest.raises(ValidationError) as caught:
            gfda.fit_ensemble(X, y)
        assert str(caught.value) == f"class {first!r} basis columns are {want}"

    @staticmethod
    def scaled_first_column(monkeypatch):
        """Make every linalg.range_basis return U with column 0 doubled."""
        range_basis = linalg.range_basis

        def corrupted(A):
            U, s, r = range_basis(A)
            U = U.copy()
            U[:, 0] *= 2.0
            return U, s, r

        monkeypatch.setattr(linalg, "range_basis", corrupted)

    def test_guarded_class_basis_is_checked(self, monkeypatch):
        """A class past its Gram's guard (its third row the first plus
        3e-4 noise: an s^2 ratio near 1e-8) takes the thin SVD alone, and
        that basis is checked as it is cut."""
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 8))
        X[5] = X[3] + 3e-4 * rng.standard_normal(8)
        y = ["a"] * 3 + ["b"] * 3
        b = gfda.fit_ensemble(X, y).classes[1]
        assert b.dim == 3 and b.eigenvalues[2] / b.eigenvalues[0] < 2.2e-6
        self.scaled_first_column(monkeypatch)
        with pytest.raises(ValidationError) as caught:
            gfda.fit_ensemble(X, y)
        assert str(caught.value) == \
            "class 'b' basis columns are not unit vectors"

    def test_class_errors_come_in_label_order(self, monkeypatch):
        """Class 'a' (n > L) fails its basis check and class 'b' is all
        zero rows: a's error raises, as a comes first."""
        rng = np.random.default_rng(12)
        X = np.vstack([rng.standard_normal((4, 3)), np.zeros((2, 3))])
        y = ["a"] * 4 + ["b"] * 2
        with pytest.raises(ValidationError, match="all samples are zero"):
            gfda.fit_ensemble(X, y)  # 'a' fits, then 'b' fails
        self.scaled_first_column(monkeypatch)
        with pytest.raises(ValidationError) as caught:
            gfda.fit_ensemble(X, y)
        assert str(caught.value) == \
            "class 'a' basis columns are not unit vectors"


class TestClassModelChecks:
    @pytest.mark.parametrize("basis, match", [
        (np.array([1.0, 0.0]), "2-dimensional"),
        (np.empty((3, 0)), "at least one column"),
        (np.eye(3)[None, :, :1], "2-dimensional"),
        (np.full((4, 2), np.nan), "non-finite"),
        (np.array([[1.0], [1.0]]), "not unit vectors"),
        (np.array([[1.0, 1.0], [0.0, 0.0]]), "not mutually orthogonal"),
    ], ids=["1-D", "no columns", "stack", "NaN", "not unit", "not orthogonal"])
    def test_bad_basis_rejected(self, basis, match):
        with pytest.raises(ValidationError, match=match):
            gfda.ClassModel("a", basis, np.ones(1), np.zeros(2), 3)


class TestProjectionMatrix:
    def test_single_axis(self):
        P = gfda.projection_matrix(line_model("a", [1.0, 0.0]))
        npt.assert_allclose(P, [[1.0, 0.0], [0.0, 0.0]])

    def test_full_basis_is_identity(self):
        m = gfda.fit_class(np.diag([1.0, 2.0, 3.0]))
        P = gfda.projection_matrix(m)
        npt.assert_allclose(P, np.eye(3), atol=1e-12)

    def test_idempotent_with_trace(self):
        rng = np.random.default_rng(23)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        m = gfda.ClassModel("a", Q, np.array([2.0, 1.0]), Q[:, 0], 3)
        P = gfda.projection_matrix(m)
        assert np.linalg.norm(P @ P - P) <= 1e-10
        npt.assert_allclose(np.trace(P), 2.0, atol=1e-12)


class TestAlignedFirstVectors:
    def test_orients_toward_class_mean(self):
        d = np.array([1.0, 0.0])
        flipped = gfda.ClassModel("a", (-d)[:, None], np.array([1.0]),
                                  mean=np.array([2.0, 0.1]), count=1)
        other = line_model("b", [0.0, 1.0])
        ens = gfda.SubspaceEnsemble((flipped, other), ambient_dim=2)
        firsts = gfda.aligned_first_vectors(ens)
        assert firsts[0] @ flipped.mean > 0

    def test_zero_projection_keeps_sign(self):
        m = gfda.ClassModel("a", np.array([[1.0], [0.0]]), np.array([1.0]),
                            mean=np.array([0.0, 1.0]), count=1)
        ens = gfda.SubspaceEnsemble((m, line_model("b", [0.0, 1.0])), 2)
        firsts = gfda.aligned_first_vectors(ens)
        npt.assert_allclose(firsts[0], [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_class_loop(self, seed):
        """The batched orientation equals a per-class loop bit for bit, with
        half the bases negated so that both signs occur."""
        ens = gfda.fit_ensemble(*gfda.labeled_mixtures(6, 40, 4, "Set1",
                                                       seed=seed))
        ens = gfda.SubspaceEnsemble(tuple(
            gfda.ClassModel(c.label, -c.basis if i % 2 else c.basis,
                            c.eigenvalues, c.mean, c.count)
            for i, c in enumerate(ens.classes)), ens.ambient_dim)
        loop = []
        for c in ens.classes:
            v = c.basis[:, 0].copy()
            loop.append(-v if v @ c.mean < 0 else v)
        npt.assert_array_equal(gfda.aligned_first_vectors(ens), loop)


class TestDifferenceSubspaceGeometric:
    def test_sixty_degrees(self):
        c1, c2 = sixty_degree_pair()
        d = gfda.difference_subspace_geometric(c1, c2)
        v = np.array([0.5, np.sqrt(3) / 2]) - np.array([1.0, 0.0])
        npt.assert_allclose(d[:, 0], v / np.linalg.norm(v), atol=1e-14)

    def test_orthogonal_lines(self):
        c1 = line_model("a", [1.0, 0.0])
        c2 = line_model("b", [0.0, 1.0])
        d = gfda.difference_subspace_geometric(c1, c2)
        npt.assert_allclose(d[:, 0], np.array([-1.0, 1.0]) / np.sqrt(2),
                            atol=1e-14)

    def test_dimension_order_enforced(self):
        rng = np.random.default_rng(24)
        big = gfda.fit_class(rng.standard_normal((3, 8)), label="big")
        small = gfda.fit_class(rng.standard_normal((2, 8)), label="small")
        with pytest.raises(ValidationError):
            gfda.difference_subspace_geometric(small, big)
        out = gfda.difference_subspace_geometric(big, small)
        assert out.shape == (8, small.dim)

    def test_overlap_names_offending_index(self):
        c1, _ = sixty_degree_pair()
        c2 = line_model("b", [1.0, 1e-12])
        with pytest.raises(DegeneratePairError) as err:
            gfda.difference_subspace_geometric(c1, c2)
        assert err.value.index == 0

    def test_output_orthonormal(self):
        rng = np.random.default_rng(25)
        c1 = gfda.fit_class(rng.standard_normal((2, 6)), label="a")
        c2 = gfda.fit_class(rng.standard_normal((2, 6)), label="b")
        d = gfda.difference_subspace_geometric(c1, c2)
        npt.assert_allclose(d.T @ d, np.eye(d.shape[1]), atol=1e-10)


class TestDifferenceSubspaceAnalytic:
    def test_sixty_degree_spectrum(self):
        c1, c2 = sixty_degree_pair()
        res = gfda.difference_subspace_analytic(c1, c2)
        npt.assert_allclose(res.eigenvalues, [0.5, 1.5], atol=1e-12)
        assert res.basis.shape == (2, 1)
        assert res.principal_basis.shape == (2, 1)

    def test_identical_subspaces_degenerate(self):
        c1, _ = sixty_degree_pair()
        c2 = line_model("b", [1.0, 0.0])
        with pytest.raises(DegeneratePairError):
            gfda.difference_subspace_analytic(c1, c2)

    def test_orthogonal_lines_excluded_with_warning(self):
        # both eigenvalues of P1 + P2 sit exactly at 1, which belongs to
        # neither side of the split, so the result is empty and a warning fires
        c1 = line_model("a", [1.0, 0.0])
        c2 = line_model("b", [0.0, 1.0])
        with pytest.warns(RuntimeWarning):
            res = gfda.difference_subspace_analytic(c1, c2)
        assert res.basis.shape[1] == 0
        assert res.principal_basis.shape[1] == 0

    def test_matches_geometric_construction(self):
        rng = np.random.default_rng(26)
        c1 = gfda.fit_class(rng.standard_normal((2, 6)), label="a")
        c2 = gfda.fit_class(rng.standard_normal((2, 6)), label="b")
        geo = gfda.difference_subspace_geometric(c1, c2)
        ana = gfda.difference_subspace_analytic(c1, c2)
        cos = reference.canonical_angles(geo, ana.basis).cosines
        assert cos.min() >= 1 - 1e-8

    def test_sum_space_direct_sum(self):
        rng = np.random.default_rng(27)
        c1 = gfda.fit_class(rng.standard_normal((3, 9)), label="a")
        c2 = gfda.fit_class(rng.standard_normal((2, 9)), label="b")
        # the unpaired direction of the larger subspace sits exactly at
        # eigenvalue 1 and is excluded with a warning
        with pytest.warns(RuntimeWarning):
            res = gfda.difference_subspace_analytic(c1, c2)
        assert res.basis.shape[1] == c2.dim
        assert res.principal_basis.shape[1] == c2.dim
        cross = res.basis.T @ res.principal_basis
        assert np.max(np.abs(cross)) <= 1e-10


class TestGds:
    def test_two_class_reduces_to_difference_subspace(self):
        ens = gfda.subspace_config(2, 1, 6, seed=31)
        model = gfda.gds_discriminant(ens, dims=1)
        ds = gfda.difference_subspace_analytic(*ens.classes)
        cos = reference.canonical_angles(model.projector, ds.basis).cosines
        assert cos.min() >= 1 - 1e-8

    def test_orthogonal_classes_degenerate_but_deterministic(self):
        classes = tuple(line_model(i, np.eye(4)[i]) for i in range(3))
        ens = gfda.SubspaceEnsemble(classes, ambient_dim=4)
        m1 = gfda.gds_discriminant(ens, dims=2)
        m2 = gfda.gds_discriminant(ens, dims=2)
        npt.assert_allclose(m1.info["eigenvalues"], [1.0, 1.0], atol=1e-12)
        npt.assert_array_equal(m1.projector, m2.projector)

    def test_dims_beyond_rank_rejected(self):
        ens = gfda.subspace_config(2, 1, 6, seed=32)
        with pytest.raises(ValidationError):
            gfda.gds_discriminant(ens, dims=3)  # rank of G is 2

    def test_exactly_one_rule(self):
        ens = gfda.subspace_config(2, 1, 6, seed=33)
        with pytest.raises(ValidationError):
            gfda.gds_discriminant(ens)
        with pytest.raises(ValidationError):
            gfda.gds_discriminant(ens, dims=1, gamma=0.9)

    def test_power_rule_reaches_threshold(self):
        ens = gfda.subspace_config(5, 3, 40, seed=34)
        model = gfda.gds_discriminant(ens, gamma=0.90)
        sel = model.info["selection"]
        assert sel["rule"] == "power"
        assert sel["beta"] == pytest.approx(5 * 4 * 0.90)
        assert sel["achieved_power"] >= sel["beta"] - 1e-9
        assert model.projector.shape[1] == sel["dims"]

    def test_power_rule_unreachable_for_identical_classes(self):
        d = np.array([1.0, 0.0, 0.0])
        classes = (line_model("a", d), line_model("b", d))
        ens = gfda.SubspaceEnsemble(classes, ambient_dim=3)
        with pytest.raises(ValidationError):
            gfda.gds_discriminant(ens, gamma=0.9)

    def test_basis_vectors_are_eigenvectors(self):
        ens = gfda.subspace_config(4, 2, 20, seed=35)
        model = gfda.gds_discriminant(ens, dims=3)
        G = gfda.sum_matrix(ens)
        basis, values = model.projector, model.info["eigenvalues"]
        for j in range(3):
            r = G @ basis[:, j] - values[j] * basis[:, j]
            assert np.linalg.norm(r) <= 1e-8


class TestSumMatrixInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_psd_spectrum_and_trace(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 6))
        N = int(rng.integers(1, 4))
        ens = gfda.subspace_config(C, N, 4 * C * N, seed=100 + seed)
        G = gfda.sum_matrix(ens)
        vals = np.linalg.eigvalsh(G)
        assert vals.min() >= -1e-10
        assert vals.max() <= C + 1e-10
        npt.assert_allclose(np.trace(G), sum(c.dim for c in ens.classes),
                            atol=1e-10)

    def test_two_class_gds_equals_difference_subspace_span(self):
        for seed in range(10):
            ens = gfda.subspace_config(2, 2, 10, seed=200 + seed)
            model = gfda.gds_discriminant(ens, dims=2)
            ds = gfda.difference_subspace_analytic(*ens.classes)
            cos = reference.canonical_angles(model.projector, ds.basis).cosines
            assert cos.min() >= 1 - 1e-8


class TestGdsDecomposition:
    def test_two_class_direct_expansion(self):
        c1, c2 = sixty_degree_pair()
        ens = gfda.SubspaceEnsemble((c1, c2), ambient_dim=2)
        term_b, w5 = gfda.gds_decomposition(ens)
        p1, p2 = c1.basis[:, 0], c2.basis[:, 0]
        z = p1 - p2
        zp = p1 + p2
        npt.assert_allclose(term_b, 0.5 * np.outer(z, z), atol=1e-12)
        npt.assert_allclose(w5, 0.5 * np.outer(zp, zp), atol=1e-12)
        G = gfda.sum_matrix(ens)
        npt.assert_allclose(term_b + w5, G, atol=1e-12)

    def test_pair_identity(self):
        # z z^T + z' z'^T = 2 (u u^T + v v^T) for any unit pair
        rng = np.random.default_rng(41)
        u = rng.standard_normal(7)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        z, zp = u - v, u + v
        lhs = np.outer(z, z) + np.outer(zp, zp)
        npt.assert_allclose(lhs, 2 * (np.outer(u, u) + np.outer(v, v)),
                            atol=1e-12)

    def test_reconstruction_small(self):
        ens = gfda.subspace_config(3, 2, 18, seed=42)
        term_b, w5 = gfda.gds_decomposition(ens)
        G = gfda.sum_matrix(ens)
        assert np.max(np.abs(term_b + w5 - G)) <= 1e-10 * np.linalg.norm(G)

    @pytest.mark.parametrize("C", range(2, 9))
    @pytest.mark.parametrize("N", range(1, 5))
    def test_reconstruction_sweep(self, C, N):
        ens = gfda.subspace_config(C, N, 3 * C * N, seed=77 + C * 10 + N)
        term_b, w5 = gfda.gds_decomposition(ens)
        G = gfda.sum_matrix(ens)
        assert np.max(np.abs(term_b + w5 - G)) <= 1e-10 * np.linalg.norm(G)

    def test_unequal_dims_rejected(self):
        rng = np.random.default_rng(43)
        c1 = gfda.fit_class(rng.standard_normal((2, 8)), label="a")
        c2 = gfda.fit_class(rng.standard_normal((3, 8)), label="b")
        ens = gfda.SubspaceEnsemble((c1, c2), ambient_dim=8)
        with pytest.raises(ValidationError):
            gfda.gds_decomposition(ens)


class TestModelValidation:
    def test_one_class_rejected(self):
        with pytest.raises(ValidationError):
            gfda.SubspaceEnsemble((line_model("a", [1.0, 0.0]),), 2)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            gfda.SubspaceEnsemble(
                (line_model("a", [1.0, 0.0]), line_model("a", [0.0, 1.0])), 2)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gfda.SubspaceEnsemble(
                (line_model("a", [1.0, 0.0]), line_model("b", [0.0, 1.0, 0.0])), 2)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValidationError):
            gfda.ClassModel("a", np.array([[1.0], [1.0]]),
                            np.array([1.0]), np.zeros(2), 1)
