import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import gfda
from gfda.classify import (COSINE, NEAREST_MEAN, _predict, _scores,
                           equal_error_rate, evaluate, project)
from gfda.errors import UndefinedDirectionError, ValidationError
from gfda.fisher import DiscriminantModel, with_normalization


def classify_one(model, x, rule):
    """Label of one vector, scored by evaluate's own path."""
    row = np.reshape(np.asarray(x, dtype=float), (1, -1))
    return model.class_labels[_predict(model, _scores(model, row, rule))[0]]


def toy_model(normalized=False):
    """Two reference classes on the axes of a 2-dimensional discriminant
    space embedded in R^4 (columns e1, e2)."""
    basis = np.zeros((4, 2))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    refs = np.array([[2.0, 0.0], [0.0, 1.0]])
    model = DiscriminantModel(projector=basis, method="FDA",
                              class_labels=("a", "b"), class_refs=refs)
    return with_normalization(model, normalized)


class TestProject:
    def test_orthogonal_input_projects_to_zero(self):
        m = toy_model()
        p = project(m, [0.0, 0.0, 3.0, -1.0], normalize=False)
        npt.assert_allclose(p, [0.0, 0.0])

    def test_reference_direction(self):
        m = toy_model(normalized=True)
        p = project(m, [5.0, 0.0, 0.0, 0.0])
        npt.assert_allclose(p, m.class_refs[0] / 2.0)
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-12

    def test_projection_contracts(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((3, 6))
        basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        m = DiscriminantModel(projector=W.T @ basis, method="FDA",
                              class_labels=("a",), class_refs=np.zeros((1, 2)))
        for _ in range(20):
            x = rng.standard_normal(6)
            t = project(m, x, normalize=False)
            assert np.linalg.norm(t) <= np.linalg.norm(W @ x) + 1e-12

    def test_zero_projection_cannot_normalize(self):
        m = toy_model()
        with pytest.raises(UndefinedDirectionError):
            project(m, [0.0, 0.0, 1.0, 0.0], normalize=True)


class TestClassifiers:
    def test_reference_point_classified_as_itself(self):
        m = toy_model()
        x = np.array([2.0, 0.0, 0.0, 0.0])
        assert classify_one(m, x, NEAREST_MEAN) == "a"
        assert classify_one(m, x, COSINE) == "a"

    def test_score_at_a_reference_is_not_positive(self):
        # 2 t.r - |t|^2 - |r|^2 at t = r rounds to 2.2e-16 for the first
        # reference; a nearest-mean score is minus a squared distance
        refs = np.array([[0.9, 0.1], [-0.7, -0.9], [-0.5, 0.2]])
        m = DiscriminantModel(projector=np.eye(2), method="FDA",
                              class_labels=("a", "b", "c"), class_refs=refs)
        scores = _scores(m, refs, NEAREST_MEAN)
        assert (scores <= 0).all()
        npt.assert_array_equal(_predict(m, scores), [0, 1, 2])

    def test_symmetric_pair(self):
        basis = np.eye(2)
        refs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        m = DiscriminantModel(projector=basis, method="FDA",
                              class_labels=("plus", "minus"), class_refs=refs)
        assert classify_one(m, [0.9, 0.0], NEAREST_MEAN) == "plus"
        assert classify_one(m, [0.9, 0.0], COSINE) == "plus"

    def test_three_separable_gaussians(self):
        X, y = gfda.labeled_gaussians(3, 20, 60, mean_norm=10.0,
                                      sigma_max=1.0, seed=11)
        model = gfda.reg_lda(X, y)
        for rule in (NEAREST_MEAN, COSINE):
            rep = evaluate(model, X, y, rule=rule)
            assert rep.recognition_rate >= 99.0

    def test_matches_exhaustive_argmin(self):
        # oracle: enumerate classes by hand for a few samples
        X, y = gfda.labeled_gaussians(3, 10, 10, mean_norm=6.0,
                                      sigma_max=1.0, seed=12)
        model = gfda.reg_lda(X, y)
        for x in X[::7]:
            t = project(model, x, normalize=False)
            dists = [np.sum((t - r) ** 2) for r in model.class_refs]
            expected = model.class_labels[int(np.argmin(dists))]
            assert classify_one(model, x, NEAREST_MEAN) == expected

    def test_cosine_ignores_normalization_flag(self):
        rng = np.random.default_rng(13)
        m_plain = toy_model(normalized=False)
        m_norm = toy_model(normalized=True)
        for _ in range(25):
            x = rng.standard_normal(4)
            if np.linalg.norm(x[:2]) < 1e-6:
                continue
            assert classify_one(m_plain, x, COSINE) \
                == classify_one(m_norm, x, COSINE)

    def test_normalized_nearest_mean_agrees_with_cosine(self):
        # Euclidean distance on unit vectors is monotone in the angle, so
        # the two rules coincide once projections and references are both
        # normalized.
        rng = np.random.default_rng(14)
        basis = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        refs = rng.standard_normal((4, 3))
        m = DiscriminantModel(projector=basis, method="gFDA-linear+N",
                              class_labels=("a", "b", "c", "d"),
                              class_refs=refs, normalized=True)
        for _ in range(50):
            x = rng.standard_normal(6)
            assert classify_one(m, x, NEAREST_MEAN) == classify_one(m, x, COSINE)

    def test_tie_breaks_toward_smallest_label(self):
        basis = np.eye(2)
        refs = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = DiscriminantModel(projector=basis, method="FDA",
                              class_labels=("z", "a"), class_refs=refs)
        assert classify_one(m, [1.0, 1.0], NEAREST_MEAN) == "a"


    def test_unorderable_labels_rejected(self):
        # the tie-break orders labels, so they must be mutually comparable
        with pytest.raises(ValidationError, match="orderable"):
            DiscriminantModel(projector=np.eye(2), method="FDA",
                              class_labels=(1, "a"), class_refs=np.eye(2))


class TestEqualErrorRate:
    def test_perfect_separation(self):
        assert equal_error_rate([2.0, 3.0], [0.0, 1.0]) == 0.0

    def test_chance_level(self):
        rng = np.random.default_rng(15)
        g = rng.standard_normal(10000)
        i = rng.standard_normal(10000)
        assert abs(equal_error_rate(g, i) - 50.0) <= 3.0

    def test_interleaved_toy_scores(self):
        # frozen from a brute-force sweep over all candidate thresholds
        assert equal_error_rate([0.9, 0.7], [0.8, 0.2]) == pytest.approx(25.0)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(16)
        g = rng.normal(1.0, 1.0, 200)
        i = rng.normal(0.0, 1.0, 300)
        npt.assert_allclose(equal_error_rate(g, i),
                            equal_error_rate(-i, -g), atol=1e-12)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            equal_error_rate([], [1.0])

    def test_nan_score_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            equal_error_rate([np.nan, 1.0], [0.0, 0.5])


class TestEvaluate:
    @staticmethod
    def _fitted():
        X, y = gfda.labeled_gaussians(3, 12, 30, mean_norm=6.0,
                                      sigma_max=1.0, seed=17)
        return gfda.reg_lda(X, y), X, y

    def test_report_counts(self):
        model, X, y = self._fitted()
        rep = evaluate(model, X, y)
        assert rep.n_test == len(y)
        assert sum(rep.confusion.values()) == len(y)
        assert 0.0 <= rep.recognition_rate <= 100.0
        assert rep.genuine_scores.size == len(y)
        assert rep.impostor_scores.size == len(y) * 2

    def test_permutation_invariance(self):
        model, X, y = self._fitted()
        rep = evaluate(model, X, y)
        rng = np.random.default_rng(18)
        perm = rng.permutation(len(y))
        rep_p = evaluate(model, X[perm], [y[i] for i in perm])
        assert rep_p.recognition_rate == rep.recognition_rate
        assert rep_p.eer == pytest.approx(rep.eer, abs=1e-12)
        assert rep_p.confusion == rep.confusion

    def test_single_class_eer_undefined(self):
        model, X, y = self._fitted()
        keep = [i for i, lab in enumerate(y) if lab == "c00"]
        with pytest.warns(RuntimeWarning, match="single-class"):
            rep = evaluate(model, X[keep], [y[i] for i in keep])
        assert rep.eer is None
        assert rep.recognition_rate >= 0.0

    @pytest.mark.parametrize("rule", [NEAREST_MEAN, COSINE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_test_entry_rejected(self, bad, rule):
        # one bad entry would otherwise read as a clean, confident report
        model, X, y = self._fitted()
        X = X.copy()
        X[4, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            with pytest.raises(ValidationError, match="not finite"):
                evaluate(model, X, y, rule)

    def test_unknown_label_rejected(self):
        model, X, y = self._fitted()
        with pytest.raises(ValidationError):
            evaluate(model, X[:2], ["nope", "nope"])

    def test_unknown_labels_listed_once_sorted_as_text(self):
        model, X, y = self._fitted()
        with pytest.raises(ValidationError) as caught:
            evaluate(model, X[:5], ["nope", 5, "c00", "nope", 5])
        assert str(caught.value) == "test labels not in the model: ['5', 'nope']"

    def test_integer_unsorted_labels(self):
        # the same model under labels (3, 1, 2), test labels as numpy ints:
        # every number and the confusion counts carry over
        model, X, y = self._fitted()
        rename = {"c00": 3, "c01": 1, "c02": 2}
        relabeled = replace(model, class_labels=(3, 1, 2))
        y_int = np.array([rename[lab] for lab in y], dtype=np.int64)
        rep = evaluate(model, X, y)
        rep_int = evaluate(relabeled, X, y_int)
        assert rep_int.recognition_rate == rep.recognition_rate
        assert rep_int.eer == rep.eer
        npt.assert_array_equal(rep_int.genuine_scores, rep.genuine_scores)
        npt.assert_array_equal(rep_int.impostor_scores, rep.impostor_scores)
        assert rep_int.confusion == {(rename[t], rename[p]): count
                                     for (t, p), count in rep.confusion.items()}
        assert all(isinstance(count, int) for count in rep_int.confusion.values())

    def test_single_integer_class_eer_undefined(self):
        model, X, y = self._fitted()
        relabeled = replace(model, class_labels=(3, 1, 2))
        keep = [i for i, lab in enumerate(y) if lab == "c01"]
        with pytest.warns(RuntimeWarning, match="single-class"):
            rep = evaluate(relabeled, X[keep], [1] * len(keep))
        assert rep.eer is None
        assert sum(rep.confusion.values()) == len(keep)
        assert {t for t, _ in rep.confusion} == {1}
        assert rep.recognition_rate == pytest.approx(
            100.0 * rep.confusion.get((1, 1), 0) / len(keep))

    def test_eer_protocol_recorded(self):
        model, X, y = self._fitted()
        rep = evaluate(model, X, y)
        assert "impostor" in rep.metadata["eer_protocol"]
