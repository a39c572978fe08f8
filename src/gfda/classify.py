"""Projection onto a discriminant space, classification rules, evaluation.

Classification maps raw vectors through the model's (L, k) projector,
optionally normalizes each projection to unit length, and compares it
against per-class reference points, either by squared Euclidean distance or
by signed cosine.  The two rules coincide when projections and references
are both normalized.  ``evaluate``, the one scoring path, projects and
scores a whole test set at once.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import UndefinedDirectionError, ValidationError
from .fisher import DiscriminantModel

NEAREST_MEAN = "nearest-mean"
COSINE = "cosine"
RULES = (NEAREST_MEAN, COSINE)

# How pooled verification scores are turned into an equal error rate; kept in
# every report so downstream consumers know the protocol.
EER_PROTOCOL = (
    "one genuine score per test sample (its true class) and C-1 impostor "
    "scores (every other class), pooled globally; false-accept picks "
    "impostors strictly above the threshold, false-reject genuines strictly "
    "below; the crossing is located by linear interpolation between "
    "adjacent score thresholds"
)


def project(model: DiscriminantModel, x, normalize: Optional[bool] = None) -> np.ndarray:
    """Project a raw vector, or each row of an (n, L) matrix, onto the
    model's discriminant space: t = projector^T x, a (k,) or (n, k) array.

    With normalize (defaulting to the model's own flag) each projection is
    scaled to unit length; a projection of norm at most 1e-12 ||x|| has no
    direction and raises UndefinedDirectionError.  Vectors whose width is
    not the model's raise ValidationError.
    """
    if normalize is None:
        normalize = model.normalized
    x = np.asarray(x, dtype=float)
    X = x if x.ndim == 2 else x.reshape(1, -1)
    if X.shape[1] != len(model.projector):
        raise ValidationError(f"test vectors have {X.shape[1]} features; "
                              f"the model expects {len(model.projector)}")
    T = X @ model.projector
    if normalize:
        norms = np.linalg.norm(T, axis=1, keepdims=True)
        scale = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-300)
        if np.any(norms <= 1e-12 * scale):
            raise UndefinedDirectionError(
                "projection is numerically zero; cannot normalize")
        T = T / norms
    return T if x.ndim == 2 else T[0]


def _reference_norms(model: DiscriminantModel) -> np.ndarray:
    norms = np.linalg.norm(model.class_refs, axis=1)
    if np.any(norms <= 0):
        raise UndefinedDirectionError("a class reference projects to zero")
    return norms


def _scores(model: DiscriminantModel, X, rule: str) -> np.ndarray:
    """(n, C) per-class affinity scores of the rows of X; larger is better."""
    refs = model.class_refs
    if rule == NEAREST_MEAN:
        T = project(model, X)
        if model.normalized:
            refs = refs / _reference_norms(model)[:, None]
        d = refs[None] - T[:, None]
        d *= d  # in place: the (n, C, k) differences are the largest array
        return -np.sum(d, axis=2)
    if rule == COSINE:
        T = project(model, X, normalize=True)
        return T @ refs.T / _reference_norms(model)
    raise ValidationError(f"unknown rule {rule!r}; pick one of {RULES}")


def _predict(model: DiscriminantModel, scores) -> np.ndarray:
    """Column of each row's top score; exact ties go to the smallest label."""
    labels = model.class_labels
    order = np.array(sorted(range(len(labels)), key=labels.__getitem__))
    return order[np.argmax(scores[:, order], axis=1)]


def _sorted_distinct(values) -> np.ndarray:
    """np.unique of a 1-d array without NaNs, minus the numpy.ma import that
    np.unique costs on its first call: sort, then drop every value equal to
    its predecessor."""
    values = np.sort(values)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def equal_error_rate(genuine, impostor) -> float:
    """Equal error rate, in percent, of pooled verification scores.

    Thresholds walk the sorted scores (plus sentinels outside the range);
    the false-accept rate P(impostor > t) falls while the false-reject rate
    P(genuine < t) rises, and their crossing is located by linear
    interpolation between the two adjacent thresholds where the difference
    changes sign.
    """
    genuine = np.sort(np.asarray(genuine, dtype=float).ravel())
    impostor = np.sort(np.asarray(impostor, dtype=float).ravel())
    if genuine.size == 0 or impostor.size == 0:
        raise ValidationError("need both genuine and impostor scores")
    knots = _sorted_distinct(np.concatenate([genuine, impostor]))
    knots = np.concatenate([[knots[0] - 1.0], knots, [knots[-1] + 1.0]])
    far = 1.0 - np.searchsorted(impostor, knots, side="right") / impostor.size
    frr = np.searchsorted(genuine, knots, side="left") / genuine.size
    diff = far - frr  # nonincreasing, starts at +1, ends at -1
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return 100.0 * float(far[k])
    s = diff[k - 1] / (diff[k - 1] - diff[k])
    eer = far[k - 1] + s * (far[k] - far[k - 1])
    return 100.0 * float(eer)


@dataclass(frozen=True)
class EvalReport:
    """Recognition and verification metrics over one labeled test set.

    recognition_rate and eer are percentages; eer is None when the test set
    contains a single class (no impostor scores exist).  confusion maps
    (true label, predicted label) to a count; the counts sum to n_test.
    """

    recognition_rate: float
    eer: Optional[float]
    confusion: dict
    genuine_scores: np.ndarray
    impostor_scores: np.ndarray
    n_test: int
    rule: str
    metadata: dict = field(default_factory=dict)


def evaluate(model: DiscriminantModel, X, y, rule: str = NEAREST_MEAN) -> EvalReport:
    """Classify a labeled test set and report recognition rate and EER.

    Every sample contributes one genuine score (against its true class) and
    C - 1 impostor scores.  Scores are negative squared distances under the
    nearest-mean rule and signed cosines under the cosine rule.  The test
    set is scored in one pass, holding an (n, C, k) array under the
    nearest-mean rule.
    """
    X = np.asarray(X, dtype=float)
    y = list(y)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != len(y):
        raise ValidationError("test set is empty or labels do not align")
    labels = model.class_labels
    # each distinct test label is matched to a model label once, by ==
    code = dict.fromkeys(y)
    unknown = sorted({str(lab) for lab in code if lab not in labels})
    if unknown:
        raise ValidationError(f"test labels not in the model: {unknown}")
    for lab in code:
        code[lab] = labels.index(lab)
    true = np.fromiter(map(code.__getitem__, y), dtype=np.intp, count=len(y))

    C = len(labels)
    scores = _scores(model, X, rule)
    pred = _predict(model, scores)
    is_genuine = true[:, None] == np.arange(C)
    counts = np.bincount(true * C + pred, minlength=C * C)
    name = {i: lab for lab, i in code.items()}  # the test set's own labels
    confusion = {(name[k // C], labels[k % C]): int(counts[k])
                 for k in np.flatnonzero(counts).tolist()}
    genuine, impostor = scores[is_genuine], scores[~is_genuine]

    if len(code) < 2:
        warnings.warn("single-class test set: EER is undefined",
                      RuntimeWarning, stacklevel=2)
        eer = None
    else:
        eer = equal_error_rate(genuine, impostor)
    return EvalReport(
        recognition_rate=100.0 * np.count_nonzero(pred == true) / X.shape[0],
        eer=eer,
        confusion=confusion,
        genuine_scores=genuine,
        impostor_scores=impostor,
        n_test=X.shape[0],
        rule=rule,
        metadata={"eer_protocol": EER_PROTOCOL, "method": model.method},
    )
