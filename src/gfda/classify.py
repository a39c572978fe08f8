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
    direction and raises UndefinedDirectionError, and one that is not
    finite raises ValidationError.  Vectors whose width is not the model's
    raise ValidationError.
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
        if not np.isfinite(norms).all():  # else inf would read as no direction
            raise ValidationError("projections are not finite: the vectors "
                                  "hold NaN or infinite values, or overflow")
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
    """(n, C) per-class affinity scores of the rows of X; larger is better.
    A non-finite row gives non-finite scores without a warning, for
    evaluate to reject."""
    refs = model.class_refs
    with np.errstate(invalid="ignore", over="ignore"):
        if rule == NEAREST_MEAN:
            T = project(model, X)
            if model.normalized:
                refs = refs / _reference_norms(model)[:, None]
            # -|t - r|^2 = 2 t.r - |t|^2 - |r|^2: one (n, k) x (k, C)
            # product.  Centred on the references' mean, the norms are of
            # the order of the distances, so the cancellation costs
            # rounding only
            mu = refs.mean(axis=0)
            T, refs = T - mu, refs - mu
            S = T @ (2.0 * refs).T
            S -= np.einsum("ij,ij->i", T, T)[:, None]
            S -= np.einsum("ij,ij->i", refs, refs)
            return np.minimum(S, 0.0, out=S)  # minus a squared distance
        if rule == COSINE:
            T = project(model, X, normalize=True)
            return T @ refs.T / _reference_norms(model)
    raise ValidationError(f"unknown rule {rule!r}; pick one of {RULES}")


def _predict(model: DiscriminantModel, scores) -> np.ndarray:
    """Column of each row's top score; exact ties go to the smallest label."""
    labels = model.class_labels
    if list(labels) == sorted(labels):  # true of every fitted model
        return np.argmax(scores, axis=1)
    order = np.array(sorted(range(len(labels)), key=labels.__getitem__))
    return order[np.argmax(scores[:, order], axis=1)]


def equal_error_rate(genuine, impostor) -> float:
    """Equal error rate, in percent, of pooled verification scores.

    Thresholds walk the distinct scores; the false-accept rate
    P(impostor > t) falls while the false-reject rate P(genuine < t) rises,
    and their crossing is located by linear interpolation between the two
    adjacent thresholds where the difference changes sign.  As it never
    rises, searches of the two sorted sides find them without a merge.  A
    NaN or infinite score raises ValidationError.
    """
    genuine = np.sort(np.asarray(genuine, dtype=float).ravel())
    impostor = np.sort(np.asarray(impostor, dtype=float).ravel())
    if genuine.size == 0 or impostor.size == 0:
        raise ValidationError("need both genuine and impostor scores")
    # sorted, so -inf can only come first and +inf or NaN only last
    ends = [genuine[0], genuine[-1], impostor[0], impostor[-1]]
    if not np.isfinite(ends).all():
        raise ValidationError("verification scores must be finite")
    def rates(imp_le, gen_lt):  # far, far - frr: #impostor <= t, #genuine < t
        far = 1.0 - imp_le / impostor.size
        return far, far - gen_lt / genuine.size
    # far - frr at each genuine score; at m, the first one <= 0 (or past the
    # last), t_k is g_m or an impostor in (g_{m-1}, g_m), #genuine < t = m
    imp_le = np.searchsorted(impostor, genuine, side="right")
    crossed = rates(imp_le, np.searchsorted(genuine, genuine))[1] <= 0.0
    m = int(np.argmax(np.append(crossed, True)))
    lo = imp_le[m - 1] if m else 0
    hi = np.searchsorted(impostor, genuine[m] if m < genuine.size else np.inf)
    inside = rates(np.arange(lo + 1, hi + 1), m)[1] <= 0.0
    t = impostor[lo + int(np.argmax(inside))] if inside.any() else genuine[m]
    far, diff = rates(np.searchsorted(impostor, t, side="right"), m)
    if diff == 0.0:  # far - frr >= 0 at the smallest score, so t_k follows one
        return 100.0 * float(far)
    below = np.searchsorted(impostor, t)
    prev = max([*genuine[m - 1:m], *impostor[below - 1:below]])  # t_{k-1}
    far0, diff0 = rates(below, np.searchsorted(genuine, prev))
    return 100.0 * float(far0 + diff0 / (diff0 - diff) * (far - far0))


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
    set is scored in one pass: one (n, k) x (k, C) product under either
    rule, so scoring holds O(nC) memory beyond the projections.
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
    if not np.isfinite(scores).all():
        raise ValidationError("scores are not finite: the test set holds "
                              "NaN or infinite values, or its scores overflow")
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
