"""Seeded generators for every synthetic construction used in validation.

All randomness flows through numpy's PCG64 generator seeded explicitly, so
a (kind, parameters, seed) record fully determines the output across runs
and platforms.  Simplex weights are drawn by normalizing exponential
variates, the standard uniform-on-the-simplex construction.
"""

import numpy as np

from .errors import ValidationError
from .linalg import gram_schmidt
from .subspace import ClassModel, SubspaceEnsemble

RNG_ALGORITHM = "numpy-pcg64"

SET1 = "Set1"
SET2 = "Set2"
MIXTURE_MODES = (SET1, SET2)


def _check_seed(seed, name="seed"):
    if seed is not None and seed < 0:  # numpy's generator takes none
        raise ValidationError(f"{name} must be >= 0, got {seed}")


def _rng(seed):
    """numpy's PCG64 generator for a seed, which must be >= 0."""
    _check_seed(seed)
    return np.random.default_rng(seed)


def _unit(v):
    norm = np.linalg.norm(v)
    if not 0.0 < norm < np.inf:
        raise ValidationError("direction vector must be finite and nonzero")
    return np.asarray(v, dtype=float) / norm


def gaussian_class(L, mean_direction, mean_norm, sigma_max, n, seed,
                   axis_scales=None) -> np.ndarray:
    """Draw n samples from a Gaussian centered at mean_norm * unit(direction).

    Isotropic with per-axis deviation sigma_max by default; axis_scales (in
    (0, 1]) shrinks individual axes so sigma_max stays the largest deviation.
    """
    if not (L >= 1 and 0 <= mean_norm < np.inf and 0 < sigma_max < np.inf
            and n >= 1):
        raise ValidationError(
            "need L >= 1, finite mean_norm >= 0, finite sigma_max > 0 and "
            f"n >= 1, got {L}, {mean_norm}, {sigma_max} and {n}")
    rng = _rng(seed)
    mean = mean_norm * _unit(np.asarray(mean_direction, dtype=float))
    if mean.size != L:
        raise ValidationError("mean_direction length must equal L")
    scales = np.full(L, sigma_max) if axis_scales is None \
        else sigma_max * np.asarray(axis_scales, dtype=float)
    if not np.all((scales > 0) & (scales <= sigma_max * (1 + 1e-12))):
        raise ValidationError("axis scales must lie in (0, 1]")
    return mean + rng.standard_normal((n, L)) * scales


def _simplex(rng, k):
    """One uniform draw from the (k-1)-simplex via exponential normalization."""
    e = rng.exponential(1.0, k)
    return e / e.sum()


def convex_mixture(basis_vectors, mode, count, seed) -> np.ndarray:
    """Unit-normalized convex mixtures of a fixed set of unit vectors.

    Set1 anchors every sample on five times the mean of the basis vectors
    plus a simplex-weighted mixture of all of them, producing a tight cloud
    around the mean.  Set2 anchors on twice one uniformly chosen basis
    vector plus a simplex-weighted mixture of the others, producing samples
    biased toward individual basis vectors.  Each sample is normalized to
    unit length.  A Set2 sample has norm at least 2 - 1 = 1 before that; a
    Set1 sample that cancels to zero raises ValidationError.
    """
    B = np.asarray(basis_vectors, dtype=float)
    if B.ndim != 2 or B.shape[0] < 2:
        raise ValidationError("need at least 2 basis vectors (rows)")
    norms = np.linalg.norm(B, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-8):  # NaN fails too
        raise ValidationError("basis vectors must be unit-normalized")
    if mode not in MIXTURE_MODES:
        raise ValidationError(f"mode must be one of {MIXTURE_MODES}")
    if count < 1:
        raise ValidationError("count must be >= 1")

    rng = _rng(seed)
    k = B.shape[0]
    mean_vec = B.mean(axis=0)
    out = np.empty((count, B.shape[1]))
    for i in range(count):
        if mode == SET1:
            c = _simplex(rng, k)
            raw = 5.0 * mean_vec + c @ B
        else:
            j = int(rng.integers(k))
            c = _simplex(rng, k - 1)
            raw = 2.0 * B[j] + c @ B[np.arange(k) != j]
        norm = np.linalg.norm(raw)
        if norm <= 1e-12:
            raise ValidationError(f"mixture sample {i} collapsed to zero")
        out[i] = raw / norm
    return out


def subspace_config(C, N, L, separation=1.0, seed=0) -> SubspaceEnsemble:
    """Ensemble of C random N-dimensional class subspaces in dimension L.

    separation in (0, 1] blends each class's raw basis toward one shared
    random matrix: 1 gives independent uniform-random subspaces, smaller values pull
    all classes toward a common span to probe near-overlap behavior.  The
    synthetic class models carry mean = first basis vector and count = N so
    every ensemble-level invariant applies unchanged.
    """
    if C < 2 or N < 1:
        raise ValidationError("need C >= 2 and N >= 1")
    if C * N > L:
        raise ValidationError(
            f"C*N = {C * N} exceeds the ambient dimension {L}; "
            "the no-overlap assumption cannot hold")
    if C * N * L > np.iinfo(np.intp).max // 8:  # numpy raises ValueError
        raise ValidationError(f"C*N*L = {C*N*L} exceeds numpy's largest array")
    if not (0.0 < separation <= 1.0):
        raise ValidationError("separation must be in (0, 1]")
    rng = _rng(seed)
    shared = rng.standard_normal((L, N))
    classes = []
    for c in range(C):
        raw = separation * rng.standard_normal((L, N)) \
            + (1.0 - separation) * shared
        Q = gram_schmidt(rng.standard_normal((L, N)) if separation == 1.0
                         else raw)
        classes.append(ClassModel(
            label=c,
            basis=Q,
            eigenvalues=np.ones(N),
            mean=Q[:, 0].copy(),
            count=N,
        ))
    return SubspaceEnsemble(classes=tuple(classes), ambient_dim=L)


def labeled_gaussians(C, L, n_per_class, mean_norm, sigma_max, seed,
                      sample_seed=None):
    """C well-separated Gaussian classes with random mean directions.

    Returns (X, labels) with string labels "c00", "c01", ...  The mean
    directions depend only on ``seed``; the draws use per-class sub-seeds
    derived from ``sample_seed`` (defaulting to ``seed``), so train/test
    pairs over the same classes come from one seed and two sample seeds.
    """
    if C < 2 or L < 1:
        raise ValidationError(f"need C >= 2 and L >= 1, got {C} and {L}")
    _check_seed(sample_seed, "sample_seed")
    rng = _rng(seed)
    dirs = rng.standard_normal((C, L))
    draw = seed if sample_seed is None else sample_seed
    X, labels = [], []
    for c in range(C):
        samples = gaussian_class(L, dirs[c], mean_norm, sigma_max,
                                 n_per_class, seed=draw * 1000003 + c + 1)
        X.append(samples)
        labels.extend([f"c{c:02d}"] * n_per_class)
    return np.vstack(X), labels


def class_mixture_bases(C, L, seed, basis_count=9, anchor_spread=0.4):
    """One family of ``basis_count`` unit vectors per class.

    Each family is scattered around its own anchor direction drawn from the
    positive orthant (anchor_spread controls how far), mimicking a set of
    related nonnegative observations of one object; like image vectors, the
    class mean directions end up pairwise positively correlated.  Exposed
    separately so a caller can draw several mixture sample sets over the
    same families.
    """
    if not (C >= 2 and L >= 1 and basis_count >= 1
            and np.isfinite(anchor_spread)):
        raise ValidationError(
            "need C >= 2, L >= 1, basis_count >= 1 and a finite "
            f"anchor_spread, got {C}, {L}, {basis_count} and {anchor_spread}")
    rng = _rng(seed)
    out = []
    for _ in range(C):
        anchor = _unit(np.abs(rng.standard_normal(L)))
        raw = anchor + anchor_spread * rng.standard_normal((basis_count, L))
        out.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return out


def labeled_mixtures(C, L, n_per_class, mode, seed, basis_count=9,
                     anchor_spread=0.4, sample_seed=None):
    """C convex-mixture classes, each built over its own basis family.

    Returns (X, labels) with string labels "c00", "c01", ...  The basis
    families depend only on ``seed``; mixture draws are sub-seeded from
    ``sample_seed`` (defaulting to ``seed``), so a Set1 training set and a
    Set2 test set over the same families share the seed and differ in the
    sample seed.
    """
    _check_seed(sample_seed, "sample_seed")
    families = class_mixture_bases(C, L, seed, basis_count, anchor_spread)
    draw = seed if sample_seed is None else sample_seed
    X, labels = [], []
    for c, basis in enumerate(families):
        samples = convex_mixture(basis, mode, n_per_class,
                                 seed=draw * 1000003 + c + 1)
        X.append(samples)
        labels.extend([f"c{c:02d}"] * n_per_class)
    return np.vstack(X), labels
