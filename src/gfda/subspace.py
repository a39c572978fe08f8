"""Class-subspace fitting.

A class subspace is the span of the leading eigenvectors of the class
autocorrelation matrix R_c = (1/n_c) sum_i x_i x_i^T, i.e. PCA *without*
mean subtraction.  Because no centering is applied, the first basis vector
of a class tracks the direction of its sample mean whenever the mean
dominates the spread, which is what the whole discriminant construction
in :mod:`gfda.fisher` leans on.  The union span of the class subspaces is
``linalg.gram_frame(Phi, M)`` on the pooled bases of ``fisher._pooled``.
Both two-class difference subspace constructions are in :mod:`gfda.reference`.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg
from .errors import ValidationError

OVERLAP_TOL = 1e-8


@dataclass(frozen=True)
class ClassModel:
    """Uncentered-PCA model of one class.

    basis : (L, N_c) orthonormal columns, eigenvalue order (largest first)
    eigenvalues : (N_c,) nonincreasing eigenvalues of the autocorrelation
        matrix, one per basis column
    mean : (L,) sample mean
    count : number of samples the model was fitted from
    """

    label: object
    basis: np.ndarray
    eigenvalues: np.ndarray
    mean: np.ndarray
    count: int

    def __post_init__(self):
        name = f"class {self.label!r} basis"
        if np.ndim(self.basis) != 2 or np.shape(self.basis)[1] == 0:
            raise ValidationError(
                f"{name} must be 2-dimensional with at least one column, "
                f"got shape {np.shape(self.basis)}")
        linalg.as_ortho_basis(self.basis, name)
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size != self.basis.shape[1]:
            raise ValidationError("eigenvalues must align with basis columns")
        if np.any(np.diff(ev) > 1e-12 * max(abs(ev[0]), 1.0) if ev.size else False):
            raise ValidationError("eigenvalues must be nonincreasing")
        if self.dim > min(self.count, self.ambient_dim):
            raise ValidationError(
                f"class {self.label!r}: {self.dim} basis vectors exceed "
                f"min(count={self.count}, L={self.ambient_dim})")

    @classmethod
    def _fitted(cls, **fields):
        """A model whose __post_init__ guarantees _fit_classes has already
        established: built without re-running them."""
        model = object.__new__(cls)
        model.__dict__.update(fields)
        return model

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class SubspaceEnsemble:
    """The C class models entering a discriminant construction."""

    classes: tuple
    ambient_dim: int

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValidationError("an ensemble needs at least 2 classes")
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ValidationError("class labels must be unique")
        for c in self.classes:
            if c.ambient_dim != self.ambient_dim:
                raise ValidationError(
                    f"class {c.label!r} lives in dimension {c.ambient_dim}, "
                    f"ensemble expects {self.ambient_dim}")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def labels(self):
        return tuple(c.label for c in self.classes)


def fit_class(samples, label=None, dim: Optional[int] = None,
              energy: Optional[float] = None) -> ClassModel:
    """Fit a class subspace by uncentered PCA.

    Parameters
    ----------
    samples : (n, L) array, one sample per row.
    dim : keep exactly this many leading eigenvectors (must not exceed
        min(n, L) nor the numerical rank).
    energy : keep the smallest number of eigenvectors whose cumulative
        eigenvalue share reaches this fraction.

    With neither rule given, the full numerically nonzero spectrum is kept.
    The eigenpairs come from ``linalg.range_basis(X.T)`` (eigenvectors U,
    eigenvalues s^2 / n, cut by the rank rule), which never forms the L x L
    autocorrelation matrix.  This is the one-class case of fit_ensemble.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError("fit_class needs at least one sample")
    return _fit_classes(X, [label], [np.arange(X.shape[0])], dim, energy)[0]


def group_by_label(X, y):
    """Rows of X (any dtype) split by label: (sorted labels, groups)."""
    X = np.asarray(X)
    y = np.asarray(y)
    labels = sorted(set(y.tolist()))
    return labels, [X[y == label] for label in labels]


def fit_ensemble(X, labels, dim=None, energy=None) -> SubspaceEnsemble:
    """Fit one ClassModel per distinct label (sorted) and bundle them.

    The classes of each distinct size share one batched SVD, so C classes
    of equal size cost one LAPACK call; the models are bit for bit those
    of fit_class on each class, and a failing class raises fit_class's
    error, the first in sorted label order.
    """
    X = np.asarray(X, dtype=float)
    labels, rows = group_by_label(np.arange(len(X)), labels)
    return SubspaceEnsemble(classes=tuple(_fit_classes(X, labels, rows, dim,
                                                       energy)),
                            ambient_dim=X.shape[1])


def _fit_classes(X, labels, rows, dim, energy):
    """ClassModels of the classes X[rows[i]], i in order, checked in that
    order after one stacked ``linalg.range_basis`` per distinct size.

    Each stacked U is checked by one ``linalg.as_ortho_basis`` before it is
    split; the rank cut and the dim/energy rules keep leading columns, so
    every fitted basis is orthonormal too, and the SVD order and the rank
    cut give every other ClassModel guarantee: the models skip
    __post_init__.  After a failing stack the public checks run on each
    class, and the first failing class's error is raised, in order.
    """
    if dim is not None and energy is not None:
        raise ValidationError("give either dim or energy, not both")
    if not np.isfinite(X).all():
        raise ValidationError("samples must be finite")
    L = X.shape[1]
    fits = [None] * len(rows)
    failed = None
    for n, members in zip(*group_by_label(np.arange(len(rows)),
                                          [r.size for r in rows])):
        stack = X[np.stack([rows[i] for i in members])]  # (b, n, L)
        U, s, ranks = linalg.range_basis(stack.transpose(0, 2, 1))
        try:
            linalg.as_ortho_basis(U)
        except ValidationError as exc:
            failed = failed or exc
        for i, u, v, r, mean, any_nonzero in zip(
                members, U, s, ranks, stack.mean(axis=1),
                stack.any(axis=(1, 2))):
            fits[i] = (n, u[:, :r], v[:r]**2 / n, mean, any_nonzero)

    classes = []
    for label, (n, basis, vals, mean, any_nonzero) in zip(labels, fits):
        if dim is not None and not (1 <= dim <= min(n, L)):
            raise ValidationError(f"dim must be in [1, min(n={n}, L={L})]")
        if not any_nonzero:
            raise ValidationError("all samples are zero vectors")
        if not vals.size:
            raise ValidationError("samples have numerical rank 0")
        if dim is not None:
            if dim > vals.size:
                raise ValidationError(
                    f"requested {dim} components but numerical rank is "
                    f"{vals.size}")
            vals, basis = vals[:dim], basis[:, :dim]
        elif energy is not None:
            if not (0.0 < energy <= 1.0):
                raise ValidationError("energy threshold must be in (0, 1]")
            share = np.cumsum(vals) / np.sum(vals)
            k = int(np.searchsorted(share, energy - 1e-15) + 1)
            k = min(k, vals.size)
            vals, basis = vals[:k], basis[:, :k]
        classes.append(ClassModel._fitted(label=label, basis=basis,
                                          eigenvalues=vals, mean=mean,
                                          count=n))

    if failed is not None:
        for c in classes:  # the public checks: the first failing class's error
            replace(c)
        raise failed
    return classes
