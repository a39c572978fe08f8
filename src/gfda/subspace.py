"""Class-subspace fitting.

A class subspace is the span of the leading eigenvectors of the class
autocorrelation matrix R_c = (1/n_c) sum_i x_i x_i^T, i.e. PCA *without*
mean subtraction.  Because no centering is applied, the first basis vector
of a class tracks the direction of its sample mean whenever the mean
dominates the spread, which is what the whole discriminant construction
in :mod:`gfda.fisher` leans on.  Each class is fitted from its n x n
sample Gram X_c X_c^T, the smaller side when every class has n <= L,
and a fitted ensemble keeps the Gram G = X X^T of all its rows, so the
pooled bases' Gram and every gFDA/GDS output come from inner products of
the rows (``fisher._pooled``).  Where a class has n > L, every class
takes one checked thin SVD of its rows instead, as does a class past its
Gram's guard.  The union span of the class subspaces is
``linalg.gram_frame`` of the pooled bases.  Both two-class difference
subspace constructions are in :mod:`gfda.reference`.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .errors import ValidationError

OVERLAP_TOL = 1e-8
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass(frozen=True)
class ClassModel:
    """Uncentered-PCA model of one class.

    basis : (L, N_c) orthonormal columns, eigenvalue order (largest first)
    eigenvalues : (N_c,) nonincreasing eigenvalues of the autocorrelation
        matrix, one per basis column
    mean : (L,) sample mean
    count : number of samples the model was fitted from

    A model fitted by ``fit_ensemble`` from its sample Gram forms
    ``basis`` = X_c^T W_c from the fitted rows when first read, and checks
    it (``_basis_of``); every other field is set.
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
        if np.shape(self.mean) != self.basis.shape[:1]:
            raise ValidationError(
                f"class {self.label!r} mean must have shape "
                f"({self.basis.shape[0]},), got {np.shape(self.mean)}")
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
        established: built without re-running them.  A callable basis is
        formed on first use."""
        model = object.__new__(cls)
        if callable(fields["basis"]):
            fields["_form_basis"] = fields.pop("basis")
        model.__dict__.update(fields)
        return model

    def __getattr__(self, name):
        # reached only for an unset attribute: a fitted basis not yet formed
        form = self.__dict__.get("_form_basis") if name == "basis" else None
        if form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        self.__dict__["basis"] = form()
        del self.__dict__["_form_basis"]
        return self.basis

    def __getstate__(self):
        self.basis  # noqa: B018 -- formed first: its former does not pickle
        return self.__dict__

    @property
    def ambient_dim(self) -> int:
        return np.shape(self.mean)[0]

    @property
    def dim(self) -> int:
        return np.size(self.eigenvalues)


@dataclass(frozen=True)
class SubspaceEnsemble:
    """The C class models entering a discriminant construction.

    samples : set by ``fit_ensemble`` when every class came from the sample
        Gram: (X, G, Mc, starts), the fitted rows X, each class's one run
        of rows starting at starts, their Gram G = X X^T and the (m, K)
        coordinates Mc = blockdiag(W_c) of the pooled bases (up to column
        signs), Phi = X^T Mc.  X is read again where a basis or an output
        is lifted, so it must not change while the ensemble is in use; a
        basis formed from changed rows that are no longer orthonormal
        raises.  None for any other ensemble, whose bases are stacked.
    """

    classes: tuple
    ambient_dim: int
    samples: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)

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
    The eigenpairs come from the n x n sample Gram, or from the thin SVD
    where n > L (``_fit_classes``); the L x L autocorrelation matrix is
    never formed.  This is the one-class case of fit_ensemble, on a copy
    of the rows, so the model does not depend on the caller's array.
    """
    X = np.array(samples, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError("fit_class needs at least one sample")
    return _fit_classes(X, [label], [np.arange(X.shape[0])], dim, energy)[0][0]


def group_by_label(X, y):
    """Rows of X (any dtype) split by label: (sorted labels, groups)."""
    X = np.asarray(X)
    y = np.asarray(y)
    labels = sorted(set(y.tolist()))
    return labels, [X[y == label] for label in labels]


def fit_ensemble(X, labels, dim=None, energy=None) -> SubspaceEnsemble:
    """Fit one ClassModel per distinct label (sorted) and bundle them.

    The classes share one sample Gram and one batched eigh per distinct
    size, or each takes one thin SVD where any class has n > L
    (``_fit_classes``); a failing class raises fit_class's error, the
    first in sorted label order.  The ensemble keeps the Gram and the
    classes' coordinates (``SubspaceEnsemble.samples``) when every class
    came from it.
    """
    X = np.asarray(X, dtype=float)
    labels, rows = group_by_label(np.arange(len(X)), labels)
    classes, samples = _fit_classes(X, labels, rows, dim, energy)
    ensemble = SubspaceEnsemble(classes=tuple(classes), ambient_dim=X.shape[1])
    object.__setattr__(ensemble, "samples", samples)
    return ensemble


def _pooled_gram(ensemble):
    """(A, Mc, M, firsts, lead): the pooled bases Phi = [Phi_1 ... Phi_C]
    as A Mc (A itself where Mc is None), their Gram M = Phi^T Phi, the
    column of each class's first basis vector f_c, and lead_c, f_c^T times
    a positive multiple of the class mean.  A fitted ensemble's ``samples``
    give Phi = X^T Mc, M = Mc^T G Mc from the rows' Gram G, and lead_c
    from the class's rows of G Mc, which sum to n_c f_c^T mean_c: Phi is
    never formed.  Any other ensemble stacks A = Phi."""
    classes = ensemble.classes
    firsts = np.cumsum([0] + [c.dim for c in classes[:-1]])
    if ensemble.samples is None:
        A = np.hstack([c.basis for c in classes])
        lead = np.einsum("ij,ji->i", [c.mean for c in classes], A[:, firsts])
        return A, None, A.T @ A, firsts, lead
    X, G, Mc, starts = ensemble.samples
    GMc = G @ Mc
    lead = np.add.reduceat(GMc[:, firsts], starts).diagonal()
    return X.T, Mc, Mc.T @ GMc, firsts, lead


def _check_energy(energy):
    """Reject an energy threshold outside (0, 1]: the rule's own check."""
    if not (0.0 < energy <= 1.0):
        raise ValidationError("energy threshold must be in (0, 1]")


def _kept(n, L, vals, any_nonzero, dim, energy):
    """How many leading eigenpairs of a class of n rows the rules keep, of
    the nonzero eigenvalues vals; raises the class's error."""
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
        return dim
    if energy is not None:
        _check_energy(energy)
        share = np.cumsum(vals) / np.sum(vals)
        return min(int(np.searchsorted(share, energy - 1e-15) + 1), vals.size)
    return vals.size


def _fit_classes(X, labels, rows, dim, energy):
    """(ClassModels, samples) for the classes X[rows[i]], i in order,
    checked in that order.

    A class of n <= L rows comes from its n x n sample Gram X_c X_c^T =
    V diag(s^2) V^T, one batched eigh per distinct size, run on the Grams
    rescaled by an exact power of two: eigenvalues s^2 / n cut by the rank
    rule and the dim/energy rule, and basis X_c^T W_c for W_c =
    V diag(1/s) on the kept columns with eigh's signs, the basis formed,
    sign-fixed in L dimensions and checked on first read (``_basis_of``,
    with a CholeskyQR pass past UNIT_NORM_TOL).  The Gram holds that basis
    to about drift = eps s^2_max / s^2_min of the kept columns; past
    ORTHO_IP_TOL (or with s^2_min below the normal range over eps) that
    class alone takes the thin SVD ``linalg.range_basis(X_c^T)``, cut by
    the same rules, its basis checked as it is cut
    (``linalg.as_ortho_basis``).  Where any class has n > L rows, the
    smaller side decides: no Gram is formed and every class takes that
    SVD.  Each class raises its error in turn, so the first failing class
    in order raises.  The rank cut and the rules keep leading columns and
    the eigenvalues descend, so the models skip __post_init__.

    The class Grams are the diagonal blocks of the Gram G = X X^T of all
    the rows, one syrk.  samples is (X, G, Mc, starts) when every class
    came from G, else None: X with each class's rows one run (reordered if
    they were not), starting at starts, and Mc = blockdiag(W_c)
    (``SubspaceEnsemble.samples``).
    """
    if dim is not None and energy is not None:
        raise ValidationError("give either dim or energy, not both")
    if not np.isfinite(X).all():
        raise ValidationError("samples must be finite")
    order = np.concatenate(rows)
    if (order != np.arange(len(X))).any():  # each class one run of rows
        X = X[order]
    m, L = X.shape
    sizes = np.array([r.size for r in rows])
    starts = np.cumsum(sizes) - sizes
    fits = [None] * len(rows)  # none without a Gram: each takes the SVD
    if sizes.max() <= L:  # the class Grams are the blocks of G = X X^T
        G = linalg.finite_gram(X.T)
        for n, members in zip(*group_by_label(np.arange(len(rows)), sizes)):
            index = starts[members, None] + np.arange(n)  # (b, n)
            stack = _gathered(X, index)
            grams = G[index[:, :, None], index[:, None, :]]
            # LAPACK rescales a Gram far from 1 by a factor that rounds; a
            # power of two does not, so a fit of X 2^k is X's, scaled
            scale = np.frexp(grams.diagonal(axis1=1, axis2=2).max(axis=1))[1]
            s2, V = np.linalg.eigh(np.ldexp(grams, -scale[:, None, None]))
            s2, V = np.ldexp(s2[:, ::-1], scale[:, None]), V[:, :, ::-1]
            kept = linalg.nonzero(s2)
            W = V / np.sqrt(np.where(kept, s2, 1.0))[:, None, :]
            for i, v, w, r, mean, nonzero in zip(
                    members, s2 / n, W, kept.sum(axis=1).tolist(),
                    stack.mean(axis=1), stack.any(axis=(1, 2))):
                fits[i] = (v[:r], w, mean, nonzero)

    classes, coords = [], []
    for label, start, n, fit in zip(labels, starts, sizes.tolist(), fits):
        rows_c = X[start:start + n]
        if fit is None:
            W, mean, nonzero = None, rows_c.mean(axis=0), rows_c.any()
        else:
            vals, W, mean, nonzero = fit
            k = _kept(n, L, vals, nonzero, dim, energy)
            drift = EPS * vals[0] / vals[k - 1]
            if drift > linalg.ORTHO_IP_TOL or vals[k - 1] * n < TINY / EPS:
                W = None  # past the guard: this class alone takes the SVD
        if W is None:
            U, s, rank = linalg.range_basis(rows_c.T)
            vals = s[:rank] ** 2 / n
            k = _kept(n, L, vals, nonzero, dim, energy)
            basis = linalg.as_ortho_basis(U[:, :k], f"class {label!r} basis")
        else:
            W = W[:, :k]
            coords.append(W)
            basis = _basis_of(label, rows_c, W, drift > linalg.UNIT_NORM_TOL)
        classes.append(ClassModel._fitted(label=label, basis=basis,
                                          eigenvalues=vals[:k], mean=mean,
                                          count=n))

    if len(coords) < len(classes):  # a class took the SVD
        return classes, None
    Mc, column = np.zeros((m, sum(W.shape[1] for W in coords))), 0
    for start, W in zip(starts, coords):
        Mc[start:start + len(W), column:column + W.shape[1]] = W
        column += W.shape[1]
    return classes, (X, G, Mc, starts)


def _gathered(X, index):
    """X[index], a view where the rows are one ascending run."""
    start = index.flat[0]
    if (index.ravel() == np.arange(start, start + index.size)).all():
        return X[start:start + index.size].reshape(index.shape + X.shape[1:])
    return X[index]


def _basis_of(label, X_c, W, reorthonormalize):
    """The basis X_c^T W of a class fitted from its Gram, formed when first
    read: one CholeskyQR pass with reorthonormalize, sign-fixed, and
    checked like a public model's, as X_c may have changed since the fit."""
    return lambda: linalg.as_ortho_basis(
        linalg._formed_frame(X_c.T, W, reorthonormalize)[0],
        f"class {label!r} basis")
