"""Scatter matrices, the Fisher criterion, and the discriminant family.

The module covers three layers:

* plain scatter matrices and the pairwise-difference matrix (the L x L
  ladder of rungs FDA -> aFDA -> sFDA -> gFDA is in :mod:`gfda.reference`);
* the discriminant constructions themselves: classical FDA plus its three
  small-sample workarounds (pcaLDA, regLDA, nullLDA), the geometrical
  variant in both of its equivalent forms, and the generalized-difference-
  subspace projection;
* the analysis quantities connecting the last two (per-vector discriminant
  power and the gap index).

The geometrical criterion maximizes f(d) = (d^T B d) / (d^T W d) where B is
the pairwise-difference matrix of the classes' first basis vectors and W is
the sum of the class projection matrices.  Its maximizers can be found
either by whitening W and diagonalizing the transformed B (the "product"
route, a generalized eigenproblem) or as the null space of W - B/C (the
"linear" route, an ordinary symmetric eigenproblem that stays solvable with
any number of samples).  Both spans coincide.
"""

import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import linalg
from .errors import (NotApplicableError, OverlapError, UndefinedDirectionError,
                     ValidationError)
from .subspace import (OVERLAP_TOL, SubspaceEnsemble, aligned_first_vectors,
                       group_by_label, union_span)

LADDER_RUNGS = ("FDA", "aFDA", "sFDA", "gFDA")


@dataclass(frozen=True)
class ScatterPair:
    """A (between, within) matrix pair at one rung of the ladder."""

    between: np.ndarray
    within: np.ndarray
    rung: str

    def __post_init__(self):
        linalg.as_sym_matrix(self.between, "between")
        linalg.as_sym_matrix(self.within, "within")
        if self.between.shape != self.within.shape:
            raise ValidationError("between/within orders differ")
        if self.rung not in LADDER_RUNGS:
            raise ValidationError(f"unknown rung {self.rung!r}")


@dataclass(frozen=True)
class DiscriminantModel:
    """A linear map onto a discriminant space plus what is needed to classify.

    projector : (L, k) map from data space to discriminant coordinates,
        t = projector^T x; its columns are orthonormal for every method but
        the product form, which folds its whitening map in
    class_refs : (C, k) reference point of each class in discriminant
        coordinates, rows aligned with class_labels
    normalized : when True, classification normalizes projections and
        references to unit length; every construction returns the plain
        model, and with_normalization gives its "+N" variant
    """

    projector: np.ndarray
    method: str
    class_labels: tuple
    class_refs: np.ndarray
    normalized: bool = False
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        P = self.projector
        if P.ndim != 2 or self.class_refs.shape != (len(self.class_labels),
                                                    P.shape[1]):
            raise ValidationError("class_refs shape does not match labels/projector")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ValidationError("class labels must be unique")
        try:
            sorted(self.class_labels)
        except TypeError:
            raise ValidationError("class labels must be mutually orderable") from None
        if not (np.isfinite(P).all() and np.isfinite(self.class_refs).all()):
            raise ValidationError("model arrays must be finite")
        if not isinstance(self.normalized, bool):
            raise ValidationError("normalized must be true or false")
        if self.normalized != str(self.method).endswith("+N"):
            raise ValidationError(f"normalized must match the +N suffix of "
                                  f"method {self.method!r}")

    @property
    def dim(self) -> int:
        return self.projector.shape[1]

    def effective_basis(self) -> np.ndarray:
        """Orthonormal basis of the data-space subspace the model projects onto."""
        return linalg.gram_schmidt(self.projector)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "projector": self.projector.tolist(),
            "class_labels": list(self.class_labels),
            "class_refs": self.class_refs.tolist(),
            "normalized": self.normalized,
            "info": self.info,
        }

    @staticmethod
    def from_dict(d: dict) -> "DiscriminantModel":
        unknown = set(d) - {f.name for f in fields(DiscriminantModel)}
        if unknown:
            raise ValidationError(f"unknown model entries {sorted(unknown)}")
        return DiscriminantModel(
            projector=np.asarray(d["projector"], dtype=float),
            method=d["method"],
            class_labels=tuple(d["class_labels"]),
            class_refs=np.asarray(d["class_refs"], dtype=float),
            normalized=d.get("normalized", False),
            info=dict(d.get("info", {})),
        )


def with_normalization(model: DiscriminantModel,
                       normalized: bool = True) -> DiscriminantModel:
    """Return the same model with the projection-normalization switch set;
    the one place that sets ``normalized`` and the "+N" method suffix."""
    if normalized == model.normalized:
        return model
    method = model.method + "+N" if normalized else model.method.removesuffix("+N")
    return replace(model, normalized=normalized, method=method)


# ---------------------------------------------------------------------------
# scatter matrices
# ---------------------------------------------------------------------------

def within_scatter(groups) -> np.ndarray:
    """Pooled within-class covariance (1/n) sum_c sum_i (x - m_c)(x - m_c)^T,
    one product of the stacked class-centred rows."""
    groups = [np.asarray(g, dtype=float) for g in groups]
    if any(g.shape[0] == 0 for g in groups):
        raise ValidationError("every class needs at least one sample")
    d = np.vstack([g - g.mean(axis=0) for g in groups])
    return d.T @ d / d.shape[0]


def between_scatter(means, counts) -> np.ndarray:
    """Between-class covariance around the global mean,
    (1/n) sum_c n_c (m_c - m)(m_c - m)^T."""
    means = np.asarray(means, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if means.shape[0] < 2:
        raise ValidationError("need at least 2 classes")
    n = counts.sum()
    m = counts @ means / n
    d = means - m
    return (d.T * counts) @ d / n


def pairwise_difference_matrix(firsts) -> np.ndarray:
    """sum_{i<j} (v_i - v_j)(v_i - v_j)^T over the rows of ``firsts``.

    Computed in closed form as C * sum_i (v_i - v_bar)(v_i - v_bar)^T,
    which equals F^T (C I - 1 1^T) F for the (C, d) matrix F of rows.
    """
    firsts = np.asarray(firsts, dtype=float)
    centered = firsts - firsts.mean(axis=0)
    return firsts.shape[0] * (centered.T @ centered)


def discriminant_power_curve(basis, pair: ScatterPair) -> np.ndarray:
    """Fisher-like power of each basis column under the given pair: the
    reference.fisher_criterion of every column at once, raising
    UndefinedDirectionError for a column of no within-class energy."""
    basis = np.asarray(basis, dtype=float)
    num = np.sum(basis * (pair.between @ basis), axis=0)
    den = np.sum(basis * (pair.within @ basis), axis=0)
    scale = np.sum(basis * basis, axis=0) * max(np.linalg.norm(pair.within), 1.0)
    if np.any(den <= 1e-12 * scale):
        raise UndefinedDirectionError(
            "direction has (numerically) zero within-class energy")
    return num / den


def gap_index(C: int) -> float:
    """Relative weight gap 2 (1 - 1/C) between the geometrical criterion and
    plain difference-subspace projection; 1.0 at C = 2, toward 2.0 as C grows."""
    if C < 2:
        raise ValidationError("gap index needs C >= 2")
    return 2.0 * (1.0 - 1.0 / C)


# ---------------------------------------------------------------------------
# geometrical discriminant analysis
# ---------------------------------------------------------------------------

def union_frame(ensemble: SubspaceEnsemble):
    """The union-span frame that gFDA and GDS work in, as (U, s2, F, B_U).

    U, s2 : union_span of the class subspaces, the (L, K) frame and the K
        nonzero eigenvalues of G = sum_c P_c = U diag(s2) U^T, ascending
    F : (C, L) aligned first basis vectors
    B_U : (K, K) pairwise-difference matrix of F U, that is U^T B U

    In the coordinates of U, GDS diagonalizes G, i.e. reads off diag(s2),
    and gFDA-linear diagonalizes diag(s2) - B_U / C; the two differ by the
    correction term B_U / C alone.
    """
    U, s2 = union_span(ensemble.classes)
    F = aligned_first_vectors(ensemble)
    return U, s2, F, pairwise_difference_matrix(F @ U)


def gfda_product_form(ensemble: SubspaceEnsemble) -> DiscriminantModel:
    """Geometrical discriminant space via whitening followed by PCA.

    Steps: take the union-span frame U, S of the pooled class bases
    (whose rank must equal the number of pooled vectors), whiten the summed
    projection matrix G = U S^2 U^T with the map diag(1/s) U^T so all basis
    vectors become mutually orthonormal, then diagonalize the
    pairwise-difference matrix of the whitened first basis vectors and keep
    its C - 1 leading eigenvectors.  That matrix is C X^T X for the C
    centered whitened first vectors X, whose C - 1 nonzero eigenvalues all
    equal C (the whitened first vectors are orthonormal), so the data fix
    the eigenbasis: Gram-Schmidt on the first C - 1 rows of X in class
    order.  The model's projector is the whitening map followed by that
    basis, one (L, C - 1) map.  Class references are the projections of
    the whitened first basis vectors.
    """
    C = ensemble.n_classes
    total = sum(c.dim for c in ensemble.classes)
    if total > ensemble.ambient_dim:
        raise OverlapError(
            f"{total} pooled basis vectors cannot be independent in "
            f"dimension {ensemble.ambient_dim}")
    U, s2, F, _ = union_frame(ensemble)
    if s2.size < total:
        raise OverlapError(
            "class subspaces overlap: pooled basis vectors are dependent "
            f"(rank {s2.size} < {total})")

    s = np.sqrt(s2)
    wmap = U.T / s[:, None]  # data space -> normalized space
    hats = F @ wmap.T  # rows: whitened first vectors
    centred = hats - hats.mean(axis=0)
    basis = linalg.gram_schmidt(centred[:C - 1].T)
    return DiscriminantModel(
        projector=wmap.T @ basis,
        method="gFDA-product",
        class_labels=ensemble.labels,
        class_refs=hats @ basis,
        info={"criterion_eigenvalues":
              (C * np.sum((centred @ basis) ** 2, axis=0)).tolist()},
    )


def gfda_linear_form(ensemble: SubspaceEnsemble) -> DiscriminantModel:
    """Geometrical discriminant space as the null space of W - B/C.

    Solvable for any sample count (the matrix is a plain linear combination,
    never inverted), which is what lets the method run with a single sample
    per class.  The eigenproblem is restricted to the union span of the
    class subspaces; directions orthogonal to every class are null for both
    matrices and carry no discriminant information.  Selection is by index
    (the C - 1 smallest eigenvalues).  A selected eigenvalue that is not
    near zero (OVERLAP_TOL) means the class subspaces overlap; this is
    recorded, not raised, even when none is near zero (identical classes):
    a warning reports the largest and info["selected_eigenvalues"] holds
    them all.
    """
    C = ensemble.n_classes
    U, s2, F, B_U = union_frame(ensemble)
    if s2.size < C - 1:
        raise ValidationError(
            f"union span of the class subspaces has rank {s2.size}, "
            f"cannot hold a {C - 1}-dimensional discriminant space")
    # U^T (G - B/C) U = diag(s^2) - U^T B U / C
    values, vectors = np.linalg.eigh(np.diag(s2) - B_U / C)
    k = C - 1
    selected = values[:k]
    top = max(abs(values[-1]), 1.0)
    if selected[-1] > OVERLAP_TOL * top:
        warnings.warn(
            f"only {int(np.sum(selected <= OVERLAP_TOL * top))} of {k} selected "
            f"eigenvalues are near zero (max selected {selected[-1]:.3e}); "
            "class subspaces overlap or are degenerate",
            RuntimeWarning, stacklevel=2)
    basis = linalg.fix_signs(U @ vectors[:, :k])
    return DiscriminantModel(
        projector=basis,
        method="gFDA-linear",
        class_labels=ensemble.labels,
        class_refs=F @ basis,
        info={"selected_eigenvalues": selected.tolist()},
    )


def gds_discriminant(ensemble: SubspaceEnsemble, dims=None,
                     gamma=None) -> DiscriminantModel:
    """Generalized-difference-subspace projection packaged for classification.

    The basis is the generalized difference subspace: the eigenvectors of
    G = sum_c P_c for its smallest eigenvalues *within the sum subspace*
    (eigenvalue > 0), read off the union-span frame; directions orthogonal
    to every class subspace carry no information and are never selected.
    Class references are the projected, sign-aligned first basis vectors.

    Exactly one rule must be given: ``dims`` fixes N_d, while ``gamma``
    grows N_d until the cumulative discriminant power of the selected
    eigenvectors reaches beta = C (C - 1) * gamma; the power of eigenvector
    u_j is (u_j^T B u_j) / s_j^2, with B the gFDA pairwise-difference
    matrix.  Fully degenerate spectra (e.g. mutually orthogonal classes) are
    resolved by the deterministic order of the frame; any basis of the tied
    eigenspace is equally valid.  info["eigenvalues"] holds the selected
    eigenvalues of G, ascending, and info["selection"] the rule: its name,
    dims, and for the power rule gamma, beta and the power reached.
    """
    if (dims is None) == (gamma is None):
        raise ValidationError("give exactly one of dims or gamma")
    U, s2, F, B_U = union_frame(ensemble)

    if dims is not None:
        if not (1 <= dims <= s2.size):
            raise ValidationError(
                f"GDS dimension {dims} outside the rank of G ({s2.size})")
        selection = {"rule": "fixed", "dims": dims, "gamma": None,
                     "beta": None, "achieved_power": None}
    else:
        if not (0.0 < gamma <= 1.0):
            raise ValidationError("gamma must be in (0, 1]")
        C = ensemble.n_classes
        beta = C * (C - 1) * gamma
        cumulative = np.cumsum(np.diag(B_U) / s2)
        reached = np.nonzero(cumulative >= beta - 1e-9)[0]
        if reached.size == 0:
            raise ValidationError(
                f"cumulative discriminant power {cumulative[-1]:.6f} never "
                f"reaches beta = {beta:.6f}; the class subspaces overlap too much")
        dims = int(reached[0]) + 1
        selection = {"rule": "power", "dims": dims, "gamma": gamma,
                     "beta": beta,
                     "achieved_power": float(cumulative[dims - 1])}
    basis = U[:, :dims]
    return DiscriminantModel(
        projector=basis,
        method="GDS",
        class_labels=ensemble.labels,
        class_refs=F @ basis,
        info={"eigenvalues": s2[:dims].tolist(), "selection": selection},
    )


# ---------------------------------------------------------------------------
# classical FDA and its small-sample workarounds
# ---------------------------------------------------------------------------

_SINGULAR_WITHIN = ("within-class scatter is singular; plain FDA does not "
                    "apply (small-sample regime)")


def _centred_frame(X, y):
    """Labels, groups, mean m, and the singular values s and frame Q of
    linalg.range_basis((X - m)^T), Q of shape (L, rank(X - m)).  span(Q)
    holds every class-centred row and centred class mean, so both scatters
    vanish on its complement."""
    X = np.asarray(X, dtype=float)
    labels, groups = group_by_label(X, y)
    center = X.mean(axis=0)
    Q, s = linalg.range_basis((X - center).T)
    return labels, groups, center, s, Q


def _frame_statistics(groups, center, Q):
    """Class means, counts and within scatter of the rows (g - center) @ Q."""
    zgroups = [(g - center) @ Q for g in groups]
    means = np.array([g.mean(axis=0) for g in zgroups])
    return means, np.array([g.shape[0] for g in zgroups]), within_scatter(zgroups)


def _top_generalized_directions(between, within, k, ridge=0.0):
    """Eigenvectors and eigenvalues of the k largest generalized eigenvalues
    of (between, within + ridge I).  Without a ridge, within must be positive
    definite; a ridge is added to the caller's within matrix in place.  With
    within = L L^T, solves L^-1 between L^-T and lifts by L^-T."""
    if ridge:
        within[np.diag_indices_from(within)] += ridge
    elif not linalg.nonzero(np.linalg.eigvalsh(within)).all():
        raise ValidationError(_SINGULAR_WITHIN)
    Linv = np.linalg.inv(np.linalg.cholesky(within))
    w, V = np.linalg.eigh(Linv @ between @ Linv.T)
    return (Linv.T @ V)[:, ::-1][:, :k], w[::-1][:k]


def _baseline_model(labels, groups, frame, coords, method, info):
    # orthonormalize in frame coordinates: Gram-Schmidt commutes with the frame
    basis = frame @ linalg.gram_schmidt(coords)
    return DiscriminantModel(
        projector=basis,
        method=method,
        class_labels=tuple(labels),
        class_refs=np.array([g.mean(axis=0) for g in groups]) @ basis,
        info=info,
    )


def fda(X, y) -> DiscriminantModel:
    """Classical Fisher discriminant analysis; needs a nonsingular
    within-class scatter, so a centred-data frame Q that fills the space."""
    labels, groups, center, _, Q = _centred_frame(X, y)
    if Q.shape[1] < Q.shape[0]:
        raise ValidationError(_SINGULAR_WITHIN)
    zmeans, counts, Sw = _frame_statistics(groups, center, Q)
    D, vals = _top_generalized_directions(between_scatter(zmeans, counts), Sw,
                                          len(labels) - 1)
    return _baseline_model(labels, groups, Q, D, "FDA",
                           info={"eigenvalues": vals.tolist()})


def reg_lda(X, y, delta: float = 1e-4) -> DiscriminantModel:
    """FDA with a ridge delta (default 1e-4, the protocol's value) added to
    the within-class scatter.  (S_b, S_w + delta I) is block-diagonal on the
    centred-data frame and its complement, where S_b vanishes, so the
    directions are those of (Q^T S_b Q, Q^T S_w Q + delta I) lifted by Q."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    labels, groups, center, _, Q = _centred_frame(X, y)
    zmeans, counts, Sw = _frame_statistics(groups, center, Q)
    D, _ = _top_generalized_directions(between_scatter(zmeans, counts), Sw,
                                       len(labels) - 1, ridge=delta)
    return _baseline_model(labels, groups, Q, D, "regLDA", {"delta": delta})


def pca_lda(X, y, residual_threshold: float = 1e-2) -> DiscriminantModel:
    """PCA dimension reduction followed by FDA in the reduced space.

    Keeps the fewest leading columns of the centred-data frame (eigenvalues
    s^2 / n, so at most min(n, L)) whose relative sum of squared residuals
    drops to the threshold, then runs FDA there.  If the reduced within
    scatter is still singular it falls back to a ridge delta = 1e-8 and
    flags the model (info["fallback"]); that ridge amplifies rounding by
    about ||S_w|| / 1e-8, so such a model reproduces bit for bit only on
    the same BLAS.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValidationError("pcaLDA needs a pooled sample count >= 2")
    if not (np.isfinite(residual_threshold) and residual_threshold >= 0):
        raise ValidationError("residual threshold must be finite and >= 0, "
                              f"got {residual_threshold}")
    labels, groups, center, s, Q = _centred_frame(X, y)
    vals = s**2 / X.shape[0]
    total = vals.sum()
    if total <= 0:
        raise ValidationError("pooled data has no variance")
    residual = 1.0 - np.cumsum(vals) / total
    k = int(np.searchsorted(residual <= residual_threshold + 1e-15, True) + 1)
    P = Q[:, :k]
    zmeans, zcounts, Sw = _frame_statistics(groups, center, P)
    Sb = between_scatter(zmeans, zcounts)
    info = {"n_components": P.shape[1], "residual_threshold": residual_threshold}
    try:
        D, _ = _top_generalized_directions(Sb, Sw, len(labels) - 1)
    except ValidationError:
        D, _ = _top_generalized_directions(Sb, Sw, len(labels) - 1, ridge=1e-8)
        info["fallback"] = "regularized reduced-space FDA (delta=1e-8)"
    return _baseline_model(labels, groups, P, D, "pcaLDA", info)


def null_lda(X, y) -> DiscriminantModel:
    """Discriminant directions inside the null space of the within-class
    scatter, the frame's complement plus Q N_r for N_r the null space of
    Q^T S_w Q.  The centred class means have no part in the complement, so
    the directions are Q N_r times the leading eigenvectors of the between
    scatter of the means projected onto N_r (info["between_eigenvalues"]).
    NotApplicableError when none of those is nonzero: the centred class
    means then lie in the range of S_w, and any direction is arbitrary."""
    labels, groups, center, _, Q = _centred_frame(X, y)
    zmeans, counts, Sw = _frame_statistics(groups, center, Q)
    eig = linalg.sym_eig(Sw)
    Nr = eig.vectors[:, ~linalg.nonzero(eig.values)]
    null_dim = Q.shape[0] - Q.shape[1] + Nr.shape[1]
    if null_dim == 0:
        raise NotApplicableError("within-class scatter has no null space (sample "
                                 "count exceeds dimension); nullLDA does not apply")
    eig_b = linalg.sym_eig(between_scatter(zmeans @ Nr, counts))
    top = eig_b.values[::-1][:len(labels) - 1]
    if not linalg.nonzero(top).any():
        raise NotApplicableError(
            "the centred class means lie in the range of the within-class "
            "scatter, so no null direction separates them; nullLDA does not apply")
    D = Nr @ eig_b.vectors[:, ::-1][:, :len(labels) - 1]
    return _baseline_model(labels, groups, Q, D, "nullLDA",
                           info={"null_dim": null_dim,
                                 "between_eigenvalues": top.tolist()})
