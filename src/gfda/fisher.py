"""Scatter matrices and the discriminant family.

The module covers two layers:

* plain scatter matrices and the pairwise-difference matrix (the L x L
  ladder of rungs FDA -> aFDA -> sFDA -> gFDA, the per-vector
  discriminant power under its pairs and the gap index are in
  :mod:`gfda.reference`);
* the discriminant constructions themselves: classical FDA plus its three
  small-sample workarounds (pcaLDA, regLDA, nullLDA), the geometrical
  variant in both of its equivalent forms, and the generalized-difference-
  subspace projection.

The geometrical criterion maximizes f(d) = (d^T B d) / (d^T W d) where B is
the pairwise-difference matrix of the classes' first basis vectors and W is
the sum of the class projection matrices.  Its maximizers can be found
either by whitening W and diagonalizing the transformed B (the "product"
route, a generalized eigenproblem) or as the null space of W - B/C (the
"linear" route, which stays solvable with any number of samples).  Both
spans coincide: span{W^+ (f_c - f_bar)}, one closed form (``_gfda_map``)
whenever the pooled bases are independent; the union frame's eigh serves
only overlap.
"""

import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import linalg
from .errors import NotApplicableError, OverlapError, ValidationError
from .subspace import (OVERLAP_TOL, SubspaceEnsemble, aligned_first_vectors,
                       group_by_label, union_span)

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


# ---------------------------------------------------------------------------
# geometrical discriminant analysis
# ---------------------------------------------------------------------------

def union_frame(ensemble: SubspaceEnsemble):
    """The union-span frame that GDS and eigencurves work in, as
    (U, s2, F_U, B_U).

    U, s2 : union_span's frame, formed whole (lift()), and the K nonzero
        eigenvalues of G = sum_c P_c = U diag(s2) U^T, both ascending
    F_U : (C, K) aligned first basis vectors F in the frame's coordinates,
        F U, the one product with F; F = F_U U^T, as F lies in the span
    B_U : (K, K) pairwise-difference matrix of F_U, that is U^T B U

    In the coordinates of U, GDS diagonalizes G, i.e. reads off diag(s2),
    and gFDA-linear diagonalizes diag(s2) - B_U / C; the two differ by the
    correction term B_U / C alone.
    """
    s, _, lift = union_span(ensemble.classes)
    U = lift()
    del lift  # so the pooled basis it holds, U and F are not all alive at once
    F_U = aligned_first_vectors(ensemble) @ U
    return U, s[::-1] ** 2, F_U, pairwise_difference_matrix(F_U)


def _helmert(C):
    """Q_H, the (C, C - 1) Gram-Schmidt basis of the first C - 1 columns of
    the centring matrix I - 1 1^T / C: column k is
    (m e_k - sum_{i > k} e_i) / sqrt(m (m + 1)) with m = C - 1 - k."""
    m = np.arange(C - 1, 0, -1.0)
    Q = np.tril(np.full((C, C - 1), -1.0), -1)
    np.fill_diagonal(Q, m)
    return Q / np.sqrt(m * (m + 1))


def _certified(M):
    """Rump's test of positive definiteness (BIT 2006): a Cholesky of
    M - tau I, tau = eps / ORTHO_IP_TOL times M's largest absolute row sum
    (>= s^2_max).  It certifies s^2_min / s^2_max >= 2.2e-6, so
    gram_frame would keep all K columns in its coordinate branch."""
    tau = np.finfo(float).eps / linalg.ORTHO_IP_TOL * np.abs(M).sum(1).max()
    try:
        np.linalg.cholesky(M - tau * np.eye(len(M)))
    except np.linalg.LinAlgError:
        return False
    return True


def _gfda_map(ensemble: SubspaceEnsemble):
    """(Phi, F, P, frame) for the pooled basis Phi = [Phi_1 ... Phi_C] and
    the aligned first basis vectors F: P = G^+ F^T Q_H, the (L, C - 1) map
    onto the gFDA space span{G^+ (f_c - f_bar)}, where Phi has full column
    rank K, else None with frame union_span(Phi)'s (s, lift).  F^T = Phi E,
    E holding each class's alignment sign sigma_c at the row of its first
    basis column; Q_H = ``_helmert(C)``.  M = Phi^T Phi is formed once:
    where ``_certified(M)``, P = Phi M^-1 E Q_H, one solve; elsewhere
    P = lift(Z^T E Q_H / s^2) on union_span(Phi, M), as G^+ =
    U diag(1/s^2) U^T and Z = Phi^T U on any frame U of Phi."""
    Phi = np.hstack([c.basis for c in ensemble.classes])
    F = aligned_first_vectors(ensemble)
    M = Phi.T @ Phi
    K, C = M.shape[0], ensemble.n_classes
    firsts = np.cumsum([0] + [c.dim for c in ensemble.classes[:-1]])
    # row c of F is sigma_c times the unit basis column firsts[c]
    sigma = np.sign(np.sum(F * Phi[:, firsts].T, axis=1))
    rhs = np.zeros((K, C - 1))
    rhs[firsts] = sigma[:, None] * _helmert(C)
    if _certified(M):
        return Phi, F, Phi @ np.linalg.solve(M, rhs), None
    s, Z, lift = union_span(Phi, M)
    if s.size < K:
        return Phi, F, None, (s, lift)
    return Phi, F, lift(Z.T @ rhs / s[:, None] ** 2), None


def gfda_product_form(ensemble: SubspaceEnsemble) -> DiscriminantModel:
    """Geometrical discriminant space via whitening followed by PCA.

    Whitening G = sum_c P_c on its range makes the pooled basis vectors
    mutually orthonormal, so the pairwise-difference matrix of the C
    whitened first vectors is C X^T X for their centred rows X, and its
    C - 1 nonzero eigenvalues all equal C.  The data fix the eigenbasis:
    Gram-Schmidt on the first C - 1 rows of X in class order, Q_H carried
    by the orthonormal whitened first vectors.  The whitening map followed
    by that basis is ``_gfda_map``'s P = G^+ F^T Q_H, the projector, which
    needs independent pooled basis vectors (OverlapError otherwise).
    Class references are the projections of the aligned first basis
    vectors, and info["criterion_eigenvalues"] C times the squared norms
    of their centred columns.
    """
    C = ensemble.n_classes
    Phi, F, projector, frame = _gfda_map(ensemble)
    if projector is None:
        raise OverlapError(
            "class subspaces overlap: pooled basis vectors are dependent "
            f"(rank {frame[0].size} < {Phi.shape[1]})")
    refs = F @ projector
    return DiscriminantModel(
        projector=projector,
        method="gFDA-product",
        class_labels=ensemble.labels,
        class_refs=refs,
        info={"criterion_eigenvalues":
              (C * np.sum((refs - refs.mean(axis=0)) ** 2, axis=0)).tolist()},
    )


def gfda_linear_form(ensemble: SubspaceEnsemble) -> DiscriminantModel:
    """Geometrical discriminant space as the null space of W - B/C.

    Solvable for any sample count (the matrix is a plain linear combination,
    never inverted), which is what lets the method run with a single sample
    per class.  Directions orthogonal to every class are null for both
    matrices and carry no discriminant information, so the space is taken
    in the union span.  The data pick its basis: Gram-Schmidt, in class
    order, on the first C - 1 centred first vectors projected onto it.

    With independent pooled basis vectors the space is span(P), P from
    ``_gfda_map``, and info["selected_eigenvalues"] holds the Rayleigh
    quotients of the projector's columns on W - B/C, zero to rounding.
    With dependent ones the C - 1 smallest eigenvalues of U^T (W - B/C) U
    on the union frame U already taken select it and are recorded there.
    One that is not near zero (OVERLAP_TOL) means the class subspaces
    overlap; this is recorded, not raised, even when none is near zero
    (identical classes): a warning reports the largest, and eigenvectors
    complete the basis where the projected first vectors are dependent.
    """
    C = ensemble.n_classes
    Phi, F, P, frame = _gfda_map(ensemble)
    if P is not None:
        Q = np.linalg.qr(P)[0]
        centred = (F - F.mean(axis=0))[:C - 1]
        projector = Q @ linalg.gram_schmidt(Q.T @ centred.T)
        refs = F @ projector
        # p^T W p = |Phi^T p|^2 and p^T B p / C = |H F p|^2, H the centring
        selected = (np.sum((Phi.T @ projector) ** 2, axis=0)
                    - np.sum((refs - refs.mean(axis=0)) ** 2, axis=0))
    else:
        s, lift = frame
        if s.size < C - 1:
            raise ValidationError(
                f"union span of the class subspaces has rank {s.size}, "
                f"cannot hold a {C - 1}-dimensional discriminant space")
        U = lift()
        F_U = F @ U
        # U^T (G - B/C) U = diag(s^2) - U^T B U / C
        values, vectors = np.linalg.eigh(
            np.diag(s[::-1] ** 2) - pairwise_difference_matrix(F_U) / C)
        k = C - 1
        selected = values[:k]
        top = max(abs(values[-1]), 1.0)
        if selected[-1] > OVERLAP_TOL * top:
            warnings.warn(
                f"only {int(np.sum(selected <= OVERLAP_TOL * top))} of {k} "
                f"selected eigenvalues are near zero (max selected "
                f"{selected[-1]:.3e}); class subspaces overlap or are "
                "degenerate", RuntimeWarning, stacklevel=2)
        W = vectors[:, :k]
        P = W @ (W.T @ (F_U - F_U.mean(axis=0))[:k].T)
        coords = linalg.gram_schmidt(P) if P.any() else W[:, :0]
        if coords.shape[1] < k:  # overlap: sign-fixed eigenvectors complete it
            coords = linalg.gram_schmidt(
                np.hstack([coords, linalg.fix_signs(W)]))[:, :k]
        projector, refs = U @ coords, F_U @ coords
    return DiscriminantModel(
        projector=projector,
        method="gFDA-linear",
        class_labels=ensemble.labels,
        class_refs=refs,
        info={"selected_eigenvalues": selected.tolist()},
    )


def gds_discriminant(ensemble: SubspaceEnsemble, dims=None,
                     gamma=None) -> DiscriminantModel:
    """Generalized-difference-subspace projection packaged for classification.

    The basis is the generalized difference subspace: the eigenvectors of
    G = sum_c P_c for its smallest eigenvalues *within the sum subspace*
    (eigenvalue > 0), the leading columns of the union-span frame;
    directions orthogonal to every class subspace carry no information and
    are never selected.
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
    U, s2, F_U, B_U = union_frame(ensemble)

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
    return DiscriminantModel(
        projector=U[:, :dims],
        method="GDS",
        class_labels=ensemble.labels,
        class_refs=F_U[:, :dims],
        info={"eigenvalues": s2[:dims].tolist(), "selection": selection},
    )


# ---------------------------------------------------------------------------
# classical FDA and its small-sample workarounds
# ---------------------------------------------------------------------------

_SINGULAR_WITHIN = ("within-class scatter is singular; plain FDA does not "
                    "apply (small-sample regime)")
_NO_VARIANCE = "pooled data has no variance"


def _centred_frame(X, y):
    """The FDA family's frame of the centred rows X - m: (labels, rows) and
    ``linalg.gram_frame((X - m)^T)``.  rows holds each class's row indices
    in label order, s the r = rank(X - m) singular values, descending, and
    Z the (n, r) coordinates of the centred rows in the frame Q.  span(Q)
    holds every class-centred row and centred class mean, so both scatters
    vanish on its complement.
    """
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValidationError("samples must be finite")
    labels, rows = group_by_label(np.arange(len(X)), y)
    return (labels, rows) + linalg.gram_frame((X - X.mean(axis=0)).T)


def _group_means(Y, rows):
    """Mean of each row group Y[rows[i]], one row per group."""
    return np.array([Y[r].mean(axis=0) for r in rows])


def _frame_statistics(Z, rows):
    """Class means, counts and within scatter of the row groups Z[rows[i]]."""
    return (_group_means(Z, rows), np.array([len(r) for r in rows]),
            within_scatter([Z[r] for r in rows]))


def _top_generalized_directions(between, within, k, ridge=0.0, scale=None):
    """Eigenvectors and eigenvalues of the k largest generalized eigenvalues
    of (between, within + ridge I).  Without a ridge, within must be positive
    definite: every eigenvalue nonzero against scale, the largest eigenvalue
    of the total scatter, to which within's rounding is relative.  A ridge
    is added to the caller's within matrix in place; one below the
    scatter's rounding leaves it indefinite, a ValidationError.  With
    within = L L^T, solves L^-1 between L^-T, fixes signs, lifts by L^-T."""
    if ridge:
        within[np.diag_indices_from(within)] += ridge
    elif not linalg.nonzero(np.linalg.eigvalsh(within), scale=scale).all():
        raise ValidationError(_SINGULAR_WITHIN)
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(within))
    except np.linalg.LinAlgError:
        raise ValidationError(
            f"within-class scatter (largest entry {np.abs(within).max():.3g}) "
            f"plus the ridge delta = {ridge:g} is not positive definite: "
            "delta is below the scatter's rounding; rescale the data") from None
    w, V = np.linalg.eigh(Linv @ between @ Linv.T)
    return (Linv.T @ linalg.fix_signs(V, copy=False))[:, ::-1][:, :k], w[::-1][:k]


def _baseline_model(X, labels, rows, lift, coords, method, info):
    # only the C - 1 output directions reach L dimensions; lifting keeps
    # their span, and Gram-Schmidt there equals Gram-Schmidt in the frame;
    # the sign rule then holds in L dimensions, whatever the frame's signs
    basis = linalg.fix_signs(linalg.gram_schmidt(lift(coords)), copy=False)
    return DiscriminantModel(
        projector=basis,
        method=method,
        class_labels=tuple(labels),
        class_refs=_group_means(X, rows) @ basis,
        info=info,
    )


def fda(X, y) -> DiscriminantModel:
    """Classical Fisher discriminant analysis; needs a nonsingular
    within-class scatter, so a centred-data frame that fills the space."""
    X = np.asarray(X, dtype=float)
    labels, rows, s, Z, lift = _centred_frame(X, y)
    if Z.shape[1] < X.shape[1]:
        raise ValidationError(_SINGULAR_WITHIN)
    zmeans, counts, Sw = _frame_statistics(Z, rows)
    D, vals = _top_generalized_directions(between_scatter(zmeans, counts), Sw,
                                          len(labels) - 1,
                                          scale=s[0]**2 / counts.sum())
    return _baseline_model(X, labels, rows, lift, D, "FDA",
                           info={"eigenvalues": vals.tolist()})


def reg_lda(X, y, delta: float = 1e-4) -> DiscriminantModel:
    """FDA with a ridge delta (default 1e-4, the protocol's value) added to
    the within-class scatter.  (S_b, S_w + delta I) is block-diagonal on the
    centred-data frame Q and its complement, where S_b vanishes, so the
    directions are those of (Q^T S_b Q, Q^T S_w Q + delta I) lifted by Q.
    Rows with no variance leave no frame and no direction: ValidationError."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    X = np.asarray(X, dtype=float)
    labels, rows, s, Z, lift = _centred_frame(X, y)
    if not s.size:
        raise ValidationError(_NO_VARIANCE)
    zmeans, counts, Sw = _frame_statistics(Z, rows)
    D, _ = _top_generalized_directions(between_scatter(zmeans, counts), Sw,
                                       len(labels) - 1, ridge=delta)
    return _baseline_model(X, labels, rows, lift, D, "regLDA", {"delta": delta})


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
    labels, rows, s, Z, lift = _centred_frame(X, y)
    if not s.size:
        raise ValidationError(_NO_VARIANCE)
    vals = s**2 / X.shape[0]
    residual = 1.0 - np.cumsum(vals) / vals.sum()
    k = int(np.searchsorted(residual <= residual_threshold + 1e-15, True) + 1)
    Zk = Z[:, :k]
    zmeans, zcounts, Sw = _frame_statistics(Zk, rows)
    Sb = between_scatter(zmeans, zcounts)
    info = {"n_components": Zk.shape[1],
            "residual_threshold": residual_threshold}
    try:
        D, _ = _top_generalized_directions(Sb, Sw, len(labels) - 1,
                                           scale=vals[0])
    except ValidationError:
        D, _ = _top_generalized_directions(Sb, Sw, len(labels) - 1, ridge=1e-8)
        info["fallback"] = "regularized reduced-space FDA (delta=1e-8)"
    return _baseline_model(X, labels, rows, lift, D, "pcaLDA", info)


def null_lda(X, y) -> DiscriminantModel:
    """Discriminant directions inside the null space of the within-class
    scatter, the frame's complement plus Q N_r for N_r the null space of
    Q^T S_w Q.  The centred class means have no part in the complement, so
    the directions are Q N_r times the leading eigenvectors of the between
    scatter of the means projected onto N_r (info["between_eigenvalues"]).
    NotApplicableError when none of those is nonzero: the centred class
    means then lie in the range of S_w, and any direction is arbitrary."""
    X = np.asarray(X, dtype=float)
    labels, rows, s, Z, lift = _centred_frame(X, y)
    zmeans, counts, Sw = _frame_statistics(Z, rows)
    # S_w's rounding is relative to the total scatter diag(s^2) / n >= S_w,
    # so its null space is cut against s_max^2 / n: an S_w that is zero up
    # to rounding (every class one repeated row) is all null
    w, V = np.linalg.eigh(Sw)
    Nr = V[:, ~linalg.nonzero(w, scale=s.max(initial=0.0)**2 / counts.sum())]
    null_dim = X.shape[1] - Z.shape[1] + Nr.shape[1]
    if null_dim == 0:
        raise NotApplicableError("within-class scatter has no null space (sample "
                                 "count exceeds dimension); nullLDA does not apply")
    w, V = np.linalg.eigh(between_scatter(zmeans @ Nr, counts))
    top = w[::-1][:len(labels) - 1]
    if not linalg.nonzero(top).any():
        raise NotApplicableError(
            "the centred class means lie in the range of the within-class "
            "scatter, so no null direction separates them; nullLDA does not apply")
    # N_r is whatever basis eigh gives a repeated (zero) eigenvalue, so the
    # signs are fixed on the directions in frame coordinates, which the
    # data determine
    D = linalg.fix_signs(Nr @ V[:, ::-1][:, :len(labels) - 1], copy=False)
    return _baseline_model(X, labels, rows, lift, D, "nullLDA",
                           info={"null_dim": null_dim,
                                 "between_eigenvalues": top.tolist()})
