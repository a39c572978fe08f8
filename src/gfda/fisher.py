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
spans coincide: span{W^+ (f_c - f_bar)}, whose one solve (``_gfda_map``)
gives both forms' bases whenever the pooled bases are independent; the
union-span frame ``linalg.gram_frame`` of the pooled bases serves only
overlap.  Every union-span construction reads the pooled bases, their
Gram M and the first vectors from ``_pooled``: for a fitted ensemble, in
the coordinates of its sample rows, with only the output columns lifted
to L dimensions.
"""

import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cache

import numpy as np

from . import linalg
from .errors import NotApplicableError, OverlapError, ValidationError
from .subspace import (OVERLAP_TOL, SubspaceEnsemble, _pooled_gram,
                       group_by_label)

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

@cache  # one read-only array per C
def _helmert(C):
    """Q_H, the (C, C - 1) Gram-Schmidt basis of the first C - 1 columns of
    the centring matrix I - 1 1^T / C: column k is
    (m e_k - sum_{i > k} e_i) / sqrt(m (m + 1)) with m = C - 1 - k."""
    m = np.arange(C - 1, 0, -1.0)
    Q = np.tril(np.full((C, C - 1), -1.0), -1)
    np.fill_diagonal(Q, m)
    Q /= np.sqrt(m * (m + 1))
    Q.flags.writeable = False
    return Q


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


def _pooled(ensemble: SubspaceEnsemble):
    """(A, Mc, M, F_of, E_of): the pooled basis Phi = [Phi_1 ... Phi_C] as
    A Mc (A itself where Mc is None) and its Gram M = Phi^T Phi
    (``subspace._pooled_gram``: for a fitted ensemble, in its rows'
    coordinates, with Phi never formed), and the aligned first vectors
    F^T = Phi E, E holding each class's sign sigma_c (its first basis
    column against its mean) at that column's row: F_of(A) = E^T A and
    E_of(D) = E D, so F U = F_of(Z) on a frame U with Z = Phi^T U, in
    coordinates."""
    A, Mc, M, firsts, lead = _pooled_gram(ensemble)
    sigma = np.where(lead < 0, -1.0, 1.0)[:, None]

    def E_of(D):
        ED = np.zeros((len(M),) + D.shape[1:])
        ED[firsts] = sigma * D
        return ED

    return A, Mc, M, lambda Z: sigma * Z[firsts], E_of


def _gfda_map(ensemble: SubspaceEnsemble):
    """(F_of, lift, PhiT_of, Y, S, frame) on ``_pooled(ensemble)``, with
    PhiT_of(D) = Phi^T lift(D) in the pooled coordinates.  With full column
    rank K, P = lift(Y) = G^+ F^T Q_H, Q_H = ``_helmert(C)``, maps onto the
    gFDA space span{G^+ (f_c - f_bar)}, F P = Q_H, S = P^T P and frame is
    None; else Y = S = None, frame = gram_frame(A, M, Mc)'s (s, Z).  Where
    ``_certified(M)``, Y = M^-1 E Q_H, one solve, lift(D) = Phi D and
    PhiT_of(D) = M D; elsewhere Y = Z^T E Q_H / s^2 on ``linalg.gram_frame``
    of Phi, as G^+ = U diag(1/s^2) U^T and Z = Phi^T U, and PhiT_of(D) =
    Z D.  Only lift forms L-dimensional columns."""
    A, Mc, M, F_of, E_of = _pooled(ensemble)
    rhs = E_of(_helmert(ensemble.n_classes))
    if _certified(M):
        Y = np.linalg.solve(M, rhs)
        return (F_of, lambda D: A @ (D if Mc is None else Mc @ D),
                lambda D: M @ D, Y, rhs.T @ Y, None)
    s, Z, lift = linalg.gram_frame(A, M, Mc)

    def PhiT_of(D):
        return Z[:, :len(D)] @ D

    if s.size < len(M):
        return F_of, lift, PhiT_of, None, None, (s, Z)
    Y = Z.T @ rhs / s[:, None] ** 2
    return F_of, lift, PhiT_of, Y, Y.T @ Y, None


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
    F_of, lift, PhiT_of, Y, _, frame = _gfda_map(ensemble)
    if Y is None:
        raise OverlapError(
            "class subspaces overlap: pooled basis vectors are dependent "
            f"(rank {frame[0].size} < {len(frame[1])})")
    projector = lift(Y)
    refs = F_of(PhiT_of(Y))
    return DiscriminantModel(
        projector=projector,
        method="gFDA-product",
        class_labels=ensemble.labels,
        class_refs=refs,
        info={"criterion_eigenvalues": (len(refs) * np.sum(
            (refs - refs.mean(axis=0)) ** 2, axis=0)).tolist()},
    )


def gfda_linear_form(ensemble: SubspaceEnsemble) -> DiscriminantModel:
    """Geometrical discriminant space as the null space of W - B/C.

    Solvable for any sample count (the matrix is a plain linear combination,
    never inverted), which is what lets the method run with a single sample
    per class.  Directions orthogonal to every class are null for both
    matrices and carry no discriminant information, so the space is taken
    in the union span.  The data pick its basis: Gram-Schmidt, in class
    order, on the first C - 1 centred first vectors projected onto it.

    With independent pooled basis vectors the space is span(P), P =
    lift(Y) from ``_gfda_map``.  As F P = Q_H, the projections are P T_0,
    T_0 = S^-1 Q_k^T for Q_k the first C - 1 rows of Q_H, with Gram
    Q_k T_0: ``linalg.cholesky_qr2`` gives their Gram-Schmidt basis P N,
    N = T_0 T, and references Q_H N; info["selected_eigenvalues"] holds
    their Rayleigh quotients on W - B/C, zero to rounding.  With dependent
    ones the C - 1 smallest eigenvalues of diag(s^2) - B_Z / C in the union
    frame select it, are recorded there, and their basis ends in the same
    routine.  One that is not near zero (OVERLAP_TOL) means the class
    subspaces overlap; this is recorded, not raised, even when none is near
    zero (identical classes): a warning reports the largest, and
    eigenvectors complete the basis where the projected first vectors are
    dependent.
    """
    C = ensemble.n_classes
    F_of, lift, PhiT_of, Y, S, frame = _gfda_map(ensemble)
    if Y is not None:
        Q_H = _helmert(C)
        T0 = np.linalg.solve(S, Q_H[:-1].T)  # S^-1 Q_k^T
        # Y (T_0 D), not (Y T_0) D: refs meet F P to 1.3e-13, not 7.8e-13
        projector, T = linalg.cholesky_qr2(lambda D: lift(Y @ D), T0,
                                           Q_H[:-1] @ T0)
        N = T0 @ T
        refs = Q_H @ N
        Zp = PhiT_of(Y @ N)  # p^T W p = |Phi^T p|^2, p^T B p/C = C var(F p)
        selected = np.sum(Zp ** 2, axis=0) - C * np.var(F_of(Zp), axis=0)
    else:
        s, Z = frame
        if s.size < C - 1:
            raise ValidationError(
                f"union span of the class subspaces has rank {s.size}, "
                f"cannot hold a {C - 1}-dimensional discriminant space")
        F_Z = F_of(Z)
        values, vectors = np.linalg.eigh(
            np.diag(s ** 2) - pairwise_difference_matrix(F_Z) / C)
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
        P = W @ (W.T @ (F_Z - F_Z.mean(axis=0))[:k].T)
        coords = linalg.gram_schmidt(P) if P.any() else W[:, :0]
        if coords.shape[1] < k:  # overlap: eigenvectors, signed when lifted
            coords = linalg.gram_schmidt(
                np.hstack([coords, W * linalg.column_signs(lift(W))]))[:, :k]
        projector, T = linalg.cholesky_qr2(lift, coords)
        refs = F_Z @ coords @ T
    return DiscriminantModel(
        projector=projector,
        method="gFDA-linear",
        class_labels=ensemble.labels,
        class_refs=refs,
        info={"selected_eigenvalues": selected.tolist()},
    )


def _check_gamma(gamma):
    """The GDS power rule's own range check."""
    if not (0.0 < gamma <= 1.0):
        raise ValidationError("gamma must be in (0, 1]")


def gds_discriminant(ensemble: SubspaceEnsemble, dims=None,
                     gamma=None) -> DiscriminantModel:
    """Generalized-difference-subspace projection packaged for classification.

    The basis is the generalized difference subspace: the eigenvectors of
    G = sum_c P_c for its smallest eigenvalues *within the sum subspace*
    (eigenvalue > 0), the leading columns of the union-span frame (the only
    ones formed); directions orthogonal to every class subspace carry no
    information and are never selected.
    Class references are the projected, sign-aligned first basis vectors.

    Exactly one rule must be given: ``dims`` fixes N_d, while ``gamma``
    grows N_d until the cumulative discriminant power of the selected
    eigenvectors reaches beta = C (C - 1) * gamma; the power of eigenvector
    u_j is (u_j^T B u_j) / s_j^2 = C^2 var(F u_j) / s_j^2, with B the gFDA
    pairwise-difference matrix.  Fully degenerate spectra (e.g. mutually
    orthogonal classes) are resolved by the deterministic order of the
    frame; any basis of the tied eigenspace is equally valid.
    info["eigenvalues"] holds the selected eigenvalues of G, ascending, and
    info["selection"] the rule: its name, dims, and for the power rule
    gamma, beta and the power reached.
    """
    if (dims is None) == (gamma is None):
        raise ValidationError("give exactly one of dims or gamma")
    A, Mc, M, F_of, _ = _pooled(ensemble)
    s, Z, lift = linalg.gram_frame(A, M, Mc)
    s2 = s[::-1] ** 2
    if dims is not None:
        if not (1 <= dims <= s2.size):
            raise ValidationError(
                f"GDS dimension {dims} outside the rank of G ({s2.size})")
        selection = {"rule": "fixed", "dims": dims, "gamma": None,
                     "beta": None, "achieved_power": None}
    else:
        _check_gamma(gamma)
        C = ensemble.n_classes
        beta = C * (C - 1) * gamma
        cumulative = np.cumsum(C * C * np.var(F_of(Z), axis=0)[::-1] / s2)
        reached = np.nonzero(cumulative >= beta - 1e-9)[0]
        if reached.size == 0:
            raise ValidationError(
                f"cumulative discriminant power {cumulative[-1]:.6f} never "
                f"reaches beta = {beta:.6f}; the class subspaces overlap too much")
        dims = int(reached[0]) + 1
        selection = {"rule": "power", "dims": dims, "gamma": gamma,
                     "beta": beta,
                     "achieved_power": float(cumulative[dims - 1])}
    projector, PhiT_projector = lift(columns=dims)
    return DiscriminantModel(
        projector=projector,
        method="GDS",
        class_labels=ensemble.labels,
        class_refs=F_of(PhiT_projector),
        info={"eigenvalues": s2[:dims].tolist(), "selection": selection},
    )


# ---------------------------------------------------------------------------
# classical FDA and its small-sample workarounds
# ---------------------------------------------------------------------------

_SINGULAR_WITHIN = ("within-class scatter is singular; plain FDA does not "
                    "apply (small-sample regime)")
_NO_VARIANCE = "pooled data has no variance"


def _centred_rows(X, y):
    """(labels, rows, X - m): rows holds each class's row indices in label
    order, and X - m the centred rows, every FDA-family route's start."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValidationError("samples must be finite")
    labels, rows = group_by_label(np.arange(len(X)), y)
    return labels, rows, X - X.mean(axis=0)


def _centred_frame(X, y):
    """The frame routes' frame of the centred rows X - m: (labels, rows)
    and ``linalg.gram_frame((X - m)^T)``.  s holds the r = rank(X - m)
    singular values, descending, and Z the (n, r) coordinates of the
    centred rows in the frame Q.  span(Q) holds every class-centred row and
    centred class mean, so both scatters vanish on its complement.  FDA and
    pcaLDA start here; regLDA and nullLDA only where n > L or their Gram
    route hands the model on (``_gram_reg_lda``, ``_gram_null_lda``).
    """
    labels, rows, centred = _centred_rows(X, y)
    return (labels, rows) + linalg.gram_frame(centred.T)


def _group_means(Y, rows):
    """Mean of each row group Y[rows[i]], one row per group."""
    return np.array([Y[r].mean(axis=0) for r in rows])


def _frame_statistics(Z, rows):
    """Class means, counts and within scatter of the row groups Z[rows[i]]."""
    return (_group_means(Z, rows), np.array([len(r) for r in rows]),
            within_scatter([Z[r] for r in rows]))


def _ridge_error(largest, ridge):
    """The error of a ridge below the within scatter's rounding, naming the
    largest entry of the regularized within matrix that failed."""
    return ValidationError(
        f"within-class scatter (largest entry {largest:.3g}) plus the ridge "
        f"delta = {ridge:g} is not positive definite: delta is below the "
        "scatter's rounding; rescale the data")


def _check_ridge(ridge, total, within_diagonal):
    """regLDA's one ridge rule where n <= L, which both of its routes apply
    there before they factorize anything: a ridge at most eps times total,
    the trace of the total scatter, is below the within scatter's rounding,
    which is relative to the total scatter (the Gram route forms the within
    Gram by subtraction from the centred rows' Gram).  The error names the
    largest entry of the regularized within matrix, on its diagonal."""
    if ridge <= np.finfo(float).eps * total:
        raise _ridge_error(within_diagonal.max() + ridge, ridge)


def _top_generalized_directions(between, within, k, ridge=0.0, scale=None):
    """Eigenvectors and eigenvalues of the k largest generalized eigenvalues
    of (between, within + ridge I).  Without a ridge, within must be positive
    definite: every eigenvalue nonzero against scale, the largest eigenvalue
    of the total scatter, to which within's rounding is relative.  A ridge
    is added to the caller's within matrix in place; one below the
    scatter's rounding leaves it indefinite, a ValidationError.  With
    within = L L^T, solves L^-1 between L^-T, lifts by L^-T (eigh's signs)."""
    if ridge:
        within[np.diag_indices_from(within)] += ridge
    elif not linalg.nonzero(np.linalg.eigvalsh(within), scale=scale).all():
        raise ValidationError(_SINGULAR_WITHIN)
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(within))
    except np.linalg.LinAlgError:
        raise _ridge_error(np.abs(within).max(), ridge) from None
    w, V = np.linalg.eigh(Linv @ between @ Linv.T)
    return (Linv.T @ V)[:, ::-1][:, :k], w[::-1][:k]


def _baseline_model(X, labels, rows, lift, coords, method, info, gram=None):
    """The FDA family's one ending: the directions lift(coords), in order,
    orthonormalized by ``linalg.cholesky_qr2`` (pass 1 on gram), sign-fixed
    in L dimensions whatever the frame's signs, and the class means
    projected onto them."""
    basis = linalg.fix_signs(linalg.cholesky_qr2(lift, coords, gram)[0],
                             copy=False)
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


def _check_delta(delta):
    """regLDA's own check of its ridge."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValidationError(f"delta must be positive and finite, got {delta}")


def _check_residual_threshold(threshold):
    """pcaLDA's own check of its residual threshold."""
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValidationError("residual threshold must be finite and >= 0, "
                              f"got {threshold}")


def reg_lda(X, y, delta: float = 1e-4) -> DiscriminantModel:
    """FDA with a ridge delta (default 1e-4, the protocol's value) added to
    the within-class scatter.  The scatters carry 1/n: S_b = B^T B / n for
    the C rows sqrt(n_c) (m_c - m) of B, and S_w = X_w^T X_w / n for the
    class-centred rows X_w.  S_b has rank C - 1, so the directions are
    (S_w + delta I)^-1 B^T u for the top C - 1 eigenvectors u of the C x C
    matrix B (S_w + delta I)^-1 B^T.  Where n <= L they come from the
    centred rows' n x n Gram in closed form (``_gram_reg_lda``), unless
    that matrix has fewer than C - 1 nonzero eigenvalues.  Otherwise
    (S_b, S_w + delta I) is solved on the centred-data frame Q, where it is
    block-diagonal against the complement on which S_b vanishes: the
    directions of (Q^T S_b Q, Q^T S_w Q + delta I) lifted by Q.  Where
    n <= L, both routes hold delta to one rule (``_check_ridge``); where
    n > L, S_w may be nonsingular, and the frame's Cholesky decides alone.
    Rows with no variance leave no direction: ValidationError."""
    _check_delta(delta)
    X = np.asarray(X, dtype=float)
    if X.shape[0] <= X.shape[1]:
        model = _gram_reg_lda(X, y, delta)
        if model is not None:
            return model
    labels, rows, s, Z, lift = _centred_frame(X, y)
    if not s.size:
        raise ValidationError(_NO_VARIANCE)
    zmeans, counts, Sw = _frame_statistics(Z, rows)
    Sb = between_scatter(zmeans, counts)
    if X.shape[0] <= X.shape[1]:
        _check_ridge(delta, s @ s / len(X), Sw.diagonal())
    D, _ = _top_generalized_directions(Sb, Sw, len(labels) - 1, ridge=delta)
    return _baseline_model(X, labels, rows, lift, D, "regLDA", {"delta": delta})


def _class_gram(X, y):
    """The Gram routes' start, on G_c = X_c X_c^T of the centred rows X_c =
    X - m: (G_c, cls, K_w, X_w B^T, B B^T, finish).  With the rows
    sorted by class, B = H X_c holds the C rows sqrt(n_c) (m_c - m) and
    X_w = P_w X_c the class-centred rows, where H averages each class's
    rows, times sqrt(n_c), and P_w subtracts its class's mean from each
    row; both act on G_c by block sums and repeats, so K_w = X_w X_w^T =
    P_w G_c P_w, X_w B^T = P_w G_c H^T and B B^T = H G_c H^T are n x n,
    n x C and C x C, in the sorted order, where cls holds each sorted row's
    class index.  finish(Y, U, method, info) is both routes' ending:
    the directions X_c^T a, a = H^T U - Y U for the (n, C) solve Y and the
    (C, C - 1) eigenvectors U, lifting only those columns, through
    ``_baseline_model`` with pass 1 on a^T G_c a; or None, for the frame
    to decide, where a is too ill-conditioned for that pass (a ridge near
    the scatter's rounding leaves a^T G_c a indefinite)."""
    labels, rows, centred = _centred_rows(X, y)
    G = linalg.finite_gram(centred.T)
    order = np.concatenate(rows)
    counts = np.array([len(r) for r in rows])
    starts = np.cumsum(counts) - counts
    cls = np.repeat(np.arange(len(rows)), counts)  # class of each sorted row

    def class_means(Y, axis=0):
        sums = np.add.reduceat(Y, starts, axis=axis)
        return sums / (counts if axis else counts[:, None])

    Gs = G[np.ix_(order, order)]
    Gm = class_means(Gs)  # mean rows of each class block, (C, n)
    Gmm = class_means(Gm, axis=1)  # the centred class means' Gram
    PGm = Gm.T - Gmm[cls]  # P_w G_c times the class-mean operator
    root = np.sqrt(counts)

    def finish(Y, U, method, info):
        a = np.empty((len(G), U.shape[1]))
        a[order] = (U / root[:, None])[cls] - Y @ U
        try:
            return _baseline_model(X, labels, rows, lambda D: centred.T @ D,
                                   a, method, info, gram=a.T @ G @ a)
        except np.linalg.LinAlgError:
            return None

    return (G, cls, Gs - Gm[cls] - PGm[:, cls], PGm * root,
            Gmm * np.outer(root, root), finish)


def _gram_reg_lda(X, y, delta):
    """regLDA from the Gram G_c = X_c X_c^T of the centred rows X_c = X - m
    (Cai, He & Han, "SRDA", TKDE 2008, on the Gram side), or None where the
    frame route must decide: fewer than 2 classes, fewer than C - 1
    nonzero eigenvalues of B (S_w + delta I)^-1 B^T, whose extra
    eigenvectors would be rounding noise here, or directions too
    ill-conditioned to orthonormalize in row coordinates.

    Woodbury gives (S_w + delta I)^-1 = (I - X_w^T K^-1 X_w) / delta with
    K = n delta I + X_w X_w^T on ``_class_gram``'s products.  Once delta
    passes ``_check_ridge``, one Cholesky tests K's definiteness and one
    solve gives K^-1 X_w B^T (numpy has no triangular solve, and one LU
    costs less than two with the factor), so the C x C matrix is
    (B B^T - B X_w^T K^-1 X_w B^T) / delta and each direction is X_c^T a,
    a = H^T u - K^-1 X_w B^T u (times 1/delta; K commutes with P_w, so
    K^-1 keeps X_w B^T in P_w's range).  A K that is not positive definite
    even so reports the same error, with the largest entry of K / n =
    S_w + delta I in row coordinates."""
    G, _, K, XwBt, BBt, finish = _class_gram(X, y)
    if not G.any():
        raise ValidationError(_NO_VARIANCE)
    C, n = len(BBt), len(G)
    if C < 2:
        return None
    _check_ridge(delta, np.trace(G) / n, K.diagonal() / n)
    K[np.diag_indices(n)] += n * delta
    try:
        np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        raise _ridge_error(np.abs(K).max() / n, delta) from None
    KXwBt = np.linalg.solve(K, XwBt)
    w, U = np.linalg.eigh((BBt - XwBt.T @ KXwBt) / delta)
    if linalg.nonzero(w).sum() != C - 1:
        return None
    return finish(KXwBt, U[:, ::-1][:, :C - 1], "regLDA", {"delta": delta})


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
    _check_residual_threshold(residual_threshold)
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
    scatter: (I - Pi_w) B^T u for the projector Pi_w onto the range of S_w
    and the top C - 1 eigenvectors u of B (I - Pi_w) B^T / n, the between
    scatter of the centred class means projected onto that null space
    (Ye & Xiong, JMLR 2006), whose eigenvalues info["between_eigenvalues"]
    records.  Where n <= L they come from the centred rows' n x n Gram in
    closed form (``_gram_null_lda``), unless its certificate fails or
    fewer than C - 1 of them are nonzero.  Otherwise they come from the
    centred-data frame Q: the null space is the frame's complement plus
    Q N_r for N_r the null space of Q^T S_w Q, and the centred class means
    have no part in the complement, so the directions are Q N_r times the
    leading eigenvectors of the means' between scatter projected onto N_r.
    NotApplicableError when none of those is nonzero: the centred class
    means then lie in the range of S_w, and any direction is arbitrary."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] <= X.shape[1]:
        model = _gram_null_lda(X, y)
        if model is not None:
            return model
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
    D = Nr @ V[:, ::-1][:, :len(labels) - 1]
    return _baseline_model(X, labels, rows, lift, D, "nullLDA",
                           info={"null_dim": null_dim,
                                 "between_eigenvalues": top.tolist()})


def _gram_null_lda(X, y):
    """nullLDA from the Gram G_c = X_c X_c^T of the centred rows X_c = X - m
    (``_class_gram``), or None where the frame route must decide: fewer
    than 2 classes, a certificate that fails, fewer than C - 1 nonzero
    between eigenvalues, or directions too ill-conditioned to
    orthonormalize in row coordinates.

    The range of S_w is that of X_w^T, so Pi_w = X_w^T K_w^+ X_w with
    K_w = X_w X_w^T = P_w G_c P_w, whose null space holds the class
    indicators, range(I - P_w).  K' = K_w + c (I - P_w), c the largest
    absolute row sum of G_c (of the total scatter's scale), is K_w on
    P_w's range and c on the rest; ``_certified(K')`` finds it positive
    definite when X_w has rank n - C and no s^2 ratio below what
    gram_frame keeps (not with repeated rows, a within scatter zero to
    rounding, or one near its rank cut).  K' commutes with P_w, so one
    solve gives Y = K'^-1 X_w B^T = K_w^+ X_w B^T: the C x C matrix is
    (B B^T - B X_w^T Y) / n, its eigenvalues are counted against the total
    scatter's scale c / n, and each direction is X_c^T a, a = H^T u - Y u.
    The null space has dimension L - n + C."""
    G, cls, K, XwBt, BBt, finish = _class_gram(X, y)
    C, n = len(BBt), len(G)
    if C < 2:
        return None
    c = np.abs(G).sum(axis=1).max()
    same = np.equal.outer(cls, cls)
    K += c * same / same.sum(axis=0)  # + c (I - P_w)
    if not _certified(K):
        return None
    Y = np.linalg.solve(K, XwBt)
    w, U = np.linalg.eigh((BBt - XwBt.T @ Y) / n)
    if linalg.nonzero(w, scale=c / n).sum() != C - 1:
        return None
    return finish(Y, U[:, ::-1][:, :C - 1], "nullLDA",
                  {"null_dim": X.shape[1] - n + C,
                   "between_eigenvalues": w[::-1][:C - 1].tolist()})
