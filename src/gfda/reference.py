"""The L x L reference routes and the oracles that no command runs: the
summed projection matrix, the aligned first vectors, the scatter ladder,
the split of G, whitening, the pairwise forms, canonical angles, both
constructions of the two-class difference subspace and the gap index.
The invariant batteries and the tests check the union-span and
centred-data constructions against them; no runtime module imports it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegeneratePairError, UndefinedDirectionError,
                     ValidationError)
from .fisher import between_scatter, pairwise_difference_matrix
from .linalg import (RANK_TOL, as_ortho_basis, as_sym_matrix, fix_signs,
                     gram_frame, nonzero, sym_eig)
from .subspace import OVERLAP_TOL, ClassModel, SubspaceEnsemble

LADDER_RUNGS = ("FDA", "aFDA", "sFDA", "gFDA")


@dataclass(frozen=True)
class ScatterPair:
    """A (between, within) matrix pair at one rung of the ladder."""

    between: np.ndarray
    within: np.ndarray
    rung: str

    def __post_init__(self):
        as_sym_matrix(self.between, "between")
        as_sym_matrix(self.within, "within")
        if self.between.shape != self.within.shape:
            raise ValidationError("between/within orders differ")
        if self.rung not in LADDER_RUNGS:
            raise ValidationError(f"unknown rung {self.rung!r}")


def projection_matrix(model: ClassModel) -> np.ndarray:
    """Orthogonal projection matrix P = Phi Phi^T of the class subspace."""
    return model.basis @ model.basis.T


def sum_matrix(ensemble: SubspaceEnsemble) -> np.ndarray:
    """Sum of the class projection matrices, G = sum_c P_c."""
    G = np.zeros((ensemble.ambient_dim, ensemble.ambient_dim))
    for c in ensemble.classes:
        G += projection_matrix(c)
    return G


@dataclass(frozen=True)
class CanonicalAngles:
    """Canonical (principal) angles between two subspaces.

    cosines : min(dim U, dim V) values in [0, 1], descending
    left, right : paired canonical vectors, columns aligned with cosines;
        left[:, i] lies in U, right[:, i] in V and left[:, i].T @ right[:, i]
        equals cosines[i] (>= 0).
    """

    cosines: np.ndarray
    left: np.ndarray
    right: np.ndarray


def canonical_angles(U, V) -> CanonicalAngles:
    """Canonical angle cosines between span(U) and span(V).

    The cosines are the singular values of U.T @ V; the canonical vector
    pairs are recovered from the corresponding singular vectors.
    """
    if np.ndim(U) != 2 or np.ndim(V) != 2:
        raise ValidationError("canonical_angles takes two (L, k) bases")
    U = as_ortho_basis(U, "U")
    V = as_ortho_basis(V, "V")
    if U.shape[0] != V.shape[0]:
        raise ValidationError(
            f"ambient dimensions differ: {U.shape[0]} vs {V.shape[0]}")
    W, s, Zt = np.linalg.svd(U.T @ V)
    k = s.size  # = min(dim U, dim V)
    W = W[:, :k]
    Z = Zt.T[:, :k]
    # Fix the joint sign of each pair deterministically; flipping both
    # members leaves the inner product (the cosine) unchanged.
    fixed = fix_signs(W)
    flips = np.sign(np.sum(W * fixed, axis=0))
    return CanonicalAngles(
        cosines=np.clip(s, 0.0, 1.0),
        left=U @ fixed,
        right=V @ (Z * flips),
    )


@dataclass(frozen=True)
class DifferenceSubspace:
    """Analytic difference subspace of two class subspaces.

    basis : eigenvectors of P1 + P2 with eigenvalue in (0, 1), ascending
    principal_basis : eigenvectors with eigenvalue in (1, 2), ascending
    eigenvalues : the full nonzero spectrum of P1 + P2, ascending
    """

    basis: np.ndarray
    principal_basis: np.ndarray
    eigenvalues: np.ndarray


def difference_subspace_analytic(c1: ClassModel,
                                 c2: ClassModel) -> DifferenceSubspace:
    """Difference subspace as the sub-unit eigenvectors of P1 + P2.

    Eigenvalues above 1 span the principal component subspace, eigenvalues
    below 1 the difference subspace; together they decompose the sum
    subspace.  An eigenvalue within OVERLAP_TOL of 2 means the subspaces
    share a direction (degenerate); eigenvalues within OVERLAP_TOL of
    exactly 1 belong to neither side and are excluded with a warning.
    """
    s, _, lift = gram_frame(np.hstack([c1.basis, c2.basis]))
    vecs, vals = lift()[0], s[::-1] ** 2
    if vals.size == 0 or np.any(vals >= 2.0 - OVERLAP_TOL):
        hit = int(np.argmax(vals)) if vals.size else 0
        raise DegeneratePairError(
            "subspaces overlap: P1 + P2 has an eigenvalue at 2 "
            f"(index {hit})", index=hit)

    near_one = np.abs(vals - 1.0) <= OVERLAP_TOL
    if np.any(near_one):
        warnings.warn(
            f"{int(near_one.sum())} eigenvalue(s) of P1 + P2 within "
            f"{OVERLAP_TOL} of exactly 1 excluded from both the difference "
            "and principal sides",
            RuntimeWarning, stacklevel=2)
    lower = vals < 1.0 - OVERLAP_TOL
    upper = vals > 1.0 + OVERLAP_TOL
    return DifferenceSubspace(
        basis=vecs[:, lower],
        principal_basis=vecs[:, upper],
        eigenvalues=vals,
    )


def difference_subspace_geometric(c1: ClassModel, c2: ClassModel) -> np.ndarray:
    """Difference subspace from normalized canonical-vector differences.

    For canonical pairs (u_i, v_i) of the two class subspaces the basis
    vectors are d_i = (v_i - u_i) / ||v_i - u_i||; they come out mutually
    orthogonal.  Requires dim(c1) >= dim(c2) and no identical canonical pair.
    """
    if c1.dim < c2.dim:
        raise ValidationError(
            "first argument must have the larger (or equal) dimension")
    angles = canonical_angles(c1.basis, c2.basis)
    high = np.nonzero(angles.cosines >= 1.0 - OVERLAP_TOL)[0]
    if high.size:
        raise DegeneratePairError(
            f"canonical pair {high[0]} has cosine "
            f"{angles.cosines[high[0]]:.12f}; the subspaces overlap",
            index=int(high[0]))
    diffs = angles.right - angles.left
    return diffs / np.linalg.norm(diffs, axis=0)


def gap_index(C: int) -> float:
    """Relative weight gap 2 (1 - 1/C) between the geometrical criterion and
    plain difference-subspace projection; 1.0 at C = 2, toward 2.0 as C grows."""
    if C < 2:
        raise ValidationError("gap index needs C >= 2")
    return 2.0 * (1.0 - 1.0 / C)


def whitening(S):
    """Whitening map A of a positive semidefinite matrix S.

    A = V_r diag(lambda_r ** -0.5) restricted to the nonzero eigenvalues,
    so that A.T @ S @ A is the identity on the retained rank.  Columns
    follow ascending eigenvalue order.

    Raises ValidationError when S has an eigenvalue below
    -RANK_TOL * ||S||_F (not positive semidefinite).
    """
    eig = sym_eig(S)
    if eig.values[0] < -RANK_TOL * np.linalg.norm(S):
        raise ValidationError(
            f"matrix is not positive semidefinite (min eigenvalue {eig.values[0]:.3e})")
    keep = nonzero(eig.values)
    return eig.vectors[:, keep] / np.sqrt(eig.values[keep])


def between_scatter_pairwise(means, counts) -> np.ndarray:
    """The same matrix as fisher.between_scatter written as a weighted sum
    over class pairs, (1/n^2) sum_{i<j} n_i n_j (m_i - m_j)(m_i - m_j)^T."""
    means = np.asarray(means, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if means.shape[0] < 2:
        raise ValidationError("need at least 2 classes")
    n = counts.sum()
    C, L = means.shape
    S = np.zeros((L, L))
    for i in range(C):
        for j in range(i + 1, C):
            d = means[i] - means[j]
            S += counts[i] * counts[j] * np.outer(d, d)
    return S / n**2


def aligned_first_vectors(ensemble: SubspaceEnsemble) -> np.ndarray:
    """First basis vector of each class under the package sign convention.

    Returns a (C, L) array of working copies, each oriented toward its own
    class mean (a zero inner product keeps the fitted sign).  This is the
    orientation the mean/first-component correspondence refers to, and it
    makes the pairwise inner products of the working copies positive
    whenever the class means are positively correlated, the image-data
    regime in which the pairwise-positive convention is stated.  Any
    per-class orientation leaves the criterion spectrum and all
    decomposition identities untouched; it decides which representative of
    each difference vector enters the between matrix, and the class mean is
    the only meaningful reference for that choice.
    """
    F = np.array([c.basis[:, 0] for c in ensemble.classes])
    dots = np.einsum("ij,ij->i", F, [c.mean for c in ensemble.classes])
    return F * np.where(dots < 0, -1.0, 1.0)[:, None]


def scatter_ladder(ensemble: SubspaceEnsemble, rung: str) -> ScatterPair:
    """Build the (between, within) pair of one simplification rung.

    FDA   : exact covariances reconstructed from the class models via
            R_c = sum_i lambda_i phi_i phi_i^T (exact when the models keep
            their full spectrum).
    aFDA  : the mean of each class replaced by its norm times the first
            basis vector; within-class spectrum reweighted so the first
            direction carries lambda_1 - ||m_c||^2.
    sFDA  : additionally assumes a common mean norm, which factors out of
            the between matrix.
    gFDA  : every per-class variance assumed equal; the constant factor is
            dropped, leaving the pairwise-difference matrix against the sum
            of the class projections.

    The aFDA/sFDA within matrices are formed over each model's stored
    spectrum, so the aFDA rung equals the cited full-spectrum expression
    when the models were fitted without truncation.
    """
    if rung not in LADDER_RUNGS:
        raise ValidationError(f"unknown rung {rung!r}; pick one of {LADDER_RUNGS}")
    C = ensemble.n_classes
    L = ensemble.ambient_dim
    counts = np.array([c.count for c in ensemble.classes], dtype=float)
    means = np.array([c.mean for c in ensemble.classes])
    n = counts.sum()

    if rung == "FDA":
        within = np.zeros((L, L))
        for c in ensemble.classes:
            R = (c.basis * c.eigenvalues) @ c.basis.T
            within += c.count * (R - np.outer(c.mean, c.mean))
        within /= n
        return ScatterPair(between=between_scatter(means, counts),
                           within=within, rung=rung)

    if rung == "gFDA":
        firsts = aligned_first_vectors(ensemble)
        return ScatterPair(between=pairwise_difference_matrix(firsts),
                           within=sum_matrix(ensemble), rung=rung)

    # aFDA / sFDA share the reweighted within-class matrix.
    if np.ptp(counts) > 0:
        warnings.warn(
            "class sample counts are unequal; the ladder assumes a common "
            "count and uses their average", RuntimeWarning, stacklevel=2)
    within = np.zeros((L, L))
    for c in ensemble.classes:
        sig = c.eigenvalues.copy()
        mc2 = float(c.mean @ c.mean)
        if sig[0] < mc2:
            warnings.warn(
                f"class {c.label!r}: lambda_1 < ||mean||^2 "
                f"({sig[0]:.3e} < {mc2:.3e}); variance clamped to 0",
                RuntimeWarning, stacklevel=2)
        sig[0] = max(sig[0] - mc2, 0.0)
        within += (c.basis * sig) @ c.basis.T
    within /= C

    firsts = aligned_first_vectors(ensemble)
    norms = np.linalg.norm(means, axis=1)
    if rung == "aFDA":
        between = pairwise_difference_matrix(firsts * norms[:, None]) / C**2
    else:  # sFDA
        if np.ptp(norms) > 1e-8 * max(norms.max(), 1.0):
            warnings.warn(
                "class mean norms are unequal; sFDA assumes a common norm "
                "and uses their average", RuntimeWarning, stacklevel=2)
        m_bar = norms.mean()
        between = (m_bar / C) ** 2 * pairwise_difference_matrix(firsts)
    return ScatterPair(between=between, within=within, rung=rung)


def gfda_null_space(ensemble: SubspaceEnsemble) -> np.ndarray:
    """The gFDA space by the L x L route, the oracle of both forms: the
    (L, C - 1) eigenvectors of the C - 1 smallest eigenvalues of
    Q^T (W - B/C) Q, lifted by Q, for (B, W) the gFDA rung of the scatter
    ladder and Q the eigenvectors of W's nonzero eigenvalues, each from
    sym_eig.  Directions orthogonal to every class are null for both
    matrices, so the null space is taken on the range of W."""
    C = ensemble.n_classes
    pair = scatter_ladder(ensemble, "gFDA")
    eig = sym_eig(pair.within)
    Q = eig.vectors[:, nonzero(eig.values)]
    ghat = Q.T @ (pair.within - pair.between / C) @ Q
    return Q @ sym_eig(ghat).vectors[:, :C - 1]


def gds_decomposition(ensemble: SubspaceEnsemble):
    """Split G into its between-difference and residual parts.

    For C classes of equal subspace dimension N, with z = phi_1^j - phi_1^k
    and z' = phi_1^j + phi_1^k taken over sign-aligned first basis vectors,

        G = (1 / (2 (C - 1))) * B + W5

    where B is the pairwise-difference matrix over the first basis vectors
    and W5 collects the z' terms plus all higher basis directions.  Returns
    the two summands (the first already carries its coefficient).
    """
    dims = {c.dim for c in ensemble.classes}
    if len(dims) != 1:
        raise ValidationError(
            f"classes must share one subspace dimension, got {sorted(dims)}")
    C = ensemble.n_classes
    firsts = aligned_first_vectors(ensemble)
    coef = 1.0 / (2.0 * (C - 1))
    # sum_{j<k} z' z'^T = (C - 2) F^T F + (F^T 1)(F^T 1)^T
    total = firsts.sum(axis=0)
    W5 = coef * ((C - 2) * (firsts.T @ firsts) + np.outer(total, total))
    rest = np.hstack([c.basis[:, 1:] for c in ensemble.classes])
    W5 += rest @ rest.T
    return coef * pairwise_difference_matrix(firsts), W5


def discriminant_power_curve(basis, pair: ScatterPair) -> np.ndarray:
    """Fisher-like power of each basis column under the given pair: the
    fisher_criterion of every column at once, raising
    UndefinedDirectionError for a column of no within-class energy."""
    basis = np.asarray(basis, dtype=float)
    num = np.sum(basis * (pair.between @ basis), axis=0)
    den = np.sum(basis * (pair.within @ basis), axis=0)
    scale = np.sum(basis * basis, axis=0) * max(np.linalg.norm(pair.within), 1.0)
    if np.any(den <= 1e-12 * scale):
        raise UndefinedDirectionError(
            "direction has (numerically) zero within-class energy")
    return num / den


def fisher_criterion(d, pair: ScatterPair) -> float:
    """Generalized Rayleigh quotient (d^T B d) / (d^T W d): the one-column
    case of discriminant_power_curve.

    Scale-invariant in d.  Raises UndefinedDirectionError when d carries no
    within-class energy, i.e. the ratio is meaningless.
    """
    d = np.asarray(d, dtype=float).reshape(-1, 1)
    return float(discriminant_power_curve(d, pair)[0])
