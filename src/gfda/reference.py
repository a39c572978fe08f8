"""The L x L reference routes: the summed projection matrix, the scatter
ladder, the split of G, whitening and the pairwise forms.  The invariant
batteries and the tests check the union-span and centred-data constructions
against them; no runtime module imports this module.
"""

import warnings

import numpy as np

from .errors import DegeneratePairError, ValidationError
from .fisher import (LADDER_RUNGS, ScatterPair, between_scatter,
                     discriminant_power_curve, pairwise_difference_matrix)
from .linalg import RANK_TOL, canonical_angles, nonzero, sym_eig
from .subspace import (OVERLAP_TOL, ClassModel, SubspaceEnsemble,
                       aligned_first_vectors)


def projection_matrix(model: ClassModel) -> np.ndarray:
    """Orthogonal projection matrix P = Phi Phi^T of the class subspace."""
    return model.basis @ model.basis.T


def sum_matrix(ensemble: SubspaceEnsemble) -> np.ndarray:
    """Sum of the class projection matrices, G = sum_c P_c."""
    G = np.zeros((ensemble.ambient_dim, ensemble.ambient_dim))
    for c in ensemble.classes:
        G += projection_matrix(c)
    return G


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


def fisher_criterion(d, pair: ScatterPair) -> float:
    """Generalized Rayleigh quotient (d^T B d) / (d^T W d): the one-column
    case of fisher.discriminant_power_curve.

    Scale-invariant in d.  Raises UndefinedDirectionError when d carries no
    within-class energy, i.e. the ratio is meaningless.
    """
    d = np.asarray(d, dtype=float).reshape(-1, 1)
    return float(discriminant_power_curve(d, pair)[0])
