"""Discriminant analysis on class subspaces.

Fits class subspaces by uncentered PCA, builds difference and generalized
difference subspaces, runs geometrical Fisher discriminant analysis in both
of its equivalent forms alongside the classical FDA family, and evaluates
classifiers by recognition rate and equal error rate.
"""

from .classify import (EvalReport, ProjectedPoint, classify_cosine,
                       classify_nearest_mean, equal_error_rate, evaluate,
                       project)
from .errors import (DegeneratePairError, GfdaError, NotApplicableError,
                     OverlapError, UndefinedDirectionError, ValidationError)
from .fisher import (DiscriminantModel, ScatterPair, between_scatter,
                     between_scatter_pairwise, discriminant_power_curve, fda,
                     fisher_criterion, gap_index, gds_decomposition,
                     gds_discriminant, gfda_linear_form, gfda_product_form,
                     null_lda, pca_lda, reg_lda, scatter_ladder, union_frame,
                     with_normalization, within_scatter)
from .linalg import (EigResult, canonical_angles, gram_schmidt, sym_eig,
                     whitening)
from .subspace import (ClassModel, SubspaceEnsemble, aligned_first_vectors,
                       difference_subspace_analytic,
                       difference_subspace_geometric, fit_class, fit_ensemble,
                       projection_matrix, sum_matrix, union_span)
from .synth import (convex_mixture, gaussian_class, labeled_gaussians,
                    labeled_mixtures, subspace_config)

__version__ = "0.1.0"

__all__ = [
    "ClassModel", "DegeneratePairError", "DiscriminantModel", "EigResult",
    "EvalReport", "GfdaError", "NotApplicableError", "OverlapError",
    "ProjectedPoint", "ScatterPair", "SubspaceEnsemble",
    "UndefinedDirectionError", "ValidationError", "aligned_first_vectors",
    "between_scatter", "between_scatter_pairwise", "canonical_angles",
    "classify_cosine", "classify_nearest_mean", "convex_mixture",
    "difference_subspace_analytic", "difference_subspace_geometric",
    "discriminant_power_curve", "equal_error_rate", "evaluate", "fda",
    "fisher_criterion", "fit_class", "fit_ensemble", "gap_index",
    "gaussian_class", "gds_decomposition", "gds_discriminant",
    "gfda_linear_form", "gfda_product_form", "gram_schmidt",
    "labeled_gaussians", "labeled_mixtures", "null_lda", "pca_lda",
    "project", "projection_matrix", "reg_lda", "scatter_ladder",
    "subspace_config", "sum_matrix", "sym_eig", "union_frame", "union_span",
    "whitening", "with_normalization", "within_scatter",
]
