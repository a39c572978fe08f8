"""Discriminant analysis on class subspaces.

Fits class subspaces by uncentered PCA, builds difference and generalized
difference subspaces, runs geometrical Fisher discriminant analysis in both
of its equivalent forms alongside the classical FDA family, and evaluates
classifiers by recognition rate and equal error rate.  ``import gfda`` loads
none of these modules: ``gfda.<name>`` imports the one that defines the name
on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, once, under the module that defines it.
_EXPORTS = {
    "classify": ("EvalReport", "equal_error_rate", "evaluate", "project"),
    "errors": ("DegeneratePairError", "GfdaError", "NotApplicableError",
               "OverlapError", "UndefinedDirectionError", "ValidationError"),
    "fisher": ("DiscriminantModel", "ScatterPair", "between_scatter",
               "discriminant_power_curve", "fda", "gap_index",
               "gds_discriminant", "gfda_linear_form", "gfda_product_form",
               "null_lda", "pca_lda", "reg_lda", "union_frame",
               "with_normalization", "within_scatter"),
    "linalg": ("EigResult", "canonical_angles", "gram_schmidt", "sym_eig"),
    "reference": ("between_scatter_pairwise", "difference_subspace_geometric",
                  "fisher_criterion", "gds_decomposition",
                  "projection_matrix", "scatter_ladder", "sum_matrix",
                  "whitening"),
    "subspace": ("ClassModel", "SubspaceEnsemble", "aligned_first_vectors",
                 "difference_subspace_analytic", "fit_class", "fit_ensemble",
                 "union_span"),
    "synth": ("convex_mixture", "gaussian_class", "labeled_gaussians",
              "labeled_mixtures", "subspace_config"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, such as gfda.linalg
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
