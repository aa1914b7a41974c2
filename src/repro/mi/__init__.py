"""Mutual-information estimators and analytic true-MI formulas.

See paper Section II (estimators) and Section V-A (analytic MI of the
synthetic benchmark distributions).
"""
from .knn import mi_dc_ksg, mi_mixed_ksg
from .mle import entropy_mle, mi_mle
from .select import ESTIMATORS, choose_estimator_name, estimate_mi, route
from .special import digamma, gammaln
from .true_mi import (
    binomial_entropy,
    cdunif_true_mi,
    corr_for_mi,
    mi_bivariate_normal,
    trinomial_joint_entropy,
    trinomial_true_mi,
)

__all__ = [
    "mi_dc_ksg",
    "mi_mixed_ksg",
    "entropy_mle",
    "mi_mle",
    "ESTIMATORS",
    "choose_estimator_name",
    "estimate_mi",
    "route",
    "digamma",
    "gammaln",
    "binomial_entropy",
    "cdunif_true_mi",
    "corr_for_mi",
    "mi_bivariate_normal",
    "trinomial_joint_entropy",
    "trinomial_true_mi",
]
