"""Sparse joint modal estimation for multidimensional graded response models.

Fits factor scores, loadings, and ordered intercepts jointly by
maximizing a penalized posterior: alternating line-searched gradient
steps with soft thresholding on the loadings for exact sparsity, plus
two-stage cell-holdout cross-validation for the penalty weight.
"""

from .align import (Alignment, alignment_cost, apply_alignment,
                    best_alignment, exhaustive_alignment)
from .cv import (STAGE1_GRID, CvEntry, FoldAssignment, LambdaGrid, cv_error,
                 make_folds, second_stage_grid, select_lambda, tune_and_fit)
from .data import (QMatrix, ResponseData, derive_seeds, load_responses,
                   read_intercepts, read_matrix, save_responses,
                   split_row_indices, split_rows, take_rows,
                   write_intercepts, write_matrix)
from .gradients import grad_a_loglik, grad_d, grad_delta, grad_theta, to_d, to_delta
from .metrics import (RecoveryReport, SelectionReport, q_from_loadings,
                      recovery_metrics, score, selection_metrics)
from .model import (PROB_FLOOR, Hyperparameters, ModelState, category_prob,
                    cumulative_probs, default_intercept_ranges, draw_intercepts,
                    inverse_logit, log_likelihood, log_prior_a, log_prior_d,
                    log_prior_theta, objective)
from .optimizer import (FitConfig, FitResult, fit, fit_multistart,
                        log_likelihood_value, objective_value, random_init,
                        soft_threshold, update_a, update_d, update_theta)
from .simulate import (SimDesign, gen_q, gen_sigma, gen_true_params,
                       run_replication, run_study, sample_responses)

__version__ = "0.1.0"
