"""Scoring of estimated models against ground truth: optimal column pairing
of mixing patterns, goodness-of-fit, and connectivity AUC.

All metrics respect the model's indeterminacy class: estimated sources are
defined only up to permutation and per-source rescaling (including sign), so
patterns are paired by exact assignment optimization and compared after an
optimal least-squares rescaling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .cost import group_norms
from .exceptions import DegenerateModelError
from .model import (
    MixingMatrix,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    least_squares_mvar,
)


@dataclass
class PairingResult:
    """Bijection between estimated and true patterns with optimal scales.

    ``permutation[f]`` is the true-pattern index assigned to estimated
    pattern ``f``; ``scales[f]`` the regression coefficient of estimated
    pattern ``f`` onto its assigned true pattern (signs included).
    """

    permutation: np.ndarray
    scales: np.ndarray
    total_cost: float

    def __post_init__(self):
        d = len(self.permutation)
        if sorted(self.permutation) != list(range(d)):
            raise ValueError("permutation must be a bijection on 0..D-1")


@dataclass
class EvalReport:
    method: str
    gof_error: float
    auc: Optional[float]
    per_pattern_gof: List[float]
    selected_order: int
    selected_lambda: Optional[float]
    wall_time_s: float

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "gof_error": self.gof_error,
            "auc": self.auc,
            "per_pattern_gof": list(self.per_pattern_gof),
            "selected_order": self.selected_order,
            "selected_lambda": self.selected_lambda,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(payload, indent=2)


def regression_coefficient(true_col: np.ndarray, est_col: np.ndarray) -> float:
    """Least-squares scale of the estimated pattern onto the true one."""
    denom = float(est_col @ est_col)
    if denom == 0.0:
        raise DegenerateModelError("estimated pattern is the zero vector")
    return float(est_col @ true_col) / denom


def pattern_gof(true_col: np.ndarray, est_col: np.ndarray) -> float:
    """Residual of the optimally scaled estimate, relative to the truth.

    0 means a perfect match up to scale; 1 means orthogonal patterns.
    """
    norm_true = float(np.linalg.norm(true_col))
    if norm_true == 0.0:
        raise DegenerateModelError("true pattern is the zero vector")
    c = regression_coefficient(true_col, est_col)
    return float(np.linalg.norm(c * est_col - true_col)) / norm_true


def optimal_pairing(true_m: MixingMatrix, est_m: MixingMatrix) -> PairingResult:
    """Assign estimated patterns to true patterns minimizing total GOF."""
    # imported here: ``import scsa`` should not pay for scipy.optimize
    from scipy.optimize import linear_sum_assignment

    tm, em = true_m.m, est_m.m
    if tm.shape != em.shape:
        raise ValueError("mixing matrices must agree in shape")
    d = tm.shape[1]
    cost = np.empty((d, d))
    for i in range(d):  # true pattern
        for j in range(d):  # estimated pattern
            cost[i, j] = pattern_gof(tm[:, i], em[:, j])
    rows, cols = linear_sum_assignment(cost)
    permutation = np.empty(d, dtype=int)
    permutation[cols] = rows
    scales = np.array(
        [
            regression_coefficient(tm[:, permutation[f]], em[:, f])
            for f in range(d)
        ]
    )
    return PairingResult(
        permutation=permutation,
        scales=scales,
        total_cost=float(cost[rows, cols].sum()),
    )


def matrix_gof(
    true_m: MixingMatrix, est_m: MixingMatrix, pairing: PairingResult
) -> float:
    """Whole-matrix relative error after pairing and optimal rescaling."""
    tm, em = true_m.m, est_m.m
    adjusted = np.empty_like(tm)
    for f, d in enumerate(pairing.permutation):
        adjusted[:, d] = pairing.scales[f] * em[:, f]
    return float(np.linalg.norm(adjusted - tm) / np.linalg.norm(tm))


def per_pattern_gof(
    true_m: MixingMatrix, est_m: MixingMatrix, pairing: PairingResult
) -> List[float]:
    tm, em = true_m.m, est_m.m
    out = [0.0] * len(pairing.permutation)
    for f, d in enumerate(pairing.permutation):
        out[d] = pattern_gof(tm[:, d], em[:, f])
    return out


def interaction_scores(
    est_model: SourceModel,
    pairing: PairingResult,
    x: Optional[TimeSeriesMatrix] = None,
    mvar_order: Optional[int] = None,
) -> np.ndarray:
    """Aligned group-norm score for every off-diagonal (d, f) pair.

    Estimated lag matrices are re-indexed into true source order; the
    per-source scale ambiguity maps H[f1, f2] to (c_f2 / c_f1) * H[f1, f2].
    For order-0 models (plain ICA) the scores come from an order-``mvar_order``
    least-squares MVAR fitted on the demixed sources of ``x``.
    """
    d = est_model.dim
    if est_model.order > 0:
        h = est_model.h
    else:
        if x is None or mvar_order is None or mvar_order < 1:
            raise ValueError(
                "order-0 model needs data and a positive mvar_order for scoring"
            )
        a = least_squares_mvar(est_model.b @ x.data, mvar_order)
        h = MvarCoefficients(list(a.reshape(d, mvar_order, d).transpose(1, 0, 2)))
    scale = np.abs(pairing.scales)
    scores = group_norms(h, d) * (scale[None, :] / scale[:, None])  # [f1, f2]
    inv_perm = np.empty(d, dtype=int)
    inv_perm[pairing.permutation] = np.arange(d)
    scores = scores[np.ix_(inv_perm, inv_perm)]  # [d1, d2] in true source order
    np.fill_diagonal(scores, 0.0)
    return scores


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> Optional[float]:
    """Mann-Whitney AUC of positive-label scores versus negative ones."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    d = scores[labels][:, None] - scores[~labels]
    return float(((d > 0).sum() + 0.5 * (d == 0).sum()) / (n_pos * n_neg))


def connectivity_auc(
    est_model: SourceModel,
    true_support: np.ndarray,
    pairing: PairingResult,
    x: Optional[TimeSeriesMatrix] = None,
    mvar_order: Optional[int] = None,
) -> Optional[float]:
    """AUC for ranking true interactions above absent ones by group norm.

    Returns None, before anything is scored, when the truth has no positive
    or no negative off-diagonal groups.
    """
    off = ~np.eye(est_model.dim, dtype=bool)
    labels = np.asarray(true_support, dtype=bool)[off]
    if labels.all() or not labels.any():
        return None
    scores = interaction_scores(est_model, pairing, x, mvar_order)
    return auc_from_scores(scores[off], labels)


def evaluate(
    method: str,
    est_model: SourceModel,
    true_mixing: MixingMatrix,
    true_support: np.ndarray,
    x: Optional[TimeSeriesMatrix] = None,
    mvar_order: Optional[int] = None,
    selected_lambda: Optional[float] = None,
    wall_time_s: float = 0.0,
) -> EvalReport:
    """Convenience wrapper producing a full report for one fitted model."""
    est_mixing = MixingMatrix(np.linalg.inv(est_model.b))
    pairing = optimal_pairing(true_mixing, est_mixing)
    order = est_model.order if est_model.order > 0 else (mvar_order or 0)
    return EvalReport(
        method=method,
        gof_error=matrix_gof(true_mixing, est_mixing, pairing),
        auc=connectivity_auc(est_model, true_support, pairing, x, mvar_order),
        per_pattern_gof=per_pattern_gof(true_mixing, est_mixing, pairing),
        selected_order=order,
        selected_lambda=selected_lambda,
        wall_time_s=wall_time_s,
    )
