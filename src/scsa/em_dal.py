"""Alternating estimation of the demixing matrix and the MVAR coefficients.

The demixing update ("E-step") is a smooth quasi-Newton minimization at fixed
lag coefficients. The coefficient update ("M-step") solves a group-lasso
regularized convex problem with the sech loss via a dual augmented Lagrangian
(DAL): an outer proximal-point iteration whose inner problems are smooth in
the dual variables, solved by Newton steps that exploit the diagonal conjugate
Hessian plus a low-rank prox term (Woodbury identity). A proximal-gradient
(FISTA) solver on the same convex objective serves as fallback and handles the
optional joint diagonal penalty, which couples the otherwise row-separable
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import xlogy

from .cost import (
    GroupPenaltySpec,
    cost_scsa,
    grad_scsa,
    log_sech_density,
)
from .exceptions import DalError, StagnationError
from .model import MvarCoefficients, SourceModel, TimeSeriesMatrix, unchecked
from .optim import OptimizerConfig, minimize

LOG_2_OVER_PI = float(np.log(2.0 / np.pi))

# Dual variables are clamped strictly inside (-1, 1) to keep the conjugate
# gradient and Hessian finite.
DUAL_CLAMP = 1.0 - 1e-12


@dataclass
class DalConfig:
    """Knobs of the dual augmented Lagrangian M-step solver."""

    eta_schedule: Optional[Sequence[float]] = None
    eta0: float = 1.0
    eta_factor: float = 4.0
    inner_newton_tol: float = 1e-10
    max_outer: int = 25
    max_inner: int = 60
    kkt_rel: float = 1e-6
    kkt_abs: float = 1e-6

    def etas(self):
        if self.eta_schedule is not None:
            etas = list(self.eta_schedule)
            if any(e <= 0 for e in etas) or any(
                b <= a for a, b in zip(etas, etas[1:])
            ):
                raise ValueError("eta_schedule must be strictly increasing and positive")
            return etas
        return [self.eta0 * self.eta_factor**k for k in range(self.max_outer)]


@dataclass
class DualVariables:
    """Dual matrix of the conjugate sech loss, entries strictly inside (-1, 1)."""

    a: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if np.any(np.abs(self.a) >= 1.0):
            raise ValueError("dual variables must lie strictly inside (-1, 1)")


def _as_array(a):
    return a.a if isinstance(a, DualVariables) else np.asarray(a, dtype=float)


def m_loss(s_tilde, s) -> float:
    """Sech loss of predictions against demixed sources (data term of the
    regularized cost, as a function of the predictions)."""
    s_tilde = np.asarray(s_tilde, dtype=float)
    s = np.asarray(s, dtype=float)
    if s_tilde.shape != s.shape:
        raise ValueError(f"shape mismatch: {s_tilde.shape} vs {s.shape}")
    return -float(np.sum(log_sech_density(s_tilde - s)))


def m_loss_conjugate(a, s) -> float:
    """Convex conjugate of the sech loss, entrywise on the dual matrix.

    Per entry: (1-a)/2 log((1-a)/2) + (1+a)/2 log((1+a)/2) - a s + log(2/pi),
    with the x log x -> 0 limit at the interval ends.
    """
    a = _as_array(a)
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(a) > 1.0):
        raise ValueError("dual variables must lie in [-1, 1]")
    lo = (1.0 - a) / 2.0
    hi = (1.0 + a) / 2.0
    return float(np.sum(xlogy(lo, lo) + xlogy(hi, hi) - a * s + LOG_2_OVER_PI))


def m_loss_conjugate_grad_hess(a, s):
    """Gradient and diagonal Hessian of :func:`m_loss_conjugate`.

    Gradient entry: atanh(a) - s = (1/2) log((1+a)/(1-a)) - s.
    Hessian diagonal entry: 1/(1 - a^2), the derivative of the gradient.
    """
    a = _as_array(a)
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(a) >= 1.0):
        raise ValueError("dual variables must lie strictly inside (-1, 1)")
    grad = np.arctanh(a) - s
    hess = 1.0 / (1.0 - a * a)
    return grad, hess


# ---------------------------------------------------------------------------
# M-step machinery


def _lagged_design(s: np.ndarray, p: int):
    """Design matrix X of shape (P*D, T-P) with X[(lag-1)*D + f, :] = s_f(t-lag),
    plus the prediction targets s(t) for t > P."""
    d, t = s.shape
    blocks = [s[:, p - lag : t - lag] for lag in range(1, p + 1)]
    x = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, t - p))
    return x, s[:, p:]


def _row_weights(d_idx: int, d: int, lam: float):
    w = np.full(d, lam)
    w[d_idx] = 0.0
    return w


def _prox_row(v: np.ndarray, thresholds: np.ndarray, d: int, p: int):
    """Group soft-thresholding of a row coefficient vector (layout (lag, f)).

    thresholds[f] is eta * weight_f; zero means the group is unpenalized.
    Returns the prox and the per-group norms of v.
    """
    vg = v.reshape(p, d)
    norms = np.linalg.norm(vg, axis=0)
    scale = np.ones(d)
    pen = thresholds > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        scale[pen] = np.maximum(0.0, 1.0 - thresholds[pen] / norms[pen])
    scale[pen & (norms == 0)] = 0.0
    return (vg * scale).ravel(), norms


def _dal_inner(x_design, target, w, eta, thresholds, d, p, cfg: DalConfig):
    """Solve the inner dual problem for one row by damped Newton.

    Minimizes f*(alpha) + (1/(2 eta)) ||prox(w + eta X^T alpha)||^2 over the
    open box |alpha| < 1. Returns the optimal dual vector.
    """
    n = target.size
    s_tilde = w @ x_design if w.size else np.zeros(n)
    alpha = np.clip(np.tanh(s_tilde - target), -0.999, 0.999)

    def phi_parts(a):
        v = w + eta * (x_design @ a)
        pw, norms = _prox_row(v, thresholds, d, p)
        lo = (1.0 - a) / 2.0
        hi = (1.0 + a) / 2.0
        val = float(
            np.sum(xlogy(lo, lo) + xlogy(hi, hi) - a * target + LOG_2_OVER_PI)
        ) + np.dot(pw, pw) / (2.0 * eta)
        return val, v, pw, norms

    val, v, pw, norms = phi_parts(alpha)
    for _ in range(cfg.max_inner):
        grad = np.arctanh(alpha) - target + x_design.T @ pw
        if np.max(np.abs(grad)) <= cfg.inner_newton_tol * max(1.0, abs(val)):
            break
        diag = 1.0 / (1.0 - alpha * alpha)
        cols = []
        vg = v.reshape(p, d)
        for f in range(d):
            xg = x_design.reshape(p, d, n)[:, f, :]
            if thresholds[f] == 0.0:
                cols.append(xg.T)  # identity prox Jacobian
                continue
            if norms[f] <= thresholds[f]:
                continue  # prox Jacobian is zero
            gamma = 1.0 - thresholds[f] / norms[f]
            u = vg[:, f] / norms[f]
            # sqrt of (gamma (I - uu^T) + uu^T)
            xt = xg.T  # (n, p)
            proj = xt @ u
            cols.append(
                np.sqrt(gamma) * (xt - np.outer(proj, u)) + np.outer(proj, u)
            )
        rhs = grad / diag
        if cols:
            u_mat = np.sqrt(eta) * np.concatenate(cols, axis=1)  # (n, k)
            du = u_mat / diag[:, None]
            cap = np.eye(u_mat.shape[1]) + u_mat.T @ du
            step = rhs - du @ np.linalg.solve(cap, u_mat.T @ rhs)
        else:
            step = rhs
        delta = -step
        slope = float(np.dot(grad, delta))
        if slope >= 0:
            delta = -grad / diag
            slope = float(np.dot(grad, delta))
        tau = 1.0
        for _ in range(60):
            cand = alpha + tau * delta
            if np.max(np.abs(cand)) < 1.0:
                cand_val, cv, cpw, cnorms = phi_parts(cand)
                if cand_val <= val + 1e-4 * tau * slope:
                    alpha, val, v, pw, norms = cand, cand_val, cv, cpw, cnorms
                    break
            tau *= 0.5
        else:
            raise DalError("inner Newton line search stagnated", best=None)
    np.clip(alpha, -DUAL_CLAMP, DUAL_CLAMP, out=alpha)
    return alpha


def _row_kkt(x_design, target, w, weights, d, p, cfg: DalConfig):
    """Group-lasso KKT residuals for one row; returns (ok, details)."""
    n = target.size
    s_tilde = w @ x_design if w.size else np.zeros(n)
    gd = x_design @ np.tanh(s_tilde - target)
    ok = True
    wg = w.reshape(p, d)
    gg = gd.reshape(p, d)
    for f in range(d):
        lam = weights[f]
        gn = np.linalg.norm(gg[:, f])
        xn = np.linalg.norm(wg[:, f])
        if lam > 0 and xn == 0.0:
            if gn > lam * (1.0 + cfg.kkt_rel):
                ok = False
        else:
            resid = gg[:, f].copy()
            if lam > 0:
                resid += lam * wg[:, f] / xn
            if np.max(np.abs(resid)) > cfg.kkt_abs:
                ok = False
    return ok


def _m_objective(h_flat, x_design, targets):
    """Value and gradient of the (unregularized) M-step loss over all rows;
    h_flat has shape (D, P*D)."""
    s_tilde = h_flat @ x_design
    resid = s_tilde - targets
    loss = -float(np.sum(log_sech_density(resid)))
    grad = np.tanh(resid) @ x_design.T
    return loss, grad


def _penalty_m(h_flat, pen: GroupPenaltySpec, d, p):
    hg = h_flat.reshape(d, p, d)
    norms = np.linalg.norm(hg, axis=1)  # (D, D): rows d, cols f
    off = float(np.sum(norms)) - float(np.trace(norms))
    val = pen.lam * off
    if pen.penalize_diagonal:
        diag = np.sqrt(sum(np.sum(hg[i, :, i] ** 2) for i in range(d)))
        val += pen.lambda_diag * float(diag)
    return val


def _prox_m(h_flat, step, pen: GroupPenaltySpec, d, p):
    """Prox of step * penalty on the stacked (D, P*D) coefficient array."""
    hg = h_flat.reshape(d, p, d).copy()
    norms = np.linalg.norm(hg, axis=1)
    thr = step * pen.lam
    scale = np.maximum(0.0, 1.0 - thr / np.where(norms > 0, norms, 1.0))
    scale[norms == 0] = 0.0
    np.fill_diagonal(scale, 1.0)
    hg *= scale[:, None, :]
    if pen.penalize_diagonal and pen.lambda_diag > 0:
        diag = np.stack([hg[i, :, i] for i in range(d)])  # (D, P)
        dn = float(np.linalg.norm(diag))
        factor = max(0.0, 1.0 - step * pen.lambda_diag / dn) if dn > 0 else 0.0
        for i in range(d):
            hg[i, :, i] *= factor
    return hg.reshape(d, p * d)


def _fista_m_step(x_design, targets, h0_flat, pen, d, p, max_iters=2000, tol=1e-10):
    """Proximal-gradient (FISTA with restart) solve of the M-step problem."""
    lip = np.linalg.norm(x_design, 2) ** 2 + 1e-12
    step = 1.0 / lip
    h = h0_flat.copy()
    z = h.copy()
    t_momentum = 1.0
    f_prev = np.inf
    for _ in range(max_iters):
        loss, grad = _m_objective(z, x_design, targets)
        h_new = _prox_m(z - step * grad, step, pen, d, p)
        f_new = _m_objective(h_new, x_design, targets)[0] + _penalty_m(
            h_new, pen, d, p
        )
        if f_new > f_prev:  # restart momentum
            z = h.copy()
            t_momentum = 1.0
            loss, grad = _m_objective(z, x_design, targets)
            h_new = _prox_m(z - step * grad, step, pen, d, p)
            f_new = _m_objective(h_new, x_design, targets)[0] + _penalty_m(
                h_new, pen, d, p
            )
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t_momentum**2))
        z = h_new + ((t_momentum - 1) / t_next) * (h_new - h)
        move = np.max(np.abs(h_new - h))
        h, t_momentum, f_prev = h_new, t_next, f_new
        if move <= tol:
            break
    return h


def m_step_dal(
    s: TimeSeriesMatrix,
    P: int,
    pen: GroupPenaltySpec,
    h0: Optional[MvarCoefficients] = None,
    cfg: Optional[DalConfig] = None,
) -> MvarCoefficients:
    """Minimize the sech prediction loss plus group penalty over the lag
    coefficients, at fixed demixed sources.

    Off-diagonal (d, f) groups carry weight ``pen.lam``; diagonal
    autocorrelation coefficients are unpenalized unless
    ``pen.penalize_diagonal`` is set (that variant couples the rows and is
    handed to the proximal-gradient solver).
    """
    cfg = cfg or DalConfig()
    d, t = s.data.shape
    if P == 0:
        return MvarCoefficients([])
    if t <= P:
        raise DalError(f"need T > {P}, got {t}")
    x_design, targets = _lagged_design(s.data, P)
    if h0 is not None and h0.order == P:
        h_flat = np.stack(
            [h0.as_array(d)[:, i, :].ravel() for i in range(d)]
        )  # (D, P*D)
    else:
        h_flat = np.zeros((d, P * d))

    if pen.penalize_diagonal and pen.lambda_diag > 0:
        h_flat = _fista_m_step(x_design, targets, h_flat, pen, d, P)
    else:
        for i in range(d):
            weights = _row_weights(i, d, pen.lam)
            w = h_flat[i].copy()
            try:
                for eta in cfg.etas():
                    thresholds = eta * weights
                    alpha = _dal_inner(
                        x_design, targets[i], w, eta, thresholds, d, P, cfg
                    )
                    v = w + eta * (x_design @ alpha)
                    w, _ = _prox_row(v, thresholds, d, P)
                    if _row_kkt(x_design, targets[i], w, weights, d, P, cfg):
                        break
                else:
                    raise DalError("outer DAL loop exhausted", best=w)
            except DalError:
                # same convex objective, slower but robust
                w = _fista_row(x_design, targets[i], h_flat[i], weights, d, P)
            h_flat[i] = w

    lags = [
        np.stack([h_flat[i].reshape(P, d)[lag] for i in range(d)])
        for lag in range(P)
    ]
    return MvarCoefficients(lags)


def _fista_row(x_design, target, w0, weights, d, p, max_iters=5000, tol=1e-11):
    lip = np.linalg.norm(x_design, 2) ** 2 + 1e-12
    step = 1.0 / lip
    w = w0.copy()
    z = w.copy()
    t_m = 1.0
    for _ in range(max_iters):
        grad = x_design @ np.tanh(z @ x_design - target)
        w_new, _ = _prox_row(z - step * grad, step * weights, d, p)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t_m**2))
        z = w_new + ((t_m - 1) / t_next) * (w_new - w)
        move = np.max(np.abs(w_new - w))
        w, t_m = w_new, t_next
        if move <= tol:
            break
    return w


def e_step(
    x: TimeSeriesMatrix,
    h: MvarCoefficients,
    b0: np.ndarray,
    cfg: Optional[OptimizerConfig] = None,
) -> np.ndarray:
    """Update the demixing matrix at fixed lag coefficients by quasi-Newton
    minimization of the unpenalized cost (the penalty is constant in B)."""
    cfg = cfg or OptimizerConfig()
    d = b0.shape[0]
    pen0 = GroupPenaltySpec(0.0)

    def objective(theta):
        rep = grad_scsa(unchecked(SourceModel, b=theta.reshape(d, d), h=h), x, pen0)
        return rep.value, rep.gradient[: d * d]

    def value_fn(theta):
        return cost_scsa(unchecked(SourceModel, b=theta.reshape(d, d), h=h), x, pen0)

    try:
        theta, _ = minimize(objective, b0.ravel(), cfg, value_fn=value_fn)
    except StagnationError as err:
        theta = err.x
    return theta.reshape(d, d)


def fit_scsa_em(
    x: TimeSeriesMatrix,
    P: int,
    pen: GroupPenaltySpec,
    em_steps: int = 20,
    opt_cfg: Optional[OptimizerConfig] = None,
    dal_cfg: Optional[DalConfig] = None,
    init: Optional[SourceModel] = None,
    cost_change_tol: float = 1e-8,
) -> Tuple[SourceModel, List[float]]:
    """Alternate demixing and coefficient updates from a warm start.

    When ``init`` is omitted the warm start is the jointly optimized sparse
    solution. Returns the refined model together with the composite cost
    after the warm start and after every half-step.
    """
    if init is None:
        from .estimators import fit_scsa  # deferred: estimators imports us

        init = fit_scsa(x, P, pen, cfg=opt_cfg)
    model = init
    history = [cost_scsa(model, x, pen)]
    for _ in range(em_steps):
        b = e_step(x, model.h, model.b, opt_cfg)
        cand = SourceModel(b=b, h=model.h)
        c = cost_scsa(cand, x, pen)
        if c <= history[-1]:
            model = cand
            history.append(c)
        else:
            history.append(history[-1])
        s = TimeSeriesMatrix(model.b @ x.data)
        h = m_step_dal(s, P, pen, model.h, dal_cfg)
        cand = SourceModel(b=model.b, h=h)
        c = cost_scsa(cand, x, pen)
        if c <= history[-1]:
            model = cand
            history.append(c)
        else:
            history.append(history[-1])
        if em_converged(history, cost_change_tol):
            break
    return model, history


def em_converged(history: Sequence[float], cost_change_tol: float = 1e-8) -> bool:
    """Whether the last EM step of a :func:`fit_scsa_em` cost history changed
    the cost by at most ``cost_change_tol`` relative: the loop's stop rule."""
    return len(history) >= 3 and bool(
        abs(history[-1] - history[-3]) <= cost_change_tol * max(1.0, abs(history[-3]))
    )
