"""Least-squares fallback for target sets the equality system cannot meet.

Minimizes the player-system residual norm subject to the seeker
inequalities by maximizing the concave dual over the nonnegative orthant
with projected gradient ascent, then recovering the primal point through
the pseudoinverse.

With fewer players than channels the quadratic form is rank deficient, so
the textbook normal-equations inverse does not exist; the Moore-Penrose
pseudoinverse replaces it. That choice restricts the recovered power
vector to the row space of the player system and selects the minimum-norm
representative among the stationary points.

Scaling: H = 2 * Gt^T Gt and d = -2 * Gt^T bt, so that H u + d is exactly
the gradient of ||Gt u - bt||^2 and the stationarity, dual, and recovery
formulas are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UsageError
from .model import ChannelSystem

PINV_RCOND = 1e-10


@dataclass(frozen=True)
class QpProblem:
    """Quadratic data of the fallback problem and its dual."""

    gamma_tilde: np.ndarray
    b_tilde: np.ndarray
    gamma_hat: np.ndarray
    b_hat: np.ndarray
    h: np.ndarray  # 2 Gt^T Gt
    d: np.ndarray  # -2 Gt^T bt
    h_pinv: np.ndarray
    dual_matrix: np.ndarray  # -Gh H^+ Gh^T, negative semidefinite
    dual_linear: np.ndarray  # bh + Gh H^+ d
    constant: float  # bt^T bt


@dataclass(frozen=True)
class QpResult:
    """Dual multipliers, recovered primal point, and KKT residuals."""

    mu: np.ndarray
    u: np.ndarray
    objective: float  # ||Gt u - bt||_2
    stationarity_residual: float
    primal_feasibility_violation: float
    complementary_slackness: float


def build_qp(
    gamma_tilde: np.ndarray,
    b_tilde: np.ndarray,
    gamma_hat: np.ndarray,
    b_hat: np.ndarray,
) -> QpProblem:
    gt = np.atleast_2d(np.asarray(gamma_tilde, dtype=float))
    bt = np.atleast_1d(np.asarray(b_tilde, dtype=float))
    gh = np.atleast_2d(np.asarray(gamma_hat, dtype=float))
    bh = np.atleast_1d(np.asarray(b_hat, dtype=float))
    if gt.shape[0] < 1 or gh.shape[0] < 1:
        raise UsageError("fallback problem needs at least one player and one seeker row")
    if gt.shape[1] != gh.shape[1]:
        raise UsageError("player and seeker rows must have matching width")

    h = 2.0 * gt.T @ gt
    d = -2.0 * gt.T @ bt
    h_pinv = np.linalg.pinv(h, rcond=PINV_RCOND, hermitian=True)
    dual_matrix = -(gh @ h_pinv @ gh.T)
    dual_matrix = 0.5 * (dual_matrix + dual_matrix.T)
    dual_linear = bh + gh @ h_pinv @ d
    return QpProblem(
        gamma_tilde=gt,
        b_tilde=bt,
        gamma_hat=gh,
        b_hat=bh,
        h=h,
        d=d,
        h_pinv=h_pinv,
        dual_matrix=dual_matrix,
        dual_linear=dual_linear,
        constant=float(bt @ bt),
    )


def build_qp_from_stack(system: ChannelSystem) -> QpProblem:
    """The fallback problem of a system: its player rows are the objective,
    its seeker rows the constraints."""
    p = system.is_player
    return build_qp(system.A[p], system.b[p], system.A[~p], system.b[~p])


def dual_objective(qp: QpProblem, mu: np.ndarray) -> float:
    """Dual value at mu, on the scale of the squared primal objective."""
    mu = np.asarray(mu, dtype=float)
    const = qp.constant - 0.5 * float(qp.d @ qp.h_pinv @ qp.d)
    return (
        0.5 * float(mu @ qp.dual_matrix @ mu) + float(qp.dual_linear @ mu) + const
    )


def solve_dual(
    qp: QpProblem, tol: float = 1e-8, max_iter: int = 10000, on_step=None
) -> np.ndarray:
    """Projected gradient ascent on the dual with backtracking line search.

    Convergence test is the fixed-point residual of the projection map at
    the final step size. An unbounded dual (the restricted primal has no
    feasible point) runs into the iteration cap and raises, carrying the
    last iterate. on_step, when given, receives (mu, dual value) once per
    accepted iterate.
    """
    n = qp.dual_matrix.shape[0]
    mu = np.zeros(n)
    lip = float(np.linalg.norm(qp.dual_matrix, 2))
    eta = 1.0 / lip if lip > 0 else 1.0
    value = dual_objective(qp, mu)
    if on_step is not None:
        on_step(mu.copy(), value)

    for _ in range(max_iter):
        grad = qp.dual_matrix @ mu + qp.dual_linear
        candidate = np.maximum(mu + eta * grad, 0.0)
        cand_value = dual_objective(qp, candidate)
        while cand_value < value - 1e-15 * (1.0 + abs(value)) and eta > 1e-300:
            eta *= 0.5
            candidate = np.maximum(mu + eta * grad, 0.0)
            cand_value = dual_objective(qp, candidate)
        if float(np.max(np.abs(candidate - mu))) <= tol:
            if on_step is not None:
                on_step(candidate.copy(), cand_value)
            return candidate
        mu = candidate
        value = cand_value
        if on_step is not None:
            on_step(mu.copy(), value)
        eta *= 1.25  # re-expand so backtracking tracks the local curvature
        if lip > 0:
            eta = min(eta, 1.0 / lip)
    raise ConvergenceError(
        f"dual ascent did not meet tol={tol} within {max_iter} iterations",
        last=mu,
    )


def recover_primal(qp: QpProblem, mu: np.ndarray) -> QpResult:
    """Primal point from the stationarity condition, with KKT residuals.

    The stationarity residual is projected onto the range of H: the
    component in the null space is not controlled by the pseudoinverse
    recovery and is reported through the feasibility violation instead.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise UsageError("dual multipliers must be nonnegative")
    rhs = qp.d - qp.gamma_hat.T @ mu
    u = -(qp.h_pinv @ rhs)

    stat = qp.h @ u + qp.d - qp.gamma_hat.T @ mu
    stat_range = qp.h @ (qp.h_pinv @ stat)  # projection onto range(H)
    slack = qp.gamma_hat @ u - qp.b_hat
    return QpResult(
        mu=mu,
        u=u,
        objective=float(np.linalg.norm(qp.gamma_tilde @ u - qp.b_tilde)),
        stationarity_residual=float(np.max(np.abs(stat_range))),
        primal_feasibility_violation=float(max(0.0, np.max(-slack))),
        complementary_slackness=float(np.max(np.abs(mu * slack))),
    )


def solve_qp(
    system: ChannelSystem, tol: float = 1e-8, max_iter: int = 10000
) -> QpResult:
    """Build, solve the dual, and recover the primal in one call."""
    qp = build_qp_from_stack(system)
    mu = solve_dual(qp, tol=tol, max_iter=max_iter)
    return recover_primal(qp, mu)
