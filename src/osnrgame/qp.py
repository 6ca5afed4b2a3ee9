"""Least-squares fallback for target sets the equality system cannot meet.

Minimizes the player residual ||Gt u - bt|| subject to the seeker rows
Gh u >= bh and returns the minimum-norm minimizer. Either block may be
empty: with no seeker rows this is minimum-norm least squares, and with no
player rows it is least-distance programming, min ||u|| s.t. Gh u >= bh.

When A is nonsingular, u* = A^-1 b meets every row with equality, so the
least residual is 0 and u* is the answer exactly when the multipliers
w = A^-T (2 u*) of min ||u|| s.t. Gt u = bt, Gh u >= bh are >= 0 on the
seeker rows: KKT conditions suffice for a convex problem (Nocedal & Wright,
Numerical Optimization, 2006, sections 12.5 and 16.5). One transposed solve
on the cached factors checks this. When it fails, or A is singular, the
answer comes from a finite method (Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23):
1. NNLS on [Gh^T; bh^T] solves min ||u|| s.t. Gh u >= bh, a feasible start,
   or yields y >= 0 with Gh^T y = 0 and bh . y > 0 (raised as InfeasibleError).
2. A primal active-set pass from that start reaches the least residual.
3. The same pass on ||u|| over null(Gt) from that optimum picks the
   minimum-norm point of the optimal set.
The multipliers belong to the squared objective: 2 Gt^T (Gt u - bt) = Gh^T mu.
Singular values are cut at RANK_RTOL relative to row norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, UsageError
from .model import ChannelSystem

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class QpProblem:
    """Player rows (the objective) and seeker rows (the constraints)."""

    gamma_tilde: np.ndarray
    b_tilde: np.ndarray
    gamma_hat: np.ndarray
    b_hat: np.ndarray


@dataclass(frozen=True)
class LeastResidual:
    """Seeker multipliers, a least-residual point, the seeker rows held there."""

    mu: np.ndarray
    u: np.ndarray
    working: np.ndarray  # bool mask over the seeker rows


@dataclass(frozen=True)
class QpResult:
    """Multipliers, the minimum-norm minimizer, KKT residuals, and the route
    that found the minimizer: "kkt" when the multipliers at u* = A^-1 b
    certified it, "active_set" when the search ran.

    mu holds the seeker multipliers of the squared objective. On the "kkt"
    route the residual is 0, so stationarity reads 0 = Gh^T mu and mu is 0.
    On the "active_set" route mu is what step 2 found.
    """

    mu: np.ndarray
    u: np.ndarray
    objective: float  # ||Gt u - bt||_2
    stationarity_residual: float
    primal_feasibility_violation: float
    complementary_slackness: float
    route: str


def build_qp(gamma_tilde, b_tilde, gamma_hat, b_hat) -> QpProblem:
    gt = np.atleast_2d(np.asarray(gamma_tilde, dtype=float))
    bt = np.atleast_1d(np.asarray(b_tilde, dtype=float))
    gh = np.atleast_2d(np.asarray(gamma_hat, dtype=float))
    bh = np.atleast_1d(np.asarray(b_hat, dtype=float))
    if gt.shape[1] != gh.shape[1]:
        raise UsageError("player and seeker rows must have matching width")
    return QpProblem(gamma_tilde=gt, b_tilde=bt, gamma_hat=gh, b_hat=bh)


def build_qp_from_stack(system: ChannelSystem) -> QpProblem:
    """The fallback problem of a system: its player rows are the objective,
    its seeker rows the constraints."""
    p = system.is_player
    return build_qp(system.A[p], system.b[p], system.A[~p], system.b[~p])


def _lstsq(a: np.ndarray, rhs: np.ndarray, cutoff: float) -> np.ndarray:
    """Minimum-norm least-squares solution; singular values <= cutoff count as 0."""
    left, sv, vt = np.linalg.svd(a, full_matrices=False)
    keep = sv > cutoff
    return vt[keep].T @ ((left[:, keep].T @ rhs) / sv[keep])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    return np.where(norms > 0.0, norms, 1.0)


def _active_set(m, c, g, h, x, working, on_step):
    """Primal active-set method for min ||m x - c|| s.t. g x >= h (rows of
    g of norm <= 1) from a feasible x with the rows `working` at equality.
    Each step is the minimum-norm least-squares step on the null space of
    the working rows, cut short at the first row it would cross; then the
    row with the most negative multiplier leaves, and may not block the next
    step, so rounding cannot put it straight back. Returns x, the working
    mask and the multipliers of ||m x - c||^2."""
    working, left_row = working.copy(), -1
    cutoff = RANK_RTOL * float(np.max(np.linalg.norm(m, axis=1), initial=0.0))
    scale = float(np.linalg.norm(m) * (np.linalg.norm(m @ x) + np.linalg.norm(c)))
    lam_tol = 20.0 * np.finfo(float).eps * max(m.shape) * scale
    while True:
        left, sv, vt = np.linalg.svd(g[working], full_matrices=True)
        rank = int(np.sum(sv > RANK_RTOL))
        p = vt[rank:].T @ _lstsq(m @ vt[rank:].T, c - m @ x, cutoff)
        gp = g @ p
        block = np.flatnonzero(~working & (gp < -RANK_RTOL * float(np.linalg.norm(p))))
        block = block[block != left_row]
        ratios = np.maximum(g[block] @ x - h[block], 0.0) / -gp[block]
        step = float(np.min(ratios, initial=1.0))
        x, left_row = x + step * p, -1
        residual = m @ x - c
        on_step(x.copy(), float(np.linalg.norm(residual)))
        if step < 1.0:
            working[block[np.argmin(ratios)]] = True
            continue
        lam = np.zeros(g.shape[0])
        lam[working] = left[:, :rank] @ ((vt[:rank] @ (2.0 * m.T @ residual)) / sv[:rank])
        if not np.any(lam < -lam_tol):
            return x, working, np.maximum(lam, 0.0)
        left_row = int(np.argmin(lam))
        working[left_row] = False


def solve_dual(qp: QpProblem, on_step=None) -> LeastResidual:
    """Steps 1 and 2. Raises InfeasibleError, with the Farkas certificate,
    when no power vector meets the seeker rows. on_step, when given,
    receives (point, value) at the start and after every step: the NNLS
    multipliers with the NNLS residual, then u with the objective."""
    hook = on_step if on_step is not None else (lambda x, value: None)
    gh, bh = qp.gamma_hat, qp.b_hat
    rho = _row_norms(gh)
    g, h = gh / rho[:, None], bh / rho
    f = np.r_[np.zeros(gh.shape[1]), 1.0]
    e = np.vstack([g.T, h])
    # Lawson-Hanson NNLS is this active-set method on the bounds y >= 0;
    # it starts at y = 0 with every entry free (Bro & de Jong's all-passive start)
    y = np.zeros(gh.shape[0])
    hook(y.copy(), 1.0)  # ||e y - f|| = ||f||
    y, at_zero, _ = _active_set(e, f, np.eye(y.size), y, y, np.zeros(y.size, dtype=bool), hook)
    y = np.where(at_zero, 0.0, np.maximum(y, 0.0))
    r = e @ y - f
    cert = y / rho
    if bh @ cert > 0.0 and np.max(np.abs(r[:-1])) <= RANK_RTOL * np.sum(cert) * np.max(np.abs(gh)):
        raise InfeasibleError("no power vector meets the seeker targets", certificate=cert)
    u, working, lam = _active_set(qp.gamma_tilde, qp.b_tilde, g, h, -r[:-1] / r[-1], ~at_zero, hook)
    return LeastResidual(mu=lam / rho, u=u, working=working)


def recover_primal(qp: QpProblem, least: LeastResidual) -> QpResult:
    """Step 3, with KKT residuals. The optimal set is the feasible part of
    {u : Gt u = Gt u*}. With N an orthonormal basis of null(Gt), u = u* + N z
    and ||u||^2 = ||z + N^T u*||^2 + const, minimized from z = 0."""
    mu = np.asarray(least.mu, dtype=float)
    if np.any(mu < 0):
        raise UsageError("dual multipliers must be nonnegative")
    gt, gh, bh = qp.gamma_tilde, qp.gamma_hat, qp.b_hat
    _, sv, vt = np.linalg.svd(gt / _row_norms(gt)[:, None], full_matrices=True)
    null = vt[int(np.sum(sv > RANK_RTOL)):].T
    u, rho, d = np.asarray(least.u, dtype=float), _row_norms(gh), null.shape[1]
    z, _, _ = _active_set(
        np.eye(d), -null.T @ u, (gh @ null) / rho[:, None], (bh - gh @ u) / rho,
        np.zeros(d), least.working, lambda x, value: None,
    )
    return _result(qp, mu, u + null @ z, "active_set")


def _result(qp: QpProblem, mu: np.ndarray, u: np.ndarray, route: str) -> QpResult:
    """A minimizer with its multipliers and KKT residuals."""
    gt, bt, gh, bh = qp.gamma_tilde, qp.b_tilde, qp.gamma_hat, qp.b_hat
    shortfall = bh - gh @ u  # +0.0 on a row met exactly, so no -0.0 is reported
    return QpResult(
        mu=mu,
        u=u,
        objective=float(np.linalg.norm(gt @ u - bt)),
        stationarity_residual=float(np.max(np.abs(2.0 * gt.T @ (gt @ u - bt) - gh.T @ mu))),
        primal_feasibility_violation=float(np.max(shortfall, initial=0.0)),
        complementary_slackness=float(np.max(np.abs(mu * shortfall), initial=0.0)),
        route=route,
    )


def solve_qp(system: ChannelSystem) -> QpResult:
    """Certify u* = A^-1 b on the cached factors, or search through all
    three steps. Either class may be empty (see the module notes)."""
    qp = build_qp_from_stack(system)
    if system.nonsingular:
        u = system.equality_solution()
        if np.all(system.solve(2.0 * u, trans=1)[~system.is_player] >= 0.0):
            return _result(qp, np.zeros(system.n), u, "kkt")
    return recover_primal(qp, solve_dual(qp))
