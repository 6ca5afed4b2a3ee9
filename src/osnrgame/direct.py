"""Direct solution of the mixed allocation problem.

Feasibility analysis (diagonal dominance and the contraction factor read
off the system matrix), the one-shot linear solve of the channel-ordered
system, residual verification, and the condition-number power bounds, which
`check` reports before anything is solved. The feasibility check shares the
one LU factorization cached on the system with the solve or with the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import iterate as iterate_mod
from .errors import EvaluationError
from .model import ChannelSystem, osnr, to_db


@dataclass(frozen=True)
class FeasibilityReport:
    """Row-by-row dominance conditions, nonsingularity and the contraction factor."""

    # per channel: a player's a_i > sum_{j!=i} Gamma_ij, a seeker's
    # gamma_i sum_j Gamma_ij < 1
    condition: np.ndarray
    nonsingular: bool
    # |diag| - off-diagonal abs sum, players then seekers: the one per-channel
    # array outside channel order, which perfbench/reference.py checks
    margins: np.ndarray
    # the Jacobi contraction factor; under 1 exactly when every margin is
    # positive (A strictly diagonally dominant), inf when A has a 0 diagonal
    sigma: float


@dataclass(frozen=True)
class BoundsReport:
    """Power bounds from the condition number of the system matrix.

    The inf-norm bounds are guaranteed to bracket the solution only when
    preconditions_hold (player row sums exceed seeker row sums and player
    right-hand sides exceed seeker right-hand sides) on top of strict
    diagonal dominance. upper_inf is None when there are no players.
    """

    preconditions_hold: bool
    lower_inf: float
    upper_inf: float | None
    kappa_inf: float


@dataclass(frozen=True)
class Solution:
    """A solved power allocation plus its verification residuals."""

    u: np.ndarray
    osnr: np.ndarray
    osnr_db: np.ndarray
    seeker_residuals: np.ndarray  # relative |OSNR_i - gamma_i| / gamma_i
    player_foc_residuals: np.ndarray  # |a_i u_i + X_{-i} - a_i beta_i / alpha_i|
    nonnegative: bool  # False: the two-person nonnegativity condition on the price fails


def check_feasibility(system: ChannelSystem) -> FeasibilityReport:
    """Evaluate the per-row dominance hypotheses, factorization-based
    nonsingularity and contraction factor of the system. Always returns a report."""
    diag = system.diagonal
    off = system.abs_row_sums - np.abs(diag)
    p = system.is_player
    margins = np.abs(diag) - off
    return FeasibilityReport(
        # a seeker row holds its condition exactly when 1 - gamma_i Gamma_ii
        # beats its off-diagonal sum, a player row when a_i does
        condition=diag - off > 0,
        nonsingular=system.nonsingular,
        margins=np.concatenate([margins[p], margins[~p]]),
        sigma=iterate_mod.convergence_rate(system),
    )


def verify(u: np.ndarray, system: ChannelSystem) -> Solution:
    """Package a power vector with its OSNR values, verification residuals
    against the coupling matrix and roles the system was assembled from, and
    whether every power is nonnegative; raises EvaluationError at the first
    channel whose OSNR denominator is not positive."""
    u = np.asarray(u, dtype=float)
    sys = system.matrix
    coupled = sys.gamma @ u
    osnr_vals = osnr(u, sys, coupled)
    bad = np.flatnonzero(np.isnan(osnr_vals))
    if bad.size:
        i = int(bad[0])
        raise EvaluationError(
            f"channel {i + 1}: non-positive OSNR denominator {sys.n0[i] + coupled[i]}", channel=i
        )

    p = system.is_player
    targets = system.partition.targets
    seeker_res = np.abs(osnr_vals[~p] - targets) / targets
    # a player row of A u is (Gamma u)_i with Gamma_ii swapped for a_i
    rows = coupled + (system.diagonal - np.diag(sys.gamma)) * u
    foc_res = np.abs(rows - system.b)[p]

    return Solution(
        u=u,
        osnr=osnr_vals,
        osnr_db=to_db(osnr_vals),
        seeker_residuals=seeker_res,
        player_foc_residuals=foc_res,
        nonnegative=bool(np.all(u >= 0)),
    )


def solve_dsnp(system: ChannelSystem) -> Solution:
    """Solve the system directly and verify the solution. All-seeker and
    all-player partitions give the central-cost and Nash-equilibrium special
    cases.
    """
    return verify(system.equality_solution(), system)


def power_bounds(system: ChannelSystem) -> BoundsReport:
    """Bracket the max allocated power via the inf-norm condition number.

    T_i (player absolute row sums) must exceed S_k = 2 (1 - gamma_k Gamma_kk)
    (seeker row-sum bound) and the player right-hand sides must exceed the
    seeker ones for the bracket to be guaranteed; the report always carries
    the numbers. The inverse comes from the cached factors, so kappa is exact.
    """
    b, p, diag = system.b, system.is_player, system.diagonal
    players, seekers = system.m > 0, system.n > 0
    pre = True
    if players and seekers:
        t_min = system.abs_row_sums[p].min()
        pre = bool(t_min > 2.0 * diag[~p].max() and b[p].min() > b[~p].max())

    inv = system.solve(np.eye(system.size))
    kappa = float(system.abs_row_sums.max() * np.linalg.norm(inv, np.inf))

    lower = 0.0
    if seekers and players:
        lower = float(b[~p].max() / (2.0 * diag[p].max()))
    upper = None
    if players:
        alpha, beta, _ = system.partition.player_columns
        upper = kappa * float(np.max(beta / alpha))

    return BoundsReport(preconditions_hold=pre, lower_inf=lower, upper_inf=upper, kappa_inf=kappa)
