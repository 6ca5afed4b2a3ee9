"""Allocation-problem data: roles, the OSNR, and the channel-ordered
linear system.

Channel powers are plain float ndarrays (mW). A power vector may carry
negative entries: the solvers work on affine systems and flag negativity
downstream instead of clamping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import SingularMatrixError, UsageError, ValidationError
from .link import SystemMatrix

SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class PlayerParams:
    """Game-player parameters: power price, OSNR-desire weight, channel parameter."""

    alpha: float
    beta: float
    a: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValidationError("alpha must be > 0")
        if not self.beta >= 0:
            raise ValidationError("beta must be >= 0")
        if not self.a > 0:
            raise ValidationError("a must be > 0")


@dataclass(frozen=True)
class SeekerParams:
    """Target-seeker parameter: required OSNR as a linear ratio."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValidationError("gamma must be > 0")


@dataclass(frozen=True)
class ServicePartition:
    """Per-channel role assignment over the global channel order."""

    roles: tuple[PlayerParams | SeekerParams, ...]

    def __post_init__(self):
        for r in self.roles:
            if not isinstance(r, (PlayerParams, SeekerParams)):
                raise ValidationError(f"unknown role object {r!r}")

    @property
    def size(self) -> int:
        return len(self.roles)

    @cached_property
    def is_player(self) -> np.ndarray:
        """True on each player's channel, in channel order."""
        return _frozen(np.array([isinstance(r, PlayerParams) for r in self.roles], dtype=bool))

    @cached_property
    def player_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """alpha, beta and a of the players, in channel order."""
        params = [(r.alpha, r.beta, r.a) for r in self.roles if isinstance(r, PlayerParams)]
        return tuple(_frozen(col) for col in np.array(params, dtype=float).reshape(-1, 3).T)

    @cached_property
    def targets(self) -> np.ndarray:
        """The seekers' target OSNRs (linear), in channel order."""
        return _frozen(np.array(
            [r.gamma for r in self.roles if not isinstance(r, PlayerParams)], dtype=float
        ))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False  # cached arrays must not change under their owner
    return arr


@dataclass(frozen=True)
class ChannelSystem:
    """The allocation problem as one linear system A u = b, one row per
    channel in channel order.

    A player's row is its first-order condition: a_i on the diagonal,
    Gamma_ij off it, b_i = a_i beta_i / alpha_i - n0_i. A seeker's row is its
    target equation: 1 - gamma_i Gamma_ii on the diagonal, -gamma_i Gamma_ij
    off it, b_i = gamma_i n0_i. The player and seeker blocks are the row
    selections A[is_player] and A[~is_player]. matrix and partition are the
    inputs the system was assembled from. A is factored at most once; the
    factors are cached on the system, as are its diagonal and its absolute
    row sums.
    """

    A: np.ndarray
    b: np.ndarray
    matrix: SystemMatrix
    partition: ServicePartition

    @property
    def size(self) -> int:
        return self.A.shape[0]

    @property
    def is_player(self) -> np.ndarray:  # the partition's mask: True on each player's row
        return self.partition.is_player

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.is_player))

    @property
    def n(self) -> int:
        return self.size - self.m

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The diagonal of A: a_i on a player's row, 1 - gamma_i Gamma_ii on
        a seeker's."""
        return _frozen(np.diag(self.A))

    @cached_property
    def abs_row_sums(self) -> np.ndarray:
        """sum_j |A_ij| for each row i: the dominance conditions, the
        contraction factor and the inf-norm of A all read it."""
        return _frozen(np.abs(self.A).sum(axis=1))

    @cached_property
    def _lu(self) -> tuple[tuple | None, float]:
        """LU factors of A, or None when the smallest pivot falls under the
        singularity threshold, and that pivot."""
        norm = self.abs_row_sums.max()
        with warnings.catch_warnings():
            # singular input is diagnosed via the pivot test below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(self.A)
        smallest = float(np.min(np.abs(np.diag(lu))))
        if norm == 0 or smallest < SINGULARITY_RTOL * norm:
            return None, smallest
        return (lu, piv), smallest

    @property
    def nonsingular(self) -> bool:
        return self._lu[0] is not None

    def solve(self, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        """A x = rhs (trans=1: A^T x = rhs) on the cached LU factors; raises
        SingularMatrixError when A is numerically singular."""
        factors, smallest = self._lu
        if factors is None:
            raise SingularMatrixError(
                f"system matrix is numerically singular (smallest pivot {smallest:.3e})",
                smallest_pivot=smallest,
            )
        return scipy.linalg.lu_solve(factors, rhs, trans=trans)

    def equality_solution(self) -> np.ndarray:
        """u* = A^-1 b, with one step of iterative refinement to keep the
        relative residual well under the verification tolerances."""
        u = self.solve(self.b)
        return u + self.solve(self.b - self.A @ u)


def osnr(u: np.ndarray, sys: SystemMatrix, coupled: np.ndarray | None = None) -> np.ndarray:
    """Every channel's OSNR u_i / (n0_i + (Gamma u)_i), the self term
    included; NaN where the denominator is not positive. coupled is Gamma u
    when the caller already has it. Whoever calls decides what a NaN means."""
    u = np.asarray(u, dtype=float)
    den = sys.n0 + (sys.gamma @ u if coupled is None else coupled)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, u / den, np.nan)


def to_db(ratio: np.ndarray) -> np.ndarray:
    """10 log10 of each ratio; NaN where the ratio is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ratio > 0, 10.0 * np.log10(ratio), np.nan)


def assemble(sys: SystemMatrix, partition: ServicePartition) -> ChannelSystem:
    """Build the channel-ordered system: a first-order row per player and a
    target row per seeker."""
    n_ch = sys.size
    if partition.size != n_ch:
        raise UsageError(
            f"partition covers {partition.size} channels, matrix has {n_ch}"
        )
    p = partition.is_player
    alpha, beta, a = partition.player_columns
    target = partition.targets
    g_ii, n0 = np.diag(sys.gamma), sys.n0
    # per channel: the row scale of Gamma, the diagonal entry, the right-hand side
    scale, diag, b = np.ones(n_ch), np.empty(n_ch), np.empty(n_ch)
    with np.errstate(all="ignore"):  # an overflow is reported by the check below
        scale[~p] = -target
        diag[p], diag[~p] = a, 1.0 - target * g_ii[~p]
        b[p], b[~p] = a * beta / alpha - n0[p], target * n0[~p]
    a_mat = scale[:, None] * sys.gamma
    a_mat[np.diag_indices(n_ch)] = diag
    # finite inputs can still overflow here, say a huge beta or target
    finite = np.isfinite(b) & np.isfinite(a_mat).all(axis=1)
    if not finite.all():
        first = np.flatnonzero(~finite)[0] + 1
        raise ValidationError(f"channel {first}: its row of A u = b is not finite")
    for arr in (a_mat, b):
        arr.flags.writeable = False  # the cached factorization must stay valid
    return ChannelSystem(A=a_mat, b=b, matrix=sys, partition=partition)
