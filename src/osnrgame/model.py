"""Allocation-problem data: roles, OSNR evaluation, player cost, and the
channel-ordered linear system.

Channel powers are plain float ndarrays (mW). A power vector may carry
negative entries: the solvers work on affine systems and flag negativity
downstream instead of clamping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import EvaluationError, SingularMatrixError, UsageError, ValidationError
from .link import SystemMatrix, linear_to_db

SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class PlayerParams:
    """Game-player parameters: power price, OSNR-desire weight, channel parameter."""

    alpha: float
    beta: float
    a: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValidationError("alpha must be > 0")
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")
        if self.a <= 0:
            raise ValidationError("a must be > 0")


@dataclass(frozen=True)
class SeekerParams:
    """Target-seeker parameter: required OSNR as a linear ratio."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
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

    @property
    def players(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if isinstance(r, PlayerParams)]

    @property
    def seekers(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if isinstance(r, SeekerParams)]

    @property
    def m(self) -> int:
        return len(self.players)

    @property
    def n(self) -> int:
        return len(self.seekers)


@dataclass(frozen=True)
class ChannelSystem:
    """The allocation problem as one linear system A u = b, one row per
    channel in channel order.

    A player's row is its first-order condition: a_i on the diagonal,
    Gamma_ij off it, b_i = a_i beta_i / alpha_i - n0_i. A seeker's row is its
    target equation: 1 - gamma_i Gamma_ii on the diagonal, -gamma_i Gamma_ij
    off it, b_i = gamma_i n0_i. The player and seeker blocks are the row
    selections A[is_player] and A[~is_player]. A is factored at most once;
    the factors are cached on the system.
    """

    A: np.ndarray
    b: np.ndarray
    is_player: np.ndarray

    @property
    def size(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.is_player))

    @property
    def n(self) -> int:
        return self.size - self.m

    @cached_property
    def _lu(self) -> tuple[tuple | None, float]:
        """LU factors of A, or None when the smallest pivot falls under the
        singularity threshold, and that pivot."""
        norm = np.linalg.norm(self.A, np.inf)
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

    def lu(self) -> tuple:
        """The LU factors of A; raises SingularMatrixError when A is
        numerically singular."""
        factors, smallest = self._lu
        if factors is None:
            raise SingularMatrixError(
                f"system matrix is numerically singular (smallest pivot {smallest:.3e})",
                smallest_pivot=smallest,
            )
        return factors


def osnr(u: np.ndarray, sys: SystemMatrix, i: int) -> float:
    """Signal-to-noise ratio of channel i: u_i over transmitter noise plus
    all coupled powers (the self term included)."""
    u = np.asarray(u, dtype=float)
    den = sys.n0[i] + float(np.dot(sys.gamma[i], u))
    if den <= 0:
        raise EvaluationError(
            f"channel {i}: non-positive OSNR denominator {den}", channel=i
        )
    return float(u[i]) / den


def osnr_all(u: np.ndarray, sys: SystemMatrix) -> np.ndarray:
    """Every channel's OSNR from one matrix-vector product."""
    u = np.asarray(u, dtype=float)
    return osnr_from_coupled(u, sys.gamma @ u, sys)


def osnr_from_coupled(u: np.ndarray, coupled: np.ndarray, sys: SystemMatrix) -> np.ndarray:
    """Every channel's OSNR given the coupled powers Gamma u; raises at the
    first channel whose denominator n0_i + (Gamma u)_i is not positive."""
    den = sys.n0 + coupled
    bad = np.flatnonzero(den <= 0)
    if bad.size:
        i = int(bad[0])
        raise EvaluationError(
            f"channel {i}: non-positive OSNR denominator {den[i]}", channel=i
        )
    return u / den


def osnr_db(u: np.ndarray, sys: SystemMatrix, i: int) -> float:
    val = osnr(u, sys, i)
    if val <= 0:
        raise EvaluationError(f"channel {i}: non-positive OSNR {val}", channel=i)
    return linear_to_db(val)


def interference(u: np.ndarray, sys: SystemMatrix, i: int) -> float:
    """Noise seen by channel i excluding its own coupled power."""
    u = np.asarray(u, dtype=float)
    return sys.n0[i] + float(np.dot(sys.gamma[i], u)) - sys.gamma[i, i] * float(u[i])


def player_cost(i: int, u: np.ndarray, sys: SystemMatrix, params: PlayerParams) -> float:
    """Pricing-minus-utility cost of a game player at the power profile u."""
    x = interference(u, sys, i)
    if x <= 0:
        raise EvaluationError(f"channel {i}: non-positive interference {x}", channel=i)
    arg = 1.0 + params.a * float(u[i]) / x
    if arg <= 0:
        raise EvaluationError(f"channel {i}: non-positive log argument {arg}", channel=i)
    return params.alpha * float(u[i]) - params.beta * math.log(arg)


def assemble(sys: SystemMatrix, partition: ServicePartition) -> ChannelSystem:
    """Build the channel-ordered system: a first-order row per player and a
    target row per seeker."""
    n_ch = sys.size
    if partition.size != n_ch:
        raise UsageError(
            f"partition covers {partition.size} channels, matrix has {n_ch}"
        )
    g_ii = np.diag(sys.gamma)
    # per channel: (row scale of Gamma, diagonal entry, right-hand side)
    rows = [
        (1.0, r.a, r.a * r.beta / r.alpha - sys.n0[i])
        if isinstance(r, PlayerParams)
        else (-r.gamma, 1.0 - r.gamma * g_ii[i], r.gamma * sys.n0[i])
        for i, r in enumerate(partition.roles)
    ]
    scale, diag, b = (np.array(col, dtype=float) for col in zip(*rows))
    a_mat = scale[:, None] * sys.gamma
    a_mat[np.diag_indices(n_ch)] = diag
    is_player = np.array([isinstance(r, PlayerParams) for r in partition.roles])
    for arr in (a_mat, b, is_player):
        arr.flags.writeable = False  # the cached factorization must stay valid
    return ChannelSystem(A=a_mat, b=b, is_player=is_player)
