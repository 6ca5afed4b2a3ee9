"""Distributed synchronous power updates driven by measured OSNR.

All channels update simultaneously from the same previous power vector, so
a step is order independent and matches the contraction argument that
bounds the error by the worst row ratio. Players move toward their
first-order condition; seekers rescale toward their target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DivergenceError, EvaluationError, NegativePowerError, ValidationError
from .link import SystemMatrix
from .model import PlayerParams, SeekerParams, ServicePartition, osnr

DIVERGENCE_LIMIT_MW = 1e12


@dataclass(frozen=True)
class IterationConfig:
    u0: np.ndarray
    tol: float = 1e-8
    max_iter: int = 10000
    record_trace: bool = True
    strict_nonnegative: bool = False

    def __post_init__(self):
        object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float))
        if self.tol <= 0:
            raise ValidationError("tol must be > 0")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


@dataclass
class IterationTrace:
    iterates: list[np.ndarray] = field(default_factory=list)
    osnr_db_history: list[np.ndarray] = field(default_factory=list)
    error_history: list[float] = field(default_factory=list)
    contraction_ratios: list[float | None] = field(default_factory=list)
    negative_steps: list[int] = field(default_factory=list)
    converged_at: int | None = None
    final: np.ndarray | None = None


def player_update(
    u_i: float, inv_osnr: float, gamma_ii: float, beta_over_alpha: float, a: float
) -> float:
    """One player step; also the algebraic carrier of the seeker update."""
    return beta_over_alpha - (1.0 / a) * (inv_osnr - gamma_ii) * u_i


def seeker_update(u_i: float, inv_osnr: float, gamma_ii: float, gamma: float) -> float:
    denom = 1.0 - gamma * gamma_ii
    if denom == 0.0:
        raise EvaluationError("singular seeker update: target times self-coupling is 1")
    return (gamma / denom) * (inv_osnr - gamma_ii) * u_i


@dataclass(frozen=True)
class EquivalentPlayerUpdate:
    """Player-shaped coefficients reproducing a seeker update.

    The channel parameter comes out negative for realistic targets, so this
    is an algebraic identity for the update map, not a valid game role.
    """

    beta_over_alpha: float
    a: float


def seeker_equivalence_params(gamma: float, gamma_ii: float) -> EquivalentPlayerUpdate:
    if gamma <= 0:
        raise ValidationError("target ratio must be > 0")
    return EquivalentPlayerUpdate(beta_over_alpha=0.0, a=gamma_ii - 1.0 / gamma)


def step(u: np.ndarray, sys: SystemMatrix, partition: ServicePartition) -> np.ndarray:
    """One synchronous update of every channel from the same power vector."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    for i, role in enumerate(partition.roles):
        inv_osnr = 1.0 / osnr(u, sys, i)
        gamma_ii = sys.gamma[i, i]
        if isinstance(role, PlayerParams):
            out[i] = player_update(
                u[i], inv_osnr, gamma_ii, role.beta / role.alpha, role.a
            )
        else:
            out[i] = seeker_update(u[i], inv_osnr, gamma_ii, role.gamma)
    return out


def convergence_rate(sys: SystemMatrix, partition: ServicePartition) -> float:
    """Worst-row contraction factor of the update map."""
    sigma = 0.0
    for i, role in enumerate(partition.roles):
        off = float(sys.gamma[i].sum() - sys.gamma[i, i])
        if isinstance(role, PlayerParams):
            sigma = max(sigma, off / role.a)
        else:
            denom = 1.0 - role.gamma * sys.gamma[i, i]
            if denom == 0.0:
                raise EvaluationError(
                    "singular rate denominator: target times self-coupling is 1"
                )
            sigma = max(sigma, role.gamma * off / abs(denom))
    return sigma


def trace_osnr_db(u: np.ndarray, sys: SystemMatrix) -> np.ndarray:
    """Every channel's OSNR in dB, NaN where the denominator or the ratio is
    not positive, as transient iterates can be; raising is left to the update."""
    den = sys.n0 + sys.gamma @ u
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0, u / den, np.nan)
        return np.where(ratio > 0, 10.0 * np.log10(ratio), np.nan)


def run(
    config: IterationConfig,
    sys: SystemMatrix,
    partition: ServicePartition,
    reference: np.ndarray | None = None,
) -> IterationTrace:
    """Iterate until the successive difference drops under tol.

    An iterate that is not finite, or whose largest power passes
    DIVERGENCE_LIMIT_MW, raises DivergenceError with the trace so far.

    When a direct solution is supplied, the trace carries error norms
    against it and the observed per-step contraction ratios.
    """
    eps = np.finfo(float).eps
    eps_floor = 10.0 * eps
    if reference is not None:
        # ratios are meaningful only while the error is well above the
        # rounding resolution of the reference; past that point the measured
        # quotient drifts toward 1 regardless of the true contraction factor
        ref_scale = 1.0 + float(np.max(np.abs(reference)))
        eps_floor = max(eps_floor, 100.0 * np.sqrt(eps) * ref_scale)
    trace = IterationTrace()
    u = np.asarray(config.u0, dtype=float).copy()

    def record(vec: np.ndarray, step_idx: int):
        if config.record_trace:
            trace.iterates.append(vec.copy())
            trace.osnr_db_history.append(trace_osnr_db(vec, sys))
        if reference is not None:
            err = float(np.max(np.abs(vec - reference)))
            if trace.error_history:
                prev = trace.error_history[-1]
                trace.contraction_ratios.append(
                    err / prev if prev > eps_floor else None
                )
            trace.error_history.append(err)
        if np.any(vec < 0):
            trace.negative_steps.append(step_idx)
            if config.strict_nonnegative:
                raise NegativePowerError(
                    f"negative power at step {step_idx}", step=step_idx, u=vec
                )
            if step_idx > 0:
                warnings.warn(
                    f"iterate {step_idx} has negative power components", stacklevel=3
                )

    record(u, 0)
    for k in range(1, config.max_iter + 1):
        u_next = step(u, sys, partition)
        record(u_next, k)
        if not np.all(np.isfinite(u_next)):
            raise DivergenceError(f"non-finite iterate at step {k}", trace=trace)
        if float(np.max(np.abs(u_next - u))) <= config.tol:
            trace.converged_at = k
            trace.final = u_next.copy()
            return trace
        if float(np.max(np.abs(u_next))) > DIVERGENCE_LIMIT_MW:
            raise DivergenceError(f"iteration diverged at step {k}", trace=trace)
        u = u_next
    raise ConvergenceError(
        f"no convergence to tol={config.tol} within {config.max_iter} steps",
        last=u,
        trace=trace,
    )
