"""Distributed synchronous power updates driven by measured OSNR.

All channels update simultaneously from the same previous power vector, so
a step is order independent and matches the contraction argument that
bounds the error by the worst row ratio. Players move toward their
first-order condition; seekers rescale toward their target. In matrix form
the update is one Jacobi sweep on the channel-ordered system A u = b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DivergenceError, EvaluationError, NegativePowerError
from .model import ChannelSystem
from .scenario import RunOptions

DIVERGENCE_LIMIT_MW = 1e12


@dataclass
class IterationTrace:
    # every iterate, the start included, which the CSV trace prints; a converged
    # run's last is its answer, and the other lists are derived from them
    iterates: list[np.ndarray] = field(default_factory=list, metadata={"json": False})
    error_history: list[float] = field(default_factory=list)
    contraction_ratios: list[float | None] = field(default_factory=list)
    negative_steps: list[int] = field(default_factory=list)
    converged_at: int | None = None


def step(u: np.ndarray, system: ChannelSystem) -> np.ndarray:
    """One synchronous update of every channel from the same power vector:
    a Jacobi sweep on A u = b.

    Row by row this is the measured-OSNR update: a player moves to
    beta_i/alpha_i - (1/OSNR_i - Gamma_ii) u_i / a_i, a seeker to
    gamma_i (1/OSNR_i - Gamma_ii) u_i / (1 - gamma_i Gamma_ii). A 0 divisor
    leaves the update undefined and raises EvaluationError.
    """
    if not system.diagonal.all():
        raise EvaluationError("singular update: a seeker's target times its self-coupling is 1")
    u = np.asarray(u, dtype=float)
    return u + (system.b - system.A @ u) / system.diagonal


def convergence_rate(system: ChannelSystem) -> float:
    """Worst-row contraction factor of the update map, cached as system.sigma."""
    return system.sigma


def _cannot_converge(system: ChannelSystem) -> str | None:
    """Why the iteration cannot converge from every start, or None: that
    needs rho(J) < 1 for J = I - D^-1 A (Varga 1962, ch. 3), and sigma >=
    rho(J). A singular A = D (I - J) gives J the eigenvalue 1."""
    if system.sigma < 1.0:
        return None
    jacobi = np.eye(system.size) - system.A / system.diagonal[:, None]
    rho = float(np.max(np.abs(np.linalg.eigvals(jacobi))))
    return None if rho < 1.0 else f"sigma {system.sigma:.6g}, rho {rho:.6g}"


def run(
    system: ChannelSystem,
    options: RunOptions,
    reference: np.ndarray | None = None,
) -> IterationTrace:
    """Iterate from options.initial_powers until the successive difference
    drops under options.tol, and return the trace: its last iterate is the
    answer. A start of the wrong length raises ScenarioError.

    An iterate that is not finite, or whose largest power passes
    DIVERGENCE_LIMIT_MW, raises DivergenceError with the trace so far.
    trace.negative_steps lists every step, the start included, whose iterate
    has a negative power; with strict_nonnegative the first such step raises
    NegativePowerError with the trace, which ends at that iterate.

    When a direct solution is supplied, the trace carries error norms
    against it and the observed per-step contraction ratios.

    A system whose iteration cannot converge from every start (rho(J) >= 1)
    raises ConvergenceError at step 1, unless that step already meets tol.
    """
    u = options.initial_powers(system.size)
    trace = IterationTrace(iterates=[u])
    try:
        if options.strict_nonnegative and np.any(u < 0):
            raise NegativePowerError("negative power at step 0", trace=trace)
        for k in range(1, options.max_iter + 1):
            u_next = step(u, system)
            trace.iterates.append(u_next)  # step returns a new array each time
            if options.strict_nonnegative and np.any(u_next < 0):
                raise NegativePowerError(f"negative power at step {k}", trace=trace)
            size = float(np.max(np.abs(u_next)))  # NaN when an entry is NaN
            if not math.isfinite(size):
                raise DivergenceError(f"non-finite iterate at step {k}", trace=trace)
            if float(np.max(np.abs(u_next - u))) <= options.tol:
                trace.converged_at = k
                return trace
            if k == 1 and (why := _cannot_converge(system)):
                raise ConvergenceError(f"the iteration cannot converge: {why}", trace=trace)
            if size > DIVERGENCE_LIMIT_MW:
                raise DivergenceError(f"iteration diverged at step {k}", trace=trace)
            u = u_next
        raise ConvergenceError(
            f"no convergence to tol={options.tol} within {options.max_iter} steps", trace=trace
        )
    finally:  # the other fields are functions of the iterates, however the run ended
        stacked = np.stack(trace.iterates)
        trace.iterates = list(stacked)  # rows of one block: the step arrays are freed
        trace.negative_steps = np.flatnonzero((stacked < 0).any(axis=1)).tolist()
        if reference is not None:
            # a ratio means something only while the error is well above the
            # rounding resolution of the reference; below it the quotient drifts to 1
            eps = np.finfo(float).eps
            floor = max(10.0 * eps, 100.0 * math.sqrt(eps) * (1.0 + np.max(np.abs(reference))))
            trace.error_history = errors = np.max(np.abs(stacked - reference), axis=1).tolist()
            trace.contraction_ratios = [e / p if p > floor else None
                                        for p, e in zip(errors, errors[1:])]
