"""Shared random-instance generators and brute-force and scalar oracles."""

from __future__ import annotations

import math
import os
import pathlib
from fractions import Fraction

import numpy as np

import osnrgame
from osnrgame import PlayerParams, SeekerParams, ServicePartition, SystemMatrix, assemble
from osnrgame.errors import EvaluationError
from osnrgame.link import (
    PLANCK_J_S,
    SPEED_OF_LIGHT_M_S,
    ChannelSpec,
    LinkNetwork,
    db_to_linear,
)


def subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this osnrgame."""
    src = str(pathlib.Path(osnrgame.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def osnr_scalar(u, sysm, i) -> float:
    """Channel i's OSNR, one channel at a time: u_i over transmitter noise
    plus all coupled powers (the self term included)."""
    den = sysm.n0[i] + float(np.dot(sysm.gamma[i], u))
    if den <= 0:
        raise EvaluationError(f"channel {i}: non-positive OSNR denominator {den}", channel=i)
    return float(u[i]) / den


def osnr_db_scalar(u, sysm, i) -> float:
    """Channel i's OSNR in dB; raises where the OSNR is not positive."""
    val = osnr_scalar(u, sysm, i)
    if val <= 0:
        raise EvaluationError(f"channel {i}: non-positive OSNR {val}", channel=i)
    return 10.0 * math.log10(val)


def interference(u, sysm, i) -> float:
    """Noise seen by channel i excluding its own coupled power."""
    return sysm.n0[i] + float(np.dot(sysm.gamma[i], u)) - sysm.gamma[i, i] * float(u[i])


def player_cost(i, u, sysm, params) -> float:
    """Pricing-minus-utility cost of game player i at the power profile u:
    alpha u_i - beta log(1 + a u_i / X_-i)."""
    x = interference(u, sysm, i)
    if x <= 0:
        raise EvaluationError(f"channel {i}: non-positive interference {x}", channel=i)
    arg = 1.0 + params.a * float(u[i]) / x
    if arg <= 0:
        raise EvaluationError(f"channel {i}: non-positive log argument {arg}", channel=i)
    return params.alpha * float(u[i]) - params.beta * math.log(arg)


def random_dominant_instance(rng, n_max=30, bounds_regime=False):
    """A random instance satisfying the diagonal-dominance hypotheses.

    Seeker targets are drawn as a fraction of the row-sum bound; player
    parameters exceed their off-diagonal row sums. With bounds_regime=True the
    instance additionally satisfies the power-bound preconditions (player
    row sums above every seeker row-sum bound, player right-hand sides
    above every seeker one).
    """
    n = int(rng.integers(2, n_max + 1))
    gamma = rng.uniform(1e-5, 1e-3, (n, n))
    n0 = rng.uniform(1e-4, 2e-3, n)
    sysm = SystemMatrix(gamma=gamma, n0=n0)

    # at least one player and one seeker
    is_player = rng.random(n) < 0.5
    is_player[int(rng.integers(0, n))] = True
    is_player[(int(np.flatnonzero(is_player)[0]) + 1) % n] = False

    roles = []
    for i in range(n):
        row_sum = gamma[i].sum()
        off = row_sum - gamma[i, i]
        if is_player[i]:
            if bounds_regime:
                a = off + rng.uniform(2.05, 4.0)
                beta_over_alpha = rng.uniform(1.02, 3.0)
            else:
                a = off + rng.uniform(0.005, 0.05)
                beta_over_alpha = rng.uniform(1.0, 3.0)
            roles.append(PlayerParams(alpha=1.0, beta=beta_over_alpha, a=a))
        else:
            g = rng.uniform(0.2, 0.85) / row_sum
            if bounds_regime:
                g = min(g, 1.5 / n0[i])
            roles.append(SeekerParams(gamma=g))
    partition = ServicePartition(roles=tuple(roles))
    return sysm, partition, assemble(sysm, partition)


def random_small_qp(rng):
    """A random least-squares fallback instance with at most 3 columns."""
    n_cols = int(rng.integers(2, 4))
    m = int(rng.integers(1, min(3, n_cols)))
    n_ineq = int(rng.integers(1, 3))
    gt = rng.normal(size=(m, n_cols))
    bt = rng.normal(size=m)
    gh = rng.normal(size=(n_ineq, n_cols))
    bh = rng.normal(size=n_ineq)
    return gt, bt, gh, bh


def random_small_system(rng, n_max=4):
    """A random system of 2 to n_max channels with at least one player and
    one seeker, neither diagonally dominant nor nonsingular by construction.
    About one in five nonsingular draws has a negative seeker multiplier at
    u* = A^-1 b, so the fallback has to search."""
    n = int(rng.integers(2, n_max + 1))
    is_player = rng.random(n) < 0.5
    is_player[0], is_player[-1] = True, False
    roles = tuple(
        PlayerParams(alpha=1.0, beta=float(rng.uniform(0.5, 3.0)), a=float(rng.uniform(0.1, 1.0)))
        if player else SeekerParams(gamma=float(rng.uniform(0.5, 4.0)))
        for player in is_player
    )
    sysm = SystemMatrix(gamma=rng.uniform(0.0, 0.5, (n, n)), n0=rng.uniform(0.01, 0.1, n))
    return assemble(sysm, ServicePartition(roles=roles))


def farkas_certificate_checks(gh, bh, y) -> bool:
    """y >= 0 with Gh^T y = 0 (to 1e-9 relative) and bh . y > 0: then
    y . (Gh u) = 0 < y . bh for every u, so no u meets Gh u >= bh."""
    y = np.asarray(y, dtype=float)
    return bool(
        np.all(y >= 0)
        and np.max(np.abs(gh.T @ y)) <= 1e-9 * np.sum(y) * np.max(np.abs(gh))
        and bh @ y > 0
    )


def grid_minimum(gt, bt, gh, bh, u_scale, points=41, stages=8):
    """Brute-force the fallback objective over the whole power space.

    For at most 3 columns: a grid over a box of half-width 3 (1 + u_scale)
    around the origin, then repeated refinements around the incumbent.
    Returns the best objective found, or None when no grid point is
    feasible.
    """
    gt = np.atleast_2d(gt)
    gh = np.atleast_2d(gh)
    half = 3.0 * (1.0 + float(u_scale))
    center = np.zeros(gt.shape[1])
    best_u, best_obj = None, None
    for _ in range(stages):
        axes = [np.linspace(c - half, c + half, points) for c in center]
        us = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        feasible = np.all(us @ gh.T >= bh - 1e-9, axis=1)
        if not np.any(feasible):
            return None
        objs = np.linalg.norm(us[feasible] @ gt.T - bt, axis=1)
        k = int(np.argmin(objs))
        if best_obj is None or objs[k] < best_obj:
            best_obj, best_u = float(objs[k]), us[feasible][k]
        center = best_u
        half = 4.0 * (2.0 * half / (points - 1))
    return best_obj


def _loop_gain(profile, wavelength_nm: float) -> float:
    """Linear gain ratio of an amplifier at one wavelength."""
    return float(db_to_linear(profile.gain_db(wavelength_nm)))


def _loop_span_ase(span, channel) -> float:
    """Scalar per-span ASE (mW): the physical formula, clamped at 0 for G < 1."""
    if span.ase.fixed_ase_mW is not None:
        return span.ase.fixed_ase_mW
    gain = _loop_gain(span.gain_profile, channel.wavelength_nm)
    if gain < 1.0:
        return 0.0
    nu = SPEED_OF_LIGHT_M_S / (channel.wavelength_nm * 1e-9)
    ase_w = 2.0 * span.ase.nsp * PLANCK_J_S * nu * (gain - 1.0) * (
        span.ase.optical_bandwidth_GHz * 1e9
    )
    return ase_w * 1e3


def _loop_cumulative_products(link, wavelength_nm: float) -> np.ndarray:
    """Cumulative gain*loss products through the link's spans for one wavelength."""
    out = np.empty(len(link.spans))
    acc = 1.0
    for k, span in enumerate(link.spans):
        acc *= _loop_gain(span.gain_profile, wavelength_nm) * db_to_linear(
            -span.loss_dB
        )
        out[k] = acc
    return out


def loop_coupling_matrix(network: LinkNetwork, channels: list[ChannelSpec]) -> np.ndarray:
    """Reference coupling matrix from the per-(row, link, column) loop.

    The direct expansion of the model: for each span k of each link l on
    channel i's route, every channel j on l receives ASE_k(lambda_i) / P_l
    times the cumulative gain ratio C_l[k, j] / C_l[k, i], times the
    whole-link transmission ratios T_q[j] / T_q[i] of the links q earlier on
    i's route. Evaluates every link of the network at every wavelength, so
    tabulated tables must cover all channels.
    """
    n = len(channels)
    cum = {
        (link.id, j): _loop_cumulative_products(link, c.wavelength_nm)
        for link in network.links
        for j, c in enumerate(channels)
    }
    gamma = np.zeros((n, n))
    for i, ci in enumerate(channels):
        prefix = np.ones(n)  # product of T_{q,j}/T_{q,i} over links before l
        for lid in ci.route:
            link = network.link(lid)
            on_link = [j for j, cj in enumerate(channels) if lid in cj.route]
            ases = np.array([_loop_span_ase(span, ci) for span in link.spans])
            gi = cum[(lid, i)]
            for j in on_link:
                gj = cum[(lid, j)]
                terms = (gj / gi) * (ases / link.output_power_mW)
                gamma[i, j] += prefix[j] * float(np.sum(terms))
            t_i = gi[-1]
            for j in range(n):
                prefix[j] *= cum[(lid, j)][-1] / t_i
    return gamma


def exact_coupling_matrix(network: LinkNetwork, channels: list[ChannelSpec]) -> np.ndarray:
    """loop_coupling_matrix's sum in exact rational arithmetic, rounded once.

    The float gains, losses, per-span ASE powers and output powers are taken
    as exact, and every product, ratio and sum over them is a Fraction, so
    each entry is the nearest float to the model's value on those inputs,
    subnormal entries included.
    """
    n = len(channels)
    cum = {}  # (link id, channel index) -> cumulative gain * loss per span

    def cumulative(link, j):
        if (link.id, j) not in cum:
            acc, out = Fraction(1), []
            for span in link.spans:
                acc *= Fraction(_loop_gain(span.gain_profile, channels[j].wavelength_nm))
                acc *= Fraction(db_to_linear(-span.loss_dB))
                out.append(acc)
            cum[(link.id, j)] = out
        return cum[(link.id, j)]

    gamma = np.zeros((n, n))
    for i, ci in enumerate(channels):
        row = [Fraction(0)] * n
        prefix = [Fraction(1)] * n
        for lid in ci.route:
            link = network.link(lid)
            gi = cumulative(link, i)
            power = Fraction(link.output_power_mW)
            # span k's ASE in channel i's band, per unit of i's gain through k
            weights = [Fraction(_loop_span_ase(span, ci)) / (power * g)
                       for span, g in zip(link.spans, gi)]
            for j, cj in enumerate(channels):
                gj = cumulative(link, j)
                if lid in cj.route:
                    row[j] += prefix[j] * sum(w * g for w, g in zip(weights, gj))
                prefix[j] *= gj[-1] / gi[-1]
        gamma[i] = [float(x) for x in row]
    return gamma
