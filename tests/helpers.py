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


def random_small_system(rng, n_max=4, only=None):
    """A random system of 2 to n_max channels with at least one player and
    one seeker, neither diagonally dominant nor nonsingular by construction.
    About one in five nonsingular draws has a negative seeker multiplier at
    u* = A^-1 b, so the fallback has to search. only="player" or "seeker"
    gives every channel that role."""
    n = int(rng.integers(2, n_max + 1))
    is_player = rng.random(n) < 0.5
    is_player[0], is_player[-1] = True, False
    if only is not None:
        is_player[:] = only == "player"
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


def _row_reduce(rows, rhs, width):
    """Gauss-Jordan elimination of [rows | rhs] in Fractions. Returns a
    solution with every free unknown at 0, or None when the equations are
    inconsistent, and the rank of rows."""
    aug = [list(row) + [value] for row, value in zip(rows, rhs)]
    pivots = []
    for col in range(width):
        r = len(pivots)
        k = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if k is None:
            continue
        aug[r], aug[k] = aug[k], aug[r]
        lead = aug[r][col]
        aug[r] = [v / lead for v in aug[r]]
        for i, row in enumerate(aug):
            if i != r and row[col] != 0:
                aug[i] = [v - row[col] * w for v, w in zip(row, aug[r])]
        pivots.append(col)
    if any(row[-1] != 0 for row in aug[len(pivots):]):
        return None, len(pivots)
    x = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        x[col] = aug[r][-1]
    return x, len(pivots)


def _kkt_point(hessian, grad, cons, rhs):
    """A minimizer of u.H u / 2 - g.u subject to C u = rhs (H positive
    semidefinite) from its KKT system [H C^T; C 0] [u; nu] = [g; rhs].
    Every solution of that system is a minimizer, so a rank-deficient H or
    C only leaves unknowns free. None when C u = rhs has no solution."""
    n, k = len(grad), len(cons)
    rows = [list(h) + [c[i] for c in cons] for i, h in enumerate(hessian)]
    rows += [list(c) + [Fraction(0)] * k for c in cons]
    x, _ = _row_reduce(rows, list(grad) + list(rhs), n + k)
    return None if x is None else x[:n]


def _dot(row, x):
    return sum((a * b for a, b in zip(row, x)), Fraction(0))


def exact_fallback(system):
    """The fallback's answer in exact rational arithmetic, for N <= 4: the
    minimum-norm point among the minimizers of ||Gt u - bt|| subject to
    Gh u >= bh, or None when no u meets the seeker rows. A and b are taken
    as exact.

    The answer u meets its active seeker rows with equality, and a linearly
    independent subset W of those rows spans the same affine set. So u is
    u_W, the shortest least-residual point of {Gh_W u = bh_W}, got from two
    KKT systems: least residual first (any minimizer fixes Gt u = c), then
    least norm over {Gt u = c, Gh_W u = bh_W}. Every u_W that meets all the
    seeker rows is feasible, so the answer is the one with the least
    residual and, of those, the least norm: the optimal set is convex, so
    its shortest point is unique.
    """
    a = [[Fraction(v) for v in row] for row in system.A]
    b = [Fraction(v) for v in system.b]
    n = len(b)
    gt = [row for row, p in zip(a, system.is_player) if p]
    bt = [v for v, p in zip(b, system.is_player) if p]
    gh = [row for row, p in zip(a, system.is_player) if not p]
    bh = [v for v, p in zip(b, system.is_player) if not p]
    cols = list(zip(*gt)) if gt else [()] * n
    normal = [[_dot(ci, cj) for cj in cols] for ci in cols]
    normal_rhs = [_dot(ci, bt) for ci in cols]
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    candidates = []
    for mask in range(2 ** len(gh)):
        work = [k for k in range(len(gh)) if mask >> k & 1]
        rows, rhs = [gh[k] for k in work], [bh[k] for k in work]
        if _row_reduce(rows, [Fraction(0)] * len(rows), n)[1] < len(rows):
            continue  # dependent rows: a subset spans the same set
        u_f = _kkt_point(normal, normal_rhs, rows, rhs)
        u = _kkt_point(identity, [Fraction(0)] * n, gt + rows,
                       [_dot(row, u_f) for row in gt] + rhs)
        if all(_dot(row, u) >= v for row, v in zip(gh, bh)):
            residual = sum((_dot(row, u) - v) ** 2 for row, v in zip(gt, bt))
            candidates.append((residual, _dot(u, u), u))
    if not candidates:
        return None
    return np.array([float(v) for v in min(candidates, key=lambda c: c[:2])[2]])


def exact_kkt_certifies(system) -> bool:
    """A is nonsingular in exact arithmetic and the multipliers
    w = A^-T (2 A^-1 b) are >= 0 on the seeker rows: then u* = A^-1 b is the
    fallback's answer."""
    a = [[Fraction(v) for v in row] for row in system.A]
    n = len(a)
    u, rank = _row_reduce(a, [Fraction(v) for v in system.b], n)
    if rank < n:
        return False
    w, _ = _row_reduce([list(col) for col in zip(*a)], [2 * v for v in u], n)
    return all(wi >= 0 for wi, p in zip(w, system.is_player) if not p)


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
