"""Shared random-instance generators and brute-force oracles."""

from __future__ import annotations

import numpy as np

from osnrgame import (
    ChannelSpec,
    LinkNetwork,
    PlayerParams,
    SeekerParams,
    ServicePartition,
    SystemMatrix,
    assemble,
    evaluate_gain,
)
from osnrgame.link import PLANCK_J_S, SPEED_OF_LIGHT_M_S, db_to_linear


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


def rowspace_grid_minimum(gt, bt, gh, bh, u_scale, points=121, stages=4):
    """Brute-force the fallback objective over the player row space.

    The pseudoinverse recovery confines the solution to the row space of
    the player system, so the enumeration walks that subspace: a coarse
    grid over a box (sized from u_scale), then repeated refinements around
    the incumbent. Returns the best objective found, or None when no grid
    point is feasible.
    """
    gt = np.atleast_2d(gt)
    gh = np.atleast_2d(gh)
    _, sv, vt = np.linalg.svd(gt, full_matrices=False)
    q = vt[sv > 1e-10 * sv[0]].T  # orthonormal row-space basis, N x r
    r = q.shape[1]

    half = 3.0 * (1.0 + float(u_scale))
    center = np.zeros(r)
    best_v, best_obj = None, None
    for stage in range(stages):
        axes = [np.linspace(c - half, c + half, points) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        vs = np.stack([m.ravel() for m in mesh], axis=1)
        us = vs @ q.T
        feasible = np.all(us @ gh.T >= bh - 1e-9, axis=1)
        if not np.any(feasible):
            return None
        objs = np.linalg.norm(us[feasible] @ gt.T - bt, axis=1)
        k = int(np.argmin(objs))
        cand_obj = float(objs[k])
        if best_obj is None or cand_obj < best_obj:
            best_obj = cand_obj
            best_v = vs[feasible][k]
        center = best_v
        half = 4.0 * (2.0 * half / (points - 1))
    return best_obj


def _loop_span_ase(span, channel) -> float:
    """Scalar per-span ASE (mW): the physical formula, clamped at 0 for G < 1."""
    if span.ase.fixed_ase_mW is not None:
        return span.ase.fixed_ase_mW
    gain = evaluate_gain(span.gain_profile, channel.wavelength_nm)
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
        acc *= evaluate_gain(span.gain_profile, wavelength_nm) * db_to_linear(
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
