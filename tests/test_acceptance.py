"""Acceptance gate: one criterion per test, one pass/fail line each.

Randomized criteria draw from seeded generators so runs are reproducible;
every expected value asserted here is recomputed in-test from first
principles (closed forms, brute-force grids, hand expansions), never from
the implementation under test.
"""

import time

import numpy as np
import pytest

from osnrgame import (
    PlayerParams,
    SeekerParams,
    ServicePartition,
    SystemMatrix,
    assemble,
    convergence_rate,
    execute,
    power_bounds,
    solve_dsnp,
)
from osnrgame.errors import InfeasibleError
from osnrgame.iterate import run as iterate_run
from osnrgame.link import (
    AseParams,
    ChannelSpec,
    GainProfile,
    Link,
    LinkNetwork,
    Span,
    build_system_matrix,
)
from osnrgame.qp import build_qp, recover_primal, solve_dual
from osnrgame.scenario import RunOptions, demo3_scenario, demo30_scenario

from helpers import (
    farkas_certificate_checks,
    grid_minimum,
    player_cost,
    random_dominant_instance,
    random_small_qp,
)

SEED = 424242


def _report(capsys, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" -- {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _instances(n=200, bounds_regime=False):
    rng = np.random.default_rng(SEED)
    out = []
    while len(out) < n:
        inst = random_dominant_instance(rng, n_max=30, bounds_regime=bounds_regime)
        if bounds_regime and not power_bounds(inst[2]).preconditions_hold:
            continue
        out.append(inst)
    return out


def test_criterion_1_seeker_exactness(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for sysm, part, stack in _instances():
        sol = solve_dsnp(stack)
        if len(sol.seeker_residuals):
            worst = max(worst, float(np.max(sol.seeker_residuals)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        capsys,
        "criterion 1: seeker exactness (200 instances, rel 1e-9)",
        ok,
        f"worst residual {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_player_stationarity(capsys):
    worst = 0.0
    # the first-order rows hold, and no player lowers its own cost (the
    # scalar oracle) by moving its power 1e-4 relative either way
    moves_that_pay = 0
    for sysm, part, stack in _instances():
        sol = solve_dsnp(stack)
        scale = float(np.linalg.norm(stack.b[stack.is_player], np.inf)) if stack.m else 1.0
        if len(sol.player_foc_residuals):
            worst = max(worst, float(np.max(sol.player_foc_residuals)) / scale)
        for i in np.flatnonzero(stack.is_player):
            cost = player_cost(i, sol.u, sysm, part.roles[i])
            for move in (1e-4, -1e-4):
                u = sol.u.copy()
                u[i] += move * max(1.0, abs(u[i]))
                moves_that_pay += player_cost(i, u, sysm, part.roles[i]) < cost
    ok = worst <= 1e-10 and moves_that_pay == 0
    _report(
        capsys,
        "criterion 2: player stationarity (first-order rows, 1e-10 relative)",
        ok,
        f"worst scaled residual {worst:.3e}, {moves_that_pay} cost-lowering moves",
    )


def test_criterion_3_direct_iterative_agreement(capsys):
    worst_gap = 0.0
    worst_time = 0.0
    for sysm, part, stack in _instances():
        sol = solve_dsnp(stack)
        cfg = RunOptions(u0=np.full(stack.size, 0.5), tol=1e-10)
        t0 = time.perf_counter()
        trace = iterate_run(stack, cfg, reference=sol.u)
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_gap = max(worst_gap, float(np.max(np.abs(trace.iterates[-1] - sol.u))))
    ok = worst_gap <= 1e-8 and worst_time < 0.1
    _report(
        capsys,
        "criterion 3: direct/iterative agreement (1e-8 inf-norm, <100 ms/run)",
        ok,
        f"worst gap {worst_gap:.3e}, slowest run {worst_time * 1e3:.1f} ms",
    )


def test_criterion_4_contraction_certificate(capsys):
    worst_excess = -np.inf
    all_sigma_lt_1 = True
    for sysm, part, stack in _instances():
        sol = solve_dsnp(stack)
        sigma = convergence_rate(stack)
        all_sigma_lt_1 = all_sigma_lt_1 and sigma < 1.0
        cfg = RunOptions(u0=np.full(stack.size, 0.5), tol=1e-10)
        trace = iterate_run(stack, cfg, reference=sol.u)
        ratios = [r for r in trace.contraction_ratios if r is not None]
        if ratios:
            worst_excess = max(worst_excess, max(ratios) - sigma)
    ok = all_sigma_lt_1 and worst_excess <= 1e-9
    _report(
        capsys,
        "criterion 4: contraction certificate (every ratio <= sigma + 1e-9, sigma < 1)",
        ok,
        f"worst ratio excess {worst_excess:.3e}",
    )


def test_criterion_5_power_bound_soundness(capsys):
    violations = 0
    for sysm, part, stack in _instances(bounds_regime=True):
        rep = power_bounds(stack)
        sol = solve_dsnp(stack)
        m = float(np.max(np.abs(sol.u)))
        if not (rep.lower_inf <= m + 1e-12 and m <= rep.upper_inf + 1e-12):
            violations += 1

    # pinned 2x2 instance, bracketed entirely by an in-test oracle
    gamma = np.array([[0.001, 0.002], [0.002, 0.001]])
    sysm = SystemMatrix(gamma=gamma, n0=np.array([0.01, 0.01]))
    part = ServicePartition(
        roles=(PlayerParams(alpha=1.0, beta=1.0, a=2.5), SeekerParams(gamma=100.0))
    )
    stack = assemble(sysm, part)
    rep = power_bounds(stack)
    bar = np.array([[2.5, 0.002], [-0.2, 0.9]])
    inv = np.linalg.inv(bar)
    kappa_oracle = float(
        np.abs(bar).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    )
    u_oracle = np.linalg.solve(bar, np.array([2.49, 1.0]))
    pinned_ok = (
        rep.preconditions_hold
        and rep.lower_inf == pytest.approx(0.2, abs=1e-12)
        and rep.upper_inf == pytest.approx(kappa_oracle, abs=1e-4)
        and float(np.max(np.abs(solve_dsnp(stack).u)))
        == pytest.approx(float(np.max(np.abs(u_oracle))), abs=1e-4)
        and float(np.max(np.abs(u_oracle))) == pytest.approx(1.3322, abs=1e-4)
    )

    ok = violations == 0 and pinned_ok
    _report(
        capsys,
        "criterion 5: power-bound soundness (200 instances, zero violations + pinned fixture)",
        ok,
        f"violations {violations}, kappa {rep.kappa_inf:.7f}, "
        f"bracket [{rep.lower_inf:.4f}, {rep.upper_inf:.4f}]",
    )


def test_criterion_6_qp_oracle_equivalence(capsys, fixture_b):
    t0 = time.perf_counter()
    qp = build_qp(*fixture_b)
    res = recover_primal(qp, solve_dual(qp))
    fixture_ok = (
        res.objective == pytest.approx(1.0, abs=1e-6)
        and res.u == pytest.approx([1.0, 1.0], abs=1e-6)
    )

    rng = np.random.default_rng(20240817)
    solved = 0
    infeasible = 0
    bad_certificates = 0
    worst_gap = -np.inf
    worst_comp = 0.0
    while solved < 20:
        gt, bt, gh, bh = random_small_qp(rng)
        qp = build_qp(gt, bt, gh, bh)
        try:
            least = solve_dual(qp)
        except InfeasibleError as exc:
            # an infeasible draw counts only with a Farkas certificate
            infeasible += 1
            bad_certificates += not farkas_certificate_checks(gh, bh, exc.certificate)
            continue
        res = recover_primal(qp, least)
        oracle = grid_minimum(gt, bt, gh, bh, float(np.max(np.abs(res.u))))
        assert oracle is not None
        worst_gap = max(worst_gap, abs(res.objective - oracle))
        worst_comp = max(worst_comp, res.complementary_slackness)
        solved += 1
    elapsed = time.perf_counter() - t0
    ok = (
        fixture_ok
        and bad_certificates == 0
        and worst_gap <= 5e-3
        and worst_comp <= 1e-6
        and elapsed < 10.0
    )
    _report(
        capsys,
        "criterion 6: QP full-space grid-oracle equivalence "
        "(20 instances, 5e-3; complementarity 1e-6; certified infeasibility)",
        ok,
        f"worst objective gap {worst_gap:.3e}, worst complementarity {worst_comp:.3e}, "
        f"infeasible {infeasible} ({bad_certificates} uncertified), {elapsed:.2f}s",
    )


def test_criterion_7_special_case_reductions(capsys):
    sysm = SystemMatrix(gamma=np.array([[0.001]]), n0=np.array([0.01]))
    part = ServicePartition(roles=(SeekerParams(gamma=100.0),))
    ccp = solve_dsnp(assemble(sysm, part))  # all seekers
    ccp_ok = ccp.u[0] == pytest.approx(1.0 / 0.9, abs=1e-10)

    sysm = SystemMatrix(gamma=np.array([[0.5]]), n0=np.array([0.01]))
    part = ServicePartition(roles=(PlayerParams(alpha=1.0, beta=1.01, a=1.0),))
    ne = solve_dsnp(assemble(sysm, part))  # all players
    ne_ok = ne.u[0] == pytest.approx(1.0, abs=1e-12)

    ok = ccp_ok and ne_ok
    _report(
        capsys,
        "criterion 7: special-case reductions (all-seekers 1/0.9, all-players 1.0)",
        ok,
        f"ccp u={ccp.u[0]:.12f}, ne u={ne.u[0]:.12f}",
    )


def test_criterion_8_demos(capsys):
    r3 = execute(demo3_scenario())
    dbs = r3.solution.osnr_db
    demo3_ok = (
        r3.trace is not None
        and r3.trace.converged_at is not None
        and dbs[0] > 20.0
        and dbs[1] > 20.0
        and dbs[2] == pytest.approx(20.0, abs=0.01)
    )

    t0 = time.perf_counter()
    r30 = execute(demo30_scenario())
    elapsed = time.perf_counter() - t0
    seeker_dbs = r30.solution.osnr_db[20:]
    demo30_ok = (
        r30.trace is not None
        and r30.trace.converged_at is not None
        and elapsed < 1.0
        and np.all(np.abs(seeker_dbs - 20.0) <= 0.01)
    )

    ok = demo3_ok and demo30_ok
    _report(
        capsys,
        "criterion 8: demos (3-ch players above 20 dB seeker; 30-ch seekers at 20 dB, <1 s)",
        ok,
        f"demo3 OSNR dB {np.round(dbs, 2).tolist()}, demo30 {elapsed:.2f}s, "
        f"seeker span [{seeker_dbs.min():.4f}, {seeker_dbs.max():.4f}] dB",
    )


def test_criterion_9_gamma_golden(capsys):
    # 2 channels, one flat single span: every entry is ASE / output power
    net = LinkNetwork(
        links=(
            Link(
                id=1,
                spans=(
                    Span(
                        gain_profile=GainProfile(shape="flat", peak_gain_dB=30.0),
                        loss_dB=30.0,
                        ase=AseParams(fixed_ase_mW=0.001),
                    ),
                ),
                output_power_mW=1000.0,
            ),
        )
    )
    chans = [
        ChannelSpec(id=1, wavelength_nm=1554.0, tx_noise_mW=0.01, route=(1,)),
        ChannelSpec(id=2, wavelength_nm=1556.0, tx_noise_mW=0.01, route=(1,)),
    ]
    sysm = build_system_matrix(net, chans)
    golden_ok = np.allclose(sysm.gamma, np.full((2, 2), 1e-6), rtol=1e-12, atol=0)

    off3 = demo3_scenario().system_matrix().gamma[~np.eye(3, dtype=bool)]
    off30 = demo30_scenario().system_matrix().gamma[~np.eye(30, dtype=bool)]
    band_ok = bool(
        np.all(off3 >= 1e-5) and np.all(off3 <= 1e-1)
        and np.all(off30 >= 1e-5) and np.all(off30 <= 1e-1)
    )

    ok = golden_ok and band_ok
    _report(
        capsys,
        "criterion 9: coupling-matrix golden test (hand expansion 1e-12; band [1e-5, 1e-1])",
        ok,
        f"off-diagonal ranges [{off3.min():.2e}, {off3.max():.2e}] / "
        f"[{off30.min():.2e}, {off30.max():.2e}]",
    )
