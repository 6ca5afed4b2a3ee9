import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osnrgame import (
    PlayerParams,
    SeekerParams,
    ServicePartition,
    SystemMatrix,
    assemble,
    check_feasibility,
    convergence_rate,
    osnr,
    solve_dsnp,
)
from osnrgame.errors import (
    ConvergenceError,
    DivergenceError,
    EvaluationError,
    IterationError,
    NegativePowerError,
    ScenarioError,
    ValidationError,
)
from osnrgame.iterate import run, step
from osnrgame.model import to_db
from osnrgame.scenario import RunOptions

from helpers import osnr_db_scalar, osnr_scalar, random_small_system


def make(gamma, n0, roles):
    sysm = SystemMatrix(gamma=np.asarray(gamma, float), n0=np.asarray(n0, float))
    part = ServicePartition(roles=tuple(roles))
    return sysm, part, assemble(sysm, part)


def zero_diagonal_system():
    """Fixture A with a 1000x seeker: its target times its self-coupling is
    1, so A has a 0 on its diagonal, yet det A = 0.004."""
    return make(
        [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
        [PlayerParams(1.0, 2.0, 0.01), SeekerParams(1000.0)],
    )[2]


def player_update(u_i, inv_osnr, gamma_ii, beta_over_alpha, a):
    """A player's update from its own power and measured OSNR alone."""
    return beta_over_alpha - (1.0 / a) * (inv_osnr - gamma_ii) * u_i


def seeker_update(u_i, inv_osnr, gamma_ii, gamma):
    """A seeker's update from its own power and measured OSNR alone."""
    return (gamma / (1.0 - gamma * gamma_ii)) * (inv_osnr - gamma_ii) * u_i


def measured_osnr_step(u, sysm, part):
    """Every channel's distributed update, one channel at a time."""
    out = np.empty_like(u)
    for i, role in enumerate(part.roles):
        inv_osnr = 1.0 / osnr_scalar(u, sysm, i)
        if isinstance(role, PlayerParams):
            out[i] = player_update(u[i], inv_osnr, sysm.gamma[i, i], role.beta / role.alpha, role.a)
        else:
            out[i] = seeker_update(u[i], inv_osnr, sysm.gamma[i, i], role.gamma)
    return out


class TestStep:
    def test_fixture_a_one_step(self, fixture_a):
        _, _, stack = fixture_a
        out = step(np.array([0.5, 0.5]), stack)
        # player: 2 - 100 * (0.023 - 0.001) * 0.5; seeker: (100/0.9) * 0.011
        assert out == pytest.approx([0.9, 1.1 / 0.9], rel=1e-13)

    def test_fixed_point(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack).u
        assert step(u_star, stack) == pytest.approx(u_star, rel=1e-12)

    def test_decoupled_lands_in_one_move(self):
        _, _, stack = make(
            np.zeros((2, 2)), [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), SeekerParams(100.0)],
        )
        out = step(np.array([0.3, 0.3]), stack)
        assert out == pytest.approx([1.0, 1.0], rel=1e-13)

    def test_synchronous_permutation_equivariance(self, fixture_a):
        sysm, part, stack = fixture_a
        u = np.array([0.4, 0.7])
        out = step(u, stack)
        perm = np.array([1, 0])
        _, _, stack_p = make(
            sysm.gamma[np.ix_(perm, perm)], sysm.n0[perm], [part.roles[k] for k in perm]
        )
        out_p = step(u[perm], stack_p)
        assert out_p[np.argsort(perm)] == pytest.approx(out, rel=1e-13)

    def test_zero_power_is_a_valid_start(self, fixture_a):
        _, _, stack = fixture_a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = step(np.zeros(2), stack)
        # player: (a beta/alpha - n0) / a; seeker: gamma n0 / (1 - gamma Gamma_ii)
        assert out == pytest.approx([1.0, 1.0 / 0.9], rel=1e-13)


class TestUpdateFormulas:
    """The distributed contract: each channel's update from its own measured
    OSNR is the Jacobi step of the channel-ordered system."""

    def test_player_update_scalar(self, fixture_a):
        # fixture A at u = (0.5, 0.5): 1/OSNR_0 = 0.0115 / 0.5 = 0.023
        _, _, stack = fixture_a
        assert player_update(0.5, 0.023, 0.001, 2.0, 0.01) == pytest.approx(
            0.9, rel=1e-13
        )
        assert step(np.array([0.5, 0.5]), stack)[0] == pytest.approx(0.9, rel=1e-13)

    def test_seeker_update_scalar(self, fixture_a):
        # 1/OSNR_1 = 0.0115 / 0.5 = 0.023 as well
        _, _, stack = fixture_a
        assert seeker_update(0.5, 0.023, 0.001, 100.0) == pytest.approx(
            1.1 / 0.9, rel=1e-13
        )
        assert step(np.array([0.5, 0.5]), stack)[1] == pytest.approx(1.1 / 0.9, rel=1e-13)

    def test_seeker_update_singular(self):
        # target times self-coupling is 1: the seeker row has a zero pivot
        _, _, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), SeekerParams(1000.0)],
        )
        with pytest.raises(EvaluationError):
            step(np.array([0.5, 0.5]), stack)

    def test_seeker_equivalence_params(self, fixture_a):
        # a seeker's row over -gamma is a player's row with beta/alpha = 0 and
        # a = -(1 - gamma Gamma_ii) / gamma
        sysm, _, stack = fixture_a
        row = stack.A[1] / -100.0
        assert row[1] == pytest.approx(-0.009, rel=1e-14)
        assert row[0] == pytest.approx(sysm.gamma[1, 0], rel=1e-14)
        assert stack.b[1] / -100.0 == pytest.approx(-sysm.n0[1], rel=1e-14)

    def test_seeker_equivalence_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = rng.uniform(10.0, 500.0)
            gamma = rng.uniform(1e-5, 1e-2, (3, 3))
            gamma[0, 0] = rng.uniform(1e-5, 1e-3)
            sysm, _, stack = make(
                gamma, rng.uniform(1e-3, 1e-1, 3),
                [SeekerParams(g), PlayerParams(1.0, 2.0, 0.5), SeekerParams(20.0)],
            )
            u = rng.uniform(0.01, 5.0, 3)
            a_eq = -(1.0 - g * gamma[0, 0]) / g
            lhs = step(u, stack)[0]
            rhs = player_update(u[0], 1.0 / osnr_scalar(u, sysm, 0), gamma[0, 0], 0.0, a_eq)
            # the Jacobi form adds and takes back u_0: 1e-12 as in the property test
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_equivalence_invalid_target(self):
        # a non-positive target has no equivalent player row
        for g in (0.0, -1.0):
            with pytest.raises(ValidationError):
                SeekerParams(g)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_measured_osnr_form_is_jacobi_step(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        gamma = rng.uniform(0.0, 1e-2, (n, n)) * (rng.random((n, n)) < 0.8)
        roles = [
            PlayerParams(1.0, rng.uniform(0.5, 3.0), rng.uniform(1e-3, 1.0))
            if rng.random() < 0.5
            else SeekerParams(rng.uniform(1.0, 90.0))
            for _ in range(n)
        ]
        sysm, part, stack = make(gamma, rng.uniform(1e-3, 1e-1, n), roles)
        u = rng.uniform(0.01, 5.0, n)
        want = measured_osnr_step(u, sysm, part)
        got = step(u, stack)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestConvergenceRate:
    def test_fixture_a(self, fixture_a):
        _, _, stack = fixture_a
        # player 0.002/0.01 = 0.2, seeker 100*0.002/0.9 = 0.2222...
        assert convergence_rate(stack) == pytest.approx(0.2 / 0.9, rel=1e-14)

    def test_boundary_is_one(self):
        _, _, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.002), SeekerParams(100.0)],
        )
        assert convergence_rate(stack) == pytest.approx(1.0, rel=1e-14)

    def test_singular_rate(self):
        # a zero diagonal entry leaves the update undefined: nothing contracts
        assert convergence_rate(zero_diagonal_system()) == math.inf

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @example(seed=None)  # the zero-diagonal system
    @settings(max_examples=100, deadline=None)
    def test_rate_under_one_exactly_when_dominant(self, seed):
        stack = (zero_diagonal_system() if seed is None
                 else random_small_system(np.random.default_rng(seed)))
        rep = check_feasibility(stack)
        assert np.all(rep.margins > 0) == (rep.sigma < 1.0)

    def test_draws_reach_both_outcomes(self):
        rates = [convergence_rate(random_small_system(np.random.default_rng(seed)))
                 for seed in range(40)]
        assert min(rates) < 1.0 < max(rates)


class TestRun:
    def test_converges_to_direct_solution(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack).u
        cfg = RunOptions(u0=np.array([0.5, 0.5]), tol=1e-12)
        trace = run(stack, cfg, reference=u_star)
        assert trace.converged_at is not None
        assert trace.iterates[-1] == pytest.approx(u_star, abs=1e-10)
        assert len(trace.iterates) == trace.converged_at + 1

    def test_observed_contraction_bounded_by_rate(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack).u
        sigma = convergence_rate(stack)
        # below tol ~1e-10 the error itself sits in rounding noise and the
        # measured ratios stop tracking the contraction factor
        cfg = RunOptions(u0=np.array([0.5, 0.5]), tol=1e-10)
        trace = run(stack, cfg, reference=u_star)
        ratios = [r for r in trace.contraction_ratios if r is not None]
        assert ratios
        assert max(ratios) <= sigma + 1e-9

    def test_start_at_solution(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack).u
        trace = run(stack, RunOptions(u0=u_star, tol=1e-8))
        assert trace.converged_at == 1

    def test_max_iter_exhausted(self, fixture_a):
        _, _, stack = fixture_a
        cfg = RunOptions(u0=np.array([0.5, 0.5]), tol=1e-14, max_iter=3)
        with pytest.raises(ConvergenceError) as exc:
            run(stack, cfg)
        assert len(exc.value.trace.iterates) == 4
        assert exc.value.trace.converged_at is None
        assert np.all(np.isfinite(exc.value.trace.iterates[-1]))

    def test_divergence(self):
        # both seeker gains exceed one: a multiplicative blow-up, with
        # J = [[0, 3], [3, 0]], that is refused after its first step
        _, _, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [SeekerParams(600.0), SeekerParams(600.0)],
        )
        assert convergence_rate(stack) > 1.0
        cfg = RunOptions(u0=np.array([0.5, 0.5]), tol=1e-10, max_iter=10000)
        with pytest.raises(ConvergenceError, match=r"cannot converge: sigma 3, rho 3$") as exc:
            run(stack, cfg)
        assert len(exc.value.trace.iterates) == 2

    def test_transient_past_the_limit_diverges(self):
        # sigma = 1e11 but J is nilpotent (rho 0): not refused, yet the
        # first step passes DIVERGENCE_LIMIT_MW
        _, _, stack = make(
            [[0.0, 1e8], [0.0, 0.0]], [0.01, 0.01], [PlayerParams(1.0, 2.0, 1e-3)] * 2,
        )
        assert stack.nonsingular
        cfg = RunOptions(u0=np.array([0.5, 20.0]), tol=1e-10)
        with pytest.raises(DivergenceError, match="iteration diverged at step 1"):
            run(stack, cfg)

    def test_singular_system_is_refused_at_step_one(self):
        # the singular all-player system, J = [[0, -1], [-1, 0]] with rho 1,
        # used to run all max_iter steps
        _, _, stack = make(
            [[0.0, 1.0], [1.0, 0.0]], [0.1, 0.1], [PlayerParams(1.0, 1.0, 1.0)] * 2,
        )
        with pytest.raises(ConvergenceError) as exc:
            run(stack, RunOptions())
        assert str(exc.value) == "the iteration cannot converge: sigma 1, rho 1"
        assert len(exc.value.trace.iterates) <= 2
        assert exc.value.trace.converged_at is None

    def test_badly_row_scaled_system_that_converges_is_not_refused(self):
        # the LU pivot test calls this A singular (pivot 1 against |A| 1e13),
        # yet J is nilpotent (rho 0): the run converges at step 2
        _, _, stack = make(
            [[0.0, 1e13], [0.0, 0.0]], [0.01, 0.01],
            [PlayerParams(1.0, 1.0, 1.0), PlayerParams(1.0, 0.01 + 1e-14, 1.0)],
        )
        assert not stack.nonsingular
        trace = run(stack, RunOptions(u0=np.array([0.5, stack.b[1]])))
        assert trace.converged_at == 2
        assert trace.iterates[-1] == pytest.approx([0.89, 1e-14], rel=1e-4)

    def test_first_step_at_the_fixed_point_is_not_refused(self):
        # rho = 2, but a start at the solution meets tol at step 1
        _, _, stack = make(
            [[0.0, 1.0], [1.0, 0.0]], [0.1, 0.1], [PlayerParams(1.0, 1.0, 0.5)] * 2,
        )
        u_star = solve_dsnp(stack).u
        assert run(stack, RunOptions(u0=u_star)).converged_at == 1

    def test_non_finite_iterate_raises_at_once(self, fixture_a):
        # a finite start near the float maximum overflows the first update
        # to -inf, which the trace counts as negative
        _, _, stack = fixture_a
        cfg = RunOptions(u0=np.array([1.7e308, 1.7e308]), tol=1e-10, max_iter=10000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite iterate at step 1") as exc:
                run(stack, cfg)
        assert len(exc.value.trace.iterates) == 2
        assert exc.value.trace.negative_steps == [1]
        assert not np.all(np.isfinite(exc.value.trace.iterates[-1]))

    def test_non_finite_iterate_with_a_negative_entry(self):
        # channel 1 sums an overflowing +inf and -inf coupling into NaN while
        # channel 4 turns negative: the step is still counted as negative
        _, _, stack = make(
            [[0.0, 10.0, 10.0, 0.0], [0.0] * 4, [0.0] * 4, [0.0] * 4], [0.01, 0.01, 0.01, 1.0],
            [PlayerParams(1.0, 2.0, 1.0)] * 3 + [PlayerParams(1.0, 0.1, 1.0)],
        )
        cfg = RunOptions(u0=np.array([0.5, 1.7e308, -1.7e308, 0.0]), max_iter=10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite iterate at step 1") as exc:
                run(stack, cfg)
        assert exc.value.trace.negative_steps == [0, 1]
        last = exc.value.trace.iterates[-1]
        assert np.isnan(last[0]) and last[3] < 0

    def test_negative_blow_up_diverges(self):
        # a negative iterate past -DIVERGENCE_LIMIT_MW stops the run too
        _, _, stack = make(np.zeros((1, 1)), [1e10], [PlayerParams(1.0, 0.1, 1e-3)])
        cfg = RunOptions(u0=np.array([0.5]), tol=1e-10)
        with pytest.raises(DivergenceError, match="iteration diverged at step 1") as exc:
            run(stack, cfg)
        assert exc.value.trace.negative_steps == [1]
        assert exc.value.trace.iterates[-1][0] < -1e12

    def test_strict_nonnegative_aborts_at_first_negative_step(self):
        # sigma = 2 and rho = 0.89 around the positive fixed point (47.9,
        # 21.1): J squared is -rho^2 I, so the error turns a quarter each
        # step, and step 2 is the first with a negative power
        _, _, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 100.0, 0.001), SeekerParams(166.0)],
        )
        cfg = RunOptions(u0=np.array([800.0, 42.0]), tol=1e-14, strict_nonnegative=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NegativePowerError, match="at step 2") as exc:
                run(stack, cfg)
        assert exc.value.trace.negative_steps == [2]
        assert exc.value.trace.iterates[-1].min() < 0
        assert len(exc.value.trace.iterates) == 3

    def test_strict_nonnegative_raises(self):
        _, _, stack = make(
            np.zeros((1, 1)), [0.01], [PlayerParams(1.0, 0.1, 0.001)]
        )
        cfg = RunOptions(
            u0=np.array([0.5]), tol=1e-10, strict_nonnegative=True
        )
        with pytest.raises(NegativePowerError) as exc:
            run(stack, cfg)
        assert exc.value.trace.negative_steps[-1] == 1
        assert exc.value.trace.iterates[-1][0] < 0

    def test_negative_steps_recorded(self):
        _, _, stack = make(
            np.zeros((1, 1)), [0.01], [PlayerParams(1.0, 0.1, 0.001)]
        )
        cfg = RunOptions(u0=np.array([0.5]), tol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the trace is the one record
            trace = run(stack, cfg)
        assert trace.converged_at is not None
        assert trace.negative_steps == [1, 2]

    def test_negative_steps_on_failed_run(self):
        # the system above from a start far from its fixed point: the
        # iterates swing in sign as they shrink, until the cap
        _, _, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 100.0, 0.001), SeekerParams(166.0)],
        )
        cfg = RunOptions(u0=np.array([8.0, 420.0]), tol=1e-14, max_iter=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="within 6 steps") as exc:
                run(stack, cfg)
        # steps 3 and 4 are the positive iterates after the start
        assert exc.value.trace.negative_steps == [1, 2, 5, 6]

    def test_zero_start_converges_silently(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack).u
        cfg = RunOptions(u0=np.zeros(2), tol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(stack, cfg, reference=u_star)
        assert trace.converged_at is not None
        assert trace.iterates[-1] == pytest.approx(u_star, abs=1e-10)
        assert trace.iterates[0].tolist() == [0.0, 0.0]

    def test_config_validation(self):
        with pytest.raises(ScenarioError):
            RunOptions(u0=np.array([0.5]), tol=0.0)
        with pytest.raises(ScenarioError):
            RunOptions(u0=np.array([0.5]), max_iter=0)

    def test_nan_tol_rejected(self, fixture_a):
        # rejected before the run, not after max_iter steps
        _, _, stack = fixture_a
        with pytest.raises(ScenarioError, match="run.tol"):
            run(stack, RunOptions(tol=float("nan"), max_iter=50))

    def test_start_of_wrong_length_rejected(self, fixture_a):
        _, _, stack = fixture_a
        with pytest.raises(ScenarioError, match="3 entries for 2 channels"):
            run(stack, RunOptions(u0=np.array([0.5, 0.5, 0.5])))


def drawn_run(seed):
    """Run from a random start with negative entries on a random small
    system, which may converge, hit its cap, diverge or (strict) abort;
    returns the outcome and the trace."""
    rng = np.random.default_rng(seed)
    system = random_small_system(rng)
    options = RunOptions(
        u0=rng.uniform(-0.5, 2.0, system.size), tol=1e-9,
        max_iter=int(rng.integers(1, 200)), strict_nonnegative=bool(rng.random() < 0.3),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the trace is the one record of negative powers
        try:
            return "converged", run(system, options)
        except IterationError as exc:
            return type(exc).__name__, exc.trace


def bounded_draw(seed):
    """A random_small_system draw with sigma <= 3, so that no transient
    passes DIVERGENCE_LIMIT_MW, the spectral radius of its Jacobi matrix
    from the pencil (D - A, D), and a nonnegative start."""
    rng = np.random.default_rng(seed)
    system = random_small_system(rng)
    while convergence_rate(system) > 3.0:
        system = random_small_system(rng)
    d = np.diag(system.diagonal)
    rho = float(np.max(np.abs(scipy.linalg.eigvals(d - system.A, d))))
    return system, rho, rng.uniform(0.0, 2.0, system.size)


class TestSpectralRadius:
    """The iteration converges from every start exactly when rho(J) < 1;
    run refuses at step 1 a system with rho(J) >= 1, whatever its sigma."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_converges_or_refuses_by_rho(self, seed):
        system, rho, u0 = bounded_draw(seed)
        options = RunOptions(u0=u0, tol=1e-9)
        if rho <= 0.95:
            assert run(system, options).converged_at is not None
        elif rho >= 1.0:
            with pytest.raises(ConvergenceError, match="cannot converge") as exc:
                run(system, options)
            assert len(exc.value.trace.iterates) == 2

    def test_draws_fall_on_both_sides(self):
        draws = [(convergence_rate(system), rho)
                 for system, rho, _ in map(bounded_draw, range(40))]
        assert any(sigma < 1.0 for sigma, _ in draws)
        assert any(sigma >= 1.0 and rho <= 0.95 for sigma, rho in draws)
        assert any(rho >= 1.0 for _, rho in draws)


class TestNegativeSteps:
    """trace.negative_steps lists exactly the steps, the start included,
    whose iterate has a negative entry, however the run ends."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_lists_exactly_the_negative_iterates(self, seed):
        _, trace = drawn_run(seed)
        assert trace.negative_steps == [
            k for k, u in enumerate(trace.iterates) if np.any(u < 0)
        ]

    def test_draws_reach_every_outcome(self):
        # a drawn system that could diverge is refused at step 1, so the
        # draws reach no DivergenceError; the unit tests above cover it
        outcomes = set()
        for seed in range(40):
            outcome, trace = drawn_run(seed)
            if outcome == "ConvergenceError":
                outcome = "refused" if len(trace.iterates) == 2 else "capped"
            outcomes.add(outcome)
        assert outcomes == {"converged", "capped", "refused", "NegativePowerError"}


class TestTraceOsnr:
    """The OSNR in dB that a CSV row derives from a recorded iterate,
    to_db(osnr(u)), matches the per-channel scalar oracle, with NaN exactly
    where the oracle raises: a non-positive denominator or ratio."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_channel_osnr_db(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        sysm = SystemMatrix(
            gamma=rng.uniform(0.0, 1e-2, (n, n)) * (rng.random((n, n)) < 0.8),
            n0=rng.uniform(1e-3, 1e-1, n),
        )
        # positive, zero and negative powers; large negative ones drive
        # denominators below zero
        u = rng.choice([0.0, 1.0, -1.0], n, p=[0.2, 0.6, 0.2]) * rng.uniform(0.01, 20.0, n)
        got = to_db(osnr(u, sysm))
        want = np.empty(n)
        for i in range(n):
            try:
                want[i] = osnr_db_scalar(u, sysm, i)
            except EvaluationError:
                want[i] = np.nan
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
