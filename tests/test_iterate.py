import numpy as np
import pytest

from osnrgame import (
    IterationConfig,
    PlayerParams,
    SeekerParams,
    ServicePartition,
    SystemMatrix,
    assemble,
    convergence_rate,
    player_update,
    run,
    seeker_equivalence_params,
    seeker_update,
    solve_dsnp,
    step,
)
from osnrgame.errors import (
    ConvergenceError,
    DivergenceError,
    EvaluationError,
    NegativePowerError,
    ValidationError,
)
from osnrgame.iterate import trace_osnr_db
from osnrgame.model import osnr_db


def make(gamma, n0, roles):
    sysm = SystemMatrix(gamma=np.asarray(gamma, float), n0=np.asarray(n0, float))
    part = ServicePartition(roles=tuple(roles))
    return sysm, part, assemble(sysm, part)


class TestStep:
    def test_fixture_a_one_step(self, fixture_a):
        sysm, part, _ = fixture_a
        out = step(np.array([0.5, 0.5]), sysm, part)
        # player: 2 - 100 * (0.023 - 0.001) * 0.5; seeker: (100/0.9) * 0.011
        assert out == pytest.approx([0.9, 1.1 / 0.9], rel=1e-13)

    def test_fixed_point(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack, sysm, part).u
        assert step(u_star, sysm, part) == pytest.approx(u_star, rel=1e-12)

    def test_decoupled_lands_in_one_move(self):
        sysm, part, _ = make(
            np.zeros((2, 2)), [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), SeekerParams(100.0)],
        )
        out = step(np.array([0.3, 0.3]), sysm, part)
        assert out == pytest.approx([1.0, 1.0], rel=1e-13)

    def test_synchronous_permutation_equivariance(self, fixture_a):
        sysm, part, _ = fixture_a
        u = np.array([0.4, 0.7])
        out = step(u, sysm, part)
        perm = np.array([1, 0])
        sysm_p = SystemMatrix(gamma=sysm.gamma[np.ix_(perm, perm)], n0=sysm.n0[perm])
        part_p = ServicePartition(roles=tuple(part.roles[k] for k in perm))
        out_p = step(u[perm], sysm_p, part_p)
        assert out_p[np.argsort(perm)] == pytest.approx(out, rel=1e-13)


class TestUpdateFormulas:
    def test_player_update_scalar(self):
        # beta/alpha - (1/a)(1/OSNR - Gamma_ii) u
        assert player_update(0.5, 0.023, 0.001, 2.0, 0.01) == pytest.approx(
            0.9, rel=1e-13
        )

    def test_seeker_update_scalar(self):
        assert seeker_update(0.5, 0.023, 0.001, 100.0) == pytest.approx(
            1.1 / 0.9, rel=1e-13
        )

    def test_seeker_update_singular(self):
        with pytest.raises(EvaluationError):
            seeker_update(0.5, 0.02, 0.001, 1000.0)

    def test_seeker_equivalence_params(self):
        eq = seeker_equivalence_params(100.0, 0.001)
        assert eq.beta_over_alpha == 0.0
        assert eq.a == pytest.approx(-0.009, rel=1e-14)

    def test_seeker_equivalence_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = rng.uniform(10.0, 500.0)
            gii = rng.uniform(1e-5, 1e-3)
            inv = rng.uniform(1e-3, 1.0)
            u = rng.uniform(0.01, 5.0)
            eq = seeker_equivalence_params(g, gii)
            lhs = seeker_update(u, inv, gii, g)
            rhs = player_update(u, inv, gii, eq.beta_over_alpha, eq.a)
            assert rhs == pytest.approx(lhs, rel=1e-13)

    def test_equivalence_invalid_target(self):
        with pytest.raises(ValidationError):
            seeker_equivalence_params(0.0, 0.001)


class TestConvergenceRate:
    def test_fixture_a(self, fixture_a):
        sysm, part, _ = fixture_a
        # player 0.002/0.01 = 0.2, seeker 100*0.002/0.9 = 0.2222...
        assert convergence_rate(sysm, part) == pytest.approx(0.2 / 0.9, rel=1e-14)

    def test_boundary_is_one(self):
        sysm, part, _ = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.002), SeekerParams(100.0)],
        )
        assert convergence_rate(sysm, part) == pytest.approx(1.0, rel=1e-14)

    def test_singular_rate(self):
        sysm, part, _ = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), SeekerParams(1000.0)],
        )
        with pytest.raises(EvaluationError):
            convergence_rate(sysm, part)


class TestRun:
    def test_converges_to_direct_solution(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack, sysm, part).u
        cfg = IterationConfig(u0=np.array([0.5, 0.5]), tol=1e-12)
        trace = run(cfg, sysm, part, reference=u_star)
        assert trace.converged_at is not None
        assert trace.final == pytest.approx(u_star, abs=1e-10)
        assert len(trace.iterates) == trace.converged_at + 1
        assert len(trace.osnr_db_history) == len(trace.iterates)

    def test_observed_contraction_bounded_by_rate(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack, sysm, part).u
        sigma = convergence_rate(sysm, part)
        # below tol ~1e-10 the error itself sits in rounding noise and the
        # measured ratios stop tracking the contraction factor
        cfg = IterationConfig(u0=np.array([0.5, 0.5]), tol=1e-10)
        trace = run(cfg, sysm, part, reference=u_star)
        ratios = [r for r in trace.contraction_ratios if r is not None]
        assert ratios
        assert max(ratios) <= sigma + 1e-9

    def test_start_at_solution(self, fixture_a):
        sysm, part, stack = fixture_a
        u_star = solve_dsnp(stack, sysm, part).u
        trace = run(IterationConfig(u0=u_star, tol=1e-8), sysm, part)
        assert trace.converged_at == 1

    def test_no_trace_recording(self, fixture_a):
        sysm, part, _ = fixture_a
        cfg = IterationConfig(u0=np.array([0.5, 0.5]), tol=1e-10, record_trace=False)
        trace = run(cfg, sysm, part)
        assert trace.iterates == []
        assert trace.osnr_db_history == []
        assert trace.final is not None

    def test_max_iter_exhausted(self, fixture_a):
        sysm, part, _ = fixture_a
        cfg = IterationConfig(u0=np.array([0.5, 0.5]), tol=1e-14, max_iter=3)
        with pytest.raises(ConvergenceError) as exc:
            run(cfg, sysm, part)
        assert exc.value.last is not None
        assert len(exc.value.trace.iterates) == 4

    def test_divergence(self):
        # both seeker gains exceed one: multiplicative blow-up
        sysm, part, _ = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [SeekerParams(600.0), SeekerParams(600.0)],
        )
        assert convergence_rate(sysm, part) > 1.0
        cfg = IterationConfig(u0=np.array([0.5, 0.5]), tol=1e-10, max_iter=10000)
        with pytest.raises(DivergenceError) as exc:
            run(cfg, sysm, part)
        assert exc.value.trace.iterates

    def test_non_finite_iterate_raises_at_once(self, fixture_a):
        # a zero power makes 1/OSNR infinite, and the update turns it into NaN
        sysm, part, _ = fixture_a
        cfg = IterationConfig(u0=np.zeros(2), tol=1e-10, max_iter=10000)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="step 1") as exc:
                run(cfg, sysm, part)
        assert len(exc.value.trace.iterates) == 2
        assert not np.all(np.isfinite(exc.value.trace.iterates[-1]))

    def test_strict_nonnegative_raises(self):
        sysm, part, _ = make(
            np.zeros((1, 1)), [0.01], [PlayerParams(1.0, 0.1, 0.001)]
        )
        cfg = IterationConfig(
            u0=np.array([0.5]), tol=1e-10, strict_nonnegative=True
        )
        with pytest.raises(NegativePowerError) as exc:
            run(cfg, sysm, part)
        assert exc.value.step == 1
        assert exc.value.u[0] < 0

    def test_negative_step_recorded_and_warned(self):
        sysm, part, _ = make(
            np.zeros((1, 1)), [0.01], [PlayerParams(1.0, 0.1, 0.001)]
        )
        cfg = IterationConfig(u0=np.array([0.5]), tol=1e-10)
        with pytest.warns(UserWarning):
            trace = run(cfg, sysm, part)
        assert 1 in trace.negative_steps

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            IterationConfig(u0=np.array([0.5]), tol=0.0)
        with pytest.raises(ValidationError):
            IterationConfig(u0=np.array([0.5]), max_iter=0)


def _osnr_db_per_channel(u, sysm):
    out = np.empty(sysm.size)
    for i in range(sysm.size):
        try:
            out[i] = osnr_db(u, sysm, i)
        except EvaluationError:
            out[i] = np.nan
    return out


class TestTraceOsnr:
    """The trace's OSNR vector matches per-channel osnr_db, NaN included."""

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
        got = trace_osnr_db(u, sysm)
        want = _osnr_db_per_channel(u, sysm)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
