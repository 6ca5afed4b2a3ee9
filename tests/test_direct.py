import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from osnrgame import (
    PlayerParams,
    SeekerParams,
    ServicePartition,
    SystemMatrix,
    assemble,
    check_feasibility,
    power_bounds,
    solve_dsnp,
)
from osnrgame.direct import verify
from osnrgame.errors import EvaluationError, SingularMatrixError
from osnrgame.model import ChannelSystem

from helpers import osnr_scalar, random_dominant_instance, random_small_system


def make(gamma, n0, roles):
    sysm = SystemMatrix(gamma=np.asarray(gamma, float), n0=np.asarray(n0, float))
    part = ServicePartition(roles=tuple(roles))
    return sysm, part, assemble(sysm, part)


class TestCheckFeasibility:
    def test_fixture_a_all_hold(self, fixture_a):
        sysm, part, stack = fixture_a
        rep = check_feasibility(stack)
        assert rep.condition.all()
        assert rep.sigma == pytest.approx(0.2 / 0.9, rel=1e-14)  # dominant: under 1
        assert rep.nonsingular
        # margins: |0.01| - 0.002 and |0.9| - 0.2
        assert rep.margins == pytest.approx([0.008, 0.7], rel=1e-12)

    def test_greedy_seeker_fails(self):
        # gamma * row sum = 2000 * 0.003 = 6 >= 1
        sysm, part, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), SeekerParams(2000.0)],
        )
        rep = check_feasibility(stack)
        assert rep.condition.tolist() == [True, False]  # channel 2 is the seeker

    def test_weak_player_fails(self):
        sysm, part, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.001), SeekerParams(100.0)],
        )
        rep = check_feasibility(stack)
        assert rep.condition.tolist() == [False, True]

    def test_condition_is_in_channel_order(self):
        # seeker 100 * 0.004 < 1 holds; player 0.001 < 0.004 and seeker
        # 300 * 0.004 >= 1 fail. Players first would read [False, True, False].
        gamma = [[0.001, 0.002, 0.001], [0.002, 0.001, 0.002], [0.001, 0.002, 0.001]]
        sysm, part, stack = make(
            gamma, [0.01] * 3,
            [SeekerParams(100.0), PlayerParams(1.0, 2.0, 0.001), SeekerParams(300.0)],
        )
        assert check_feasibility(stack).condition.tolist() == [True, False, False]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_condition_is_each_channels_row_condition(self, seed):
        stack = random_small_system(np.random.default_rng(seed))
        gamma = stack.matrix.gamma
        want = [
            role.a > gamma[i].sum() - gamma[i, i] if isinstance(role, PlayerParams)
            else role.gamma * gamma[i].sum() < 1.0
            for i, role in enumerate(stack.partition.roles)
        ]
        assert check_feasibility(stack).condition.tolist() == want

    def test_zero_coupling_always_feasible(self):
        sysm, part, stack = make(
            np.zeros((2, 2)), [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), SeekerParams(100.0)],
        )
        rep = check_feasibility(stack)
        assert rep.condition.all()
        assert rep.sigma == 0.0
        assert rep.nonsingular

    def test_singular_reported_not_raised(self):
        # both player rows are (0.01, 0.01): rank one
        sysm, part, stack = make(
            [[0.5, 0.01], [0.01, 0.5]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), PlayerParams(1.0, 2.0, 0.01)],
        )
        rep = check_feasibility(stack)
        assert not rep.nonsingular
        assert rep.sigma == pytest.approx(1.0, rel=1e-14)  # not dominant

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_dominance_implies_nonsingular(self, seed):
        rng = np.random.default_rng(seed)
        sysm, part, stack = random_dominant_instance(rng, n_max=12)
        rep = check_feasibility(stack)
        assert rep.condition.all()
        assert rep.sigma < 1.0
        assert rep.nonsingular
        assert np.all(rep.margins > 0)


class TestSolveDsnp:
    def test_fixture_a(self, fixture_a):
        sysm, part, stack = fixture_a
        sol = solve_dsnp(stack)
        assert sol.u == pytest.approx([35.0 / 47.0, 60.0 / 47.0], rel=1e-12)
        assert sol.osnr == pytest.approx([56.0, 100.0], rel=1e-12)
        assert sol.osnr_db[1] == pytest.approx(20.0, abs=1e-12)
        assert sol.seeker_residuals[0] < 1e-12
        assert sol.player_foc_residuals[0] < 1e-14
        assert sol.nonnegative

    def test_residual_quality_random(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            sysm, part, stack = random_dominant_instance(rng, n_max=20)
            sol = solve_dsnp(stack)
            scale = np.linalg.norm(stack.b, np.inf)
            assert np.max(np.abs(stack.A @ sol.u - stack.b)) < 1e-12 * scale
            if len(sol.seeker_residuals):
                assert np.max(sol.seeker_residuals) < 1e-9

    def test_decoupled_closed_form(self):
        sysm, part, stack = make(
            np.zeros((2, 2)), [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), SeekerParams(100.0)],
        )
        sol = solve_dsnp(stack)
        # player: u = beta/alpha - n0/a, seeker: u = gamma * n0
        assert sol.u == pytest.approx([2.0 - 1.0, 1.0], rel=1e-14)

    def test_negative_solution_recorded(self):
        # undersized willingness to pay drives the player allocation negative;
        # the solution records it and nothing is warned
        sysm, part, stack = make(
            np.zeros((1, 1)), [0.01],
            [PlayerParams(1.0, 0.5, 0.01)],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_dsnp(stack)
        assert sol.u[0] == pytest.approx(-0.5, rel=1e-14)
        assert not sol.nonnegative

    def test_singular_raises(self):
        sysm, part, stack = make(
            [[0.5, 0.01], [0.01, 0.5]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), PlayerParams(1.0, 2.0, 0.01)],
        )
        with pytest.raises(SingularMatrixError) as exc:
            solve_dsnp(stack)
        assert exc.value.smallest_pivot < 1e-12

    def test_verify_standalone(self, fixture_a):
        sysm, part, stack = fixture_a
        sol = verify(np.array([35.0 / 47.0, 60.0 / 47.0]), stack)
        assert sol.seeker_residuals[0] < 1e-12
        assert sol.player_foc_residuals[0] < 1e-15

    def test_verify_osnr_db_nan_where_ratio_not_positive(self, fixture_a):
        # a negative power has a positive denominator but no OSNR in dB
        sysm, part, stack = fixture_a
        sol = verify(np.array([-0.5, 1.0]), stack)
        assert not sol.nonnegative
        assert sol.osnr[0] < 0 and np.isnan(sol.osnr_db[0])
        assert sol.osnr_db[1] == pytest.approx(10 * np.log10(sol.osnr[1]), abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_verify_matches_row_by_row_residuals(self, seed):
        rng = np.random.default_rng(seed)
        sysm, part, stack = random_dominant_instance(rng, n_max=20)
        u = rng.uniform(0.01, 5.0, stack.size)
        sol = verify(u, stack)
        p = stack.is_player
        want_foc = np.abs(stack.A[p] @ u - stack.b[p])
        scale = np.abs(stack.A[p]) @ u + np.abs(stack.b[p])
        assert np.all(np.abs(sol.player_foc_residuals - want_foc) <= 1e-13 * scale)
        want_seek = [
            abs(osnr_scalar(u, sysm, i) - part.roles[i].gamma) / part.roles[i].gamma
            for i in np.flatnonzero(~p)
        ]
        assert sol.seeker_residuals == pytest.approx(want_seek, rel=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_is_the_sign_of_every_power(self, seed):
        # entries drawn from {small negative, -0.0, 0.0, positive}; a negative
        # one is small enough that every OSNR denominator stays positive
        rng = np.random.default_rng(seed)
        system = random_small_system(rng)
        u = rng.choice([-0.002, -0.0, 0.0, 1.0], system.size) * rng.uniform(0.5, 2.0, system.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = verify(u, system)
        assert sol.nonnegative == bool(np.all(u >= 0))


class TestSpecialCases:
    def test_scalar_target_only(self):
        sysm, part, stack = make([[0.001]], [0.01], [SeekerParams(100.0)])
        sol = solve_dsnp(stack)
        assert sol.u[0] == pytest.approx(1.0 / 0.9, rel=1e-10)
        assert sol.osnr[0] == pytest.approx(100.0, rel=1e-10)

    def test_scalar_equilibrium(self):
        sysm, part, stack = make([[0.5]], [0.01], [PlayerParams(1.0, 1.01, 1.0)])
        sol = solve_dsnp(stack)
        assert sol.u[0] == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_equilibrium(self):
        sysm, part, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), PlayerParams(1.0, 2.0, 0.01)],
        )
        sol = solve_dsnp(stack)
        assert sol.u == pytest.approx([5.0 / 6.0, 5.0 / 6.0], rel=1e-12)


class TestPowerBounds:
    def test_fixture_a_prime_exact(self, fixture_a_prime):
        sysm, part, stack = fixture_a_prime
        rep = power_bounds(stack)
        assert rep.preconditions_hold

        # independent 2x2 oracle for the inf-norm condition number
        bar = np.array([[2.5, 0.002], [-0.2, 0.9]])
        det = 2.5 * 0.9 + 0.002 * 0.2
        inv = np.array([[0.9, -0.002], [0.2, 2.5]]) / det
        kappa = max(2.502, 1.1) * max(abs(inv).sum(axis=1))
        assert rep.kappa_inf == pytest.approx(kappa, rel=1e-12)
        assert rep.kappa_inf == pytest.approx(3.0018663, abs=1e-6)

        assert rep.lower_inf == pytest.approx(0.2, rel=1e-12)
        assert rep.upper_inf == pytest.approx(kappa * 1.0, rel=1e-12)

        sol = solve_dsnp(stack)
        assert sol.u == pytest.approx([0.99493, 1.33221], abs=1e-5)
        m = np.max(np.abs(sol.u))
        assert rep.lower_inf <= m <= rep.upper_inf

    def test_fixture_a_preconditions_fail(self, fixture_a):
        # the small pricing parameter keeps T below the seeker bound
        sysm, part, stack = fixture_a
        rep = power_bounds(stack)
        assert not rep.preconditions_hold

    def test_all_players_no_seeker_bound(self):
        sysm, part, stack = make(
            [[0.001, 0.002], [0.002, 0.001]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), PlayerParams(1.0, 2.0, 0.01)],
        )
        rep = power_bounds(stack)
        assert rep.lower_inf == 0.0
        assert rep.upper_inf is not None

    def test_all_seekers_no_upper(self):
        sysm, part, stack = make([[0.001]], [0.01], [SeekerParams(100.0)])
        rep = power_bounds(stack)
        assert rep.upper_inf is None

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_bracket_holds_under_preconditions(self, seed):
        rng = np.random.default_rng(seed)
        sysm, part, stack = random_dominant_instance(rng, n_max=10, bounds_regime=True)
        rep = power_bounds(stack)
        if not rep.preconditions_hold:
            return
        sol = solve_dsnp(stack)
        m = float(np.max(np.abs(sol.u)))
        assert rep.lower_inf <= m + 1e-12
        assert m <= rep.upper_inf + 1e-12


class TestSharedFactorization:
    """One LU factorization per system serves the feasibility check, the
    solve and the bounds."""

    @pytest.fixture
    def lu_calls(self, monkeypatch):
        calls = []
        original = scipy.linalg.lu_factor

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
        monkeypatch.setattr(np.linalg, "inv", None)  # kappa must not need it
        return calls

    def test_factored_once(self, fixture_a, lu_calls):
        sysm, part, stack = fixture_a
        assert check_feasibility(stack).nonsingular
        solve_dsnp(stack)
        power_bounds(stack)
        assert len(lu_calls) == 1

    def test_singular_outcome_cached(self, lu_calls):
        sysm, part, stack = make(
            [[0.5, 0.01], [0.01, 0.5]], [0.01, 0.01],
            [PlayerParams(1.0, 2.0, 0.01), PlayerParams(1.0, 2.0, 0.01)],
        )
        assert not check_feasibility(stack).nonsingular
        for solver in (lambda: solve_dsnp(stack), lambda: power_bounds(stack)):
            with pytest.raises(SingularMatrixError):
                solver()
        assert len(lu_calls) == 1

    def test_system_holds_three_arrays(self, fixture_a):
        # the three arrays of A u = b, and the two inputs they were built from
        sysm, part, stack = fixture_a
        power_bounds(stack)
        assert [f.name for f in dataclasses.fields(ChannelSystem)] == [
            "A", "b", "matrix", "partition"
        ]
        assert stack.matrix is sysm and stack.partition is part
        assert stack.is_player is part.is_player  # one mask: the roles' own
        assert not stack.A.flags.writeable  # the cached factors stay valid

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_kappa_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        sysm, part, stack = random_dominant_instance(rng, n_max=30)
        rep = power_bounds(stack)
        assert rep.kappa_inf == pytest.approx(np.linalg.cond(stack.A, np.inf), rel=1e-12)
