import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnrgame import (
    PlayerParams,
    SeekerParams,
    ServicePartition,
    SystemMatrix,
    assemble,
    osnr,
    solve_dsnp,
)
from osnrgame.direct import verify
from osnrgame.errors import EvaluationError, UsageError, ValidationError
from osnrgame.model import to_db

from helpers import interference, osnr_scalar, player_cost


class TestOsnr:
    def test_no_coupling(self):
        sysm = SystemMatrix(gamma=np.zeros((1, 1)), n0=np.array([0.01]))
        assert osnr(np.array([1.0]), sysm) == pytest.approx([100.0], rel=1e-15)

    def test_fixture_a_midpoint(self, fixture_a):
        sysm, _, _ = fixture_a
        u = np.array([0.5, 0.5])
        assert osnr(u, sysm)[0] == pytest.approx(0.5 / 0.0115, rel=1e-12)

    def test_seeker_exact_at_solution(self, fixture_a):
        sysm, part, stack = fixture_a
        sol = solve_dsnp(stack)
        assert osnr(sol.u, sysm)[1] == pytest.approx(100.0, rel=1e-12)

    def test_self_term_in_denominator(self, fixture_a):
        sysm, _, _ = fixture_a
        u = np.array([0.744680851, 1.276595745])
        den = 0.01 + 0.001 * u[0] + 0.002 * u[1]
        assert osnr(u, sysm)[0] == pytest.approx(u[0] / den, rel=1e-14)

    def test_nonpositive_denominator(self):
        sysm = SystemMatrix(gamma=np.zeros((3, 3)), n0=np.array([0.01, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = osnr(np.array([1.0, 1.0, -1.0]), sysm)
        assert got[0] == pytest.approx(100.0, rel=1e-15)
        assert np.isnan(got[1]) and np.isnan(got[2])

    def test_precomputed_coupled_powers(self, fixture_a):
        sysm, _, _ = fixture_a
        u = np.array([0.4, 0.7])
        assert osnr(u, sysm, sysm.gamma @ u) == pytest.approx(osnr(u, sysm), rel=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_all_matches_per_channel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        sysm = SystemMatrix(gamma=rng.uniform(0.0, 1e-2, (n, n)), n0=rng.uniform(1e-3, 1e-1, n))
        u = rng.uniform(-1.0, 20.0, n)
        want = [osnr_scalar(u, sysm, i) for i in range(n)]
        assert osnr(u, sysm) == pytest.approx(want, rel=1e-13)

    def test_all_raises_at_first_nonpositive_denominator(self):
        # channels 2 and 3 have no noise floor; a zero and a negative power
        # leave their OSNR denominators at 0 and -0.001. osnr gives NaN
        # there, and verify raises at the first of them: channel 2 in the
        # message, array index 1 in exc.channel.
        sysm = SystemMatrix(gamma=np.diag([0.0, 0.0, 0.001]), n0=np.array([0.01, 0.0, 0.0]))
        part = ServicePartition(
            roles=(PlayerParams(1.0, 2.0, 0.01), SeekerParams(100.0), SeekerParams(100.0))
        )
        u = np.array([1.0, 0.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = osnr(u, sysm)
        assert np.isnan(got[1:]).all()
        with pytest.raises(EvaluationError, match="channel 2: non-positive") as exc:
            verify(u, assemble(sysm, part))
        assert exc.value.channel == 1


class TestOsnrDb:
    def test_decade(self):
        assert to_db(np.array([100.0])) == pytest.approx([20.0], abs=1e-12)

    def test_unity(self):
        assert to_db(np.array([1.0])) == pytest.approx([0.0], abs=1e-12)

    def test_fractional_db(self):
        assert to_db(np.array([10 ** 2.633])) == pytest.approx([26.33], abs=1e-12)

    def test_nonpositive_ratio_is_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = to_db(np.array([0.0, -2.0, np.nan, 10.0]))
        assert np.isnan(got[:3]).all()
        assert got[3] == pytest.approx(10.0, abs=1e-12)


class TestPlayerCost:
    """The scalar player cost of tests/helpers.py, which the acceptance gate
    uses to check stationarity."""

    def test_zero_power_zero_cost(self, fixture_a):
        sysm, part, _ = fixture_a
        u = np.array([0.0, 0.5])
        assert player_cost(0, u, sysm, part.roles[0]) == 0.0

    def test_pure_pricing(self, fixture_a):
        sysm, _, _ = fixture_a
        params = PlayerParams(alpha=1.0, beta=0.0, a=0.01)
        u = np.array([2.0, 0.0])
        assert player_cost(0, u, sysm, params) == pytest.approx(2.0, rel=1e-15)

    def test_at_fixture_a_solution(self, fixture_a):
        sysm, part, stack = fixture_a
        sol = solve_dsnp(stack)
        x = 0.01 + 0.002 * sol.u[1]
        expected = sol.u[0] - 2.0 * math.log(1.0 + 0.01 * sol.u[0] / x)
        got = player_cost(0, sol.u, sysm, part.roles[0])
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-0.18683, abs=1e-4)

    def test_domain_error(self):
        sysm = SystemMatrix(gamma=np.array([[0.0]]), n0=np.array([0.01]))
        params = PlayerParams(alpha=1.0, beta=1.0, a=1.0)
        with pytest.raises(EvaluationError):
            player_cost(0, np.array([-2.0]), sysm, params)


class TestAssemble:
    def test_fixture_a_exact(self, fixture_a):
        _, _, stack = fixture_a
        assert stack.A == pytest.approx(
            np.array([[0.01, 0.002], [-0.2, 0.9]]), rel=1e-15
        )
        assert stack.b == pytest.approx(np.array([0.01, 1.0]), rel=1e-15)
        assert stack.is_player.tolist() == [True, False]

    def test_all_players_is_pure_game(self, fixture_a):
        sysm, _, _ = fixture_a
        part = ServicePartition(roles=(
            PlayerParams(1.0, 2.0, 0.01), PlayerParams(1.0, 2.0, 0.01),
        ))
        stack = assemble(sysm, part)
        assert stack.n == 0
        assert stack.A[stack.is_player] == pytest.approx(stack.A)
        assert stack.A == pytest.approx(
            np.array([[0.01, 0.002], [0.002, 0.01]]), rel=1e-15
        )

    def test_all_seekers_tiny_target_near_identity(self, fixture_a):
        # the gamma -> 0 degenerate limit; gamma = 0 itself is outside the
        # role invariant, so approach it instead
        sysm, _, _ = fixture_a
        part = ServicePartition(roles=(
            SeekerParams(gamma=1e-12), SeekerParams(gamma=1e-12),
        ))
        stack = assemble(sysm, part)
        assert stack.A == pytest.approx(np.eye(2), abs=1e-12)
        assert stack.b == pytest.approx(np.zeros(2), abs=1e-12)

    @pytest.mark.parametrize(
        "role",
        [PlayerParams(1.0, math.inf, 0.01), PlayerParams(1.0, 2.0, math.inf),
         SeekerParams(gamma=math.inf)],
        ids=["beta-infinite", "a-infinite", "seeker-infinite"],
    )
    def test_non_finite_row_is_an_input_error(self, fixture_a, role):
        sysm, _, _ = fixture_a
        with pytest.raises(ValidationError, match="^channel 2: its row of A u = b is not finite$"):
            assemble(sysm, ServicePartition(roles=(PlayerParams(1.0, 2.0, 0.01), role)))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_the_per_role_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        sysm = SystemMatrix(gamma=rng.uniform(0.0, 1e-2, (n, n)), n0=rng.uniform(0.0, 1e-2, n))
        roles = tuple(
            PlayerParams(*rng.uniform(0.1, 3.0, 3)) if rng.random() < 0.5
            else SeekerParams(gamma=float(rng.uniform(1.0, 300.0)))
            for _ in range(n)
        )
        stack = assemble(sysm, ServicePartition(roles=roles))
        # the row of each role, one role at a time
        scale, diag, b = np.ones(n), np.empty(n), np.empty(n)
        for i, r in enumerate(roles):
            if isinstance(r, PlayerParams):
                diag[i], b[i] = r.a, r.a * r.beta / r.alpha - sysm.n0[i]
            else:
                scale[i], diag[i] = -r.gamma, 1.0 - r.gamma * sysm.gamma[i, i]
                b[i] = r.gamma * sysm.n0[i]
        a_mat = scale[:, None] * sysm.gamma
        a_mat[np.diag_indices(n)] = diag
        assert stack.A.tobytes() == a_mat.tobytes() and stack.b.tobytes() == b.tobytes()
        assert stack.is_player.tolist() == [isinstance(r, PlayerParams) for r in roles]

    def test_dimension_mismatch(self, fixture_a):
        sysm, _, _ = fixture_a
        part = ServicePartition(roles=(PlayerParams(1.0, 2.0, 0.01),))
        with pytest.raises(UsageError):
            assemble(sysm, part)

    def test_zero_channels_rejected_at_construction(self):
        # no system is assembled, so no reduction meets an empty array later
        with pytest.raises(ValidationError, match="at least one channel"):
            assemble(SystemMatrix(gamma=np.zeros((0, 0)), n0=np.zeros(0)),
                     ServicePartition(roles=()))

    def test_seeker_rows_encode_target(self, fixture_a):
        # any u solving the seeker rows exactly hits the target ratio
        sysm, part, stack = fixture_a
        rng = np.random.default_rng(7)
        for _ in range(20):
            u0 = rng.uniform(0.1, 2.0)
            # solve the single seeker row for u1 given u0
            u1 = (stack.b[1] - stack.A[1, 0] * u0) / stack.A[1, 1]
            u = np.array([u0, u1])
            assert osnr(u, sysm)[1] == pytest.approx(100.0, rel=1e-9)

    def test_player_rows_encode_first_order_condition(self, fixture_a):
        sysm, part, stack = fixture_a
        rng = np.random.default_rng(8)
        p = part.roles[0]
        for _ in range(20):
            u1 = rng.uniform(0.1, 2.0)
            u0 = (stack.b[0] - stack.A[0, 1] * u1) / stack.A[0, 0]
            u = np.array([u0, u1])
            x = interference(u, sysm, 0)
            foc = p.alpha - p.beta * p.a / (x + p.a * u[0])
            assert foc == pytest.approx(0.0, abs=1e-10)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        gamma = rng.uniform(0.0, 1e-2, (n, n))
        n0 = rng.uniform(1e-4, 1e-2, n)
        roles = tuple(
            PlayerParams(1.0, rng.uniform(1, 3), rng.uniform(0.05, 0.2))
            if rng.random() < 0.5
            else SeekerParams(rng.uniform(10, 100))
            for _ in range(n)
        )
        sysm = SystemMatrix(gamma=gamma, n0=n0)
        part = ServicePartition(roles=roles)
        stack = assemble(sysm, part)

        perm = rng.permutation(n)
        sysm_p = SystemMatrix(gamma=gamma[np.ix_(perm, perm)], n0=n0[perm])
        part_p = ServicePartition(roles=tuple(roles[k] for k in perm))
        stack_p = assemble(sysm_p, part_p)

        # channel order in, channel order out: rows and columns permute alike
        assert stack_p.A == pytest.approx(
            stack.A[np.ix_(perm, perm)], rel=1e-14, abs=1e-300
        )
        assert stack_p.b == pytest.approx(stack.b[perm], rel=1e-14)
        assert stack_p.is_player.tolist() == stack.is_player[perm].tolist()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_recovers_gamma(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        gamma = rng.uniform(1e-5, 1e-2, (n, n))
        n0 = rng.uniform(1e-4, 1e-2, n)
        roles = []
        for i in range(n):
            if i % 2 == 0:
                roles.append(PlayerParams(1.0, 2.0, rng.uniform(0.05, 0.2)))
            else:
                roles.append(SeekerParams(rng.uniform(10, 100)))
        sysm = SystemMatrix(gamma=gamma, n0=n0)
        part = ServicePartition(roles=tuple(roles))
        stack = assemble(sysm, part)

        recovered = np.empty_like(gamma)
        for i in np.flatnonzero(stack.is_player):
            recovered[i] = stack.A[i]
            recovered[i, i] = gamma[i, i]  # the diagonal is replaced by a_i
        for i in np.flatnonzero(~stack.is_player):
            g = part.roles[i].gamma
            recovered[i] = -stack.A[i] / g
            recovered[i, i] = (1.0 - stack.A[i, i]) / g
        assert recovered == pytest.approx(gamma, rel=1e-14)


class TestParamInvariants:
    def test_player_params(self):
        with pytest.raises(ValidationError):
            PlayerParams(alpha=0.0, beta=1.0, a=0.1)
        with pytest.raises(ValidationError):
            PlayerParams(alpha=1.0, beta=-1.0, a=0.1)
        with pytest.raises(ValidationError):
            PlayerParams(alpha=1.0, beta=1.0, a=0.0)

    def test_seeker_params(self):
        with pytest.raises(ValidationError):
            SeekerParams(gamma=0.0)

    def test_partition_counts(self, fixture_a):
        _, _, system = fixture_a  # assemble(sysm, part)
        assert system.m == 1 and system.n == 1
        assert system.is_player.tolist() == [True, False]
