"""The fallback problem: min ||Gt u - bt|| s.t. Gh u >= bh, minimum-norm
minimizer, multipliers on the scale of the squared objective."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osnrgame import (
    PlayerParams,
    SeekerParams,
    ServicePartition,
    SystemMatrix,
    assemble,
    solve_dsnp,
    solve_qp,
)
from osnrgame import qp as qp_mod
from osnrgame.errors import InfeasibleError, UsageError
from osnrgame.qp import (
    LeastResidual,
    QpProblem,
    build_qp,
    build_qp_from_stack,
    recover_primal,
    solve_dual,
)

from helpers import (
    exact_fallback,
    exact_kkt_certifies,
    farkas_certificate_checks,
    grid_minimum,
    random_dominant_instance,
    random_small_qp,
    random_small_system,
)


def solve_arrays(gt, bt, gh, bh, on_step=None):
    qp = build_qp(gt, bt, gh, bh)
    return recover_primal(qp, solve_dual(qp, on_step=on_step))


def forced_search(system):
    """All three steps of the active-set method, whatever the system."""
    qp = build_qp_from_stack(system)
    return recover_primal(qp, solve_dual(qp))


def dual_calls(monkeypatch, fail=False):
    """Count the calls solve_qp makes to solve_dual; with fail, any call fails."""
    calls, original = [], solve_dual

    def counted(qp, on_step=None):
        calls.append(qp)
        assert not fail, "solve_dual ran"
        return original(qp, on_step=on_step)

    monkeypatch.setattr(qp_mod, "solve_dual", counted)
    return calls


# one player and two seekers, rounded from a random_small_system draw: the
# multiplier of the first seeker row at u* = A^-1 b is -1.73
NEGATIVE_MULTIPLIER = (
    SystemMatrix(
        gamma=np.array([[0.31, 0.39, 0.31], [0.46, 0.02, 0.26], [0.23, 0.03, 0.32]]),
        n0=np.array([0.087, 0.063, 0.033]),
    ),
    ServicePartition(
        roles=(PlayerParams(1.0, 2.6, 0.56), SeekerParams(2.29), SeekerParams(3.14))
    ),
)

# the player row (0.01, 0.002) and the seeker row (-5, -1) are parallel
SINGULAR = (
    SystemMatrix(gamma=np.array([[0.001, 0.002], [0.0025, 0.001]]), n0=np.array([0.01, 0.01])),
    ServicePartition(roles=(PlayerParams(1.0, 2.0, 0.01), SeekerParams(2000.0))),
)


# singular with one service class: u1 + u2 = 0.9 twice (no seeker rows),
# and 0.5 (u1 - u2) >= 0.1 with 0.5 (u2 - u1) >= 0.1 (no player rows)
ALL_PLAYERS_SINGULAR = (
    SystemMatrix(gamma=np.array([[0.0, 1.0], [1.0, 0.0]]), n0=np.array([0.1, 0.1])),
    ServicePartition(roles=(PlayerParams(1.0, 1.0, 1.0),) * 2),
)
ALL_SEEKERS_SINGULAR = (
    SystemMatrix(gamma=np.full((2, 2), 0.5), n0=np.array([0.1, 0.1])),
    ServicePartition(roles=(SeekerParams(1.0),) * 2),
)


class TestBuildQp:
    def test_fixture_b_data(self, fixture_b):
        gt, bt, gh, bh = fixture_b
        qp = build_qp(gt, bt, gh, bh)
        assert [f.name for f in dataclasses.fields(QpProblem)] == [
            "gamma_tilde", "b_tilde", "gamma_hat", "b_hat",
        ]
        assert qp.gamma_tilde == pytest.approx(gt) and qp.gamma_tilde.ndim == 2
        assert qp.b_tilde == pytest.approx(bt) and qp.b_tilde.ndim == 1
        assert qp.gamma_hat == pytest.approx(gh) and qp.gamma_hat.ndim == 2
        assert qp.b_hat == pytest.approx(bh) and qp.b_hat.ndim == 1

    def test_gradient_convention(self):
        # mu multiplies the squared objective: its finite-difference gradient
        # at the optimum equals Gh^T mu
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(2, 3))
        bt = rng.normal(size=2)
        gh = rng.normal(size=(1, 2)) @ gt  # in the player row space
        u_ls = np.linalg.lstsq(gt, bt, rcond=None)[0]
        bh = gh @ u_ls + 1.0  # cut off every unconstrained minimizer
        res = solve_arrays(gt, bt, gh, bh)
        assert res.mu[0] > 0.1
        eps = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            num = (
                np.linalg.norm(gt @ (res.u + e) - bt) ** 2
                - np.linalg.norm(gt @ (res.u - e) - bt) ** 2
            ) / (2 * eps)
            assert (gh.T @ res.mu)[k] == pytest.approx(num, rel=1e-6, abs=1e-8)

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            build_qp(np.ones((1, 2)), np.zeros(1), np.ones((1, 3)), np.zeros(1))


class TestSolveDual:
    def test_fixture_b_multiplier(self, fixture_b):
        least = solve_dual(build_qp(*fixture_b))
        assert least.mu == pytest.approx([2.0], abs=1e-12)
        assert least.working.tolist() == [True]

    def test_nonpositive_linear_term_keeps_zero(self):
        # the unconstrained minimizer already meets the constraint (the
        # linear term bh - Gh u_ls is nonpositive), so mu* = 0
        gt = np.eye(2)
        bt = np.array([1.0, 1.0])
        gh = np.array([[1.0, 0.0]])
        bh = np.array([0.5])
        assert np.all(bh - gh @ np.linalg.solve(gt, bt) <= 0)
        least = solve_dual(build_qp(gt, bt, gh, bh))
        assert least.mu == pytest.approx([0.0], abs=1e-12)
        assert least.u == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_separable_active_inactive(self):
        # min ||u|| with sqrt2 u1 >= sqrt2 (active) and sqrt2 u2 >= -sqrt2
        # (inactive): u = (1, 0), mu = (sqrt2, 0)
        s = np.sqrt(2.0)
        res = solve_arrays(
            np.eye(2), np.zeros(2),
            np.array([[s, 0.0], [0.0, s]]), np.array([s, -s]),
        )
        assert res.mu == pytest.approx([s, 0.0], abs=1e-9)
        assert res.u == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_monotone_descent(self, fixture_b):
        # on_step gets (point, value): NNLS multipliers with the NNLS residual,
        # then power vectors with the objective; neither value ever rises
        calls = []
        solve_dual(build_qp(*fixture_b), on_step=lambda x, v: calls.append((len(x), v)))
        assert len(calls) >= 2
        n_seekers, n_cols = 1, 2
        for size in (n_seekers, n_cols):
            values = [v for n, v in calls if n == size]
            assert values
            assert np.all(np.diff(values) <= 1e-12 * (1.0 + np.abs(values[:-1])))

    def test_seeker_row_outside_player_row_space_is_met(self):
        # the constraint row lies outside the player row space: the row-space
        # restriction had no feasible point, the whole space has u = (0, 1)
        res = solve_arrays(
            np.array([[1.0, 0.0]]), np.array([0.0]),
            np.array([[0.0, 1.0]]), np.array([1.0]),
        )
        assert res.u == pytest.approx([0.0, 1.0], abs=1e-12)
        assert res.objective < 1e-12
        assert res.mu == pytest.approx([0.0], abs=1e-12)

    @pytest.mark.parametrize(
        "gh, bh",
        [
            ([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [1.0, 1.0]),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [1.0, 1.0, -1.0]),
            ([[0.0, 0.0, 0.0]], [0.5]),
        ],
        ids=["opposite", "triangle", "zero_row"],
    )
    def test_contradictory_seekers_raise_infeasible(self, gh, bh):
        gh, bh = np.array(gh), np.array(bh)
        with pytest.raises(InfeasibleError) as exc:
            solve_dual(build_qp(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]), gh, bh))
        y = exc.value.certificate
        assert y.shape == bh.shape
        if np.any(gh):
            assert farkas_certificate_checks(gh, bh, y)
        else:
            assert np.all(y >= 0) and bh @ y > 0


class TestRecoverPrimal:
    def test_zero_multiplier_is_least_squares(self):
        rng = np.random.default_rng(5)
        gt = rng.normal(size=(2, 2))
        bt = rng.normal(size=2)
        res = solve_arrays(gt, bt, np.ones((1, 2)), np.array([-100.0]))
        assert res.mu == pytest.approx([0.0], abs=1e-12)
        assert res.u == pytest.approx(np.linalg.solve(gt, bt), rel=1e-9)
        assert res.objective < 1e-9
        assert res.stationarity_residual < 1e-9

    def test_fixture_b_end_to_end(self, fixture_b):
        res = solve_arrays(*fixture_b)
        assert res.u == pytest.approx([1.0, 1.0], abs=1e-12)
        assert res.objective == pytest.approx(1.0, abs=1e-12)
        assert res.stationarity_residual < 1e-12
        assert res.primal_feasibility_violation < 1e-12
        assert res.complementary_slackness < 1e-12

    def test_negative_multiplier_rejected(self, fixture_b):
        qp = build_qp(*fixture_b)
        least = LeastResidual(
            mu=np.array([-1.0]), u=np.array([1.0, 1.0]), working=np.array([True])
        )
        with pytest.raises(UsageError):
            recover_primal(qp, least)

    def test_minimum_norm_over_the_player_null_space(self):
        # every u with u1 = 1 and u2 + u3 >= 2 has objective 0; the shortest
        # is (1, 1, 1), outside the player row space span{e1}
        res = solve_arrays(
            np.array([[1.0, 0.0, 0.0]]), np.array([1.0]),
            np.array([[0.0, 1.0, 1.0]]), np.array([2.0]),
        )
        assert res.u == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        assert res.objective < 1e-12

    def test_duplicate_player_rows(self):
        # rank-deficient objective: two copies of u1 + u2 asking for 1 and 3;
        # the least residual puts u1 + u2 = 2 (objective sqrt2) and the
        # seeker row u3 >= 1 stays active at the minimum-norm point (1, 1, 1)
        res = solve_arrays(
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]), np.array([1.0, 3.0]),
            np.array([[0.0, 0.0, 1.0]]), np.array([1.0]),
        )
        assert res.u == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        assert res.objective == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert res.mu == pytest.approx([0.0], abs=1e-12)


class TestAgainstGridOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(20240817)
        solved = 0
        for _ in range(25):
            gt, bt, gh, bh = random_small_qp(rng)
            try:
                res = solve_arrays(gt, bt, gh, bh)
            except InfeasibleError as exc:
                assert farkas_certificate_checks(gh, bh, exc.certificate)
                continue
            oracle = grid_minimum(gt, bt, gh, bh, float(np.max(np.abs(res.u))))
            assert oracle is not None
            assert res.objective <= oracle + 1e-5
            assert res.primal_feasibility_violation < 1e-9
            assert res.complementary_slackness < 1e-9
            assert res.stationarity_residual < 1e-9
            solved += 1
        assert solved >= 20

    def test_feasible_family_degenerates_to_exact(self):
        # constraints slack at the minimum-norm interpolating point: the
        # fallback returns that point with mu = 0
        rng = np.random.default_rng(99)
        for _ in range(15):
            n_cols = int(rng.integers(2, 5))
            m = int(rng.integers(1, n_cols + 1))
            a = rng.normal(size=(m, n_cols))
            u0_r = a.T @ rng.normal(size=m)  # a row-space point
            bt = a @ u0_r
            mrows = rng.normal(size=(2, m))
            gh = mrows @ a
            bh = gh @ u0_r - rng.uniform(0.1, 1.0, 2)
            res = solve_arrays(a, bt, gh, bh)
            assert res.mu == pytest.approx(np.zeros(2), abs=1e-10)
            assert res.objective < 1e-8
            assert res.primal_feasibility_violation == 0.0
            assert res.u == pytest.approx(u0_r, abs=1e-9)


def small_systems():
    """random_small_system draws, with both classes or with one."""
    return st.builds(
        lambda seed, only: random_small_system(np.random.default_rng(seed), only=only),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([None, "player", "seeker"]),
    )


class TestAgainstExactOracle:
    """solve_qp against the fallback's answer in rational arithmetic."""

    @given(system=small_systems())
    @example(system=assemble(*ALL_PLAYERS_SINGULAR))
    @example(system=assemble(*ALL_SEEKERS_SINGULAR))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_exact_minimizer(self, system):
        exact = exact_fallback(system)
        if exact is None:
            qp = build_qp_from_stack(system)
            with pytest.raises(InfeasibleError) as exc:
                solve_qp(system)
            assert farkas_certificate_checks(qp.gamma_hat, qp.b_hat, exc.value.certificate)
            return
        res = solve_qp(system)
        assert np.linalg.norm(res.u - exact) <= 1e-9 * np.linalg.norm(exact)
        assert (res.route == "kkt") == exact_kkt_certifies(system)

    def test_one_class_singular_answers(self):
        assert exact_fallback(assemble(*ALL_PLAYERS_SINGULAR)).tolist() == [0.45, 0.45]
        assert exact_fallback(assemble(*ALL_SEEKERS_SINGULAR)) is None


class TestSolveQpOnStack:
    def test_matches_manual_pipeline(self, fixture_a):
        _, _, stack = fixture_a
        qp = build_qp_from_stack(stack)
        manual = recover_primal(qp, solve_dual(qp))
        auto = solve_qp(stack)
        assert auto.u == pytest.approx(manual.u, rel=1e-12, abs=1e-15)
        assert auto.objective == pytest.approx(manual.objective, abs=1e-15)

    def test_weak_duality_on_stack(self, fixture_a):
        # the Lagrangian dual value at mu, min over u of
        # ||Gt u - bt||^2 - mu . (Gh u - bh), computed here by least squares,
        # never exceeds the attained squared norm, and meets it at the optimum
        _, _, stack = fixture_a
        qp = build_qp_from_stack(stack)
        res = recover_primal(qp, solve_dual(qp))
        gt, bt, gh, bh = qp.gamma_tilde, qp.b_tilde, qp.gamma_hat, qp.b_hat
        rhs = 2.0 * gt.T @ bt + gh.T @ res.mu
        u = np.linalg.lstsq(2.0 * gt.T @ gt, rhs, rcond=None)[0]
        assert np.allclose(2.0 * gt.T @ gt @ u, rhs, atol=1e-9)  # bounded below
        dual = np.linalg.norm(gt @ u - bt) ** 2 - res.mu @ (gh @ u - bh)
        assert dual <= res.objective**2 + 1e-9
        assert dual == pytest.approx(res.objective**2, abs=1e-9)

    def test_dominant_instances_reach_the_targets_with_least_power(self):
        # the direct solution meets every row, so the fallback reaches
        # objective 0, and its minimum-norm answer is no longer than it
        rng = np.random.default_rng(20241018)
        for _ in range(30):
            sysm, partition, system = random_dominant_instance(rng, n_max=30)
            u_direct = solve_dsnp(system).u
            res = solve_qp(system)
            scale = float(np.max(np.abs(system.b)))
            assert res.objective <= 1e-9 * scale
            assert res.primal_feasibility_violation <= 1e-9 * scale
            assert np.linalg.norm(res.u) <= np.linalg.norm(u_direct) + 1e-9


class TestRoutes:
    """A nonsingular system is certified at u* = A^-1 b when it can be; every
    other system takes all three steps of the search."""

    def test_certified_instance_skips_the_search(self, fixture_a, monkeypatch):
        _, _, system = fixture_a
        want = forced_search(system)
        assert want.route == "active_set"
        dual_calls(monkeypatch, fail=True)
        res = solve_qp(system)
        assert res.route == "kkt"
        assert res.u == pytest.approx(want.u, rel=1e-12, abs=0.0)
        assert res.u == pytest.approx(system.equality_solution(), rel=0.0, abs=0.0)
        assert res.mu.tolist() == [0.0]
        assert res.objective == pytest.approx(want.objective, abs=1e-15)

    def test_negative_multiplier_takes_the_search(self, monkeypatch):
        system = assemble(*NEGATIVE_MULTIPLIER)
        u_star = system.equality_solution()
        w = system.solve(2.0 * u_star, trans=1)
        assert w[1] == pytest.approx(-1.73, abs=0.01) and w[2] > 0
        want = forced_search(system)
        calls = dual_calls(monkeypatch)
        res = solve_qp(system)
        assert len(calls) == 1
        assert res.route == "active_set"
        assert res.u == pytest.approx(want.u, rel=1e-12)
        assert np.linalg.norm(res.u) < np.linalg.norm(u_star) - 0.1
        assert res.primal_feasibility_violation < 1e-12
        # the grid oracle on the objective, then on the norm over the optimal
        # set {u* + N z : Gh (u* + N z) >= bh}, with N a basis of null(Gt)
        qp = build_qp_from_stack(system)
        gt, bt, gh, bh = qp.gamma_tilde, qp.b_tilde, qp.gamma_hat, qp.b_hat
        scale = float(np.max(np.abs(res.u)))
        assert res.objective <= grid_minimum(gt, bt, gh, bh, scale) + 1e-5
        null = np.linalg.svd(gt)[2][gt.shape[0]:].T
        shortest = grid_minimum(null, -u_star, gh @ null, bh - gh @ u_star, scale)
        assert np.linalg.norm(res.u) <= shortest + 1e-5

    def test_singular_system_takes_every_step(self, monkeypatch):
        system = assemble(*SINGULAR)
        assert not system.nonsingular
        calls = dual_calls(monkeypatch)
        res = solve_qp(system)
        assert len(calls) == 1
        assert res.route == "active_set"
        assert res.objective == pytest.approx(0.05, abs=1e-6)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_search_on_small_nonsingular_systems(self, seed):
        system = random_small_system(np.random.default_rng(seed))
        if not system.nonsingular:
            return
        res, want = solve_qp(system), forced_search(system)
        assert np.linalg.norm(res.u - want.u) <= 1e-9 * np.linalg.norm(want.u)
        assert res.objective <= 1e-9 * float(np.max(np.abs(system.b)))
