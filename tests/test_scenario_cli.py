import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osnrgame
from osnrgame import (
    ServicePartition, assemble, convergence_rate, execute, load_scenario, power_bounds,
)
from osnrgame.cli import main
from osnrgame.direct import Solution
from osnrgame.errors import EvaluationError, InfeasibleError, ScenarioError
from osnrgame.link import ChannelSpec, GainProfile, Span, db_to_linear
from osnrgame.qp import QpResult
from osnrgame.run import emit
from osnrgame.scenario import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DEFAULT_U0_MW,
    RunOptions,
    Scenario,
    demo3_scenario,
    demo30_scenario,
    scenario_from_dict,
    wavelength_grid,
)

from helpers import osnr_db_scalar, subprocess_env

FIXTURE_A_DOC = {
    "matrix": {"gamma": [[0.001, 0.002], [0.002, 0.001]], "n0": [0.01, 0.01]},
    "partition": [
        {"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.01},
        {"role": "seeker", "target_osnr_db": 20.0},
    ],
}

# the direct solve gives channel 2 a negative power, so it has no OSNR
NO_OSNR_DOC = {
    "matrix": {"gamma": [[0.40793, 0.00137], [0.42870, 0.01679]], "n0": [0.00757, 0.00258]},
    "partition": [
        {"role": "player", "alpha": 1.0, "beta": 2.5895, "a": 0.5873},
        {"role": "player", "alpha": 1.0, "beta": 0.8991, "a": 0.4804},
    ],
    "run": {"solver": "auto"},
}

# every run option set away from its default, to see which ones a flag overrides
RUN_OPTIONS_DOC = {
    **FIXTURE_A_DOC,
    "run": {"tol": 1e-6, "max_iter": 7, "u0": [0.2, 0.3], "strict_nonnegative": True,
            "solver": "qp"},
}

# one player whose price is too high for its willingness to pay: the
# two-person nonnegativity condition fails and u = -0.5 mW
NEGATIVE_DOC = {
    "matrix": {"gamma": [[0.0]], "n0": [0.01]},
    "partition": [{"role": "player", "alpha": 1.0, "beta": 0.5, "a": 0.01}],
}

# player row (0.01, 0.002) and seeker row (-5, -1) are parallel: the
# stacked matrix is exactly singular and auto routing must fall back
SINGULAR_DOC = {
    "matrix": {"gamma": [[0.001, 0.002], [0.0025, 0.001]], "n0": [0.01, 0.01]},
    "partition": [
        {"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.01},
        {"role": "seeker", "target_osnr_db": 10.0 * np.log10(2000.0)},
    ],
}

# a 30 dB seeker on fixture A's matrix: its target times its self-coupling
# is 1, so A has a 0 on its diagonal, yet det A = 0.004 and u = (-5, 30)
ZERO_DIAGONAL_DOC = {
    "matrix": {"gamma": [[0.001, 0.002], [0.002, 0.001]], "n0": [0.01, 0.01]},
    "partition": [
        {"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.01},
        {"role": "seeker", "target_osnr_db": 30.0},
    ],
}

# numerically singular with one service class: the fallback is least
# squares without constraints (all players, u1 + u2 = 0.9 twice) or least
# distance without an objective (all seekers, whose rows contradict)
# two 3 dB seekers that u* = A^-1 b meets at least power
TWO_SEEKER_DOC = {
    "matrix": {"gamma": [[0.1, 0.05], [0.05, 0.1]], "n0": [0.1, 0.1]},
    "partition": [{"role": "seeker", "target_osnr_db": 3.0}] * 2,
}

ONE_CLASS_SINGULAR_DOCS = {
    "players": {
        "matrix": {"gamma": [[0.0, 1.0], [1.0, 0.0]], "n0": [0.1, 0.1]},
        "partition": [{"role": "player", "alpha": 1.0, "beta": 1.0, "a": 1.0}] * 2,
    },
    "seekers": {
        "matrix": {"gamma": [[0.5, 0.5], [0.5, 0.5]], "n0": [0.1, 0.1]},
        "partition": [{"role": "seeker", "target_osnr_db": 0.0}] * 2,
    },
}

# two links; channel 1 crosses both, channel 2 only the one-span link 2
NETWORK_DOC = {
    "network": {"links": [{"id": 1, "num_spans": 2}, {"id": 2, "spans": [{"loss_dB": 20.0}]}]},
    "channels": [{"id": 1, "route": [1, 2]}, {"id": 2, "route": [2]}],
    "partition": [
        {"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.01},
        {"role": "seeker", "target_osnr_db": 20.0},
    ],
}


def on_network(mutate):
    """A parity mutation applied to a copy of NETWORK_DOC in place of the
    matrix document."""

    def apply(doc):
        doc.clear()
        doc.update(json.loads(json.dumps(NETWORK_DOC)))
        mutate(doc)

    return apply


def first_span(doc):
    """The one span of link 2 in a NETWORK_DOC copy."""
    return doc["network"]["links"][1]["spans"][0]


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestScenarioParsing:
    def test_matrix_scenario_roundtrip(self, tmp_path):
        sc = load_scenario(write_doc(tmp_path, FIXTURE_A_DOC))
        sysm = sc.system_matrix()
        assert sysm.gamma == pytest.approx(np.array(FIXTURE_A_DOC["matrix"]["gamma"]))
        assert sc.size == 2
        assert sc.partition.roles[1].gamma == pytest.approx(100.0, rel=1e-12)

    def test_run_defaults(self):
        sc = scenario_from_dict(FIXTURE_A_DOC)
        assert sc.run.solver == "auto"
        assert sc.run.tol == DEFAULT_TOL
        assert sc.run.max_iter == DEFAULT_MAX_ITER
        assert sc.run.u0 == (DEFAULT_U0_MW,)
        assert sc.run.initial_powers(2) == pytest.approx([0.5, 0.5])

    def test_db_conversion(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
        assert db_to_linear(0.0) == 1.0

    def test_wavelength_grid(self):
        assert wavelength_grid(3) == pytest.approx([1554.0, 1555.0, 1556.0])
        grid30 = wavelength_grid(30)
        assert grid30[0] == pytest.approx(1555.0 - 14.5)
        assert grid30[-1] == pytest.approx(1555.0 + 14.5)

    def test_network_scenario_defaults(self):
        sc = demo3_scenario()
        assert sc.network is not None
        assert len(sc.channels) == 3
        assert sc.channels[0].wavelength_nm == pytest.approx(1554.0)
        assert sc.channels[0].tx_noise_mW == pytest.approx(0.005)
        assert sc.channels[0].route == (1,)
        sysm = sc.system_matrix()
        assert sysm.gamma.shape == (3, 3)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("matrix"),
            lambda d: d.update(network={"links": [{"id": 1}]}),
            lambda d: d["partition"].pop(),
            lambda d: d["partition"][0].pop("a"),
            lambda d: d["partition"][1].pop("target_osnr_db"),
            lambda d: d["partition"][0].update(role="observer"),
            lambda d: d.update(run={"solver": "magic"}),
            lambda d: d.update(run={"tol": 0.0}),
            lambda d: d.update(run={"strict_nonnegative": "no"}),
            # NaN fails every range check; JSON Schema cannot reject it
            pytest.param(lambda d: d["matrix"]["gamma"][0].__setitem__(1, math.nan),
                         id="nan-gamma"),
            pytest.param(lambda d: d["matrix"]["n0"].__setitem__(1, math.nan), id="nan-n0"),
            pytest.param(on_network(lambda d: first_span(d).update(loss_dB=math.nan)),
                         id="nan-loss"),
            pytest.param(lambda d: d["partition"][0].update(alpha=math.nan), id="nan-alpha"),
            pytest.param(on_network(lambda d: d["channels"][0].update(wavelength_nm=math.nan)),
                         id="nan-wavelength"),
        ],
    )
    def test_malformed_documents(self, mutate):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        mutate(doc)
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    @given(
        entries=st.lists(
            st.one_of(
                st.floats(min_value=0.0, allow_infinity=False),
                st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormal
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            min_size=1, max_size=16,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_decoder_matches_json(self, entries, tmp_path_factory):
        n = math.isqrt(len(entries))
        gamma = [entries[i * n:(i + 1) * n] for i in range(n)]
        text = json.dumps({**FIXTURE_A_DOC, "matrix": {"gamma": gamma, "n0": [0.01] * n},
                           "partition": FIXTURE_A_DOC["partition"][:1] * n})
        path = tmp_path_factory.mktemp("decode") / "scenario.json"
        path.write_text(text)
        want = np.array(json.loads(text)["matrix"]["gamma"], dtype=float)
        np.testing.assert_array_equal(load_scenario(str(path)).matrix.gamma, want)

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"matrix": \n  [broken')
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert "line 2" in str(exc.value)

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/scenario.json")

    @pytest.mark.parametrize(
        "limits, message",
        [
            ({"min_mW": math.nan}, "power_limits.min_mW must be finite, got nan"),
            ({"max_mW": math.inf}, "power_limits.max_mW must be finite, got inf"),
            ({"min_mW": -math.inf}, "power_limits.min_mW must be finite, got -inf"),
        ],
        ids=["min-nan", "max-inf", "min-minus-inf"],
    )
    def test_non_finite_power_limit_is_rejected(self, limits, message):
        # a file cannot carry these; a library caller can
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict({**FIXTURE_A_DOC, "power_limits": limits})
        assert str(exc.value) == message

    def test_u0_shape_check(self):
        opts = RunOptions(u0=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ScenarioError):
            opts.initial_powers(2)
        assert RunOptions(u0=np.array([0.25])).initial_powers(3) == pytest.approx(
            [0.25, 0.25, 0.25]
        )

    def test_options_with_equal_values_are_equal(self):
        assert RunOptions(u0=[0.1, 0.2]) == RunOptions(u0=np.array([0.1, 0.2]))
        assert RunOptions(u0=[0.1, 0.2]) != RunOptions(u0=[0.1, 0.3])
        assert RunOptions() == RunOptions(u0=DEFAULT_U0_MW) != RunOptions(u0=[0.5, 0.5])

    def test_options_are_hashable(self):
        assert hash(RunOptions()) == hash(RunOptions(u0=np.array([DEFAULT_U0_MW])))
        assert len({RunOptions(u0=[0.1, 0.2]), RunOptions(u0=(0.1, 0.2)), RunOptions()}) == 2

    def test_options_hold_their_own_u0(self):
        a = np.array([0.1, 0.2])
        opts = RunOptions(u0=a)
        a[0] = 9.0
        assert opts.u0 == (0.1, 0.2)
        opts.initial_powers(2)[1] = 9.0
        assert opts.initial_powers(2).tolist() == [0.1, 0.2]


class TestExecute:
    def test_auto_on_fixture_a(self):
        report = execute(scenario_from_dict(FIXTURE_A_DOC))
        assert report.path_taken == "direct"
        assert isinstance(report.solution, Solution)
        assert report.solution.u == pytest.approx([35 / 47, 60 / 47], rel=1e-10)
        assert not hasattr(report, "bounds")  # `check` reports them
        assert report.feasibility.sigma == pytest.approx(0.2 / 0.9, rel=1e-12)
        # sigma < 1 certifies the iteration; only the iterative solver runs it
        assert report.trace is None

    def test_singular_routes_to_qp(self):
        report = execute(scenario_from_dict(SINGULAR_DOC))
        assert report.path_taken == "qp"
        assert isinstance(report.solution, QpResult)
        assert not report.feasibility.nonsingular
        # restricted primal: Gt u = t with -500 t >= 20, optimum at t = -0.04
        assert report.solution.objective == pytest.approx(0.05, abs=1e-6)

    def test_iterative_path(self):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["run"] = {"solver": "iterative", "tol": 1e-10}
        report = execute(scenario_from_dict(doc))
        assert report.path_taken == "iterative"
        assert report.trace is not None
        assert report.trace.converged_at is not None
        assert report.solution.u == pytest.approx([35 / 47, 60 / 47], abs=1e-8)

    def test_direct_route_ignores_max_iter(self):
        # two steps could not reach tol, but auto does not iterate
        doc = {**FIXTURE_A_DOC, "run": {"solver": "auto", "max_iter": 2}}
        report = execute(scenario_from_dict(doc))
        assert report.path_taken == "direct"
        assert report.solution.u == pytest.approx([35 / 47, 60 / 47], rel=1e-10)
        assert report.feasibility.sigma == pytest.approx(0.2 / 0.9, rel=1e-12)
        assert report.trace is None

    def test_power_limit_violations(self):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["power_limits"] = {"min_mW": 1.0, "max_mW": 1.2}
        report = execute(scenario_from_dict(doc))
        assert len(report.power_limit_violations) == 2  # one below, one above

    def test_power_limit_violation_messages(self):
        # u = (35/47, 60/47) mW
        doc = {**FIXTURE_A_DOC, "power_limits": {"min_mW": 1, "max_mW": 0.5}}
        assert execute(scenario_from_dict(doc)).power_limit_violations == [
            "channel 1: 0.744681 mW below minimum 1",
            "channel 1: 0.744681 mW above maximum 0.5",
            "channel 2: 1.2766 mW above maximum 0.5",
        ]


class TestBoundsFromCheckAlone:
    """The power bounds bracket an answer not yet solved for: `check`
    computes them, and no solve route does."""

    @pytest.fixture
    def no_bounds(self, monkeypatch):
        def refuse(system):
            raise AssertionError("a solve route computed the power bounds")
        monkeypatch.setattr("osnrgame.direct.power_bounds", refuse)

    @pytest.mark.parametrize(
        "doc, solver, path",
        [(FIXTURE_A_DOC, "auto", "direct"), (FIXTURE_A_DOC, "iterative", "iterative"),
         (FIXTURE_A_DOC, "qp", "qp"), (SINGULAR_DOC, "auto", "qp")],
        ids=["auto", "iterative", "qp", "singular-auto"],
    )
    def test_execute_never_computes_bounds(self, doc, solver, path, no_bounds):
        report = execute(scenario_from_dict({**doc, "run": {"solver": solver}}))
        assert report.path_taken == path

    @pytest.mark.parametrize("command", ["solve", "iterate", "demo3"])
    def test_run_report_has_no_bounds_key(self, command, no_bounds, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        assert main([command] if command == "demo3" else [command, path]) == 0
        assert set(orjson.loads(capsys.readouterr().out)) == {
            "feasibility", "path_taken", "power_limit_violations", "solution", "trace"
        }

    def test_check_reports_the_bounds(self, tmp_path, capsys):
        sc = scenario_from_dict(FIXTURE_A_DOC)
        expected = power_bounds(assemble(sc.system_matrix(), sc.partition))
        assert main(["check", write_doc(tmp_path, FIXTURE_A_DOC)]) == 0
        bounds = orjson.loads(capsys.readouterr().out)["bounds"]
        assert isinstance(bounds["kappa_inf"], float) and bounds["kappa_inf"] > 1.0
        assert bounds == dataclasses.asdict(expected)


class TestSigmaStatedOnce:
    """The contraction factor is a feasibility fact: every route and `check`
    report it as feasibility.sigma, and no report states it anywhere else."""

    @pytest.mark.parametrize(
        "command, base, solver",
        [("solve", FIXTURE_A_DOC, "auto"), ("solve", FIXTURE_A_DOC, "iterative"),
         ("solve", FIXTURE_A_DOC, "qp"), ("solve", SINGULAR_DOC, "auto"),
         ("check", FIXTURE_A_DOC, "auto"), ("solve", ZERO_DIAGONAL_DOC, "auto"),
         ("check", ZERO_DIAGONAL_DOC, "auto")],
        ids=["auto", "iterative", "qp", "singular-auto", "check", "zero-diagonal",
             "zero-diagonal-check"],
    )
    def test_feasibility_sigma_is_the_contraction_factor(self, command, base, solver, tmp_path,
                                                         capsys):
        doc = {**base, "run": {"solver": solver}}
        assert main([command, write_doc(tmp_path, doc)]) == 0
        report = orjson.loads(capsys.readouterr().out)
        sc = scenario_from_dict(doc)
        sigma = convergence_rate(assemble(sc.system_matrix(), sc.partition))
        assert "sigma" not in report
        # inf, written as null, exactly where A has a 0 diagonal entry
        assert math.isinf(sigma) == (base is ZERO_DIAGONAL_DOC)
        assert report["feasibility"]["sigma"] == (None if math.isinf(sigma) else sigma)

    def test_computed_once_per_run(self, monkeypatch):
        # the demo iterates, and its first step misses tol: the convergence
        # test reads the system's sigma, which the feasibility check computed
        calls = []
        rate = osnrgame.iterate.convergence_rate
        monkeypatch.setattr(osnrgame.iterate, "convergence_rate",
                            lambda system: calls.append(system) or rate(system))
        report = execute(demo30_scenario())
        assert report.trace.converged_at > 1
        assert len(calls) == 1


class TestEmit:
    def test_json_byte_stable(self, tmp_path):
        sc = scenario_from_dict(FIXTURE_A_DOC)
        paths = [str(tmp_path / f"out{k}.json") for k in (1, 2)]
        for p in paths:
            emit(execute(sc), fmt="json", out_path=p)
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b

    def test_json_roundtrip_and_units(self, tmp_path):
        report = execute(scenario_from_dict(FIXTURE_A_DOC))
        out = str(tmp_path / "out.json")
        emit(report, fmt="json", out_path=out)
        doc = json.load(open(out))
        assert doc["path_taken"] == "direct"
        assert "timing_s" not in doc
        u = doc["solution"]["u"]
        assert u == pytest.approx(report.solution.u, rel=1e-15)
        for ratio, db in zip(doc["solution"]["osnr"], doc["solution"]["osnr_db"]):
            assert db == pytest.approx(10.0 * np.log10(ratio), abs=1e-12)

    def test_report_leaves_out_gamma_and_per_step_arrays(self, tmp_path):
        out = tmp_path / "out.json"
        report = execute(scenario_from_dict({**FIXTURE_A_DOC, "run": {"solver": "iterative"}}))
        emit(report, out_path=str(out))
        doc = orjson.loads(out.read_bytes())
        assert "gamma" not in doc and "n0" not in doc
        # the converged iterate is stated once, as solution.u
        assert set(doc["trace"]) == {
            "converged_at", "error_history", "contraction_ratios", "negative_steps",
        }
        assert len(doc["trace"]["error_history"]) == doc["trace"]["converged_at"] + 1
        assert np.array_equal(report.trace.iterates[-1], report.solution.u)
        assert doc["solution"]["u"] == report.trace.iterates[-1].tolist()

    def test_timing_opt_in(self, tmp_path):
        out = tmp_path / "out.json"
        emit(execute(scenario_from_dict(FIXTURE_A_DOC)), out_path=str(out), include_timing=True)
        doc = orjson.loads(out.read_bytes())
        assert set(doc["timing_s"]) == {"build", "feasibility", "solve"}

    def test_csv_trace(self, tmp_path):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["run"] = {"solver": "iterative", "tol": 1e-10}
        report = execute(scenario_from_dict(doc))
        out = str(tmp_path / "trace.csv")
        emit(report, fmt="csv", out_path=out)
        lines = open(out).read().splitlines()
        assert lines[0] == "step,channel,u_mW,osnr_dB,err_inf"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert first[2] == "0.500000000000"
        assert float(first[4]) > 0  # error vs the direct reference
        # one row per (step, channel)
        assert (len(lines) - 1) % 2 == 0

    def test_csv_header_only_without_trace(self, tmp_path):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["run"] = {"solver": "auto"}
        report = execute(scenario_from_dict(doc))
        out = str(tmp_path / "trace.csv")
        emit(report, fmt="csv", out_path=out)
        assert open(out).read() == "step,channel,u_mW,osnr_dB,err_inf\n"


    @pytest.mark.parametrize(
        "run_opts",
        [{"solver": "iterative", "tol": 1e-10}, {"solver": "iterative", "u0": 0.0}, None],
        ids=["fixture-a-iterative", "fixture-a-zero-start", "demo3"],
    )
    def test_csv_osnr_column_matches_oracle(self, run_opts, tmp_path):
        if run_opts is None:
            scenario = demo3_scenario()
        else:
            scenario = scenario_from_dict({**FIXTURE_A_DOC, "run": run_opts})
        report = execute(scenario)
        out = tmp_path / "trace.csv"
        emit(report, fmt="csv", out_path=str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        sysm, n = scenario.system_matrix(), scenario.size
        assert len(report.trace.iterates) > 2
        assert len(rows) == n * len(report.trace.iterates)
        for k, u in enumerate(report.trace.iterates):
            for ch in range(n):
                step, channel, u_mw, got = rows[k * n + ch][:4]
                assert (int(step), int(channel)) == (k, ch + 1)
                assert float(u_mw) == pytest.approx(u[ch], abs=1e-9)
                try:
                    want = osnr_db_scalar(u, sysm, ch)
                except EvaluationError:
                    assert got == "nan"  # the zero start has no OSNR in dB
                else:
                    assert float(got) == pytest.approx(want, abs=1e-9)


class TestCli:
    def test_solve_stdout(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        assert main(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solution"]["u"] == pytest.approx([35 / 47, 60 / 47], rel=1e-10)

    def test_report_without_osnr_is_strict_json(self, tmp_path, capsys):
        path = write_doc(tmp_path, NO_OSNR_DOC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the report is the one record of the negative power
            assert main(["solve", path]) == 0
        doc = orjson.loads(capsys.readouterr().out)  # strict: no NaN token
        assert doc["solution"]["u"][1] < 0
        assert doc["solution"]["osnr_db"][1] is None

    @pytest.mark.parametrize("command", ["solve", "check", "gamma", "demo3", "demo30"])
    def test_report_is_strict_json(self, command, tmp_path, capsys):
        scenario = [] if command.startswith("demo") else [write_doc(tmp_path, FIXTURE_A_DOC)]
        assert main([command, *scenario]) == 0
        out = capsys.readouterr().out
        assert out.endswith("}\n")
        assert isinstance(orjson.loads(out), dict)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           solver=st.sampled_from(["auto", "qp"]))
    @settings(max_examples=40, deadline=None)
    def test_drawn_matrix_reports_are_strict_json(self, seed, solver):
        # a non-positive OSNR denominator or contradictory seeker rows exit 2
        # with no report; every report written parses as strict JSON. The
        # first channel is a player and the last a seeker, as the QP needs.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        players = [True, *(rng.random(n - 2) < 0.5), False]
        doc = {
            "matrix": {"gamma": rng.uniform(0.0, 0.5, (n, n)).tolist(),
                       "n0": rng.uniform(0.01, 0.1, n).tolist()},
            "partition": [
                {"role": "player", "alpha": 1.0, "beta": float(rng.uniform(0.5, 3.0)),
                 "a": float(rng.uniform(0.1, 1.0))}
                if player else
                {"role": "seeker", "target_osnr_db": float(rng.uniform(-3.0, 6.0))}
                for player in players
            ],
            "run": {"solver": solver},
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = write_doc(pathlib.Path(tmp), doc)
            out = pathlib.Path(tmp) / "report.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # negative powers are reported, not warned
                code = main(["solve", path, "--out", str(out)])
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
                return
            report = orjson.loads(out.read_bytes())
        if report["path_taken"] == "qp":
            assert report["solution"]["route"] in ("kkt", "active_set")

    def test_non_positive_denominator_names_the_channel_from_one(self, tmp_path, capsys):
        # the second player's power is driven to -111 mW, so its OSNR
        # denominator n0 + (Gamma u)_2 is -44.4; the iteration converges there
        # (rho(J) = 0.32), and its last iterate fails the same way
        for solver in ("auto", "iterative"):
            doc = {
                "matrix": {"gamma": [[0.1, 0.01], [1.0, 0.5]], "n0": [0.01, 0.01]},
                "partition": [
                    {"role": "player", "alpha": 1.0, "beta": 10.0, "a": 1.0},
                    {"role": "player", "alpha": 1.0, "beta": 0.1, "a": 0.1},
                ],
                "run": {"solver": solver},
            }
            assert main(["solve", write_doc(tmp_path, doc)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                "numerical failure: channel 2: non-positive OSNR denominator -44.")

    def test_check_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        assert main(["check", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasibility"]["nonsingular"] is True
        assert doc["bounds"]["kappa_inf"] > 1.0

    def test_gamma_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        assert main(["gamma", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == FIXTURE_A_DOC["matrix"]["gamma"]
        assert doc["n0"] == [0.01, 0.01]

    def test_iterate_with_u0_override(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        assert main(["iterate", path, "--format", "csv", "--u0", "0.3,0.7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        first = lines[1].split(",")
        assert first[2] == "0.300000000000"
        assert lines[2].split(",")[2] == "0.700000000000"

    def test_tol_and_max_iter_overrides(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        # an unreachable tolerance within 2 steps must fail numerically
        assert main(["iterate", path, "--tol", "1e-14", "--max-iter", "2"]) == 2

    def test_missing_scenario_is_validation_error(self, capsys):
        assert main(["solve", "/nonexistent/scenario.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = {
            "matrix": {"gamma": [[0.001, 0.002], [0.002, 0.001]], "n0": [0.01, 0.01]},
            "partition": [
                {"role": "seeker", "target_osnr_db": 10.0 * np.log10(600.0)},
                {"role": "seeker", "target_osnr_db": 10.0 * np.log10(600.0)},
            ],
            "run": {"solver": "iterative"},
        }
        assert main(["solve", write_doc(tmp_path, doc)]) == 2

    def test_zero_diagonal_solve_reports_the_direct_answer(self, tmp_path, capsys):
        # the update is undefined: sigma is inf, written as null
        assert main(["solve", write_doc(tmp_path, ZERO_DIAGONAL_DOC)]) == 0
        report = orjson.loads(capsys.readouterr().out)
        assert report["path_taken"] == "direct"
        assert report["feasibility"]["sigma"] is None and report["trace"] is None
        assert report["solution"]["u"] == pytest.approx([-5.0, 30.0], rel=1e-12)

    def test_zero_diagonal_iterate_is_a_numerical_failure(self, tmp_path, capsys):
        assert main(["iterate", write_doc(tmp_path, ZERO_DIAGONAL_DOC)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: singular update: a seeker's target times its self-coupling is 1\n"
        )

    def test_all_player_singular_iterate_is_refused(self, tmp_path, capsys):
        # J = [[0, -1], [-1, 0]] has rho 1: no run from (1, 1) converges
        assert main(["iterate", write_doc(tmp_path, ONE_CLASS_SINGULAR_DOCS["players"])]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: the iteration cannot converge: sigma 1, rho 1\n"
        )

    @pytest.mark.parametrize("solver", ["auto", "qp"])
    def test_all_player_singular_is_least_squares(self, solver, tmp_path, capsys):
        doc = {**ONE_CLASS_SINGULAR_DOCS["players"], "run": {"solver": solver}}
        assert main(["solve", write_doc(tmp_path, doc)]) == 0
        report = orjson.loads(capsys.readouterr().out)
        assert report["path_taken"] == "qp"
        assert report["solution"]["route"] == "active_set"
        assert report["solution"]["u"] == pytest.approx([0.45, 0.45], rel=0.0, abs=1e-12)
        assert report["solution"]["objective"] <= 1e-12

    @pytest.mark.parametrize("solver", ["auto", "qp"])
    def test_all_seeker_singular_is_infeasible(self, solver, tmp_path, capsys):
        doc = {**ONE_CLASS_SINGULAR_DOCS["seekers"], "run": {"solver": solver}}
        assert main(["solve", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: no power vector meets the seeker targets\n"
        )

    @pytest.mark.parametrize("doc, u", [
        (NEGATIVE_DOC, [-0.5]),
        (TWO_SEEKER_DOC, [0.2847483918112286, 0.28474839181122863]),
    ], ids=["one_player", "two_seekers"])
    def test_one_class_qp_is_certified(self, doc, u, tmp_path, capsys):
        qp_doc = {**doc, "run": {"solver": "qp"}}
        assert main(["solve", write_doc(tmp_path, qp_doc)]) == 0
        report = orjson.loads(capsys.readouterr().out)
        assert main(["solve", write_doc(tmp_path, doc, "auto.json")]) == 0
        auto = orjson.loads(capsys.readouterr().out)
        assert report["solution"]["route"] == "kkt"
        assert report["solution"]["u"] == auto["solution"]["u"] == u

    @pytest.mark.parametrize("name", sorted(ONE_CLASS_SINGULAR_DOCS))
    def test_one_class_singular_check_has_no_bounds(self, name, tmp_path, capsys):
        assert main(["check", write_doc(tmp_path, ONE_CLASS_SINGULAR_DOCS[name])]) == 0
        report = orjson.loads(capsys.readouterr().out)
        assert report["bounds"] is None
        assert report["feasibility"]["nonsingular"] is False

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_report_states_each_fact_once(self, command, monkeypatch, capsys):
        # the demo3 network under the auto solver; only check reports bounds
        auto = dataclasses.replace(demo3_scenario(), run=RunOptions())
        monkeypatch.setattr("osnrgame.cli.load_scenario", lambda path: auto)
        assert main([command, "demo3.json"]) == 0
        report = orjson.loads(capsys.readouterr().out)
        assert set(report["feasibility"]) == {"condition", "margins", "nonsingular", "sigma"}
        if command == "check":
            assert set(report) == {"bounds", "feasibility"}
            assert set(report["bounds"]) == {
                "kappa_inf", "lower_inf", "preconditions_hold", "upper_inf"}
        else:
            assert set(report) == {
                "feasibility", "path_taken", "power_limit_violations", "solution", "trace"}
        assert report["feasibility"]["condition"] == [True, True, True]

    @pytest.mark.parametrize("n, kappa", [
        (20, 10485760.0), (40, 21990232555520.0), (60, 3.458764513820541e19),
    ])
    def test_ill_conditioned_triangular_is_solved_directly(self, n, kappa, tmp_path, capsys):
        # N 0 dB seekers with Gamma_ij = 1 above the diagonal: A is unit
        # upper triangular with -1 above it, so det A = 1 and the pivot test
        # passes, while ||A^-1||_inf = 2^(N-1) and kappa_inf = N 2^(N-1). A
        # singularity test on kappa would move this verdict: an output change.
        doc = {
            "matrix": {"gamma": np.triu(np.ones((n, n)), 1).tolist(), "n0": [0.01] * n},
            "partition": [{"role": "seeker", "target_osnr_db": 0.0}] * n,
        }
        path = write_doc(tmp_path, doc)
        assert main(["check", path]) == 0
        check = orjson.loads(capsys.readouterr().out)
        assert check["feasibility"]["nonsingular"] is True
        assert check["bounds"]["kappa_inf"] == kappa == n * 2.0 ** (n - 1)
        assert main(["solve", path]) == 0
        report = orjson.loads(capsys.readouterr().out)
        assert report["path_taken"] == "direct"
        assert max(report["solution"]["seeker_residuals"]) <= 3.4e-16

    def test_output_failure_exit_code(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        assert main(["solve", path, "--out", "/nonexistent-dir/out.json"]) == 3

    def test_demo_commands(self, capsys):
        assert main(["demo3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["solution"]["u"]) == 3
        assert main(["demo30", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "step,channel,u_mW,osnr_dB,err_inf"
        assert len(lines) > 30

    def test_demo30_short_run_exits_2(self, capsys):
        # the demos run the iteration, so a cap it cannot meet is a numerical failure
        assert main(["demo30", "--max-iter", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "numerical failure: no convergence to tol=1e-10 within 2 steps\n"

    def test_demo30_zero_start_is_clean(self, tmp_path):
        # the real CLI process, so any warning would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-m", "osnrgame.cli", "demo30", "--u0", "0"],
            cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["path_taken"] == "iterative"
        assert doc["trace"]["converged_at"] is not None
        assert doc["trace"]["negative_steps"] == []

    def test_negative_powers_are_reported_not_warned(self, tmp_path):
        # three passes of each route in one long-lived process: a warning would
        # reach stderr at least once, and again on each pass the registry is reset
        path = write_doc(tmp_path, NEGATIVE_DOC)
        script = ("import dataclasses, sys\n"
                  "from osnrgame import emit, execute, load_scenario\n"
                  "from osnrgame.scenario import RunOptions\n"
                  "auto = load_scenario(sys.argv[1])\n"
                  "iterative = dataclasses.replace(auto, run=RunOptions(solver='iterative'))\n"
                  "for k in range(3):\n"
                  "    emit(execute(auto), out_path=f'direct{k}.json')\n"
                  "    emit(execute(iterative), out_path=f'iterative{k}.json')\n")
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-c", script, path],
            cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        for k, path_taken in itertools.product(range(3), ["direct", "iterative"]):
            doc = orjson.loads((tmp_path / f"{path_taken}{k}.json").read_bytes())
            assert doc["path_taken"] == path_taken
            assert doc["solution"]["u"] == pytest.approx([-0.5], rel=1e-14)
            assert doc["solution"]["nonnegative"] is False
            if path_taken == "direct":  # auto does not iterate
                assert doc["trace"] is None
            else:
                assert doc["trace"]["negative_steps"] == [1, 2]

    @pytest.mark.parametrize(
        "argv",
        [["demo30", "--u0", "inf"], ["demo30", "--u0", "nan"], ["demo3", "--u0", "1,abc"]],
        ids=["demo30-inf", "demo30-nan", "demo3-not-a-number"],
    )
    def test_bad_u0_override_is_an_input_error(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: run.u0 must be") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "tol, message",
        [("inf", "error: run.tol must be finite, got inf\n"),
         ("nan", "error: run.tol must be > 0\n")],
        ids=["inf", "nan"],
    )
    def test_non_finite_tol_override_is_an_input_error(self, tol, message, capsys):
        # an infinite tol would stop the iteration at step 1, off the fixed point
        assert main(["demo3", "--tol", tol]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == message

    @pytest.mark.parametrize(
        "run_opts, message",
        [
            ({"max_iter": 2.5}, "error: run.max_iter must be an integer, got 2.5\n"),
            ({"tol": True}, "error: run.tol must be a number, got True\n"),
            ({"u0": True}, "error: run.u0 must be numbers, got True\n"),
            ({"u0": [[0.5, 0.5]]},
             "error: run.u0 must be a number or a list of numbers, got [[0.5, 0.5]]\n"),
            ({"u0": [[0.5, 0.5]], "solver": "iterative"},
             "error: run.u0 must be a number or a list of numbers, got [[0.5, 0.5]]\n"),
        ],
        ids=["max-iter-fraction", "tol-bool", "u0-bool", "u0-nested", "u0-nested-iterative"],
    )
    def test_mistyped_run_option_is_an_input_error(self, run_opts, message, tmp_path, capsys):
        path = write_doc(tmp_path, {**FIXTURE_A_DOC, "run": run_opts})
        assert main(["solve", path]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == message

    @pytest.mark.parametrize(
        "limits, message",
        [
            ({"min_mW": "1"}, "error: power_limits.min_mW must be a number, got '1'\n"),
            ({"max_mW": True}, "error: power_limits.max_mW must be a number, got True\n"),
        ],
        ids=["min-mw-str", "max-mw-bool"],
    )
    def test_mistyped_power_limit_is_an_input_error(self, limits, message, tmp_path, capsys):
        path = write_doc(tmp_path, {**FIXTURE_A_DOC, "power_limits": limits})
        assert main(["solve", path]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == message

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(run=5), "error: run must be an object, got 5\n"),
            # squareness is beyond the schema, so this row has no parity twin
            (lambda d: d["matrix"]["gamma"][1].pop(), None),
        ],
        ids=["run-int", "gamma-ragged"],
    )
    def test_malformed_sub_document_is_an_input_error(self, mutate, message, tmp_path,
                                                      capsys):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        mutate(doc)
        assert main(["solve", write_doc(tmp_path, doc)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
        assert message is None or out.err == message

    @pytest.mark.parametrize("command", ["check", "gamma"])
    def test_check_and_gamma_take_only_scenario_and_out(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        text = capsys.readouterr().out
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text)) == {"-h", "--help", "--out"}
        assert "scenario" in text

    @pytest.mark.parametrize("command", ["solve", "iterate", "demo3", "demo30"])
    def test_run_commands_take_exactly_the_run_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        text = capsys.readouterr().out
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text)) == {
            "-h", "--help", "--out", "--tol", "--max-iter", "--u0", "--format",
            "--strict-nonneg", "--timing"}
        assert ("scenario" in text) == (not command.startswith("demo"))

    @staticmethod
    def executed_run_options(argv, monkeypatch) -> dict:
        """The RunOptions that `main(argv)` hands to execute, as plain values."""
        seen = []
        monkeypatch.setattr("osnrgame.cli.execute", lambda scenario: seen.append(scenario.run))
        monkeypatch.setattr("osnrgame.cli.emit", lambda report, **kwargs: None)
        assert main(argv) == 0
        (opts,) = seen
        return {f.name: np.asarray(getattr(opts, f.name)).tolist()
                for f in dataclasses.fields(opts)}

    def test_solve_without_flags_runs_the_files_options(self, tmp_path, monkeypatch):
        path = write_doc(tmp_path, RUN_OPTIONS_DOC)
        assert self.executed_run_options(["solve", path], monkeypatch) == RUN_OPTIONS_DOC["run"]

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "flags, change",
        [
            (["--tol", "1e-3"], {"tol": 1e-3}),
            (["--max-iter", "3"], {"max_iter": 3}),
            (["--u0", "0.5"], {"u0": [0.5]}),
            (["--u0", "0.1,0.4"], {"u0": [0.1, 0.4]}),
            (["--strict-nonneg"], {"strict_nonnegative": True}),
            (["--format", "csv", "--timing", "--out", "x.csv"], {}),
        ],
        ids=["tol", "max-iter", "u0-one", "u0-list", "strict-nonneg", "output-flags"],
    )
    def test_each_run_flag_changes_only_its_field(self, flags, change, strict, tmp_path,
                                                  monkeypatch):
        run = {**RUN_OPTIONS_DOC["run"], "strict_nonnegative": strict}
        path = write_doc(tmp_path, {**RUN_OPTIONS_DOC, "run": run})
        assert self.executed_run_options(["solve", path, *flags], monkeypatch) == {**run, **change}

    @pytest.mark.parametrize("flags", [[], ["--max-iter", "3"]], ids=["bare", "max-iter"])
    def test_iterate_forces_the_iterative_solver(self, flags, tmp_path, monkeypatch):
        path = write_doc(tmp_path, RUN_OPTIONS_DOC)
        change = {"solver": "iterative", **({"max_iter": 3} if flags else {})}
        assert self.executed_run_options(["iterate", path, *flags], monkeypatch) == {
            **RUN_OPTIONS_DOC["run"], **change}

    def test_demo_flags_override_the_built_in_options(self, monkeypatch):
        assert self.executed_run_options(["demo3", "--u0", "0.3"], monkeypatch) == {
            "solver": "iterative", "tol": 1e-10, "max_iter": DEFAULT_MAX_ITER, "u0": [0.3],
            "strict_nonnegative": False}

    def test_infinite_u0_in_scenario_is_an_input_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["run"] = {"u0": float("inf")}
        path = write_doc(tmp_path, doc)
        text = pathlib.Path(path).read_text()
        assert text.index('"u0": Infinity') == 201
        assert main(["iterate", path]) == 1
        out = capsys.readouterr()
        # strict JSON has no Infinity: the decoder stops at the token
        assert out.err == (
            f"error: scenario {path}: parse error at line 1, column 208: unexpected character\n"
        )

    @pytest.mark.parametrize(
        "token",
        [b"\xff", b"NaN", b"Infinity", b"-Infinity"],
        ids=["byte-ff", "nan", "infinity", "minus-infinity"],
    )
    def test_non_utf8_or_non_finite_literal_is_a_parse_error(self, token, tmp_path, capsys):
        # each token takes the place of one gamma entry
        text = json.dumps(FIXTURE_A_DOC, indent=1).encode().replace(b"0.002", token, 1)
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith(f"error: scenario {path}: parse error at line ")
        at = text.index(token)
        line, column = text.count(b"\n", 0, at) + 1, at - text.rfind(b"\n", 0, at)
        assert f"parse error at line {line}, column {column}: " in out.err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["partition"][1].update(target_osnr_db=4000.0),
             "error: partition[1].target_osnr_db is out of range, got 4000.0\n"),
            # 10^(dB/10) underflows to 0 below about -3236 dB
            (lambda d: d["partition"][1].update(target_osnr_db=-4000.0),
             "error: partition[1].target_osnr_db is out of range, got -4000.0\n"),
            (lambda d: d["partition"][0].update(alpha=1e-300, beta=1e300),
             "error: channel 1: its row of A u = b is not finite\n"),
            # a span count is bounded before that many spans are allocated
            (on_network(lambda d: d["network"]["links"][0].update(num_spans=1e308)),
             "error: network.links[0].num_spans must be <= 1000, got 1e+308\n"),
            (on_network(lambda d: d["network"]["links"][0].update(num_spans=1001)),
             "error: network.links[0].num_spans must be <= 1000, got 1001\n"),
        ],
        ids=["target-overflows", "target-underflows", "player-rhs-overflows",
             "num-spans-overflows",
             "num-spans-above-bound"],
    )
    def test_overflowing_value_is_an_input_error(self, mutate, message, tmp_path, capsys):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        mutate(doc)
        assert main(["solve", write_doc(tmp_path, doc)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == message

    def test_contradictory_seekers_exit_2_with_certificate(self, tmp_path, capsys):
        # seeker rows (0, 0.9, -0.9) and (0, -0.9, 0.9) with right-hand sides
        # 1 and 1: their sum reads 0 >= 2, so the QP fallback has no point
        doc = {
            "matrix": {
                "gamma": [[0.001, 0.001, 0.001], [0.0, 0.001, 0.009], [0.0, 0.009, 0.001]],
                "n0": [0.01, 0.01, 0.01],
            },
            "partition": [
                {"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.01},
                {"role": "seeker", "target_osnr_db": 20.0},
                {"role": "seeker", "target_osnr_db": 20.0},
            ],
        }
        with pytest.raises(InfeasibleError) as exc:
            execute(scenario_from_dict(doc))
        assert exc.value.certificate == pytest.approx([0.5, 0.5], rel=1e-9)
        assert main(["solve", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: no power vector meets the seeker targets\n"
        )

    def test_import_leaves_out_scipy_optimize(self):
        # scipy.optimize costs about 0.3 s per process start
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, osnrgame; print(sorted(m for m in sys.modules"
             " if m.startswith('scipy.optimize')))"],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_run_module_is_not_shadowed(self):
        assert isinstance(osnrgame.run, types.ModuleType)
        assert osnrgame.run.execute is execute

    def test_solve_byte_stable_across_invocations(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIXTURE_A_DOC)
        outs = []
        for _ in range(2):
            assert main(["solve", path]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def cli_process(argv, cwd, stdout, unbuffered=False):
    """`python -m osnrgame.cli ARGV` as a shell runs it, with stdout
    block-buffered, or unbuffered as under PYTHONUNBUFFERED=1."""
    env = {k: v for k, v in subprocess_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "osnrgame.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


class TestProcessEntry:
    def test_main_runs_with_the_imported_heap_frozen(self, tmp_path):
        script = ("import gc\n"
                  "import osnrgame.cli as cli\n"
                  "cli.main = lambda: print(gc.get_freeze_count()) or 2\n"
                  "cli.entry()\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=subprocess_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr  # main's code is the process's
        assert int(proc.stdout) > 0

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(["demo3"]) == 0
        assert gc.get_freeze_count() == before

    def test_module_entry_writes_what_main_writes(self, tmp_path, capsys):
        proc = cli_process(["demo3"], tmp_path, subprocess.PIPE)
        assert proc.returncode == 0 and proc.stderr == b""
        assert main(["demo3"]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_help_and_usage_keep_their_exit_codes(self, tmp_path):
        help_ = cli_process(["-h"], tmp_path, subprocess.PIPE)
        assert help_.returncode == 0 and help_.stdout.startswith(b"usage: osnrgame")
        usage = cli_process(["solve"], tmp_path, subprocess.PIPE)
        assert usage.returncode == 2 and usage.stdout == b""
        assert b"error: the following arguments are required: scenario" in usage.stderr

    @pytest.mark.parametrize(
        "argv, sink",
        [
            (["demo3"], "/dev/full"),
            (["check", "scenario.json"], "/dev/full"),
            (["gamma", "scenario.json"], "/dev/full"),
            (["demo30", "--format", "csv"], "closed pipe"),
            (["gamma", "scenario.json"], "closed pipe"),
            (["-h"], "/dev/full"),
            (["solve", "-h"], "/dev/full"),
            # argparse drops a failed write of its help when stdout is unbuffered
            (["-h"], "/dev/full unbuffered"),
            (["demo3"], "/dev/full unbuffered"),
        ],
        ids=["demo3-full", "check-full", "gamma-full", "demo30-csv-pipe", "gamma-pipe",
             "help-full", "solve-help-full", "help-full-unbuffered", "demo3-full-unbuffered"],
    )
    def test_unwritable_stdout_is_an_output_failure(self, argv, sink, tmp_path):
        # a short report sits in the stdout buffer until the interpreter's last
        # flush, a long one fails at its write
        write_doc(tmp_path, FIXTURE_A_DOC)
        unbuffered = sink.endswith(" unbuffered")
        sink = sink.removesuffix(" unbuffered")
        if sink == "/dev/full":
            if not os.path.exists(sink):
                pytest.skip("no /dev/full")
            with open(sink, "wb") as full:
                proc = cli_process(argv, tmp_path, full, unbuffered)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = cli_process(argv, tmp_path, write_end)
            finally:
                os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert err.startswith("output failure: cannot write stdout: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestDemoScenarios:
    def test_demo3_report(self):
        # the demos show the distributed iteration, and report its converged trace
        report = execute(demo3_scenario())
        assert report.path_taken == "iterative"
        assert report.trace.converged_at is not None
        assert not hasattr(report, "bounds")
        dbs = report.solution.osnr_db
        # both players clear the seeker's 20 dB target; the seeker sits on it
        assert dbs[0] > 20.0 and dbs[1] > 20.0
        assert dbs[2] == pytest.approx(20.0, abs=0.01)
        # the higher-beta player buys more power and OSNR
        assert report.solution.u[1] > report.solution.u[0]
        assert report.feasibility.sigma < 1.0

    def test_demo30_report(self):
        report = execute(demo30_scenario())
        assert report.path_taken == "iterative"
        assert report.trace.converged_at is not None
        assert not hasattr(report, "bounds")
        assert len(report.solution.u) == 30
        for k in range(20, 30):
            assert report.solution.osnr_db[k] == pytest.approx(20.0, abs=0.01)
        assert np.all(report.solution.u > 0)
        assert report.feasibility.sigma < 1.0


SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "scenario.schema.json"
DOC_FIXTURES = {k: v for k, v in list(globals().items()) if k.endswith("_DOC")}


# Parser rules the schema cannot state, each by the message it rejects with
PARSER_ONLY = {
    "square gamma": r"^gamma must be square$",
    "n0 length": r"^n0 length must match gamma dimension$",
    "ragged rows": r"^malformed scenario: setting an array element with a sequence\.",
    "duplicate link ids": r"^duplicate link ids$",
    "target out of range": r"^partition\[\d+\]\.target_osnr_db is out of range, got ",
}
# values a mutation puts in place; a span count above 1000 is rejected
# before that many spans are allocated
PARITY_POOL = (0, 1, 2, -1, 0.5, 10**9, 1e308, 4000.0, -4000.0, True, None, "x", "seeker",
               [], [1], [0.5, 2], [[0.5]], {})
# keys a mutation adds: an unknown one, and schema keys the parser reads
# only in some documents or objects (channels with a network; num_spans and
# span beside spans)
PARITY_KEYS = ("unknown", "num_spans", "span", "spans", "channels")


def places_in(doc):
    """(container, key) of every value below doc, depth first."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from places_in(value)


@pytest.fixture(scope="module")
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))


class TestSchemaParity:
    """scenario.schema.json and scenario_from_dict accept and reject alike."""

    @pytest.mark.parametrize("name", sorted(DOC_FIXTURES))
    def test_fixtures_validate(self, name, schema_validator):
        schema_validator.validate(DOC_FIXTURES[name])
        scenario_from_dict(DOC_FIXTURES[name])

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda d: d.update(run={"solver": "newton"}), id="solver"),
            pytest.param(lambda d: d.update(run={"solver": "direct"}), id="solver-direct"),
            pytest.param(lambda d: d.update(run={"tol": 0.0}), id="tol-zero"),
            pytest.param(lambda d: d.update(run={"tol": -1e-8}), id="tol-negative"),
            pytest.param(lambda d: d.update(run={"max_iter": 0}), id="max-iter-zero"),
            pytest.param(lambda d: d["partition"][0].pop("a"), id="player-without-a"),
            pytest.param(lambda d: d.update(run={"strict_nonnegative": "no"}),
                         id="strict-nonneg-str"),
            pytest.param(lambda d: d.update(run={"u0": float("inf")}), id="u0-infinity"),
            pytest.param(lambda d: d.update(run={"u0": [0.5, float("-inf")]}),
                         id="u0-array-minus-infinity"),
            pytest.param(lambda d: d.update(run={"max_iter": 2.5}), id="max-iter-fraction"),
            pytest.param(lambda d: d.update(run={"max_iter": True}), id="max-iter-bool"),
            pytest.param(lambda d: d.update(run={"tol": True}), id="tol-bool"),
            pytest.param(lambda d: d.update(run={"u0": True}), id="u0-bool"),
            pytest.param(lambda d: d.update(run={"u0": [0.5, True]}), id="u0-array-bool"),
            pytest.param(lambda d: d.update(run={"u0": [[0.7]]}), id="u0-nested"),
            pytest.param(lambda d: d.update(power_limits={"min_mW": "1"}), id="min-mw-str"),
            pytest.param(lambda d: d.update(power_limits={"max_mW": True}), id="max-mw-bool"),
            pytest.param(lambda d: d["matrix"]["gamma"][0].__setitem__(1, -0.002),
                         id="gamma-negative"),
            pytest.param(on_network(lambda d: d["channels"][1].update(route=[])),
                         id="route-empty"),
            pytest.param(on_network(lambda d: d["network"]["links"][1].update(spans=[])),
                         id="spans-empty"),
            pytest.param(on_network(lambda d: d["network"]["links"][0].update(num_spans=1001)),
                         id="num-spans-above-bound"),
            pytest.param(on_network(lambda d: first_span(d).update(gain={"peak_gain_dB": 0})),
                         id="peak-gain-zero"),
            # num_spans and span are checked also on a link that gives spans
            pytest.param(on_network(lambda d: d["network"]["links"][1].update(num_spans=5000)),
                         id="spans-with-num-spans-above-bound"),
            pytest.param(on_network(lambda d: d["network"]["links"][1].update(num_spans="x")),
                         id="spans-with-num-spans-str"),
            pytest.param(on_network(lambda d: d["network"]["links"][1].update(num_spans=0)),
                         id="spans-with-num-spans-zero"),
            pytest.param(on_network(lambda d: d["network"]["links"][1].update(
                span={"loss_dB": -1})), id="spans-with-span-negative-loss"),
            pytest.param(on_network(lambda d: d["network"]["links"][1].update(span=5)),
                         id="spans-with-span-int"),
            # a sub-document that is not an object
            pytest.param(lambda d: d.update(run=5), id="run-int"),
            pytest.param(lambda d: d.update(power_limits=[1]), id="power-limits-list"),
            pytest.param(lambda d: d.update(partition=[5, 5]), id="partition-ints"),
            pytest.param(on_network(lambda d: d.update(channels=[5, 5])), id="channels-ints"),
            pytest.param(on_network(lambda d: d["network"]["links"][0].update(span=5)),
                         id="span-int"),
            pytest.param(on_network(lambda d: first_span(d).update(gain=5)), id="gain-int"),
            pytest.param(on_network(lambda d: first_span(d).update(ase=5)), id="ase-int"),
            # values numpy or a dataclass would reject with a ValueError
            pytest.param(lambda d: d["matrix"].update(n0="abc"), id="n0-str"),
            pytest.param(lambda d: d["matrix"]["gamma"][0].__setitem__(1, "x"),
                         id="gamma-entry-str"),
            pytest.param(on_network(lambda d: first_span(d).update(
                gain={"shape": "tabulated", "table": [[1550]]})), id="table-row-short"),
            pytest.param(on_network(lambda d: first_span(d).update(
                gain={"shape": "tabulated", "table": "ab"})), id="table-str"),
            # a boolean where a number belongs, a string where an integer id belongs
            pytest.param(lambda d: d["partition"][0].update(alpha=True), id="alpha-bool"),
            pytest.param(lambda d: d["partition"][1].update(target_osnr_db=True),
                         id="target-osnr-bool"),
            pytest.param(on_network(lambda d: first_span(d).update(loss_dB=True)),
                         id="loss-bool"),
            pytest.param(on_network(lambda d: d["network"]["links"][0].update(num_spans=True)),
                         id="num-spans-bool"),
            pytest.param(on_network(lambda d: d["network"]["links"][0].update(
                output_power_mW=True)), id="output-power-bool"),
            pytest.param(on_network(lambda d: d["channels"][0].update(wavelength_nm=True)),
                         id="wavelength-bool"),
            pytest.param(lambda d: d["matrix"]["gamma"][0].__setitem__(1, True),
                         id="gamma-entry-bool"),
            pytest.param(on_network(lambda d: d["network"]["links"][1].update(id="2")),
                         id="link-id-str"),
            pytest.param(on_network(lambda d: d["channels"][0].update(id="1")),
                         id="channel-id-str"),
            pytest.param(on_network(lambda d: d["channels"][1].update(route=["2"])),
                         id="route-str"),
            # a tuple field takes a list nested exactly as deep as its annotation
            pytest.param(on_network(lambda d: d["channels"][1].update(route=1)), id="route-int"),
            pytest.param(on_network(lambda d: d["channels"][1].update(route=[[1]])),
                         id="route-nested"),
            pytest.param(on_network(lambda d: d["channels"][1].update(route=[[]])),
                         id="route-nested-empty"),
            # an empty list
            pytest.param(lambda d: d.update(partition=[]), id="partition-empty"),
            pytest.param(on_network(lambda d: d.update(channels=[])), id="channels-empty"),
            pytest.param(on_network(lambda d: d["network"].update(links=[])), id="links-empty"),
            pytest.param(on_network(lambda d: d["network"].update(links={})),
                         id="links-object"),
            pytest.param(lambda d: d["matrix"].update(gamma=[]), id="gamma-empty"),
            pytest.param(lambda d: d["matrix"]["gamma"][0].clear(), id="gamma-row-empty"),
            pytest.param(lambda d: d["matrix"].update(n0=[]), id="n0-empty"),
        ],
    )
    def test_malformed_rejected_by_both(self, mutate, schema_validator):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        mutate(doc)
        assert not schema_validator.is_valid(doc)
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_integral_float_num_spans_accepted_by_both(self, schema_validator):
        doc = json.loads(json.dumps(NETWORK_DOC))
        doc["network"]["links"][0]["num_spans"] = 2.0
        schema_validator.validate(doc)
        assert len(scenario_from_dict(doc).network.links[0].spans) == 2

    def test_largest_num_spans_accepted_by_both(self, schema_validator):
        doc = json.loads(json.dumps(NETWORK_DOC))
        doc["network"]["links"][0]["num_spans"] = 1000
        schema_validator.validate(doc)
        assert len(scenario_from_dict(doc).network.links[0].spans) == 1000

    @pytest.mark.parametrize("channels", [[{"id": "x"}], 5, []], ids=["id-str", "int", "empty"])
    def test_matrix_document_channels_ignored_by_both(self, channels, schema_validator):
        # channels are read only with a network
        doc = {**FIXTURE_A_DOC, "channels": channels}
        schema_validator.validate(doc)
        assert scenario_from_dict(doc).channels == ()

    def test_zero_matrix_noise_accepted_by_both(self, schema_validator):
        # a network with tx_noise_mW 0 yields n0 = 0 as well
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["matrix"]["n0"] = [0.0, 0.01]
        schema_validator.validate(doc)
        assert scenario_from_dict(doc).matrix.n0.tolist() == [0.0, 0.01]

    def test_record_trace_is_an_unknown_key_to_both(self, schema_validator):
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["run"] = {"record_trace": "yes"}
        schema_validator.validate(doc)
        assert scenario_from_dict(doc).run == RunOptions()

    def test_schema_defaults_are_the_parser_defaults(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        defaults = {}

        def collect(node, path):
            if isinstance(node, dict):
                if "default" in node:
                    defaults[path] = node["default"]
                for key, sub in node.items():
                    if key == "properties":
                        for name, prop in sub.items():
                            collect(prop, f"{path}.{name}" if path else name)
                    elif key == "$defs":
                        for name, definition in sub.items():
                            collect(definition, name)
                    elif key == "items":
                        collect(sub, path)
                    elif key == "oneOf":
                        for branch in sub:
                            collect(branch, path)

        collect(schema, "")
        # one link, two channels on the default grid, every key absent that may be
        doc = {
            "network": {"links": [{"id": 1}]},
            "channels": [{}, {}],
            "partition": [{"role": "seeker", "target_osnr_db": 20.0}] * 2,
        }
        sc = scenario_from_dict(doc)
        link, span = sc.network.links[0], sc.network.links[0].spans[0]
        wl = [c.wavelength_nm for c in sc.channels]
        parsed = {
            "network.center_nm": (wl[0] + wl[1]) / 2,
            "network.spacing_nm": wl[1] - wl[0],
            "network.links.output_power_mW": link.output_power_mW,
            "network.links.num_spans": len(link.spans),
            "channels.tx_noise_mW": sc.channels[0].tx_noise_mW,
            "run.solver": sc.run.solver,
            "run.tol": sc.run.tol,
            "run.max_iter": sc.run.max_iter,
            "run.u0": sc.run.u0[0],
            "run.strict_nonnegative": sc.run.strict_nonnegative,
            "span.gain.shape": span.gain_profile.shape,
            "span.gain.peak_gain_dB": span.gain_profile.peak_gain_dB,
            "span.gain.center_nm": span.gain_profile.center_nm,
            "span.gain.curvature_dB_per_nm2": span.gain_profile.curvature_dB_per_nm2,
            "span.loss_dB": span.loss_dB,
            "span.ase.nsp": span.ase.nsp,
            "span.ase.optical_bandwidth_GHz": span.ase.optical_bandwidth_GHz,
        }
        assert defaults == parsed

    def test_integral_float_max_iter_accepted_by_both(self, schema_validator):
        # Draft 2020-12 counts 100.0 as an integer
        doc = json.loads(json.dumps(FIXTURE_A_DOC))
        doc["run"] = {"max_iter": 100.0}
        schema_validator.validate(doc)
        max_iter = scenario_from_dict(doc).run.max_iter
        assert max_iter == 100 and type(max_iter) is int

    @given(
        name=st.sampled_from(sorted(DOC_FIXTURES)),
        change=st.sampled_from(["replace", "delete", "add"]),
        at=st.integers(min_value=0, max_value=10_000),
        value=st.sampled_from(PARITY_POOL),
        new_key=st.sampled_from(PARITY_KEYS),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_mutation_gets_one_verdict(self, name, change, at, value, new_key,
                                           schema_validator):
        """A fixture with one value replaced from the pool, one key deleted
        or one key added (unknown, or one the schema names) is accepted or
        rejected by both, except where a parser-only rule rejects it. A
        rejected document exits 1 through the CLI with one error line."""
        doc = json.loads(json.dumps(DOC_FIXTURES[name]))
        value = json.loads(json.dumps(value))
        places = list(places_in(doc))
        if change == "add":
            objects = [doc] + [c[k] for c, k in places if isinstance(c[k], dict)]
            objects[at % len(objects)][new_key] = value
        elif change == "delete":
            keys = [(c, k) for c, k in places if isinstance(c, dict)]
            container, key = keys[at % len(keys)]
            del container[key]
        else:
            container, key = places[at % len(places)]
            container[key] = value
        try:
            scenario_from_dict(doc)  # any rejection but a ScenarioError fails here
            parser_message = None
        except ScenarioError as exc:
            parser_message = str(exc)
        if parser_message is not None:
            with tempfile.TemporaryDirectory() as tmp:
                path = write_doc(pathlib.Path(tmp), doc)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["solve", path])  # any other exception fails here
            assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {parser_message}\n")
        valid = schema_validator.is_valid(doc)
        if valid and parser_message is not None:
            assert any(re.search(rule, parser_message) for rule in PARSER_ONLY.values()), (
                parser_message)
        else:
            assert valid == (parser_message is None)


def ten_channel_network():
    """Ten channels on two links, five players then five seekers."""
    return {
        "network": {"links": [{"id": 1}, {"id": 2}]},
        "channels": [{"id": k + 1, "route": [1, 2]} for k in range(10)],
        "partition": ten_roles(),
    }


def ten_channel_matrix():
    return {
        "matrix": {"gamma": [[0.001] * 10 for _ in range(10)], "n0": [0.01] * 10},
        "partition": ten_roles(),
    }


def ten_roles():
    return ([{"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.01} for _ in range(5)]
            + [{"role": "seeker", "target_osnr_db": 20.0} for _ in range(5)])


def copy_of_fixture_a():
    return json.loads(json.dumps(FIXTURE_A_DOC))


def mutated(build, mutate):
    """A document factory: build's document, changed in place by mutate."""

    def apply():
        doc = build()
        mutate(doc)
        return doc

    return apply


class TestParserMessages:
    """The parser checks a list one column at a time and words an error per
    entry; these are the messages of the per-entry parser, verbatim."""

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(mutated(copy_of_fixture_a,
                                 lambda d: d["matrix"]["gamma"][0].__setitem__(1, True)),
                         "matrix.gamma must be numbers, got True", id="gamma-true"),
            pytest.param(mutated(copy_of_fixture_a,
                                 lambda d: d["matrix"]["gamma"][0].__setitem__(1, "0.5")),
                         "matrix.gamma must be numbers, got '0.5'", id="gamma-str"),
            pytest.param(mutated(copy_of_fixture_a,
                                 lambda d: d["matrix"]["gamma"][0].__setitem__(1, None)),
                         "matrix.gamma must be numbers, got None", id="gamma-null"),
            pytest.param(mutated(copy_of_fixture_a, lambda d: d["matrix"]["gamma"][1].pop()),
                         "malformed scenario: setting an array element with a sequence. The "
                         "requested array has an inhomogeneous shape after 1 dimensions. The "
                         "detected shape was (2,) + inhomogeneous part.", id="gamma-ragged"),
            pytest.param(mutated(copy_of_fixture_a,
                                 lambda d: d["matrix"].update(gamma=[0.001, 0.002])),
                         "gamma must be square", id="gamma-1d"),
            pytest.param(mutated(copy_of_fixture_a, lambda d: d["matrix"].update(
                gamma=[[[0.001, 0.002], [0.002, 0.001]]] * 2)),
                         "gamma must be square", id="gamma-3d"),
            pytest.param(mutated(copy_of_fixture_a,
                                 lambda d: d["matrix"].update(n0=[0.01, False])),
                         "matrix.n0 must be numbers, got False", id="n0-false"),
            pytest.param(mutated(copy_of_fixture_a,
                                 lambda d: d.update(run={"u0": [0.5, True]})),
                         "run.u0 must be numbers, got True", id="u0-true"),
            pytest.param(mutated(copy_of_fixture_a, lambda d: d.update(run={"u0": [[0.7]]})),
                         "run.u0 must be a number or a list of numbers, got [[0.7]]",
                         id="u0-nested"),
            pytest.param(mutated(ten_channel_network, lambda d: d["channels"][5].update(id="6")),
                         "channels[5].id must be an integer, got '6'", id="channel-id-str"),
            pytest.param(mutated(ten_channel_network,
                                 lambda d: d["channels"][5].update(route=["2"])),
                         "channels[5].route must be integers, got '2'", id="route-str"),
            pytest.param(mutated(ten_channel_network, lambda d: d["channels"][5].update(route=2)),
                         "channels[5].route must be a list of integers, got 2", id="route-int"),
            pytest.param(mutated(ten_channel_network,
                                 lambda d: d["channels"][5].update(route=[[1], [2]])),
                         "channels[5].route must be integers, got [1]", id="route-nested"),
            pytest.param(mutated(ten_channel_network, lambda d: d["channels"].__setitem__(5, 5)),
                         "channels[5] must be an object, got 5", id="channel-int"),
            pytest.param(mutated(ten_channel_network,
                                 lambda d: d["network"]["links"][1].update(num_spans=0)),
                         "network.links[1].num_spans must be >= 1, got 0", id="num-spans-zero"),
            pytest.param(mutated(ten_channel_network,
                                 lambda d: d["channels"][5].update(wavelength_nm=0)),
                         "channel 6: wavelength_nm must be > 0", id="wavelength-zero"),
            pytest.param(mutated(ten_channel_matrix, lambda d: d["partition"].__setitem__(
                5, {"role": "player", "alpha": True, "beta": 2.0, "a": 0.01})),
                         "partition[5].alpha must be a number, got True", id="alpha-bool"),
            pytest.param(mutated(ten_channel_matrix,
                                 lambda d: d["partition"][5].update(target_osnr_db="20")),
                         "partition[5].target_osnr_db must be a number, got '20'",
                         id="target-str"),
            pytest.param(mutated(ten_channel_matrix,
                                 lambda d: d["partition"][5].update(role="observer")),
                         "partition[5]: role must be 'player' or 'seeker', got 'observer'",
                         id="role-unknown"),
            pytest.param(mutated(ten_channel_matrix, lambda d: d["partition"][3].pop("a")),
                         "partition[3]: PlayerParams.__init__() missing 1 required positional "
                         "argument: 'a'", id="player-without-a"),
            pytest.param(mutated(ten_channel_matrix,
                                 lambda d: d["partition"][5].pop("target_osnr_db")),
                         "partition[5]: missing field 'target_osnr_db'",
                         id="seeker-without-target"),
            pytest.param(mutated(ten_channel_matrix,
                                 lambda d: d["partition"][5].update(target_osnr_db=4000.0)),
                         "partition[5].target_osnr_db is out of range, got 4000.0",
                         id="target-overflows"),
            pytest.param(mutated(ten_channel_matrix,
                                 lambda d: d["partition"][5].update(target_osnr_db=-4000.0)),
                         "partition[5].target_osnr_db is out of range, got -4000.0",
                         id="target-underflows"),
            pytest.param(mutated(ten_channel_matrix, lambda d: d["partition"].__setitem__(5, 5)),
                         "partition[5] must be an object, got 5", id="role-int"),
            # the first bad entry is reported, whatever kind of error comes later
            pytest.param(mutated(ten_channel_matrix, lambda d: (
                d["partition"][3].update(alpha=0.0), d["partition"][4].update(alpha="1"))),
                         "alpha must be > 0", id="range-error-before-type-error"),
            pytest.param(mutated(ten_channel_matrix, lambda d: (
                d["partition"][3].update(beta="2"), d["partition"][6].update(
                    target_osnr_db=-4000.0))),
                         "partition[3].beta must be a number, got '2'",
                         id="player-type-error-before-seeker-range-error"),
            pytest.param(mutated(ten_channel_matrix, lambda d: (
                d["partition"][7].update(target_osnr_db=-4000.0), d["partition"][8].update(
                    role="observer"))),
                         "partition[7].target_osnr_db is out of range, got -4000.0",
                         id="seeker-range-error-before-unknown-role"),
            pytest.param(mutated(ten_channel_matrix, lambda d: (
                d["partition"].__setitem__(1, {"role": "seeker", "target_osnr_db": -4000.0}),
                d["partition"][3].update(alpha=0.0))),
                         "partition[1].target_osnr_db is out of range, got -4000.0",
                         id="seeker-range-error-before-player-range-error"),
        ],
    )
    def test_message(self, build, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(build())
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "base, doc_changes, field_changes, message",
        [
            pytest.param(FIXTURE_A_DOC, {"matrix": None}, lambda net: {"matrix": None},
                         "scenario must contain exactly one of 'matrix'/'network'",
                         id="no-source"),
            pytest.param(FIXTURE_A_DOC, {"network": NETWORK_DOC["network"]},
                         lambda net: {"network": net.network},
                         "scenario must contain exactly one of 'matrix'/'network'",
                         id="both-sources"),
            pytest.param(NETWORK_DOC, {"channels": None}, lambda net: {"channels": ()},
                         "network scenario requires a 'channels' list",
                         id="network-without-channels"),
            pytest.param(FIXTURE_A_DOC, {"partition": []},
                         lambda net: {"partition": ServicePartition(roles=())},
                         "scenario requires a 'partition' list", id="partition-empty"),
        ],
    )
    def test_document_rule_message(self, base, doc_changes, field_changes, message):
        """A document-level rule gives one message, from the parser and from
        Scenario built directly."""
        doc = {k: v for k, v in {**base, **doc_changes}.items() if v is not None}
        parsed = scenario_from_dict(base)
        fields = {f.name: getattr(parsed, f.name) for f in dataclasses.fields(Scenario)}
        fields.update(field_changes(scenario_from_dict(NETWORK_DOC)))
        for build in (lambda: scenario_from_dict(doc), lambda: Scenario(**fields)):
            with pytest.raises(ScenarioError) as exc:
                build()
            assert str(exc.value) == message

    def test_tabulated_gain_and_routes_match_the_dataclasses(self):
        table = [[1550.0, 20.0], [1555, 21.5], [1560.0, 19]]
        doc = {
            "network": {"links": [
                {"id": 1, "spans": [{"gain": {"shape": "tabulated", "peak_gain_dB": 22.0,
                                              "table": table}, "loss_dB": 20.0}]},
                {"id": 2, "num_spans": 2},
            ]},
            "channels": [{"id": 7, "route": [2, 1]}, {}],
            "partition": [{"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.01},
                          {"role": "seeker", "target_osnr_db": 20.0}],
        }
        sc = scenario_from_dict(doc)
        gain = GainProfile(shape="tabulated", peak_gain_dB=22.0,
                           table=((1550.0, 20.0), (1555, 21.5), (1560.0, 19)))
        assert sc.network.links[0].spans == (Span(gain_profile=gain, loss_dB=20.0),)
        assert sc.network.links[1].spans == (Span(),) * 2
        assert sc.channels == (
            ChannelSpec(id=7, wavelength_nm=1554.5, tx_noise_mW=0.005, route=(2, 1)),
            ChannelSpec(id=2, wavelength_nm=1555.5, tx_noise_mW=0.005, route=(1, 2)),
        )
        assert sc.system_matrix().gamma.shape == (2, 2)

    @given(
        rows=st.integers(min_value=1, max_value=5).flatmap(lambda n: st.lists(
            st.lists(st.one_of(st.integers(min_value=0, max_value=2**53),
                               st.sampled_from([0.0, 1.0]),
                               st.floats(min_value=0.0, max_value=1e300)),
                     min_size=n, max_size=n),
            min_size=n, max_size=n,
        )),
        bad=st.sampled_from([True, False, "x", None]),
        at=st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_gamma_is_one_float_array(self, rows, bad, at):
        n = len(rows)
        doc = {"matrix": {"gamma": rows, "n0": [0.01] * n},
               "partition": [{"role": "seeker", "target_osnr_db": 20.0}] * n}
        gamma = scenario_from_dict(doc).matrix.gamma
        want = np.array(rows, dtype=float)
        assert gamma.dtype == want.dtype and gamma.tobytes() == want.tobytes()
        # one entry that is not a number is worded as the per-entry parser words it
        i, j = at[0] % n, at[1] % n
        doc["matrix"]["gamma"] = [list(row) for row in rows]
        doc["matrix"]["gamma"][i][j] = bad
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == f"matrix.gamma must be numbers, got {bad!r}"
