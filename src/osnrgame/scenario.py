"""Scenario files: a single JSON document describing either a physical
network or an explicit coupling matrix, the per-channel roles, and the run
options. dB values are accepted only at this boundary; everything past
ingestion is linear and in mW.

Defaults mirror the reference simulation setup: 5 spans per link, a
parabolic 30 dB gain profile centered at 1555 nm, 1 nm channel spacing
around the center, and transmitter noise of 0.5% of a 1 mW reference
input.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError, ValidationError
from .link import (
    AseParams,
    ChannelSpec,
    GainProfile,
    Link,
    LinkNetwork,
    Span,
    SystemMatrix,
    build_system_matrix,
    db_to_linear,
)
from .model import PlayerParams, SeekerParams, ServicePartition

DEFAULT_SPANS = 5
DEFAULT_CENTER_NM = 1555.0
DEFAULT_SPACING_NM = 1.0
DEFAULT_TX_NOISE_MW = 0.005  # 0.5% of a 1 mW reference input
DEFAULT_OUTPUT_POWER_MW = 20.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000
DEFAULT_U0_MW = 0.5

SOLVERS = ("auto", "direct", "iterative", "qp")


@dataclass(frozen=True)
class RunOptions:
    solver: str = "auto"
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    u0: np.ndarray | None = None  # finite mW; None: uniform default fill
    record_trace: bool = True
    strict_nonnegative: bool = False

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ScenarioError(f"run.solver must be one of {SOLVERS}, got {self.solver!r}")
        for name in ("tol", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ScenarioError(f"run.{name} must be a number, got {value!r}")
        if not self.tol > 0:
            raise ScenarioError("run.tol must be > 0")
        if not float(self.max_iter).is_integer():
            raise ScenarioError(f"run.max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ScenarioError("run.max_iter must be >= 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        for name in ("record_trace", "strict_nonnegative"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ScenarioError(f"run.{name} must be true or false, got {value!r}")
        if self.u0 is not None:
            raw = self.u0 if isinstance(self.u0, (list, tuple, np.ndarray)) else [self.u0]
            if any(isinstance(v, (bool, np.bool_)) for v in raw):
                raise ScenarioError(f"run.u0 must be numbers, got {self.u0!r}")
            try:
                u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
            except (TypeError, ValueError):
                raise ScenarioError(f"run.u0 must be numbers, got {self.u0!r}") from None
            if not np.all(np.isfinite(u0)):
                raise ScenarioError(f"run.u0 must be finite, got {u0.tolist()}")
            object.__setattr__(self, "u0", u0)

    def initial_powers(self, n: int) -> np.ndarray:
        if self.u0 is None:
            return np.full(n, DEFAULT_U0_MW)
        if self.u0.size == 1:
            return np.full(n, float(self.u0.flat[0]))
        if self.u0.shape != (n,):
            raise ScenarioError(f"run.u0 has {self.u0.size} entries for {n} channels")
        return self.u0


@dataclass(frozen=True)
class Scenario:
    partition: ServicePartition
    run: RunOptions = field(default_factory=RunOptions)
    matrix: SystemMatrix | None = None
    network: LinkNetwork | None = None
    channels: tuple[ChannelSpec, ...] = ()
    power_min_mW: float | None = None
    power_max_mW: float | None = None

    def __post_init__(self):
        if (self.matrix is None) == (self.network is None):
            raise ScenarioError("exactly one of matrix/network must be given")
        if self.network is not None and not self.channels:
            raise ScenarioError("a network scenario needs channel specs")
        n = self.matrix.size if self.matrix is not None else len(self.channels)
        if self.partition.size != n:
            raise ScenarioError(
                f"partition covers {self.partition.size} channels, scenario has {n}"
            )
        for name in ("min_mW", "max_mW"):
            value = getattr(self, f"power_{name}")
            if isinstance(value, bool) or not isinstance(value, (numbers.Real, type(None))):
                raise ScenarioError(f"power_limits.{name} must be a number, got {value!r}")

    def system_matrix(self) -> SystemMatrix:
        if self.matrix is not None:
            return self.matrix
        return build_system_matrix(self.network, list(self.channels))

    @property
    def size(self) -> int:
        return self.matrix.size if self.matrix is not None else len(self.channels)


def wavelength_grid(n: int, center_nm: float = DEFAULT_CENTER_NM,
                    spacing_nm: float = DEFAULT_SPACING_NM) -> list[float]:
    """n wavelengths at fixed spacing, centered on center_nm."""
    return [center_nm + (i - (n - 1) / 2.0) * spacing_nm for i in range(n)]


def _parse_gain(obj: dict) -> GainProfile:
    table = obj.get("table")
    return GainProfile(
        shape=obj.get("shape", "parabolic"),
        peak_gain_dB=obj.get("peak_gain_dB", 30.0),
        center_nm=obj.get("center_nm", DEFAULT_CENTER_NM),
        curvature_dB_per_nm2=obj.get("curvature_dB_per_nm2", 0.05),
        table=tuple(tuple(row) for row in table) if table else None,
    )


def _parse_span(obj: dict) -> Span:
    ase_obj = obj.get("ase", {})
    return Span(
        gain_profile=_parse_gain(obj.get("gain", {})),
        loss_dB=obj.get("loss_dB", 30.0),
        ase=AseParams(
            nsp=ase_obj.get("nsp", 1.5),
            optical_bandwidth_GHz=ase_obj.get("optical_bandwidth_GHz", 12.5),
            fixed_ase_mW=ase_obj.get("fixed_ase_mW"),
        ),
    )


def _parse_link(obj: dict) -> Link:
    if "spans" in obj:
        spans = tuple(_parse_span(s) for s in obj["spans"])
    else:
        spans = tuple(
            _parse_span(obj.get("span", {})) for _ in range(obj.get("num_spans", DEFAULT_SPANS))
        )
    return Link(
        id=obj["id"],
        spans=spans,
        output_power_mW=obj.get("output_power_mW", DEFAULT_OUTPUT_POWER_MW),
    )


def _parse_role(obj: dict, where: str) -> PlayerParams | SeekerParams:
    role = obj.get("role")
    if role == "player":
        for key in ("alpha", "beta", "a"):
            if key not in obj:
                raise ScenarioError(f"{where}: player role missing field {key!r}")
        return PlayerParams(alpha=obj["alpha"], beta=obj["beta"], a=obj["a"])
    if role == "seeker":
        if "target_osnr_db" not in obj:
            raise ScenarioError(f"{where}: seeker role missing field 'target_osnr_db'")
        return SeekerParams(gamma=db_to_linear(obj["target_osnr_db"]))
    raise ScenarioError(f"{where}: role must be 'player' or 'seeker', got {role!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        return _scenario_from_dict(doc)
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    except ValidationError as exc:
        raise ScenarioError(str(exc)) from exc


def _scenario_from_dict(doc: dict) -> Scenario:
    matrix = None
    network = None
    channels: tuple[ChannelSpec, ...] = ()

    if ("matrix" in doc) == ("network" in doc):
        raise ScenarioError("scenario must contain exactly one of 'matrix'/'network'")

    if "matrix" in doc:
        mat = doc["matrix"]
        matrix = SystemMatrix(
            gamma=np.asarray(mat["gamma"], dtype=float),
            n0=np.asarray(mat["n0"], dtype=float),
        )
        n = matrix.size
    else:
        net = doc["network"]
        network = LinkNetwork(links=tuple(_parse_link(l) for l in net["links"]))
        raw_channels = doc.get("channels")
        if not raw_channels:
            raise ScenarioError("network scenario requires a 'channels' list")
        n = len(raw_channels)
        grid = wavelength_grid(
            n,
            center_nm=net.get("center_nm", DEFAULT_CENTER_NM),
            spacing_nm=net.get("spacing_nm", DEFAULT_SPACING_NM),
        )
        all_links = tuple(l.id for l in network.links)
        channels = tuple(
            ChannelSpec(
                id=c.get("id", k + 1),
                wavelength_nm=c.get("wavelength_nm", grid[k]),
                tx_noise_mW=c.get("tx_noise_mW", DEFAULT_TX_NOISE_MW),
                route=tuple(c.get("route", all_links)),
            )
            for k, c in enumerate(raw_channels)
        )

    raw_partition = doc.get("partition")
    if not raw_partition:
        raise ScenarioError("scenario requires a 'partition' list")
    if len(raw_partition) != n:
        raise ScenarioError(
            f"partition has {len(raw_partition)} entries for {n} channels"
        )
    roles = tuple(
        _parse_role(entry, f"partition[{k}]") for k, entry in enumerate(raw_partition)
    )

    run_obj = doc.get("run", {})
    run = RunOptions(
        solver=run_obj.get("solver", "auto"),
        tol=run_obj.get("tol", DEFAULT_TOL),
        max_iter=run_obj.get("max_iter", DEFAULT_MAX_ITER),
        u0=run_obj.get("u0"),
        record_trace=run_obj.get("record_trace", True),
        strict_nonnegative=run_obj.get("strict_nonnegative", False),
    )

    limits = doc.get("power_limits", {})
    return Scenario(
        partition=ServicePartition(roles=roles),
        run=run,
        matrix=matrix,
        network=network,
        channels=channels,
        power_min_mW=limits.get("min_mW"),
        power_max_mW=limits.get("max_mW"),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario {path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {path}: top level must be an object")
    return scenario_from_dict(doc)


def demo3_scenario() -> Scenario:
    """Three channels on one 5-span link: two game players, one 20 dB seeker.

    The player parameters are pinned here; the source simulation never
    discloses its values, so agreement is qualitative (ordering and target
    attainment), not exact OSNR figures.
    """
    doc = {
        "network": {
            "links": [
                {
                    "id": 1,
                    "output_power_mW": DEFAULT_OUTPUT_POWER_MW,
                    "num_spans": DEFAULT_SPANS,
                }
            ]
        },
        "channels": [{"id": 1}, {"id": 2}, {"id": 3}],
        "partition": [
            {"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.1},
            {"role": "player", "alpha": 1.0, "beta": 3.0, "a": 0.1},
            {"role": "seeker", "target_osnr_db": 20.0},
        ],
        "run": {"solver": "auto", "tol": 1e-10, "max_iter": 10000},
    }
    return scenario_from_dict(doc)


def demo30_scenario() -> Scenario:
    """Thirty channels on one 5-span link: 20 game players, 10 20 dB seekers.

    The gain curvature and amplifier output power are pinned flatter/higher
    than the 3-channel demo so the dominance conditions hold across the
    full 30 nm band.
    """
    span = {
        "gain": {
            "shape": "parabolic",
            "peak_gain_dB": 30.0,
            "center_nm": DEFAULT_CENTER_NM,
            "curvature_dB_per_nm2": 0.002,
        },
        "loss_dB": 30.0,
        "ase": {"nsp": 1.5, "optical_bandwidth_GHz": 12.5},
    }
    partition = [
        {"role": "player", "alpha": 1.0, "beta": 2.0 + 0.05 * k, "a": 0.1}
        for k in range(20)
    ] + [{"role": "seeker", "target_osnr_db": 20.0} for _ in range(10)]
    doc = {
        "network": {
            "links": [
                {
                    "id": 1,
                    "output_power_mW": 200.0,
                    "num_spans": DEFAULT_SPANS,
                    "span": span,
                }
            ]
        },
        "channels": [{"id": k + 1} for k in range(30)],
        "partition": partition,
        "run": {"solver": "auto", "tol": 1e-10, "max_iter": 10000},
    }
    return scenario_from_dict(doc)
