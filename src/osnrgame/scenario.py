"""Scenario files: a single JSON document describing either a physical
network or an explicit coupling matrix, the per-channel roles, and the run
options. dB values are accepted only at this boundary; everything past
ingestion is linear and in mW.

The parser maps each JSON object onto its model dataclass, and a key left
out takes that field's default, which mirrors the reference simulation
setup (a parabolic 30 dB gain profile centered at 1555 nm, 30 dB span loss,
20 mW amplifier output). The defaults set here fill no such field: 5 spans
per link, a 1 nm channel grid around 1555 nm, every link as the route, and
transmitter noise of 0.5% of a 1 mW reference input.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field, is_dataclass

import numpy as np
import orjson

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
    strict_nonnegative: bool = False

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ScenarioError(f"run.solver must be one of {SOLVERS}, got {self.solver!r}")
        _checked(self.tol, "run.tol", float)
        if not self.tol > 0:
            raise ScenarioError("run.tol must be > 0")
        object.__setattr__(self, "max_iter", _checked(self.max_iter, "run.max_iter", int))
        if self.max_iter < 1:
            raise ScenarioError("run.max_iter must be >= 1")
        if not isinstance(self.strict_nonnegative, bool):
            raise ScenarioError(
                f"run.strict_nonnegative must be true or false, got {self.strict_nonnegative!r}"
            )
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
            value, where = getattr(self, f"power_{name}"), f"power_limits.{name}"
            if value is not None and not np.isfinite(_checked(value, where, float)):
                raise ScenarioError(f"{where} must be finite, got {value!r}")

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


_NOUNS = {float: ("a number", "numbers"), int: ("an integer", "integers")}
_NUMBER_TYPES = (int, float, np.integer, np.floating)
_JSON_NUMBERS = {float: frozenset({int, float}), int: frozenset({int})}


def _checked(value, where: str, kind, array: bool = False):
    """A JSON value for a field of type kind that holds an array when array
    is set, with every array in it (at any depth) made a tuple. A float or
    int field must hold numbers, integral ones for int (returned as int). A
    dataclass field is built from its object; other kinds are left to the
    class."""
    if array and isinstance(value, list):
        if set(map(type, value)) <= _JSON_NUMBERS.get(kind, frozenset()):
            return tuple(value)
        return tuple(_checked(v, where, kind, True) for v in value)
    if kind not in _NOUNS:
        return _build(kind, value, where) if is_dataclass(kind) else value
    if isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES) or (
        kind is int and not float(value).is_integer()
    ):
        raise ScenarioError(f"{where} must be {_NOUNS[kind][array]}, got {value!r}")
    return int(value) if kind is int else value


@functools.cache
def _fields(cls) -> dict[str, tuple]:
    """From the annotations of cls, for each field: the type of its scalars,
    whether it holds an array, and the value types that need no check."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        array = False
        while hint is np.ndarray or typing.get_args(hint):  # unwrap X | None, tuple[X, ...]
            array = array or hint is np.ndarray or typing.get_origin(hint) is tuple
            hint = float if hint is np.ndarray else typing.get_args(hint)[0]
        kinds[name] = (hint, array, _JSON_NUMBERS.get(hint, frozenset()))
    return kinds


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be an object, got {value!r}")
    return value


def _build(cls, obj, where: str, **given):
    """cls from the given field values and, for its other fields, the keys
    of the JSON object obj that name them, each through _checked. A field
    in neither keeps its dataclass default; a required one is an input
    error."""
    kinds = _fields(cls)
    values = dict(given)
    for key, value in _object(obj, where).items():
        if key in kinds and key not in given:
            kind, array, plain = kinds[key]
            if type(value) not in plain:
                value = _checked(value, f"{where}.{key}", kind, array)
            values[key] = value
    try:
        return cls(**values)
    except TypeError as exc:  # every value is checked, so a required field is absent
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_span(obj, where: str) -> Span:
    gain = _object(obj, where).get("gain", {})
    return _build(Span, obj, where, gain_profile=_build(GainProfile, gain, f"{where}.gain"))


def _parse_link(obj, where: str) -> Link:
    if "spans" in _object(obj, where):
        spans = [_parse_span(s, f"{where}.spans[{k}]") for k, s in enumerate(obj["spans"])]
    else:
        count = _checked(obj.get("num_spans", DEFAULT_SPANS), f"{where}.num_spans", int)
        spans = [_parse_span(obj.get("span", {}), f"{where}.span")] * count
    return _build(Link, obj, where, spans=tuple(spans))


def _parse_role(obj, where: str) -> PlayerParams | SeekerParams:
    role = _object(obj, where).get("role")
    if role == "player":
        return _build(PlayerParams, obj, where)
    if role == "seeker":
        if "target_osnr_db" not in obj:
            raise ScenarioError(f"{where}: missing field 'target_osnr_db'")
        target_db = _checked(obj["target_osnr_db"], f"{where}.target_osnr_db", float)
        try:
            return SeekerParams(gamma=db_to_linear(target_db))
        except OverflowError:
            raise ScenarioError(
                f"{where}.target_osnr_db is out of range, got {target_db!r}"
            ) from None
    raise ScenarioError(f"{where}: role must be 'player' or 'seeker', got {role!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        return _scenario_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    except ValidationError as exc:
        raise ScenarioError(str(exc)) from exc


def _scenario_from_dict(doc: dict) -> Scenario:
    matrix = network = None
    channels: tuple[ChannelSpec, ...] = ()

    if ("matrix" in doc) == ("network" in doc):
        raise ScenarioError("scenario must contain exactly one of 'matrix'/'network'")

    if "matrix" in doc:
        matrix = _build(SystemMatrix, doc["matrix"], "matrix")
    else:
        net = _object(doc["network"], "network")
        network = LinkNetwork(links=tuple(
            _parse_link(l, f"network.links[{k}]") for k, l in enumerate(net["links"])
        ))
        raw_channels = doc.get("channels")
        if not raw_channels:
            raise ScenarioError("network scenario requires a 'channels' list")
        center = _checked(net.get("center_nm", DEFAULT_CENTER_NM), "network.center_nm", float)
        spacing = _checked(net.get("spacing_nm", DEFAULT_SPACING_NM), "network.spacing_nm", float)
        grid = wavelength_grid(len(raw_channels), center_nm=center, spacing_nm=spacing)
        all_links = [l.id for l in network.links]
        channels = tuple(
            _build(ChannelSpec, {
                "id": k + 1, "wavelength_nm": grid[k], "tx_noise_mW": DEFAULT_TX_NOISE_MW,
                "route": all_links, **_object(c, f"channels[{k}]"),
            }, f"channels[{k}]")
            for k, c in enumerate(raw_channels)
        )

    raw_partition = doc.get("partition")
    if not raw_partition:
        raise ScenarioError("scenario requires a 'partition' list")
    roles = tuple(
        _parse_role(entry, f"partition[{k}]") for k, entry in enumerate(raw_partition)
    )

    limits = _object(doc.get("power_limits", {}), "power_limits")
    return Scenario(
        partition=ServicePartition(roles=roles),
        run=_build(RunOptions, doc["run"], "run") if "run" in doc else RunOptions(),
        matrix=matrix,
        network=network,
        channels=channels,
        power_min_mW=limits.get("min_mW"),
        power_max_mW=limits.get("max_mW"),
    )


def load_scenario(path: str) -> Scenario:
    """The scenario in the JSON file at path. The file must be strict JSON
    (RFC 8259): UTF-8, and no NaN or Infinity literals."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        line, column, msg = exc.lineno, exc.colno, exc.msg
        try:  # orjson places any invalid UTF-8 at line 1, column 1
            raw.decode("utf-8")
        except UnicodeDecodeError as bad:
            head = raw[:bad.start].decode("utf-8")
            line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
            msg = f"invalid UTF-8: {bad.reason}"
        raise ScenarioError(
            f"scenario {path}: parse error at line {line}, column {column}: {msg}"
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
    return scenario_from_dict({
        "network": {"links": [{"id": 1}]},
        "channels": [{"id": 1}, {"id": 2}, {"id": 3}],
        "partition": [
            {"role": "player", "alpha": 1.0, "beta": 2.0, "a": 0.1},
            {"role": "player", "alpha": 1.0, "beta": 3.0, "a": 0.1},
            {"role": "seeker", "target_osnr_db": 20.0},
        ],
        "run": {"tol": 1e-10},
    })


def demo30_scenario() -> Scenario:
    """Thirty channels on one 5-span link: 20 game players, 10 20 dB seekers.

    The gain curvature and amplifier output power are pinned flatter/higher
    than the 3-channel demo so the dominance conditions hold across the
    full 30 nm band.
    """
    span = {"gain": {"curvature_dB_per_nm2": 0.002}}
    partition = [
        {"role": "player", "alpha": 1.0, "beta": 2.0 + 0.05 * k, "a": 0.1}
        for k in range(20)
    ] + [{"role": "seeker", "target_osnr_db": 20.0} for _ in range(10)]
    return scenario_from_dict({
        "network": {"links": [{"id": 1, "output_power_mW": 200.0, "span": span}]},
        "channels": [{"id": k + 1} for k in range(30)],
        "partition": partition,
        "run": {"tol": 1e-10},
    })
