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
import itertools
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
MAX_SPANS = 1000
DEFAULT_CENTER_NM = 1555.0
DEFAULT_SPACING_NM = 1.0
DEFAULT_TX_NOISE_MW = 0.005  # 0.5% of a 1 mW reference input
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000
DEFAULT_U0_MW = 0.5

SOLVERS = ("auto", "iterative", "qp")


@dataclass(frozen=True)
class RunOptions:
    solver: str = "auto"
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    # mW: the parser reads a list as one array; held as a tuple, one for all channels or one each
    u0: np.ndarray | tuple[float, ...] = DEFAULT_U0_MW
    strict_nonnegative: bool = False

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ScenarioError(f"run.solver must be one of {SOLVERS}, got {self.solver!r}")
        _checked(self.tol, "run.tol", float)
        if not self.tol > 0:
            raise ScenarioError("run.tol must be > 0")
        if self.tol == np.inf:  # every step would meet it
            raise ScenarioError(f"run.tol must be finite, got {self.tol!r}")
        object.__setattr__(self, "max_iter", _checked(self.max_iter, "run.max_iter", int))
        if self.max_iter < 1:
            raise ScenarioError("run.max_iter must be >= 1")
        if not isinstance(self.strict_nonnegative, bool):
            raise ScenarioError(
                f"run.strict_nonnegative must be true or false, got {self.strict_nonnegative!r}"
            )
        raw = self.u0 if isinstance(self.u0, (list, tuple, np.ndarray)) else [self.u0]
        if any(isinstance(v, (bool, np.bool_)) for v in raw):
            raise ScenarioError(f"run.u0 must be numbers, got {self.u0!r}")
        try:
            u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        except (TypeError, ValueError):
            raise ScenarioError(f"run.u0 must be numbers, got {self.u0!r}") from None
        if u0.ndim > 1:
            raise ScenarioError(f"run.u0 must be a number or a list of numbers, got {u0.tolist()}")
        if not np.all(np.isfinite(u0)):
            raise ScenarioError(f"run.u0 must be finite, got {u0.tolist()}")
        object.__setattr__(self, "u0", tuple(u0.tolist()))  # a copy: equal, hashable, immutable

    def initial_powers(self, n: int) -> np.ndarray:
        """A new array of n start powers: u0, or its one entry on every channel."""
        if len(self.u0) not in (1, n):
            raise ScenarioError(f"run.u0 has {len(self.u0)} entries for {n} channels")
        return np.full(n, self.u0)


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
            raise ScenarioError("scenario must contain exactly one of 'matrix'/'network'")
        if self.network is not None and not self.channels:
            raise ScenarioError("network scenario requires a 'channels' list")
        if not self.partition.size:
            raise ScenarioError("scenario requires a 'partition' list")
        if self.partition.size != self.size:
            raise ScenarioError(
                f"partition covers {self.partition.size} channels, scenario has {self.size}"
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


def _checked(value, where: str, kind, array=None, depth=None):
    """A JSON value for a field of type kind that holds an array of type
    array (tuple or np.ndarray) when array is set. A list for an ndarray
    field becomes one array; any other array becomes a tuple. A tuple field
    takes lists nested exactly depth deep, an ndarray field at any depth
    (depth None). A float or int field must hold numbers, integral ones for
    int (returned as int). A dataclass field is built from its object; other
    kinds are left to the class."""
    if array is np.ndarray and isinstance(value, list):
        numbers = _number_array(value)
        if numbers is not None:
            return numbers
    if array and isinstance(value, list) and depth != 0:
        if depth in (1, None) and set(map(type, value)) <= _JSON_NUMBERS.get(kind, frozenset()):
            return tuple(value)
        return tuple(_checked(v, where, kind, tuple, depth and depth - 1) for v in value)
    if array is tuple and depth:
        inner = "lists" if depth > 1 else _NOUNS[kind][1]
        raise ScenarioError(f"{where} must be a list of {inner}, got {value!r}")
    if kind not in _NOUNS:
        return _build(kind, value, where) if is_dataclass(kind) else value
    if isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES) or (
        kind is int and not float(value).is_integer()
    ):
        raise ScenarioError(f"{where} must be {_NOUNS[kind][bool(array)]}, got {value!r}")
    return int(value) if kind is int else value


def _number_array(value: list) -> np.ndarray | None:
    """The nested list of JSON numbers value as one array, or None when it
    is irregular (ragged, or holding anything but numbers), which _checked
    then words. np.array turns a bool among numbers into 0 or 1, so only
    the rows holding a 0 or a 1 need their types checked."""
    try:
        arr = np.array(value)
    except (ValueError, OverflowError):
        return None
    if arr.dtype.kind not in "fiu":  # bool, str, object (None, big ints)
        return None
    for index in np.argwhere(((arr == 0) | (arr == 1)).any(axis=-1)):
        row = value
        for i in index:
            row = row[i]
        if not set(map(type, row)) <= _JSON_NUMBERS[float]:
            return None
    return arr


@functools.cache
def _fields(cls) -> dict[str, tuple]:
    """From the annotations of cls, for each field: the type of its scalars,
    the array type that holds them (tuple or np.ndarray; None for a scalar),
    how deep tuples nest (None unless array is tuple), and the types of the
    scalars that need no check."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        array, depth = None, 0
        while hint is np.ndarray or typing.get_args(hint):  # unwrap X | None, tuple[X, ...]
            container = np.ndarray if hint is np.ndarray else typing.get_origin(hint)
            if array is None and container in (np.ndarray, tuple):
                array = container
            depth += container is tuple
            hint = float if hint is np.ndarray else typing.get_args(hint)[0]
        kinds[name] = (hint, array, depth or None, _JSON_NUMBERS.get(hint, frozenset()))
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
            kind, array, depth, plain = kinds[key]
            if array or type(value) not in plain:
                value = _checked(value, f"{where}.{key}", kind, array, depth)
            values[key] = value
    try:
        return cls(**values)
    except TypeError as exc:  # every value is checked, so a required field is absent
        raise ScenarioError(f"{where}: {exc}") from None


def _build_many(cls, objs: list) -> list | None:
    """cls from each JSON object of the list objs, with each field's column
    checked once for the whole list; every __post_init__ still runs. None
    when that is not enough: an entry is not an object or leaves out a
    field, a value needs a check or a conversion, or cls rejects an entry.
    The caller then takes the per-entry path, which words the first error."""
    kinds = _fields(cls)
    if not all(isinstance(obj, dict) for obj in objs):
        return None
    try:
        columns = [[obj[name] for obj in objs] for name in kinds]
    except KeyError:
        return None
    for k, (column, (_, array, _, plain)) in enumerate(zip(columns, kinds.values())):
        if array:  # a flat list of numbers per entry, held as a tuple
            if set(map(type, column)) != {list} or not set(
                map(type, itertools.chain.from_iterable(column))
            ) <= plain:
                return None
            columns[k] = list(map(tuple, column))
        elif not set(map(type, column)) <= plain:
            return None
    try:
        return list(itertools.starmap(cls, zip(*columns)))
    except ValidationError:  # the per-entry path raises it for the first such entry
        return None


def _parse_span(obj, where: str) -> Span:
    gain = _object(obj, where).get("gain", {})
    return _build(Span, obj, where, gain_profile=_build(GainProfile, gain, f"{where}.gain"))


def _parse_link(obj, where: str) -> Link:
    """The link of obj; spans, when given, replaces the num_spans copies of span."""
    raw = _object(obj, where).get("num_spans", DEFAULT_SPANS)
    count = _checked(raw, f"{where}.num_spans", int)
    if count > MAX_SPANS:  # checked before the list of that many is built
        raise ScenarioError(f"{where}.num_spans must be <= {MAX_SPANS}, got {raw!r}")
    if count < 1:
        raise ScenarioError(f"{where}.num_spans must be >= 1, got {raw!r}")
    if "span" in obj or "spans" not in obj:  # the template, only when given or used
        spans = [_parse_span(obj.get("span", {}), f"{where}.span")] * count
    if "spans" in obj:
        spans = [_parse_span(s, f"{where}.spans[{k}]") for k, s in enumerate(obj["spans"])]
    return _build(Link, obj, where, spans=tuple(spans))


def _parse_role(obj, where: str) -> PlayerParams | SeekerParams:
    role = _object(obj, where).get("role")
    if role == "player":
        return _build(PlayerParams, obj, where)
    if role == "seeker":
        if "target_osnr_db" not in obj:
            raise ScenarioError(f"{where}: missing field 'target_osnr_db'")
        target_db = _checked(obj["target_osnr_db"], f"{where}.target_osnr_db", float)
        try:  # a target far below 0 dB underflows to 0, which SeekerParams refuses
            return SeekerParams(gamma=db_to_linear(target_db))
        except (OverflowError, ValidationError):
            raise ScenarioError(
                f"{where}.target_osnr_db is out of range, got {target_db!r}"
            ) from None
    raise ScenarioError(f"{where}: role must be 'player' or 'seeker', got {role!r}")


def _parse_partition(objs: list) -> tuple[PlayerParams | SeekerParams, ...]:
    """The roles of the partition list in channel order: the players through
    _build_many, the seekers from one checked column of targets. Any
    irregular entry sends the list down the per-entry path, which words the
    error of the first bad entry."""
    if all(isinstance(obj, dict) and obj.get("role") in ("player", "seeker") for obj in objs):
        is_player = [obj["role"] == "player" for obj in objs]
        players = _build_many(PlayerParams, [o for o, p in zip(objs, is_player) if p])
        targets = [o.get("target_osnr_db") for o, p in zip(objs, is_player) if not p]
        if players is not None and set(map(type, targets)) <= _JSON_NUMBERS[float]:
            try:
                seekers = [SeekerParams(gamma=db_to_linear(t)) for t in targets]
            except (OverflowError, ValidationError):
                pass
            else:
                players, seekers = iter(players), iter(seekers)
                return tuple(next(players) if p else next(seekers) for p in is_player)
    return tuple(_parse_role(obj, f"partition[{k}]") for k, obj in enumerate(objs))


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        return _scenario_from_dict(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    except ValidationError as exc:
        raise ScenarioError(str(exc)) from exc


def _scenario_from_dict(doc: dict) -> Scenario:
    matrix = _build(SystemMatrix, doc["matrix"], "matrix") if "matrix" in doc else None
    network, channels = None, ()
    if "network" in doc:  # channels are read only with a network
        net = _object(doc["network"], "network")
        network = LinkNetwork(links=tuple(
            _parse_link(l, f"network.links[{k}]") for k, l in enumerate(net["links"])
        ))
        raw_channels = doc.get("channels") or []
        center = _checked(net.get("center_nm", DEFAULT_CENTER_NM), "network.center_nm", float)
        spacing = _checked(net.get("spacing_nm", DEFAULT_SPACING_NM), "network.spacing_nm", float)
        grid = wavelength_grid(len(raw_channels), center_nm=center, spacing_nm=spacing)
        defaults = {"tx_noise_mW": DEFAULT_TX_NOISE_MW, "route": [l.id for l in network.links]}
        objs = [{"id": k + 1, "wavelength_nm": grid[k], **defaults, **c} if isinstance(c, dict)
                else c for k, c in enumerate(raw_channels)]
        channels = tuple(_build_many(ChannelSpec, objs) or [
            _build(ChannelSpec, c, f"channels[{k}]") for k, c in enumerate(objs)
        ])
    roles = _parse_partition(doc.get("partition") or [])
    limits = _object(doc.get("power_limits", {}), "power_limits")
    return Scenario(
        partition=ServicePartition(roles=roles),
        run=_build(RunOptions, doc.get("run", {}), "run"),
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
        "run": {"solver": "iterative", "tol": 1e-10},
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
        "run": {"solver": "iterative", "tol": 1e-10},
    })
