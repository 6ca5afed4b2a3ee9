"""Seeded scenario generators for the three workloads.

Every generated document spells out each field the parser would otherwise
default, so reference.py can rebuild the coupling matrix from it alone.
Sizes, contraction factors and solver shares sit on a fixed design grid;
the seed draws the jitter around it and the wavelengths, routes, gain
shapes, span counts and matrix entries. Different seeds therefore give different
inputs with the same cost profile, which keeps the latency quantiles of
one seed comparable with those of another.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import reference

ROUTES = ((1, 2), (2, 3), (1, 2, 3), (3, 2, 1), (2, 1), (3, 2), (1, 3))
SHAPES = ("parabolic", "flat", "tabulated")
TOL = 1e-10  # the acceptance gate's iteration tolerance; demos use it too
CLI_COMMANDS = ("solve", "check", "iterate-csv", "gamma", "demo3", "demo30")

# Design grids, (N, sigma[, solver]) in run order, small and large
# alternating. The seed jitters N by 2% and sigma by 0.005.
CLI_DESIGN = ((3, 0.45), (30, 0.35), (8, 0.6), (24, 0.3), (13, 0.5), (19, 0.4))
NETWORK_DESIGN = (
    (60, 0.5), (240, 0.6), (110, 0.3), (185, 0.8),
    (85, 0.7), (210, 0.4), (135, 0.65), (160, 0.35),
)
# half auto, a quarter each iterative and qp; every size and every sigma
# level carries a mix
MATRIX_DESIGN = (
    (100, 0.3, "auto"), (400, 0.9, "auto"), (200, 0.3, "qp"), (300, 0.9, "iterative"),
    (100, 0.6, "iterative"), (400, 0.6, "auto"), (300, 0.6, "qp"), (200, 0.9, "auto"),
    (100, 0.9, "qp"), (400, 0.3, "iterative"), (300, 0.3, "auto"), (200, 0.6, "auto"),
)


@dataclass
class Entry:
    """One generated scenario file and its reference system."""

    path: str | None  # None for the built-in demos
    solver: str
    ref: reference.System


@dataclass
class Workload:
    name: str
    in_process: bool
    warmup: Entry
    pool: list[Entry]
    demos: dict[str, Entry]

    @property
    def pass_len(self) -> int:
        """Operations in one pass; a run measures whole passes, so every
        design point weighs the same in every run."""
        return len(self.pool) if self.in_process else len(CLI_COMMANDS)

    def op(self, i: int) -> tuple[str, Entry]:
        """The i-th operation of the closed loop: a command and its scenario."""
        if self.in_process:
            return "run", self.pool[i % len(self.pool)]
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        if cmd in self.demos:
            return cmd, self.demos[cmd]
        # shift by one scenario per round so every command meets every scenario
        return cmd, self.pool[(i + i // len(CLI_COMMANDS)) % len(self.pool)]


# --- physical networks -------------------------------------------------------


def _span(rng, shape: str, center: float, wl: np.ndarray) -> dict:
    peak = float(rng.uniform(20.0, 25.0))
    gain = {"shape": shape, "peak_gain_dB": peak, "center_nm": center,
            "curvature_dB_per_nm2": 0.0}
    if shape == "parabolic":
        gain["center_nm"] = center + float(rng.uniform(-2.0, 2.0))
        gain["curvature_dB_per_nm2"] = float(rng.uniform(0.002, 0.006))
    elif shape == "tabulated":
        knots = np.linspace(wl.min() - 1.0, wl.max() + 1.0, 9)
        gain["table"] = [[float(w), peak - float(rng.uniform(0.0, 2.0))] for w in knots]
    return {
        "gain": gain,
        "loss_dB": peak + float(rng.uniform(-0.5, 0.5)),
        "ase": {"nsp": float(rng.uniform(1.2, 2.0)), "optical_bandwidth_GHz": 12.5},
    }


def _roles(rng, gamma: np.ndarray, sigma: float, is_player: np.ndarray) -> list[dict]:
    """Player and seeker parameters that put every row's contraction ratio
    just under sigma, so all dominance conditions hold."""
    off = gamma.sum(axis=1) - np.diag(gamma)
    ratio = sigma * rng.uniform(0.95, 1.0, gamma.shape[0])
    out = []
    for i, player in enumerate(is_player):
        if player:
            out.append({"role": "player", "alpha": 1.0,
                        "beta": float(rng.uniform(1.5, 3.0)), "a": float(off[i] / ratio[i])})
        else:
            target = ratio[i] / (off[i] + ratio[i] * gamma[i, i])
            out.append({"role": "seeker", "target_osnr_db": float(10.0 * np.log10(target))})
    return out


def network_doc(rng, n: int, sigma: float, n_links: int) -> dict:
    """n channels over n_links links of distinct gain shapes, auto solver."""
    center = float(rng.uniform(1550.0, 1560.0))
    wl = center + (np.arange(n) - (n - 1) / 2.0) * 0.2
    links = [
        {"id": lid, "output_power_mW": float(n * rng.uniform(5.0, 10.0)),
         "spans": [_span(rng, shape, center, wl) for _ in range(int(rng.integers(3, 7)))]}
        for lid, shape in zip(range(1, n_links + 1), rng.permutation(SHAPES))
    ]
    # every route equally often, so the build's work varies little by seed
    routes = [[1]] * n if n_links == 1 else [
        list(ROUTES[k % len(ROUTES)]) for k in rng.permutation(n)]
    channels = [{"id": k + 1, "wavelength_nm": float(wl[k]), "route": routes[k]} for k in range(n)]
    gamma = reference.coupling_matrix(links, channels)
    is_player = rng.permutation(np.arange(n) < round(2 * n / 3))
    partition = _roles(rng, gamma, sigma, is_player)
    # transmitter noise leaves gamma alone; keep it well under the player
    # right-hand sides a*beta/alpha so every power comes out positive
    scale = float(np.median([r["a"] * r["beta"] for r in partition if r["role"] == "player"]))
    for ch in channels:
        ch["tx_noise_mW"] = scale * float(rng.uniform(0.02, 0.1))
    return {
        "network": {"links": links},
        "channels": channels,
        "partition": partition,
        "run": {"solver": "auto", "tol": TOL, "max_iter": 10000},
    }


# --- explicit matrices -------------------------------------------------------


def matrix_doc(rng, n: int, sigma: float, solver: str) -> dict:
    """Explicit coupling matrix with coupling that decays with channel
    distance and players in one block: the Jacobi iteration then contracts
    at close to sigma, so iteration counts track it (tens at 0.3, a few
    hundred at 0.9) instead of collapsing as they do for uniform coupling."""
    idx = np.arange(n)
    band = np.exp(-np.abs(idx[:, None] - idx[None, :]) / max(2.0, n / 16.0))
    band *= rng.uniform(0.5, 1.0, (n, n))
    np.fill_diagonal(band, 0.0)
    diag = rng.uniform(1e-4, 1e-3, n)
    n0 = rng.uniform(1e-3, 5e-3, n)
    ratio = sigma * rng.uniform(0.95, 1.0, n)
    n_players = (2 * n) // 3
    gamma = np.empty((n, n))
    partition = []
    for i in range(n):
        if i < n_players:
            a = float(rng.uniform(0.01, 0.05))
            off = ratio[i] * a
            partition.append({"role": "player", "alpha": 1.0,
                              "beta": float(rng.uniform(1.5, 3.0)), "a": a})
        else:
            target_db = float(rng.uniform(15.0, 22.0))
            target = 10.0 ** (target_db / 10.0)
            off = ratio[i] * (1.0 - target * diag[i]) / target
            partition.append({"role": "seeker", "target_osnr_db": target_db})
        gamma[i] = band[i] * (off / band[i].sum())
        gamma[i, i] = diag[i]
    return {
        "matrix": {"gamma": gamma.tolist(), "n0": n0.tolist()},
        "partition": partition,
        "run": {"solver": solver, "tol": TOL, "max_iter": 10000},
    }


# --- assembly ------------------------------------------------------------------


class Validator:
    """Every generated document must satisfy scenario.schema.json (when
    jsonschema is importable) and load through osnrgame's own parser."""

    def __init__(self, root: str):
        from osnrgame.scenario import load_scenario

        self.load = load_scenario
        self.schema = None
        try:
            import jsonschema
        except ImportError:
            return
        with open(os.path.join(root, "scenario.schema.json")) as fh:
            schema = json.load(fh)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        self.schema = cls(schema)

    def __call__(self, doc: dict, path: str) -> None:
        if self.schema is not None:
            self.schema.validate(doc)
        self.load(path)


def _entry(doc: dict, path: str, validate: Validator) -> Entry:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    validate(doc, path)
    return Entry(path, doc["run"]["solver"], reference.system_from_doc(doc))


def _jitter(rng, n: int, sigma: float) -> tuple[int, float]:
    # small on purpose: iteration counts near sigma = 0.9 go as 1/|ln sigma|
    return (max(3, round(n * rng.uniform(0.98, 1.02))),
            sigma + float(rng.uniform(-0.005, 0.005)))


def build(name: str, seed: int, workdir: str, root: str, tiny: bool = False) -> Workload:
    """Generate, write and validate the scenarios of one workload.

    tiny divides every size by 25 (at least 3 channels) for the smoke test.
    """
    rng = np.random.default_rng(seed)
    validate = Validator(root)
    shrink = (lambda n: max(3, n // 25)) if tiny else (lambda n: n)

    def put(doc: dict, tag: str) -> Entry:
        return _entry(doc, os.path.join(workdir, f"{tag}.json"), validate)

    if name == "cli-small":
        warm = put(network_doc(rng, 3, 0.5, n_links=1), "warmup")
        pool = [put(network_doc(rng, *_jitter(rng, shrink(n), s), n_links=1), f"s{k}")
                for k, (n, s) in enumerate(CLI_DESIGN)]
        demos = {d: demo_entry(d) for d in ("demo3", "demo30")}
        return Workload(name, False, warm, pool, demos)
    if name == "network-routes":
        warm = put(network_doc(rng, 3, 0.5, n_links=3), "warmup")
        pool = [put(network_doc(rng, *_jitter(rng, shrink(n), s), n_links=3), f"s{k}")
                for k, (n, s) in enumerate(NETWORK_DESIGN)]
        return Workload(name, True, warm, pool, {})
    if name == "matrix-mixed":
        warm = put(matrix_doc(rng, 3, 0.5, "auto"), "warmup")
        pool = [put(matrix_doc(rng, *_jitter(rng, shrink(n), s), solver), f"s{k}")
                for k, (n, s, solver) in enumerate(MATRIX_DESIGN)]
        return Workload(name, True, warm, pool, {})
    raise ValueError(f"unknown workload {name!r}")


def demo_entry(name: str) -> Entry:
    """Reference system of a built-in demo, rebuilt from its physical fields."""
    from osnrgame import scenario as sc

    s = {"demo3": sc.demo3_scenario, "demo30": sc.demo30_scenario}[name]()
    links = [
        {"id": l.id, "output_power_mW": l.output_power_mW, "spans": [
            {"gain": {"shape": sp.gain_profile.shape,
                      "peak_gain_dB": sp.gain_profile.peak_gain_dB,
                      "center_nm": sp.gain_profile.center_nm,
                      "curvature_dB_per_nm2": sp.gain_profile.curvature_dB_per_nm2,
                      "table": sp.gain_profile.table},
             "loss_dB": sp.loss_dB,
             "ase": {"nsp": sp.ase.nsp,
                     "optical_bandwidth_GHz": sp.ase.optical_bandwidth_GHz,
                     "fixed_ase_mW": sp.ase.fixed_ase_mW}}
            for sp in l.spans]}
        for l in s.network.links
    ]
    channels = [{"wavelength_nm": c.wavelength_nm, "route": c.route} for c in s.channels]
    roles = [
        {"role": "seeker", "target": r.gamma} if type(r).__name__ == "SeekerParams"
        else {"role": "player", "alpha": r.alpha, "beta": r.beta, "a": r.a}
        for r in s.partition.roles
    ]
    gamma = reference.coupling_matrix(links, channels)
    n0 = [c.tx_noise_mW for c in s.channels]
    return Entry(None, s.run.solver, reference.system(gamma, n0, roles))
