"""Independent correctness checks for the benchmark's operations.

Nothing here imports osnrgame. The coupling matrix of a network scenario is
rebuilt from the scenario document with numpy, the channel-ordered system
A u = b is assembled from it, and every residual is recomputed from the
powers the program returned. The report's own residual, gamma and trace
fields are never read, so the checks keep working when those fields become
opt-in.

Tolerances are those of the acceptance gate (tests/test_acceptance.py).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

SEEKER_REL_TOL = 1e-9  # criterion 1
PLAYER_REL_TOL = 1e-10  # criterion 2
ITERATE_GAP_TOL = 1e-8  # criterion 3, inf-norm against a direct solve
QP_VIOLATION_TOL = 1e-6  # seeker inequality violation of the fallback
GAMMA_RTOL = 1e-10  # summation order differs from the program's loop

PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0


class CheckFailed(Exception):
    """An operation returned an output that does not meet its tolerance."""


# --- coupling matrix -------------------------------------------------------


def _gain_db(gain: dict, wl: np.ndarray) -> np.ndarray:
    shape = gain["shape"]
    if shape == "flat":
        return np.full(wl.shape, float(gain["peak_gain_dB"]))
    if shape == "parabolic":
        off = wl - gain["center_nm"]
        return gain["peak_gain_dB"] - gain["curvature_dB_per_nm2"] * off * off
    knots = np.asarray(gain["table"], dtype=float)
    if wl.min() < knots[0, 0] or wl.max() > knots[-1, 0]:
        raise CheckFailed("wavelength outside the tabulated gain range")
    return np.interp(wl, knots[:, 0], knots[:, 1])


def coupling_matrix(links: list[dict], channels: list[dict]) -> np.ndarray:
    """Gamma of a physical network, from fully explicit link/channel fields.

    links: {"id", "output_power_mW", "spans": [{"gain", "loss_dB", "ase"}]};
    channels: {"wavelength_nm", "route"}. Row i, column j sums, over the
    links on i's route and their spans, the ASE added into i's band times
    the cumulative gain ratio of j over i, scaled by the product of the
    whole-link transmission ratios of the links earlier on i's route.
    """
    wl = np.array([c["wavelength_nm"] for c in channels], dtype=float)
    n = wl.size
    nu = SPEED_OF_LIGHT_M_S / (wl * 1e-9)
    cum, ase, power, on = {}, {}, {}, {}
    for link in links:
        lid = link["id"]
        gains = np.array([10.0 ** (_gain_db(s["gain"], wl) / 10.0) for s in link["spans"]])
        losses = np.array([10.0 ** (-s["loss_dB"] / 10.0) for s in link["spans"]])
        cum[lid] = np.cumprod(gains * losses[:, None], axis=0)  # spans x channels
        rows = []
        for s, g in zip(link["spans"], gains):
            fixed = s["ase"].get("fixed_ase_mW")
            if fixed is not None:
                rows.append(np.full(n, float(fixed)))
                continue
            watts = 2.0 * s["ase"]["nsp"] * PLANCK_J_S * nu * (g - 1.0) * (
                s["ase"]["optical_bandwidth_GHz"] * 1e9
            )
            rows.append(np.where(g < 1.0, 0.0, watts * 1e3))
        ase[lid] = np.array(rows)
        power[lid] = float(link["output_power_mW"])
        on[lid] = np.array([lid in c["route"] for c in channels])

    gamma = np.zeros((n, n))
    for i, ch in enumerate(channels):
        prefix = np.ones(n)
        for lid in ch["route"]:
            c, mask = cum[lid], on[lid]
            ratio = c[:, mask] / c[:, i : i + 1]
            terms = ratio * (ase[lid][:, i : i + 1] / power[lid])
            gamma[i, mask] += prefix[mask] * terms.sum(axis=0)
            prefix *= c[-1] / c[-1, i]
    return gamma


# --- the channel-ordered system ---------------------------------------------


@dataclass
class System:
    """Reference data of one scenario: gamma, n0, roles and A u = b."""

    gamma: np.ndarray
    n0: np.ndarray
    is_player: np.ndarray
    a_mat: np.ndarray
    b: np.ndarray
    target: np.ndarray  # seeker OSNR targets (linear); 0 for players

    def direct(self) -> np.ndarray:
        u = np.linalg.solve(self.a_mat, self.b)
        return u + np.linalg.solve(self.a_mat, self.b - self.a_mat @ u)

    def margins(self) -> np.ndarray:
        """Dominance margins in the program's row order: players, then seekers."""
        diag = np.abs(np.diag(self.a_mat))
        m = 2.0 * diag - np.abs(self.a_mat).sum(axis=1)
        return np.concatenate([m[self.is_player], m[~self.is_player]])


def system(gamma: np.ndarray, n0: np.ndarray, roles: list[dict]) -> System:
    """roles: {"role": "player", "alpha", "beta", "a"} or
    {"role": "seeker", "target": linear OSNR}."""
    gamma = np.asarray(gamma, dtype=float)
    n0 = np.asarray(n0, dtype=float)
    n = n0.size
    is_player = np.array([r["role"] == "player" for r in roles])
    a_mat = np.empty((n, n))
    b = np.empty(n)
    target = np.zeros(n)
    for i, r in enumerate(roles):
        if is_player[i]:
            a_mat[i] = gamma[i]
            a_mat[i, i] = r["a"]
            b[i] = r["a"] * r["beta"] / r["alpha"] - n0[i]
        else:
            t = target[i] = r["target"]
            a_mat[i] = -t * gamma[i]
            a_mat[i, i] = 1.0 - t * gamma[i, i]
            b[i] = t * n0[i]
    return System(gamma, n0, is_player, a_mat, b, target)


def doc_roles(partition: list[dict]) -> list[dict]:
    out = []
    for r in partition:
        if r["role"] == "seeker":
            out.append({"role": "seeker", "target": 10.0 ** (r["target_osnr_db"] / 10.0)})
        else:
            out.append(r)
    return out


def system_from_doc(doc: dict) -> System:
    """Reference system of a scenario document with every field explicit."""
    if "matrix" in doc:
        gamma, n0 = doc["matrix"]["gamma"], doc["matrix"]["n0"]
    else:
        gamma = coupling_matrix(doc["network"]["links"], doc["channels"])
        n0 = [c["tx_noise_mW"] for c in doc["channels"]]
    return system(gamma, n0, doc_roles(doc["partition"]))


# --- checks ------------------------------------------------------------------


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def check_equilibrium(sys_: System, u) -> None:
    """Seeker targets met exactly and player first-order rows solved."""
    u = np.asarray(u, dtype=float)
    _require(u.shape == sys_.b.shape and bool(np.all(np.isfinite(u))), "bad power vector")
    seek = ~sys_.is_player
    if seek.any():
        osnr = u[seek] / (sys_.n0[seek] + sys_.gamma[seek] @ u)
        rel = float(np.max(np.abs(osnr - sys_.target[seek]) / sys_.target[seek]))
        _require(rel <= SEEKER_REL_TOL, f"seeker relative residual {rel:.3e}")
    if sys_.is_player.any():
        p = sys_.is_player
        scale = float(np.max(np.abs(sys_.b[p])))
        res = float(np.max(np.abs(sys_.a_mat[p] @ u - sys_.b[p]))) / scale
        _require(res <= PLAYER_REL_TOL, f"player first-order residual {res:.3e}")


def check_iterate(sys_: System, u) -> None:
    """The distributed iteration lands on the direct solution."""
    u = np.asarray(u, dtype=float)
    _require(u.shape == sys_.b.shape, "bad power vector")
    gap = float(np.max(np.abs(u - sys_.direct())))
    _require(gap <= ITERATE_GAP_TOL, f"iterate/direct gap {gap:.3e}")


def check_qp(sys_: System, u) -> None:
    """The fallback point meets every seeker inequality of the stacked system."""
    u = np.asarray(u, dtype=float)
    seek = ~sys_.is_player
    viol = float(np.max(np.maximum(sys_.b[seek] - sys_.a_mat[seek] @ u, 0.0), initial=0.0))
    _require(viol <= QP_VIOLATION_TOL, f"seeker inequality violation {viol:.3e}")


def check_solve_report(sys_: System, solver: str, path: str) -> None:
    """A JSON report of run.emit: dispatch on the scenario's solver."""
    with open(path) as fh:
        u = json.load(fh)["solution"]["u"]
    {"auto": check_equilibrium, "direct": check_equilibrium,
     "iterative": check_iterate, "qp": check_qp}[solver](sys_, u)


def check_csv_trace(sys_: System, path: str) -> None:
    """The per-step CSV of `iterate --format csv`: its last step is the answer."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(bool(rows), "empty trace")
    last = max(int(r["step"]) for r in rows)
    final = sorted((int(r["channel"]), float(r["u_mW"])) for r in rows if int(r["step"]) == last)
    check_iterate(sys_, [v for _, v in final])


def check_feasibility_doc(sys_: System, path: str) -> None:
    """The `check` document: nonsingular, the same margins, sound bounds."""
    with open(path) as fh:
        doc = json.load(fh)
    feas, bounds = doc["feasibility"], doc["bounds"]
    _require(feas["nonsingular"] is True, "reported singular")
    _require(np.allclose(feas["margins"], sys_.margins(), rtol=1e-9, atol=1e-15), "margins differ")
    if bounds["preconditions_hold"]:
        top = float(np.max(np.abs(sys_.direct())))
        upper = bounds["upper_inf"]
        _require(bounds["lower_inf"] <= top + 1e-12, "lower power bound above the solution")
        _require(upper is None or top <= upper + 1e-12, "upper power bound below the solution")


def check_gamma_doc(sys_: System, path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    _require(np.allclose(doc["gamma"], sys_.gamma, rtol=GAMMA_RTOL, atol=0.0), "gamma differs")
    _require(np.array_equal(doc["n0"], sys_.n0), "n0 differs")
