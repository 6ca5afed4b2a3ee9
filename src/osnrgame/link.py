"""Physical link model and coupling-matrix construction.

A link is a chain of amplified spans. Each amplifier has a wavelength
dependent gain profile and adds ASE noise. The N x N coupling matrix used
by the allocation solvers is one sum over stages, the route prefixes: a
stage adds the ASE of each span of its last link, normalized by the output
power and weighted by gain ratios, to the rows of the channels it begins.

Units: powers in mW, gains/losses in dB at the type boundary and linear
inside the arithmetic, wavelengths in nm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, TopologyError, ValidationError

PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0
# a channel's ASE on a link (mW) under the square root of the smallest
# normal float is summed apart, scaled into [0.5, 1)
TINY_ASE_MW = float(np.sqrt(np.finfo(float).tiny))


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class GainProfile:
    """Amplifier gain versus wavelength.

    shape is one of "parabolic", "flat", "tabulated". The parabolic shape is
    peak_gain_dB - curvature_dB_per_nm2 * (lambda - center_nm)^2; the
    tabulated shape interpolates (wavelength_nm, gain_dB) pairs linearly.
    """

    shape: str = "parabolic"
    peak_gain_dB: float = 30.0
    center_nm: float = 1555.0
    curvature_dB_per_nm2: float = 0.05
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.shape not in ("parabolic", "flat", "tabulated"):
            raise ValidationError(f"unknown gain profile shape {self.shape!r}")
        if not self.peak_gain_dB > 0:
            raise ValidationError("peak_gain_dB must be > 0")
        if not self.curvature_dB_per_nm2 >= 0:
            raise ValidationError("curvature_dB_per_nm2 must be >= 0")
        if self.shape == "tabulated":
            if not self.table:
                raise ValidationError("tabulated profile requires a table")
            wl = [w for w, _ in self.table]
            if not all(b > a for a, b in zip(wl, wl[1:])):
                raise ValidationError("table wavelengths must be strictly increasing")
            if not all(g <= self.peak_gain_dB for _, g in self.table):
                raise ValidationError("table gain exceeds peak_gain_dB")

    def gain_db(self, wavelength_nm: float | np.ndarray) -> np.ndarray:
        """Gain (dB) at each wavelength (nm); accepts a scalar or an array."""
        wl = np.asarray(wavelength_nm, dtype=float)
        if self.shape == "flat":
            return np.full(wl.shape, self.peak_gain_dB)
        if self.shape == "parabolic":
            off = wl - self.center_nm
            return self.peak_gain_dB - self.curvature_dB_per_nm2 * off * off
        lo, hi = self.table[0][0], self.table[-1][0]
        bad = wl[~((lo <= wl) & (wl <= hi))]
        if bad.size:
            raise EvaluationError(f"wavelength {bad[0]} nm outside tabulated range [{lo}, {hi}]")
        wls, gains = zip(*self.table)
        return np.interp(wl, wls, gains)


@dataclass(frozen=True)
class AseParams:
    """Spontaneous-emission noise parameters for one amplifier.

    When fixed_ase_mW is set it bypasses the physical formula, which keeps
    the coupling matrix exactly computable in unit tests.
    """

    nsp: float = 1.5
    optical_bandwidth_GHz: float = 12.5
    fixed_ase_mW: float | None = None

    def __post_init__(self):
        if not self.nsp >= 0:
            raise ValidationError("nsp must be >= 0")
        if not self.optical_bandwidth_GHz > 0:
            raise ValidationError("optical_bandwidth_GHz must be > 0")
        if self.fixed_ase_mW is not None and not self.fixed_ase_mW >= 0:
            raise ValidationError("fixed_ase_mW must be >= 0")


@dataclass(frozen=True)
class Span:
    """One amplified fiber span: gain profile, flat loss, ASE source."""

    gain_profile: GainProfile = field(default_factory=GainProfile)
    loss_dB: float = 30.0
    ase: AseParams = field(default_factory=AseParams)

    def __post_init__(self):
        if not self.loss_dB >= 0:
            raise ValidationError("loss_dB must be >= 0")


@dataclass(frozen=True)
class Link:
    """An ordered chain of spans with a per-span amplifier output power target."""

    id: int
    spans: tuple[Span, ...]
    output_power_mW: float = 20.0

    def __post_init__(self):
        if not self.spans:
            raise ValidationError(f"link {self.id} has no spans")
        if not self.output_power_mW > 0:
            raise ValidationError(f"link {self.id}: output_power_mW must be > 0")


@dataclass(frozen=True)
class ChannelSpec:
    """A transmitted channel: wavelength, transmitter noise, route over links."""

    id: int
    wavelength_nm: float
    tx_noise_mW: float
    route: tuple[int, ...]

    def __post_init__(self):
        if not self.wavelength_nm > 0:
            raise ValidationError(f"channel {self.id}: wavelength_nm must be > 0")
        if not self.tx_noise_mW >= 0:
            raise ValidationError(f"channel {self.id}: tx_noise_mW must be >= 0")
        if not self.route:
            raise ValidationError(f"channel {self.id}: route must be non-empty")


@dataclass(frozen=True)
class LinkNetwork:
    """The physical description: a collection of links indexed by id."""

    links: tuple[Link, ...]

    def __post_init__(self):
        if not self.links:
            raise ValidationError("a network needs at least one link")
        ids = [l.id for l in self.links]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate link ids")

    def link(self, link_id: int) -> Link:
        for l in self.links:
            if l.id == link_id:
                return l
        raise TopologyError(f"route references unknown link {link_id}")


@dataclass(frozen=True)
class SystemMatrix:
    """The N x N coupling matrix and the per-channel transmitter noise vector."""

    gamma: np.ndarray
    n0: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        n0 = np.asarray(self.n0, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "n0", n0)
        if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
            raise ValidationError("gamma must be square")
        if gamma.shape[0] == 0:
            raise ValidationError("gamma must cover at least one channel")
        if n0.shape != (gamma.shape[0],):
            raise ValidationError("n0 length must match gamma dimension")
        if not np.all(np.isfinite(gamma)):
            raise ValidationError("gamma entries must be finite")
        if not np.all(np.isfinite(n0)):
            raise ValidationError("n0 entries must be finite")
        if np.any(gamma < 0):
            raise ValidationError("gamma entries must be >= 0")
        if np.any(n0 < 0):
            raise ValidationError("n0 entries must be >= 0")

    @property
    def size(self) -> int:
        return self.gamma.shape[0]


def _ase_mw(spans: tuple[Span, ...], wavelength_nm: np.ndarray, gain: np.ndarray,
            ids) -> np.ndarray:
    """ASE power (mW) each of a link's K amplifiers adds into each of N
    channels' bandwidth, K x N; gain is K x N and linear.

    Uses 2 * nsp * h * nu * (G - 1) * B_o unless the span carries a fixed
    override. An attenuating "amplifier" (G < 1) contributes no ASE; one
    warning per such span gives the count of clamped channels and their
    first few ids.
    """
    # the fixed overrides as one K x 1 column, NaN where the formula applies
    fixed = np.array([[np.nan if s.ase.fixed_ase_mW is None else s.ase.fixed_ase_mW]
                      for s in spans])
    clamped = (gain < 1.0) & np.isnan(fixed)
    for row in clamped[clamped.any(axis=1)]:
        hit = np.flatnonzero(row)
        shown = ", ".join(str(ids[i]) for i in hit[:5]) + (", ..." if len(hit) > 5 else "")
        warnings.warn(f"amplifier gain < 1 for {len(hit)} channel(s) (ids {shown}), "
                      "clamping their ASE at 0", stacklevel=3)
    nsp = np.array([s.ase.nsp for s in spans])
    bandwidth = np.array([s.ase.optical_bandwidth_GHz for s in spans])
    nu = SPEED_OF_LIGHT_M_S / (wavelength_nm * 1e-9)
    excess = np.maximum(gain - 1.0, 0.0)  # exactly 0 where a span clamps
    ase_w = (2.0 * nsp * PLANCK_J_S)[:, None] * nu * excess * (bandwidth * 1e9)[:, None]
    return np.where(np.isnan(fixed), ase_w * 1e3, fixed)


def build_system_matrix(
    network: LinkNetwork, channels: list[ChannelSpec]
) -> SystemMatrix:
    """Coupling matrix gamma (N x N, mW/mW) and noise vector n0 (mW).

    Per link l with K spans, over all N channels (linear units):
        C_l = cumprod over spans of G_l * L_l   (K x N, gain * loss)
        W_l = ASE_l / (P_l * C_l)               (K x N, ASE and output power P_l in mW)
        T_l = C_l[-1]                           (N, whole-link transmission)
    A stage is a route prefix p = (l_1, ..., l_t) that begins at least one
    channel's route; R_p are the rows of those channels, and
    tau_p = T_l_1 * ... * T_l_t-1 (all ones when t = 1) is the
    transmission of every channel before l = l_t. Each stage adds one
    product of inner dimension K:
        gamma[R_p] += (W_l[:, R_p] / tau_p[R_p]).T @ (C_l * on_l * tau_p)
    on_l marks the channels routed over l, the union of R_p over the stages
    that end at l. Each span's row of C_l, and each tau_p, is scaled by a
    power of two that puts its largest entry under 1. That is exact and
    cancels in W_l C_l and between the two factors. It keeps W_l normal when
    a tiny ASE meets a large cumulative gain, and tau_p from underflowing on
    a long route over links that peak at other wavelengths. A channel's ASE
    on a link under TINY_ASE_MW is summed apart, scaled by a power of two,
    so that each entry rounds into the subnormal range once. Only routed
    links are evaluated, at every wavelength: tau_p needs T_l in every column.
    Warns once per span whose gain is < 1 for a channel routed through it.
    Bad channel lists (ValidationError) and unknown links (TopologyError)
    raise before any evaluation.
    """
    if not channels:
        raise ValidationError("empty channel list")
    n = len(channels)
    ids = [c.id for c in channels]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate channel ids")
    members: dict[tuple[int, ...], list[int]] = {}
    for i, c in enumerate(channels):
        members.setdefault(c.route, []).append(i)
    stages: dict[tuple[int, ...], list[int]] = {}  # each prefix before those extending it
    for route, rows in members.items():
        for t in range(1, len(route) + 1):
            stages.setdefault(route[:t], []).extend(rows)
    links = {p[-1]: network.link(p[-1]) for p in stages}
    on = {lid: np.zeros(n, dtype=bool) for lid in links}
    for p, rows in stages.items():
        on[p[-1]][rows] = True

    wl = np.array([c.wavelength_nm for c in channels])
    id_of = np.array(ids, dtype=object)  # the ids as given, gathered per link
    cum, ase = {}, {}
    for lid, link in links.items():
        gain = db_to_linear(np.array([s.gain_profile.gain_db(wl) for s in link.spans]))
        loss = db_to_linear(-np.array([s.loss_dB for s in link.spans]))
        c_l = np.cumprod(gain * loss[:, None], axis=0)
        cum[lid] = np.ldexp(c_l, -np.frexp(c_l.max(axis=1))[1][:, None])
        rows = np.flatnonzero(on[lid])
        ase[lid] = np.zeros_like(c_l)
        ase[lid][:, rows] = _ase_mw(link.spans, wl[rows], gain[:, rows], id_of[rows])

    # per stage: its rows, its link, tau_p over the rows and the right
    # factor; tau_p extends its parent's by one link, scaled into [0.5, 1)
    terms, tau = [], {}
    for p, rows in stages.items():
        t = tau[p[:-1]] * cum[p[-2]][-1] if len(p) > 1 else np.ones(n)
        tau[p] = np.ldexp(t, -np.frexp(t.max())[1])
        lid, rows = p[-1], np.array(rows)
        terms.append((rows, lid, tau[p][rows], cum[lid] * (on[lid] * tau[p])))

    def couple(ase: dict) -> np.ndarray:
        weight = {lid: ase[lid] / (link.output_power_mW * cum[lid]) for lid, link in links.items()}
        gamma = np.zeros((n, n))
        for rows, lid, tau_rows, right in terms:
            gamma[rows] += (weight[lid][:, rows] / tau_rows).T @ right
        return gamma

    top = {lid: a.max(axis=0) for lid, a in ase.items()}
    tiny = {lid: (t > 0) & (t < TINY_ASE_MW) for lid, t in top.items()}
    if not any(t.any() for t in tiny.values()):
        gamma = couple(ase)
    else:
        # a channel's tiny ASE on a link goes into a second sum, scaled per
        # channel into [0.5, 1): its weights and partial sums stay normal,
        # and each entry rounds into the subnormal range once
        shift = -np.frexp(np.max([np.where(tiny[l], top[l], 0.0) for l in ase], axis=0))[1]
        normal = {l: np.where(tiny[l], 0.0, a) for l, a in ase.items()}
        scaled = {l: np.ldexp(np.where(tiny[l], a, 0.0), shift) for l, a in ase.items()}
        gamma = couple(normal) + np.ldexp(couple(scaled), -shift[:, None])
    n0 = np.array([c.tx_noise_mW for c in channels])
    return SystemMatrix(gamma=gamma, n0=n0)
