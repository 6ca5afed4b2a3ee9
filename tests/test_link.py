import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osnrgame.link import (
    AseParams,
    ChannelSpec,
    GainProfile,
    Link,
    LinkNetwork,
    Span,
    _ase_mw,
    build_system_matrix,
    db_to_linear,
)
from osnrgame.errors import EvaluationError, TopologyError, ValidationError

from helpers import exact_coupling_matrix, loop_coupling_matrix

PARABOLIC = GainProfile(shape="parabolic", peak_gain_dB=30.0, center_nm=1555.0,
                        curvature_dB_per_nm2=0.05)


def flat_span(gain_db=30.0, ase_mw=0.001, loss_db=30.0):
    return Span(
        gain_profile=GainProfile(shape="flat", peak_gain_dB=gain_db),
        loss_dB=loss_db,
        ase=AseParams(fixed_ase_mW=ase_mw),
    )


def channel(cid, wl=1555.0, noise=0.01, route=(1,)):
    return ChannelSpec(id=cid, wavelength_nm=wl, tx_noise_mW=noise, route=route)


def linear_gain(profile, wavelength_nm):
    """The gain as build_system_matrix takes it: gain_db, then db_to_linear."""
    return float(db_to_linear(profile.gain_db(wavelength_nm)))


def span_ase(span, ch):
    """One channel's ASE from the per-link array form build_system_matrix
    calls, on a link of this one span."""
    wl = np.array([ch.wavelength_nm])
    gain = db_to_linear(span.gain_profile.gain_db(wl))[None, :]
    return float(_ase_mw((span,), wl, gain, [ch.id])[0, 0])


class TestEvaluateGain:
    """Gain as build_system_matrix evaluates it: db_to_linear of gain_db."""

    def test_parabolic_peak(self):
        assert linear_gain(PARABOLIC, 1555.0) == pytest.approx(1000.0, rel=1e-12)

    def test_flat_any_wavelength(self):
        prof = GainProfile(shape="flat", peak_gain_dB=20.0)
        assert linear_gain(prof, 1500.0) == 100.0
        assert linear_gain(prof, 1600.0) == 100.0

    def test_parabolic_offset(self):
        # 30 - 0.05 * 25 = 28.75 dB
        assert linear_gain(PARABOLIC, 1560.0) == pytest.approx(10 ** 2.875, rel=1e-12)

    def test_tabulated_interpolates(self):
        prof = GainProfile(
            shape="tabulated", peak_gain_dB=30.0,
            table=((1550.0, 20.0), (1560.0, 30.0)),
        )
        assert linear_gain(prof, 1555.0) == pytest.approx(10 ** 2.5, rel=1e-12)

    def test_tabulated_out_of_range(self):
        prof = GainProfile(
            shape="tabulated", peak_gain_dB=30.0,
            table=((1550.0, 20.0), (1560.0, 30.0)),
        )
        with pytest.raises(EvaluationError):
            prof.gain_db(1540.0)

    def test_invalid_profiles(self):
        with pytest.raises(ValidationError):
            GainProfile(shape="sinusoidal")
        with pytest.raises(ValidationError):
            GainProfile(peak_gain_dB=-1.0)
        with pytest.raises(ValidationError):
            GainProfile(curvature_dB_per_nm2=-0.1)
        with pytest.raises(ValidationError):
            GainProfile(shape="tabulated", table=((1550.0, 10.0), (1550.0, 11.0)))
        with pytest.raises(ValidationError):
            GainProfile(shape="tabulated", peak_gain_dB=20.0, table=((1550.0, 25.0),))


class TestSpanAse:
    """One span's ASE as build_system_matrix evaluates it, through _ase_mw."""

    def test_fixed_override(self):
        span = flat_span(ase_mw=0.002)
        assert span_ase(span, channel(1)) == 0.002

    def test_zero_nsp(self):
        span = Span(gain_profile=PARABOLIC, ase=AseParams(nsp=0.0))
        assert span_ase(span, channel(1)) == 0.0

    def test_physical_formula(self):
        # 2 * nsp * h * nu * (G - 1) * B_o, converted to mW
        span = Span(
            gain_profile=PARABOLIC,
            ase=AseParams(nsp=1.5, optical_bandwidth_GHz=12.5),
        )
        h = 6.62607015e-34
        nu = 299792458.0 / 1555e-9
        expected_mw = 2 * 1.5 * h * nu * 999.0 * 12.5e9 * 1e3
        got = span_ase(span, channel(1, wl=1555.0))
        assert got == pytest.approx(expected_mw, rel=1e-12)
        assert got == pytest.approx(4.786e-3, rel=1e-3)

    def test_attenuating_amplifier_clamps(self):
        prof = GainProfile(shape="parabolic", peak_gain_dB=1.0, center_nm=1555.0,
                           curvature_dB_per_nm2=1.0)
        span = Span(gain_profile=prof, ase=AseParams(nsp=1.5))
        with pytest.warns(UserWarning):
            assert span_ase(span, channel(1, wl=1560.0)) == 0.0


class TestBuildSystemMatrix:
    def test_zero_ase_zero_coupling(self):
        net = LinkNetwork(links=(Link(id=1, spans=(flat_span(ase_mw=0.0),)),))
        sysm = build_system_matrix(net, [channel(1)])
        assert sysm.gamma == pytest.approx(np.zeros((1, 1)))

    def test_two_channel_flat_single_span(self):
        net = LinkNetwork(
            links=(Link(id=1, spans=(flat_span(ase_mw=0.001),), output_power_mW=1000.0),)
        )
        sysm = build_system_matrix(net, [channel(1), channel(2)])
        assert sysm.gamma == pytest.approx(np.full((2, 2), 1e-6), rel=1e-12)
        assert sysm.n0 == pytest.approx([0.01, 0.01])

    def test_hand_expanded_two_spans(self):
        # parabolic spans, wavelength-dependent gains, fixed per-span ASE
        spans = tuple(
            Span(gain_profile=PARABOLIC, loss_dB=20.0,
                 ase=AseParams(fixed_ase_mW=ase))
            for ase in (0.001, 0.002)
        )
        net = LinkNetwork(links=(Link(id=1, spans=spans, output_power_mW=10.0),))
        chans = [channel(1, wl=1555.0), channel(2, wl=1557.0)]
        sysm = build_system_matrix(net, chans)

        g = [10 ** ((30 - 0.05 * (wl - 1555.0) ** 2) / 10) for wl in (1555.0, 1557.0)]
        loss = 10 ** -2.0
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k, ase in enumerate((0.001, 0.002), start=1):
                    ratio = (g[j] * loss) ** k / (g[i] * loss) ** k
                    expected[i, j] += ratio * ase / 10.0
        assert sysm.gamma == pytest.approx(expected, rel=1e-12)

    def test_two_link_route_prefix(self):
        # channel 2 joins only on link 2; link 1 transmission ratios feed in
        span1 = Span(gain_profile=PARABOLIC, loss_dB=20.0,
                     ase=AseParams(fixed_ase_mW=0.001))
        span2 = Span(gain_profile=PARABOLIC, loss_dB=20.0,
                     ase=AseParams(fixed_ase_mW=0.003))
        net = LinkNetwork(links=(
            Link(id=1, spans=(span1,), output_power_mW=10.0),
            Link(id=2, spans=(span2,), output_power_mW=10.0),
        ))
        chans = [channel(1, wl=1555.0, route=(1, 2)), channel(2, wl=1557.0, route=(2,))]
        sysm = build_system_matrix(net, chans)

        g1, g2 = 1000.0, 10 ** ((30 - 0.05 * 4.0) / 10)
        loss = 1e-2
        t1_ratio = (g2 * loss) / (g1 * loss)  # link-1 transmission, ch2 over ch1
        # channel 1 row: own terms on both links; the cross term exists only
        # on link 2 (the single shared link) and carries link 1's T-ratio
        exp_11 = 0.001 / 10.0 + 0.003 / 10.0
        exp_12 = t1_ratio * (g2 / g1) * 0.003 / 10.0
        assert sysm.gamma[0, 0] == pytest.approx(exp_11, rel=1e-12)
        assert sysm.gamma[0, 1] == pytest.approx(exp_12, rel=1e-12)
        # channel 2 never sees link 1 at all
        assert sysm.gamma[1, 0] == pytest.approx((g1 / g2) * 0.003 / 10.0, rel=1e-12)
        assert sysm.gamma[1, 1] == pytest.approx(0.003 / 10.0, rel=1e-12)

    def test_disjoint_routes_decouple(self):
        net = LinkNetwork(links=(
            Link(id=1, spans=(flat_span(),)),
            Link(id=2, spans=(flat_span(),)),
        ))
        chans = [channel(1, route=(1,)), channel(2, route=(2,))]
        sysm = build_system_matrix(net, chans)
        assert sysm.gamma[0, 1] == 0.0
        assert sysm.gamma[1, 0] == 0.0
        assert sysm.gamma[0, 0] > 0.0

    def test_identical_channels_identical_rows(self):
        net = LinkNetwork(links=(Link(id=1, spans=(flat_span(), flat_span())),))
        chans = [channel(1, wl=1555.0), channel(2, wl=1555.0), channel(3, wl=1556.0)]
        sysm = build_system_matrix(net, chans)
        assert sysm.gamma[0] == pytest.approx(sysm.gamma[1], rel=1e-14)

    @given(scale=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity_in_ase(self, scale):
        base = 0.0015

        def network(ase):
            return LinkNetwork(links=(
                Link(id=1, spans=(flat_span(ase_mw=ase), flat_span(ase_mw=ase))),
            ))

        chans = [channel(1, wl=1554.0), channel(2, wl=1556.0)]
        ref = build_system_matrix(network(base), chans)
        scaled = build_system_matrix(network(base * scale), chans)
        assert scaled.gamma == pytest.approx(scale * ref.gamma, rel=1e-12, abs=1e-30)

    @pytest.mark.parametrize("n_spans, ase_mw", [(6, 2.2e-308), (60, 1e-150)])
    def test_tiny_ase_after_large_gain(self, n_spans, ase_mw):
        # lossless 30 dB spans put C_l near 1e18 (6 spans) or 1e180 (60): an
        # unscaled ASE / (P C_l) would fall deep into the subnormal range
        span = Span(gain_profile=PARABOLIC, loss_dB=0.0, ase=AseParams(fixed_ase_mW=ase_mw))
        net = LinkNetwork(links=(Link(id=1, spans=(span,) * n_spans, output_power_mW=1.0),))
        chans = [channel(1, wl=1555.0), channel(2, wl=1557.0), channel(3, wl=1551.0)]
        got = build_system_matrix(net, chans).gamma
        np.testing.assert_allclose(got, exact_coupling_matrix(net, chans), rtol=1e-12, atol=0)

    def test_nonnegative_entries(self):
        net = LinkNetwork(links=(Link(id=1, spans=tuple(
            Span(gain_profile=PARABOLIC, loss_dB=25.0, ase=AseParams())
            for _ in range(5)
        )),))
        chans = [channel(i + 1, wl=1550.0 + 2 * i) for i in range(5)]
        sysm = build_system_matrix(net, chans)
        assert np.all(sysm.gamma >= 0)

    def test_empty_channels(self):
        net = LinkNetwork(links=(Link(id=1, spans=(flat_span(),)),))
        with pytest.raises(ValidationError):
            build_system_matrix(net, [])

    def test_unknown_link(self):
        net = LinkNetwork(links=(Link(id=1, spans=(flat_span(),)),))
        with pytest.raises(TopologyError):
            build_system_matrix(net, [channel(1, route=(7,))])

    def test_unused_link_not_evaluated(self):
        # link 2's gain table misses every channel wavelength, but no route uses it
        narrow = GainProfile(shape="tabulated", table=((1600.0, 20.0), (1610.0, 25.0)))
        unused = Link(id=2, spans=(Span(gain_profile=narrow),))
        used = Link(id=1, spans=(flat_span(), flat_span(ase_mw=0.002)))
        chans = [channel(1, wl=1555.0), channel(2, wl=1556.0)]
        with_unused = build_system_matrix(LinkNetwork(links=(unused, used)), chans)
        alone = build_system_matrix(LinkNetwork(links=(used,)), chans)
        np.testing.assert_array_equal(with_unused.gamma, alone.gamma)

    def test_clamp_warns_once_per_span(self):
        # 1 dB peak falling 1 dB/nm^2: channels 4..30 (>= 1.2 nm off centre) see G < 1.
        # Channel 0 would too, but it is routed over link 2 only and is not counted.
        prof = GainProfile(shape="parabolic", peak_gain_dB=1.0, center_nm=1555.0,
                           curvature_dB_per_nm2=1.0)
        span = Span(gain_profile=prof, loss_dB=1.0, ase=AseParams(nsp=1.5))
        net = LinkNetwork(links=(Link(id=1, spans=(span, span)),
                                 Link(id=2, spans=(flat_span(),))))
        chans = [channel(0, wl=1570.0, route=(2,))]
        chans += [channel(i + 1, wl=1555.0 + 0.4 * i) for i in range(30)]
        with pytest.warns(UserWarning) as record:
            sysm = build_system_matrix(net, chans)
        assert len(record) == 2
        for w in record:
            msg = str(w.message)
            assert "27 channel(s)" in msg and "ids 4, 5, 6, 7, 8, ..." in msg
            assert "30" not in msg  # only the first five ids are listed
        # clamped channels get no ASE on either span, so their rows are exactly 0
        assert np.all(sysm.gamma[4:] == 0.0)
        assert np.all(sysm.gamma[1:4, 1:] > 0.0)
        np.testing.assert_allclose(sysm.gamma, loop_coupling_matrix(net, chans),
                                   rtol=1e-12, atol=0)

    def test_clamp_warnings_name_each_spans_channels(self):
        # span 1 (centre 1551 nm) clamps channels 3-6, the fixed-ASE span
        # warns about nothing, and span 3 (centre 1557.5 nm) clamps 1-4 and
        # 6; channel 7 is routed over link 2 only and is never named
        def attenuating(center_nm):
            prof = GainProfile(shape="parabolic", peak_gain_dB=1.0, center_nm=center_nm,
                               curvature_dB_per_nm2=1.0)
            return Span(gain_profile=prof, loss_dB=1.0, ase=AseParams(nsp=1.5))

        fixed = Span(gain_profile=GainProfile(shape="parabolic", peak_gain_dB=1.0,
                                              curvature_dB_per_nm2=1.0),
                     ase=AseParams(fixed_ase_mW=0.001))
        net = LinkNetwork(links=(Link(id=1, spans=(attenuating(1551.0), fixed, attenuating(1557.5))),
                                 Link(id=2, spans=(flat_span(),))))
        chans = [channel(i + 1, wl=1550.0 + 2 * i) for i in range(6)]
        chans.append(channel(7, wl=1540.0, route=(2,)))
        with pytest.warns(UserWarning) as record:
            build_system_matrix(net, chans)
        assert [str(w.message) for w in record] == [
            "amplifier gain < 1 for 4 channel(s) (ids 3, 4, 5, 6), clamping their ASE at 0",
            "amplifier gain < 1 for 5 channel(s) (ids 1, 2, 3, 4, 6), clamping their ASE at 0",
        ]
        assert all(w.filename == __file__ for w in record)


def _never_evaluated(self, wavelength_nm):
    raise AssertionError("gain evaluated before the inputs were validated")


class TestBuildErrors:
    """Typed errors on a three-link network; link 3's gain table spans 1550-1560 nm."""

    NET = LinkNetwork(links=(
        Link(id=1, spans=(flat_span(), flat_span())),
        Link(id=2, spans=(Span(gain_profile=PARABOLIC, ase=AseParams()),)),
        Link(id=3, spans=(Span(gain_profile=GainProfile(
            shape="tabulated", table=((1550.0, 20.0), (1560.0, 25.0)))),)),
    ))

    @pytest.mark.parametrize("chans, error", [
        ([], ValidationError),
        ([channel(1, route=(1, 2)), channel(1, wl=1556.0, route=(2, 3))], ValidationError),
        ([channel(1, route=(1, 2)), channel(1, route=(1, 9))], ValidationError),
        ([channel(1, route=(1, 2)), channel(2, route=(2, 9, 1))], TopologyError),
        ([channel(1, wl=1540.0, route=(3,)), channel(2, route=(3, 2, 9))], TopologyError),
    ])
    def test_raises_before_evaluation(self, monkeypatch, chans, error):
        monkeypatch.setattr(GainProfile, "gain_db", _never_evaluated)
        with pytest.raises(error):
            build_system_matrix(self.NET, chans)

    @pytest.mark.parametrize("chans", [
        [channel(1, wl=1540.0, route=(1, 3)), channel(2, route=(3, 2))],
        # a routed link is evaluated at every wavelength, as its T ratios feed the prefix
        [channel(1, wl=1540.0, route=(1, 2)), channel(2, route=(2, 3))],
    ])
    def test_routed_table_out_of_range(self, chans):
        with pytest.raises(EvaluationError):
            build_system_matrix(self.NET, chans)


_GAINS = st.one_of(
    st.builds(GainProfile, shape=st.just("flat"), peak_gain_dB=st.floats(5.0, 35.0)),
    st.builds(GainProfile, shape=st.just("parabolic"), peak_gain_dB=st.floats(5.0, 35.0),
              center_nm=st.floats(1540.0, 1570.0), curvature_dB_per_nm2=st.floats(0.0, 0.05)),
    st.lists(st.floats(5.0, 35.0), min_size=2, max_size=4).map(
        lambda g: GainProfile(shape="tabulated", peak_gain_dB=35.0,
                              table=tuple(zip(np.linspace(1520.0, 1580.0, len(g)), g)))),
)
_ASE = st.one_of(
    st.builds(AseParams, fixed_ase_mW=st.floats(0.0, 0.01)),
    st.builds(AseParams, nsp=st.floats(0.0, 3.0), optical_bandwidth_GHz=st.floats(5.0, 50.0)),
)
_SPANS = st.builds(Span, gain_profile=_GAINS, loss_dB=st.floats(5.0, 30.0), ase=_ASE)


@st.composite
def routed_networks(draw):
    """1-4 links of 1-6 spans; up to 40 channels on ordered link subsets and their reverses."""
    link_ids = list(range(1, draw(st.integers(1, 4)) + 1))
    links = tuple(
        Link(id=lid, spans=tuple(draw(st.lists(_SPANS, min_size=1, max_size=6))),
             output_power_mW=draw(st.floats(1.0, 100.0)))
        for lid in link_ids
    )
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(link_ids))
        route = tuple(order[:draw(st.integers(1, len(link_ids)))])
        pool += [route, route[::-1]]
    n = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(100, 100 + n)))
    chans = [
        channel(cid, wl=draw(st.floats(1530.0, 1570.0)), route=draw(st.sampled_from(pool)))
        for cid in ids
    ]
    return LinkNetwork(links=links), chans


_ZERO_ASE = AseParams(fixed_ase_mW=0.0)
_FLAT = GainProfile(shape="flat", peak_gain_dB=5.0)
# a subnormal fixed ASE whose true coupling entry is subnormal too
_SUBNORMAL_ASE = (
    LinkNetwork(links=(Link(id=1, output_power_mW=1.0, spans=(
        Span(_FLAT, 5.0, _ZERO_ASE),
        Span(_FLAT, 5.0, _ZERO_ASE),
        Span(GainProfile(shape="parabolic", peak_gain_dB=6.25, center_nm=1540.0,
                         curvature_dB_per_nm2=0.0),
             5.0, AseParams(fixed_ase_mW=2.2250738585e-313)),
    )),)),
    [channel(100, wl=1530.0)],
)
# channel 100's row sums a normal ASE on link 3 with a subnormal one on link
# 4; its entry for channel 101, which shares only link 4, is subnormal
_SUBNORMAL_ON_ONE_LINK = (
    LinkNetwork(links=(
        Link(id=1, output_power_mW=1.0, spans=(Span(_FLAT, 5.0, _ZERO_ASE),)),
        Link(id=2, output_power_mW=1.0, spans=(Span(_FLAT, 5.0, _ZERO_ASE),)),
        Link(id=3, output_power_mW=1.0, spans=(
            Span(_FLAT, 5.0, _ZERO_ASE),
            Span(GainProfile(shape="parabolic", peak_gain_dB=5.0, center_nm=1540.0,
                             curvature_dB_per_nm2=0.03125),
                 5.0, AseParams(fixed_ase_mW=0.0078125)),
        )),
        Link(id=4, output_power_mW=4.0, spans=(
            Span(_FLAT, 5.0, _ZERO_ASE),
            Span(_FLAT, 5.0, AseParams(fixed_ase_mW=2.2250738585e-313)),
        )),
    )),
    [channel(100, wl=1554.0, route=(3, 2, 4)), channel(101, wl=1531.0, route=(4,))],
)


def _six_spans(center_nm):
    gain = GainProfile(shape="parabolic", peak_gain_dB=35.0, center_nm=center_nm,
                       curvature_dB_per_nm2=0.05)
    return (Span(gain, 5.0, AseParams(nsp=1.5)),) * 6


# three-link routes over gain peaks 40 nm apart: gamma spans 1e-56 to 1e86
_WIDE_RANGE_STAGES = (
    LinkNetwork(links=tuple(Link(id=lid, output_power_mW=1.0, spans=_six_spans(center))
                            for lid, center in ((1, 1530.0), (2, 1530.0), (3, 1570.0)))),
    [channel(100, wl=1570.0, route=(1, 2, 3)), channel(101, wl=1530.0, route=(1, 2, 3)),
     channel(102, wl=1550.0, route=(3, 2, 1)), channel(103, wl=1569.0, route=(2, 3))],
)

# fifteen links whose gain peaks alternate 40 nm apart: the product of their
# transmissions falls below the smallest float at 1530 nm, while the ratios
# gamma needs stay near 1e168
_ALTERNATING_PEAKS = (
    LinkNetwork(links=tuple(Link(id=lid, output_power_mW=1.0, spans=_six_spans(center))
                            for lid, center in enumerate([1530.0, 1570.0] * 7 + [1550.0], 1))),
    [channel(100 + k, wl=wl, route=tuple(range(1, 16)))
     for k, wl in enumerate((1530.0, 1550.0, 1570.0))],
)


class TestLoopOracle:
    @given(case=routed_networks())
    @example(case=_SUBNORMAL_ASE)
    @example(case=_SUBNORMAL_ON_ONE_LINK)
    @example(case=_WIDE_RANGE_STAGES)
    @example(case=_ALTERNATING_PEAKS)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:amplifier gain < 1")
    def test_matches_loop(self, case):
        # against the exact sum, not the loop's float one: where an entry is
        # subnormal, no float sum can meet rtol, so one subnormal step is allowed
        net, chans = case
        got = build_system_matrix(net, chans).gamma
        ref = exact_coupling_matrix(net, chans)
        np.testing.assert_array_equal(got == 0, ref == 0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=np.finfo(float).smallest_subnormal)


class TestTypeInvariants:
    def test_channel_invariants(self):
        with pytest.raises(ValidationError):
            ChannelSpec(id=1, wavelength_nm=0.0, tx_noise_mW=0.0, route=(1,))
        with pytest.raises(ValidationError):
            ChannelSpec(id=1, wavelength_nm=1555.0, tx_noise_mW=-1.0, route=(1,))
        with pytest.raises(ValidationError):
            ChannelSpec(id=1, wavelength_nm=1555.0, tx_noise_mW=0.0, route=())

    def test_link_invariants(self):
        with pytest.raises(ValidationError):
            Link(id=1, spans=())
        with pytest.raises(ValidationError):
            Link(id=1, spans=(flat_span(),), output_power_mW=0.0)

    def test_span_and_ase_invariants(self):
        with pytest.raises(ValidationError):
            Span(loss_dB=-1.0)
        with pytest.raises(ValidationError):
            AseParams(nsp=-0.5)
        with pytest.raises(ValidationError):
            AseParams(optical_bandwidth_GHz=0.0)
        with pytest.raises(ValidationError):
            AseParams(fixed_ase_mW=-1e-6)
