"""Decoy-state rate model: photon statistics, gains, bounds, key rate."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdplan.decoy import (
    DEFAULT_PROTOCOL,
    BoundCollapseError,
    ChannelObservables,
    DecoyProtocolParams,
    DegenerateChannelError,
    binary_entropy,
    forward_observables,
    gain_and_qber,
    secret_key_rate,
    single_photon_bounds,
)

from oracles import error_rate_n, forward_key_rate, gain_and_qber_series, poisson_pn, yield_n

# Gains and QBERs of the three reference link classes as commonly tabulated
# (QBERs consistent with E*Q = e0*Y0 at Y0 = 1.7e-6).
GOLDEN_OBSERVABLES = {
    "leo-gs": ChannelObservables(q_mu=1.96e-3, e_mu=0.0004, q_nu=3.28e-4, e_nu=0.0026),
    "geo-gs": ChannelObservables(q_mu=1.27e-5, e_mu=0.0668, q_nu=5.38e-6, e_nu=0.1581),
    "leo-leo": ChannelObservables(q_mu=2.26e-5, e_mu=0.0376, q_nu=8.66e-6, e_nu=0.0981),
}


class TestPoisson:
    def test_vacuum_zero_intensity(self):
        assert poisson_pn(0, 0.0) == 1.0
        assert poisson_pn(3, 0.0) == 0.0

    def test_single_photon_value(self):
        # direct evaluation: 0.3 * exp(-0.3)
        assert poisson_pn(1, 0.3) == pytest.approx(0.3 * math.exp(-0.3), rel=1e-14)
        assert poisson_pn(1, 0.3) == pytest.approx(0.22224546620451535, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.1, 0.3, 1.0])
    def test_normalization(self, mu):
        total = sum(poisson_pn(n, mu) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            poisson_pn(0, -0.1)
        with pytest.raises(ValueError):
            poisson_pn(-1, 0.3)


class TestBinaryEntropy:
    def test_known_points(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestYields:
    def test_vacuum_pulse_gives_background(self):
        for delta in (0.0, 0.3, 1.0):
            assert yield_n(0, delta, 1.7e-6) == 1.7e-6

    def test_lossless_single_photon(self):
        assert yield_n(1, 1.0, 0.0) == 1.0

    def test_two_photon_value(self):
        # delta_2 = 1 - 0.9^2 = 0.19; exact form adds Y0 * (1 - 0.19)
        expected = 0.19 + 1.7e-6 * (1 - 0.19)
        assert yield_n(2, 0.1, 1.7e-6) == pytest.approx(expected, rel=1e-14)

    def test_exact_form_stays_in_unit_interval(self):
        assert yield_n(5, 1.0, 0.9) == pytest.approx(1.0, abs=1e-15)
        assert yield_n(5, 1.0, 0.9) <= 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            yield_n(1, -0.1, 0.0)
        with pytest.raises(ValueError):
            yield_n(1, 0.1, 1.5)


class TestErrorRates:
    def test_vacuum_error_is_one_half(self):
        assert error_rate_n(0, 0.5, 1e-6) == 0.5

    def test_no_dark_counts_no_errors(self):
        assert error_rate_n(1, 1.0, 0.0) == 0.0

    def test_single_photon_value(self):
        assert error_rate_n(1, 6.53e-3, 1.7e-6) == pytest.approx(1.3013479563151497e-4, rel=1e-12)

    def test_zero_yield_raises(self):
        with pytest.raises(DegenerateChannelError):
            error_rate_n(0, 0.5, 0.0)


class TestGainAndQber:
    def test_geo_reference_column(self):
        gain, qber = gain_and_qber(0.3, 3.68e-5, DEFAULT_PROTOCOL)
        assert gain == pytest.approx(1.27e-5, rel=0.02)
        assert qber == pytest.approx(0.0668, rel=0.02)

    def test_vacuum_intensity_gives_background_only(self):
        gain, qber = gain_and_qber(0.0, 0.77, DEFAULT_PROTOCOL)
        assert gain == DEFAULT_PROTOCOL.y0
        assert qber == DEFAULT_PROTOCOL.e0

    def test_leo_leo_decoy_reference(self):
        gain, qber = gain_and_qber(0.1, 6.97e-5, DEFAULT_PROTOCOL)
        assert gain == pytest.approx(8.66e-6, rel=0.02)
        assert qber == pytest.approx(0.0981, rel=0.02)

    def test_degenerate_channel_raises(self):
        params = DecoyProtocolParams(y0=0.0)
        with pytest.raises(DegenerateChannelError):
            gain_and_qber(0.0, 0.5, params)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_series_agrees_with_closed_form(self, delta, intensity):
        q_closed, e_closed = gain_and_qber(intensity, delta, DEFAULT_PROTOCOL)
        q_series, e_series = gain_and_qber_series(intensity, delta)
        assert q_series == pytest.approx(q_closed, rel=1e-12)
        assert e_series == pytest.approx(e_closed, rel=1e-12)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_error_gain_identity(self, delta, intensity):
        gain, qber = gain_and_qber(intensity, delta, DEFAULT_PROTOCOL)
        assert qber * gain == pytest.approx(
            DEFAULT_PROTOCOL.e0 * DEFAULT_PROTOCOL.y0, rel=1e-12
        )


class TestSinglePhotonBounds:
    def test_forward_model_bound_is_tight(self):
        delta = 6.53e-3
        obs = forward_observables(delta, DEFAULT_PROTOCOL)
        bounds = single_photon_bounds(obs, DEFAULT_PROTOCOL)
        true_y1 = yield_n(1, delta, DEFAULT_PROTOCOL.y0)
        assert bounds.y1_lower <= true_y1
        assert bounds.y1_lower == pytest.approx(delta, rel=0.05)
        true_e1 = error_rate_n(1, delta, DEFAULT_PROTOCOL.y0)
        assert bounds.e1_upper >= true_e1

    def test_sub_background_decoy_gain_collapses(self):
        # A decoy gain below the dark-count floor admits no single photons.
        floor = 0.9 * DEFAULT_PROTOCOL.y0
        obs = ChannelObservables(q_mu=floor, e_mu=0.5, q_nu=floor, e_nu=0.5)
        with pytest.raises(BoundCollapseError):
            single_photon_bounds(obs, DEFAULT_PROTOCOL)

    def test_geo_observables_leave_positive_key_margin(self):
        bounds = single_photon_bounds(GOLDEN_OBSERVABLES["geo-gs"], DEFAULT_PROTOCOL)
        assert bounds.q1_lower > 0
        assert bounds.e1_upper < 0.11  # below the entropy break-even

    @pytest.mark.parametrize("delta", [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5])
    def test_bounds_are_valid_over_grid(self, delta):
        obs = forward_observables(delta, DEFAULT_PROTOCOL)
        bounds = single_photon_bounds(obs, DEFAULT_PROTOCOL)
        assert bounds.y1_lower <= yield_n(1, delta, DEFAULT_PROTOCOL.y0) + 1e-15
        assert bounds.e1_upper >= error_rate_n(1, delta, DEFAULT_PROTOCOL.y0) - 1e-15


class TestSecretKeyRate:
    def test_leo_gs_reference_magnitude(self):
        obs = GOLDEN_OBSERVABLES["leo-gs"]
        rate = secret_key_rate(obs, single_photon_bounds(obs, DEFAULT_PROTOCOL), DEFAULT_PROTOCOL)
        assert rate == pytest.approx(1000.0, rel=0.5)

    def test_geo_gs_reference_magnitude(self):
        obs = GOLDEN_OBSERVABLES["geo-gs"]
        rate = secret_key_rate(obs, single_photon_bounds(obs, DEFAULT_PROTOCOL), DEFAULT_PROTOCOL)
        assert rate == pytest.approx(10.0, rel=0.5)

    def test_opaque_channel_rate_is_zero(self):
        assert forward_key_rate(0.0) == 0.0

    def test_monotone_in_transmittance(self):
        deltas = [10 ** (-k / 2) for k in range(12, -1, -1)]  # 1e-6 .. 1
        rates = [forward_key_rate(d) for d in deltas]
        for low, high in zip(rates, rates[1:]):
            assert high >= low - 1e-9


class TestProtocolParams:
    def test_defaults(self):
        p = DEFAULT_PROTOCOL
        assert (p.mu, p.nu, p.q, p.f_ec) == (0.3, 0.1, 0.5, 1.22)
        assert p.y0 == 1.7e-6 and p.e0 == 0.5 and p.pulse_rate_hz == 1e7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.1, "nu": 0.3},
            {"nu": 0.0},
            {"q": 0.0},
            {"q": 1.2},
            {"f_ec": 0.9},
            {"y0": 1.0},
            {"e0": 1.5},
            {"pulse_rate_hz": 0.0},
            {"mu": 0.3, "nu": 0.3},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DecoyProtocolParams(**kwargs)

    def test_observables_validated(self):
        with pytest.raises(ValueError):
            ChannelObservables(q_mu=1.5, e_mu=0.0, q_nu=0.0, e_nu=0.0)
