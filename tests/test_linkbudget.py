"""Link budgets: far-field model, attenuation chain, presets."""
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdplan.linkbudget import (
    PRESETS,
    FsoLinkParams,
    NearFieldError,
    db_to_factor,
    diffraction_loss,
    factor_to_db,
    far_field_check,
    link_performance,
    preset_link,
    total_attenuation,
)

from oracles import forward_key_rate, transmittance


def make_params(**overrides) -> FsoLinkParams:
    base = dict(
        wavelength_m=850e-9,
        tx_aperture_m=0.30,
        rx_aperture_m=1.00,
        tx_factor=0.8,
        rx_factor=0.8,
        pointing_loss_db=7.0,
        atm_loss_db=1.0,
        rx_efficiency=0.65,
        distance_m=1000e3,
    )
    base.update(overrides)
    return FsoLinkParams(**base)


def hand_diffraction(params: FsoLinkParams) -> float:
    """Independent evaluation of the far-field loss formula."""
    theta_t = params.wavelength_m / params.tx_aperture_m
    theta_atm = (
        params.wavelength_m / params.fried_parameter_m if params.fried_parameter_m else 0.0
    )
    geometric = params.distance_m**2 * (theta_t**2 + theta_atm**2) / params.rx_aperture_m**2
    pointing = 10 ** (-params.pointing_loss_db / 10)
    return max(geometric / (params.tx_factor * pointing * params.rx_factor), 1.0)


class TestFarField:
    def test_leo_distance_is_far_field(self):
        # threshold for a 30 cm aperture at 850 nm is about 105.9 km
        assert far_field_check(make_params()) is True

    def test_boundary_distance_included(self):
        params = make_params()
        threshold = params.tx_aperture_m**2 / params.wavelength_m
        assert far_field_check(replace(params, distance_m=threshold)) is True
        assert far_field_check(replace(params, distance_m=threshold * 0.999)) is False

    def test_one_meter_is_near_field(self):
        assert far_field_check(make_params(distance_m=1.0)) is False
        with pytest.raises(NearFieldError):
            diffraction_loss(make_params(distance_m=1.0))


class TestDiffractionLoss:
    def test_geo_defaults(self):
        params = preset_link("geo-gs")
        loss_db = factor_to_db(diffraction_loss(params))
        assert diffraction_loss(params) == pytest.approx(hand_diffraction(params), rel=1e-12)
        assert loss_db == pytest.approx(41.475, abs=0.05)

    def test_leo_defaults(self):
        params = preset_link("leo-gs")
        loss_db = factor_to_db(diffraction_loss(params))
        assert diffraction_loss(params) == pytest.approx(hand_diffraction(params), rel=1e-12)
        assert loss_db == pytest.approx(18.0, abs=0.05)

    def test_reduces_to_pure_geometry(self):
        params = make_params(
            tx_factor=1.0, rx_factor=1.0, pointing_loss_db=0.0, fried_parameter_m=None
        )
        expected = (
            params.distance_m
            * params.wavelength_m
            / (params.tx_aperture_m * params.rx_aperture_m)
        ) ** 2
        assert diffraction_loss(params) == pytest.approx(expected, rel=1e-12)

    def test_pointing_loss_convention(self):
        # 7 dB of pointing loss must divide the budget by 10^-0.7 ~ 0.1995
        with_pointing = diffraction_loss(make_params(pointing_loss_db=7.0))
        without = diffraction_loss(make_params(pointing_loss_db=0.0))
        assert with_pointing / without == pytest.approx(10**0.7, rel=1e-12)
        assert 10 ** (-7 / 10) == pytest.approx(0.1995, abs=2e-4)

    def test_fried_parameter_adds_divergence(self):
        turbulent = diffraction_loss(make_params(fried_parameter_m=0.1))
        calm = diffraction_loss(make_params(fried_parameter_m=None))
        assert turbulent > calm


class TestTotalAttenuation:
    def test_geo_chain(self):
        params = preset_link("geo-gs")
        total_db = factor_to_db(total_attenuation(params))
        # diffraction + 1 dB atmosphere + 10 log10(1/0.65) detector
        expected = factor_to_db(diffraction_loss(params)) + 1.0 + 10 * math.log10(1 / 0.65)
        assert total_db == pytest.approx(expected, rel=1e-12)
        assert total_db == pytest.approx(44.35, abs=0.05)
        assert transmittance(params) == pytest.approx(3.7e-5, rel=0.02)

    def test_identity_factors(self):
        params = make_params(atm_loss_db=0.0, rx_efficiency=1.0)
        assert total_attenuation(params) == pytest.approx(diffraction_loss(params), rel=1e-15)

    def test_leo_chain(self):
        params = preset_link("leo-gs")
        assert factor_to_db(total_attenuation(params)) == pytest.approx(21.9, abs=0.05)
        assert transmittance(params) == pytest.approx(6.5e-3, rel=0.02)

    @given(
        st.floats(min_value=300e-9, max_value=2000e-9),
        st.floats(min_value=0.05, max_value=0.5),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=500e3, max_value=50000e3),
    )
    @settings(max_examples=150)
    def test_losses_never_amplify(self, lam, dt, dr, lp_db, atm_db, rec, distance):
        params = make_params(
            wavelength_m=lam,
            tx_aperture_m=dt,
            rx_aperture_m=dr,
            pointing_loss_db=lp_db,
            atm_loss_db=atm_db,
            rx_efficiency=rec,
            distance_m=distance,
        )
        if not far_field_check(params):
            return
        diff = diffraction_loss(params)
        assert total_attenuation(params) >= diff >= 1.0

    def test_transmittance_monotone_in_distance(self):
        distances = [200e3, 500e3, 1000e3, 5000e3, 39000e3]
        values = [transmittance(make_params(distance_m=d)) for d in distances]
        for near, far in zip(values, values[1:]):
            assert far < near

    def test_transmittance_monotone_in_rx_aperture(self):
        apertures = [0.3, 0.5, 1.0, 1.5]
        values = [transmittance(make_params(rx_aperture_m=a)) for a in apertures]
        for small, big in zip(values, values[1:]):
            assert big > small


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_factor(0.0) == 1.0

    def test_three_db(self):
        assert db_to_factor(3.0) == pytest.approx(1.9953, abs=1e-4)

    def test_round_trip(self):
        assert factor_to_db(db_to_factor(7.0)) == pytest.approx(7.0, abs=1e-12)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            factor_to_db(0.0)
        with pytest.raises(ValueError):
            factor_to_db(-2.0)


class TestPresets:
    def test_preset_names(self):
        assert set(PRESETS) == {"leo-gs", "geo-gs", "leo-leo"}

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            preset_link("meo-gs")

    def test_distance_and_field_overrides(self):
        params = preset_link("geo-gs", distance_m=36000e3, rx_efficiency=0.5)
        assert params.distance_m == 36000e3
        assert params.rx_efficiency == 0.5

    def test_forward_gain_goldens(self):
        # Signal gains the three link classes are expected to produce.
        leo = link_performance(preset_link("leo-gs"))
        geo = link_performance(preset_link("geo-gs"))
        crosslink = link_performance(preset_link("leo-leo"))
        assert leo.q_mu == pytest.approx(1.96e-3, rel=0.10)
        assert geo.q_mu == pytest.approx(1.27e-5, rel=0.10)
        # documented budget ambiguity: the tabulated 2.26e-5 assumes the
        # detector factor is excluded; with it the gain is ~34% lower
        assert crosslink.q_mu == pytest.approx(2.26e-5, rel=0.40)
        no_detector = link_performance(preset_link("leo-leo", rx_efficiency=1.0 - 1e-12))
        assert no_detector.q_mu == pytest.approx(2.26e-5, rel=0.05)

    def test_performance_consistent_with_rate_model(self):
        from qkdplan.decoy import DEFAULT_PROTOCOL, forward_observables

        params = preset_link("geo-gs")
        perf = link_performance(params)
        delta = transmittance(params)
        obs = forward_observables(delta, DEFAULT_PROTOCOL)
        assert perf.q_mu == obs.q_mu and perf.e_nu == obs.e_nu
        assert perf.rate_bps == forward_key_rate(delta)
        assert perf.rate_bps > 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wavelength_m": 0.0},
            {"tx_aperture_m": -0.1},
            {"tx_factor": 0.0},
            {"rx_factor": 1.2},
            {"pointing_loss_db": -1.0},
            {"atm_loss_db": -0.5},
            {"rx_efficiency": 0.0},
            {"distance_m": 0.0},
            {"fried_parameter_m": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_params(**kwargs)
