"""Vacuum-plus-weak-decoy BB84 key-rate estimation.

Implements the standard asymptotic analysis for a weak-coherent-pulse
source over a lossy channel: closed-form signal/decoy gains and QBERs
under a dark-count-only error model, the single-photon lower/upper
bounds, and the resulting secret-key rate lower bound.

All functions are pure and operate on plain floats; the channel enters
only through the end-to-end single-photon detection probability ``delta``
(receiver efficiency included), which the link-budget module provides.
Every step takes the protocol explicitly, with no default, so one chain
cannot mix protocols; ``linkbudget.link_performance`` chains the steps
into a key rate and defaults to :data:`DEFAULT_PROTOCOL`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

__all__ = [
    "DecoyProtocolParams",
    "ChannelObservables",
    "SinglePhotonBounds",
    "DegenerateChannelError",
    "BoundCollapseError",
    "DEFAULT_PROTOCOL",
    "binary_entropy",
    "gain_and_qber",
    "single_photon_bounds",
    "secret_key_rate",
    "forward_observables",
]

class DegenerateChannelError(ValueError):
    """QBER is undefined because the gain (or yield) is exactly zero."""


class BoundCollapseError(ValueError):
    """The decoy bounds collapsed (Y1 lower bound <= 0): channel too noisy."""


@dataclass(frozen=True)
class DecoyProtocolParams:
    """Protocol-side parameters of the vacuum-plus-weak-decoy BB84 run.

    mu / nu are the signal / weak-decoy mean photon numbers, q the protocol
    (sifting) efficiency, f_ec the bidirectional error-correction
    inefficiency, y0 the background yield per pulse, e0 the background
    error rate, and pulse_rate_hz the source repetition rate.
    """

    mu: float = 0.3
    nu: float = 0.1
    q: float = 0.5
    f_ec: float = 1.22
    y0: float = 1.7e-6
    e0: float = 0.5
    pulse_rate_hz: float = 1e7

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if not 0.0 < self.nu < self.mu:
            raise ValueError(f"need 0 < nu < mu, got mu={self.mu}, nu={self.nu}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"protocol efficiency q must be in (0, 1], got {self.q}")
        if self.f_ec < 1.0:
            raise ValueError(f"error-correction efficiency must be >= 1, got {self.f_ec}")
        if not 0.0 <= self.y0 < 1.0:
            raise ValueError(f"background yield must be in [0, 1), got {self.y0}")
        if not 0.0 <= self.e0 <= 1.0:
            raise ValueError(f"background error rate must be in [0, 1], got {self.e0}")
        if self.pulse_rate_hz <= 0.0:
            raise ValueError(f"pulse rate must be positive, got {self.pulse_rate_hz}")


#: Protocol defaults used throughout: mu=0.3, nu=0.1, q=1/2, f_ec=1.22
#: (Cascade), y0=1.7e-6 dark-count yield, e0=1/2, 10 Mpulse/s source.
DEFAULT_PROTOCOL = DecoyProtocolParams()


@dataclass(frozen=True)
class ChannelObservables:
    """Measured (or modelled) gains and QBERs of signal and decoy states."""

    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float

    def __post_init__(self) -> None:
        for name in ("q_mu", "e_mu", "q_nu", "e_nu"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


class SinglePhotonBounds(NamedTuple):
    y1_lower: float
    q1_lower: float
    e1_upper: float


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with the limit value 0 at x in {0, 1}."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gain_and_qber(
    intensity: float, delta: float, params: DecoyProtocolParams
) -> tuple[float, float]:
    """Gain and QBER of a weak coherent state, closed form.

    Summing the Poisson-weighted yields gives
    Q = Y0 + (1 - Y0) (1 - exp(-delta * intensity)) and the dark-count
    error model makes E * Q = e0 * Y0 an exact identity.
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {delta}")
    y0 = params.y0
    gain = y0 + (1.0 - y0) * -math.expm1(-delta * intensity)
    if gain == 0.0:
        raise DegenerateChannelError(
            "gain is zero (vacuum input and no background); QBER undefined"
        )
    return gain, params.e0 * y0 / gain


def single_photon_bounds(
    obs: ChannelObservables, params: DecoyProtocolParams
) -> SinglePhotonBounds:
    """Bound the single-photon yield, gain and error rate from two intensities.

    Returns the standard vacuum-plus-weak-decoy estimates: a lower bound on
    Y1 (and hence on Q1 = mu e^-mu Y1) and an upper bound on e1, clamped to
    [0, 1/2].  Raises :class:`BoundCollapseError` when the Y1 bound is not
    positive, i.e. the observables admit no provable single-photon signal,
    and OverflowError when it is not finite, as for a subnormal ``nu``
    whose ``mu * nu - nu * nu`` bracket divides to ``inf`` or NaN.
    """
    mu, nu, y0 = params.mu, params.nu, params.y0
    y1_lower = (mu / (mu * nu - nu * nu)) * (
        obs.q_nu * math.exp(nu)
        - obs.q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0
    )
    if y1_lower <= 0.0:
        raise BoundCollapseError(
            f"single-photon yield bound collapsed (Y1_L = {y1_lower:.3e}); "
            "channel too noisy for a provable key"
        )
    if not math.isfinite(y1_lower):  # min() below would turn inf into 1
        raise OverflowError(f"single-photon yield bound {y1_lower} is not finite")
    y1_lower = min(y1_lower, 1.0)
    q1_lower = mu * math.exp(-mu) * y1_lower
    e1_upper = (obs.e_nu * obs.q_nu * math.exp(nu) - params.e0 * y0) / (y1_lower * nu)
    e1_upper = min(max(e1_upper, 0.0), 0.5)
    return SinglePhotonBounds(y1_lower, q1_lower, e1_upper)


def secret_key_rate(
    obs: ChannelObservables,
    bounds: SinglePhotonBounds,
    params: DecoyProtocolParams,
) -> float:
    """Secret-key rate lower bound in bits per second.

    Per-pulse rate q * { -Q_mu f_ec H2(E_mu) + Q1_L [1 - H2(e1_U)] },
    clamped at zero (a negative lower bound proves nothing), then scaled
    by the pulse repetition rate.
    """
    per_pulse = params.q * (
        -obs.q_mu * params.f_ec * binary_entropy(obs.e_mu)
        + bounds.q1_lower * (1.0 - binary_entropy(bounds.e1_upper))
    )
    return max(0.0, per_pulse) * params.pulse_rate_hz


def forward_observables(delta: float, params: DecoyProtocolParams) -> ChannelObservables:
    """Model the observables a channel of transmittance delta would produce."""
    q_mu, e_mu = gain_and_qber(params.mu, delta, params)
    q_nu, e_nu = gain_and_qber(params.nu, delta, params)
    return ChannelObservables(q_mu=q_mu, e_mu=e_mu, q_nu=q_nu, e_nu=e_nu)
