"""Stationary scattering amplitudes and group delays.

The headline transmission value is frozen against an independent oracle that
integrates the stationary equation across the barrier with solve_ivp and
reads the amplitudes off the asymptotic plane waves; the oracle itself runs
here so the frozen number stays honest.  The stationary amplitudes in turn
serve as the oracle of the trace scenario's time-dependent transmission.
The closed-form group delay is checked against Richardson-extrapolated
finite differences of the transmission phase.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import SMALL_SCENARIO
from weaktunnel.config import DEFAULT_SCENARIO
from weaktunnel.core import BarrierSpec, Grid
from weaktunnel.errors import ConfigError
from weaktunnel.scatter import delay_vs_width, group_delay, scattering_amplitudes

HALF_HEIGHT_D10 = BarrierSpec.rectangular(-5.0, 5.0, 1.0)
STACK = BarrierSpec([(-6.0, -2.0, 1.0), (-2.0, 1.0, 0.4), (1.0, 5.0, 2.0)])


def stack_energies() -> list[float]:
    """25 energies over [0.05, 5], none within 1e-3 of a STACK height."""
    rng = np.random.default_rng(5)
    return [float(e) for e in rng.uniform(0.05, 5.0, 25)
            if min(abs(e - h) for h in (0.4, 1.0, 2.0)) >= 1e-3]


def shooting_transmission(energy: float, barrier: BarrierSpec) -> float:
    """|t|^2 by integrating psi'' = 2(V-E) psi right-to-left.

    Start from a pure transmitted wave e^{ikx} on the right and integrate to
    the left edge; decomposing the result into incoming/outgoing plane waves
    gives 1/|A|^2 for the incident amplitude A.
    """
    k = np.sqrt(2.0 * energy)
    (a, b, height), = barrier.segments

    def rhs(x, y):
        v = height if a <= x < b else 0.0
        return [y[1], 2.0 * (v - energy) * y[0]]

    y0 = [np.exp(1j * k * b), 1j * k * np.exp(1j * k * b)]
    sol = solve_ivp(rhs, (b, a), y0, rtol=1e-10, atol=1e-12, dense_output=True)
    psi, dpsi = sol.y[0, -1], sol.y[1, -1]
    incident = 0.5 * (psi + dpsi / (1j * k)) * np.exp(-1j * k * a)
    return float(1.0 / abs(incident) ** 2)


def test_transmission_matches_ode_shooting_oracle():
    got = scattering_amplitudes(0.5, HALF_HEIGHT_D10).transmission
    oracle = shooting_transmission(0.5, HALF_HEIGHT_D10)
    assert got == pytest.approx(oracle, rel=1e-7)
    # frozen; agrees with the closed form for a single rectangle to ~1e-15
    assert got == pytest.approx(8.244614455767402e-09, rel=1e-10)


def test_empty_barrier_is_transparent():
    res = scattering_amplitudes(0.7, BarrierSpec.rectangular(-3.0, 3.0, 0.0))
    assert res.t == pytest.approx(1.0, abs=1e-12)
    assert abs(res.r) < 1e-12


@pytest.mark.parametrize("energy", [0.05, 0.3, 0.5, 0.9, 1.3, 4.0])
def test_flux_conservation(energy):
    res = scattering_amplitudes(energy, HALF_HEIGHT_D10)
    assert res.transmission + res.reflection == pytest.approx(1.0, abs=1e-10)


def test_flux_conservation_multi_segment():
    for energy in stack_energies():
        res = scattering_amplitudes(energy, STACK)
        assert res.transmission + res.reflection == pytest.approx(1.0, abs=1e-10)


def test_translation_leaves_magnitudes_and_delay_alone():
    here = BarrierSpec.rectangular(-5.0, 5.0, 1.0)
    there = BarrierSpec.rectangular(40.0, 50.0, 1.0)
    ra, rb = scattering_amplitudes(0.5, here), scattering_amplitudes(0.5, there)
    assert abs(ra.t) == pytest.approx(abs(rb.t), rel=1e-12)
    assert ra.t == pytest.approx(rb.t, rel=1e-9)  # free phase is factored out
    assert group_delay(0.5, here) == pytest.approx(group_delay(0.5, there), abs=1e-8)


def test_reciprocity_left_right_incidence():
    asym = BarrierSpec([(-4.0, 0.0, 0.8), (0.0, 3.0, 1.6)])
    mirrored = BarrierSpec([(-3.0, 0.0, 1.6), (0.0, 4.0, 0.8)])
    for energy in (0.3, 0.7, 2.5):
        ta = scattering_amplitudes(energy, asym).t
        tb = scattering_amplitudes(energy, mirrored).t
        assert abs(ta) == pytest.approx(abs(tb), abs=1e-10)


def test_degenerate_energy_rejected():
    with pytest.raises(ConfigError):
        scattering_amplitudes(1.0, HALF_HEIGHT_D10)
    with pytest.raises(ConfigError):
        scattering_amplitudes(0.0, HALF_HEIGHT_D10)
    with pytest.raises(ConfigError):
        scattering_amplitudes(-0.5, HALF_HEIGHT_D10)


def test_thick_barrier_amplitudes_stay_finite():
    res = scattering_amplitudes(0.5, BarrierSpec.rectangular(0.0, 80.0, 1.0))
    assert np.isfinite(abs(res.t))
    assert res.transmission == pytest.approx(1.302995412883009e-69, rel=1e-6)
    assert res.reflection == pytest.approx(1.0, abs=1e-10)


def test_free_delay_is_crossing_time():
    barrier = BarrierSpec.rectangular(-5.0, 5.0, 0.0)
    for energy in (0.2, 0.5, 2.0):
        k = np.sqrt(2 * energy)
        # measured gap 2.2e-16
        assert group_delay(energy, barrier) == pytest.approx(10.0 / k, rel=1e-15)


def test_delay_analytic_value_at_half_height():
    # exact opaque-barrier limit at kappa = k = 1 is 2/(k*kappa) = 2; measured gap 0
    barrier = BarrierSpec.rectangular(-20.0, 20.0, 1.0)
    assert group_delay(0.5, barrier) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("kappa_d", [300.0, 400.0, 650.0, 690.0])
@pytest.mark.parametrize("gap", [0.5, 1e-3, 1e-5, 1e-7])
def test_opaque_barrier_delay_is_hartman_limit(gap, kappa_d):
    # the e^{-2 kappa d} corrections to 2/(k*kappa) are far below double
    # precision here; measured gaps are at most 1.2e-13
    energy = 1.0 - gap
    kappa, k = np.sqrt(2.0 * (1.0 - energy)), np.sqrt(2.0 * energy)
    barrier = BarrierSpec.rectangular(0.0, kappa_d / kappa, 1.0)
    assert group_delay(energy, barrier) == pytest.approx(2.0 / (k * kappa), rel=1e-12)


def richardson_delay(energy: float, barrier: BarrierSpec) -> float:
    """d/dE [arg t + k*span] by centred differences of the transmission phase.

    Differences at steps h and h/2 are Richardson-extrapolated once they
    agree to 1e-7 relative; otherwise the step shrinks fourfold.  The stencil
    stays an eighth of the distance away from E = 0 and from every height.
    """
    span = barrier.x_right - barrier.x_left

    def phase_difference(e_hi: float, e_lo: float) -> float:
        # wrap-safe while the true difference stays inside (-pi, pi)
        t_hi = scattering_amplitudes(e_hi, barrier).t
        t_lo = scattering_amplitudes(e_lo, barrier).t
        dk = np.sqrt(2.0 * e_hi) - np.sqrt(2.0 * e_lo)
        return float(np.angle(t_hi * np.conj(t_lo)) + dk * span)

    h = min(1e-3 * max(1.0, energy), energy / 8.0,
            *(abs(energy - height) / 8.0 for _, _, height in barrier.segments))
    for _ in range(8):
        d1 = phase_difference(energy + h, energy - h) / (2.0 * h)
        d2 = phase_difference(energy + h / 2.0, energy - h / 2.0) / h
        extrap = (4.0 * d2 - d1) / 3.0
        if abs(d2 - d1) <= max(1e-9, 1e-7 * abs(extrap)):
            return extrap
        h /= 4.0
    raise AssertionError(f"finite differences did not converge at energy {energy}")


# Largest relative gaps measured between the exact delay and the oracle:
# 3.7e-11 on HALF_HEIGHT_D10 and 1.6e-11 on STACK; 1.9e-9 at E = V0 -+ 1e-6,
# where the oracle's step is 1.25e-7 and the roundoff of its phase
# differences grows to about 1e-16/h.
ORACLE_DELAY_REL = 1e-10
ORACLE_DELAY_REL_AT_TOP = 5e-9


def test_delay_matches_finite_difference_oracle():
    for energy in (0.05, 0.3, 0.5, 0.9, 1.3, 4.0):
        assert group_delay(energy, HALF_HEIGHT_D10) == pytest.approx(
            richardson_delay(energy, HALF_HEIGHT_D10), rel=ORACLE_DELAY_REL)
    for energy in stack_energies():
        assert group_delay(energy, STACK) == pytest.approx(
            richardson_delay(energy, STACK), rel=ORACLE_DELAY_REL)
    for energy in (1.0 - 1e-6, 1.0 + 1e-6):
        assert group_delay(energy, HALF_HEIGHT_D10) == pytest.approx(
            richardson_delay(energy, HALF_HEIGHT_D10), rel=ORACLE_DELAY_REL_AT_TOP)


def test_hartman_saturation_and_monotonicity():
    delays = dict(delay_vs_width(0.5, 1.0, [1.0, 2.0, 4.0, 8.0, 10.0, 20.0, 40.0, 80.0]))
    # strictly monotone while the analytic increments are representable
    assert delays[1.0] < delays[2.0] < delays[4.0] < delays[8.0]
    # beyond that the increments sit under double precision; allow noise
    for lo, hi in ((10.0, 20.0), (20.0, 40.0), (40.0, 80.0)):
        assert delays[hi] >= delays[lo] - 1e-8
    assert abs(delays[80.0] - delays[40.0]) / delays[40.0] < 0.01
    assert delays[80.0] == pytest.approx(2.0, abs=1e-6)


def test_delay_vs_width_rejects_bad_width():
    with pytest.raises(ConfigError):
        delay_vs_width(0.5, 1.0, [1.0, -2.0])
    with pytest.raises(ConfigError):
        delay_vs_width(0.5, 1.0, [0.0])


def effective_edges(barrier: BarrierSpec, grid: Grid) -> tuple[float, float]:
    """Outer cell faces of the barrier the grid actually holds.

    potential() marks each point x_j inside a segment's half-open range, and
    each point stands for the cell [x_j - dx/2, x_j + dx/2).
    """
    on = np.flatnonzero(barrier.potential(grid))
    return grid.x[on[0]] - 0.5 * grid.dx, grid.x[on[-1]] + 0.5 * grid.dx


def packet_averaged_transmission(barrier: BarrierSpec, k0: float, sigma: float) -> float:
    """|t(k)|^2 averaged over a Gaussian packet's spectrum.

    |phi(k)|^2 ~ exp(-2 sigma^2 (k - k0)^2), sampled at 1601 wavenumbers over
    +-8 sigma_k (sigma_k = 1/(2 sigma)) and integrated by the trapezoid rule.
    """
    sigma_k = 0.5 / sigma
    k = k0 + np.linspace(-8.0 * sigma_k, 8.0 * sigma_k, 1601)
    weight = np.exp(-2.0 * sigma**2 * (k - k0) ** 2)
    t_sq = [scattering_amplitudes(0.5 * q * q, barrier).transmission for q in k]
    return float(np.trapezoid(weight * t_sq, k) / np.trapezoid(weight, k))


def test_effective_barrier_edges_are_the_outer_cell_faces():
    cfg = DEFAULT_SCENARIO
    left, right = effective_edges(cfg.barrier(), cfg.grid())
    assert (left, right) == pytest.approx((-5.029296875, 5.029296875), abs=1e-12)
    assert round((right - left) / cfg.grid().dx) == 103
    small = SMALL_SCENARIO
    left, right = effective_edges(small.barrier(), small.grid())
    assert (left, right) == pytest.approx((-2.25, 1.75), abs=1e-12)
    assert round((right - left) / small.grid().dx) == 8


# Relative gap between the frozen time-dependent transmit probability and
# the stationary average over the effective barrier: measured 7.68e-4.  Its
# sources: the finite run and the cut (transmitted weight still short of the
# cut at the end, and the fast residue of the straddling tail beyond it,
# about 1e-5), dt (about 3e-6) and dx (where the sampled step puts its edge;
# d ln|t|^2 / d width is about -2 here, so the whole gap amounts to an edge
# offset of 4e-3 dx).  The bound is twice the gap; the nominal-width average
# is 11.7% off, far outside it.
TRACE_ORACLE_REL = 1.5e-3


def test_trace_transmit_probability_matches_stationary_average(trace_run):
    cfg, barrier = trace_run["cfg"], trace_run["barrier"]
    left, right = effective_edges(barrier, cfg.grid())
    effective = BarrierSpec.rectangular(left, right, cfg.barrier_height)
    oracle = packet_averaged_transmission(effective, cfg.k0, cfg.packet_sigma)
    nominal = packet_averaged_transmission(barrier, cfg.k0, cfg.packet_sigma)
    prob = trace_run["prob"]
    assert prob == pytest.approx(oracle, rel=TRACE_ORACLE_REL)
    assert prob != pytest.approx(nominal, rel=TRACE_ORACLE_REL)
    print(f"trace transmit {prob:.7e}: effective-edge average {oracle:.7e} "
          f"({oracle / prob - 1:+.2e}), nominal {nominal:.7e} ({nominal / prob - 1:+.2e})")
