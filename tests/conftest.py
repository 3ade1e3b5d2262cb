"""Shared fixtures; the expensive full-scenario runs are session-scoped."""

import numpy as np
import pytest

from weaktunnel import tdse
from weaktunnel.config import DEFAULT_SCENARIO, TRANSMISSION_TRACE_SCENARIO, ScenarioConfig
from weaktunnel.tdse import PropagatorConfig, propagate
from weaktunnel.weakval import barrier_occupation, transmitted_pair

# Small, fast tunneling setup for tests that exercise machinery rather than
# the production numbers: ~1 s per forward run.  The box is generous because
# the transmission projector's sharp cut sprays high-k ripples that the
# backward leg carries toward the edges.
SMALL_SCENARIO = ScenarioConfig(
    x_min=-256.0, x_max=256.0, n_points=1024,
    barrier_left=-2.0, barrier_right=2.0, barrier_height=1.0,
    packet_center=-20.0, packet_sigma=4.0, packet_energy=0.5,
    dt=0.001, n_steps=35_000, n_record=10,
)


def patch_steps(monkeypatch, after_step):
    """Make every stepper built from now on advance one step at a time and
    call after_step(x, weight) on the stack and the one-entry array of row
    0's edge weight that each step returns, before the leg's guard reads
    them.  Like advance, it stops at the first step whose weight fails the
    edge guard."""
    make = tdse._make_stepper

    def patched(*args):
        stepper = make(*args)
        advance = stepper.advance

        def one_at_a_time(x, steps):
            weights = []
            for _ in range(steps):
                x, weight = advance(x, 1)
                after_step(x, weight)
                weights.append(weight)
                if not tdse._edge_passes(weight[0], stepper.dx):
                    break
            return x, np.concatenate(weights)

        stepper.advance = one_at_a_time
        return stepper

    monkeypatch.setattr(tdse, "_make_stepper", patched)


def density(psi):
    """|psi(x)|^2 on the grid."""
    return np.abs(psi.amp) ** 2


def expectation_x(psi):
    """<x> of a state, normalized by its own norm."""
    d = density(psi)
    return float(np.sum(d * psi.grid.x) * psi.grid.dx / (np.sum(d) * psi.grid.dx))


def variance_x(psi):
    """<x^2> - <x>^2 of a state, normalized by its own norm."""
    d = density(psi) * psi.grid.dx
    d = d / np.sum(d)
    mean = float(np.sum(d * psi.grid.x))
    return float(np.sum(d * (psi.grid.x - mean) ** 2))


def region_probability(region, psi):
    """Probability of finding the particle in the projector's region."""
    return float(np.sum(density(psi)[region.mask]) * psi.grid.dx)


def mean_shifts(model):
    """Mean readouts (mu_a, mu_b) of a corpuscular model."""
    return model.p * model.delta_a, (1.0 - model.p) * model.delta_b


def population_difference_variance(model):
    """Exact Var(a - b) of a corpuscular model, no sampling."""
    mu_a, mu_b = mean_shifts(model)
    second = model.p * model.delta_a**2 + (1.0 - model.p) * model.delta_b**2
    return 2.0 * model.sigma**2 + second - (mu_a - mu_b) ** 2


def record_region_values(pair, region):
    """Complex conditional value of the region projector at every record of
    the pair: its stored cell values summed over the region, times dx."""
    return np.sum(pair.values[:, region.mask], axis=1) * pair.grid.dx


@pytest.fixture(scope="session")
def trace_run():
    """Transmitted pair on the trace scenario and its barrier occupation."""
    cfg = TRANSMISSION_TRACE_SCENARIO
    barrier = cfg.barrier()
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    occ = barrier_occupation(pair, barrier)
    return {"cfg": cfg, "barrier": barrier, "pair": pair,
            "prob": pair.postselect_prob, "occ": occ}


@pytest.fixture(scope="session")
def default_scheme_finals():
    """Final states of both schemes on the default tunneling scenario."""
    cfg = DEFAULT_SCENARIO
    barrier = cfg.barrier()
    psi = cfg.packet()
    finals = {}
    for scheme in ("spectral-split-step", "implicit-fd"):
        prop = PropagatorConfig(dt=cfg.dt, record_steps=(cfg.n_steps,), scheme=scheme)
        state, = propagate(psi, prop, barrier)
        finals[scheme] = state
    return {"cfg": cfg, "finals": finals}


@pytest.fixture(scope="session")
def small_pair():
    """Transmitted pair on the small scenario."""
    cfg = SMALL_SCENARIO
    barrier = cfg.barrier()
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    return {"cfg": cfg, "barrier": barrier, "pair": pair, "prob": pair.postselect_prob}
