"""Shared fixtures; the expensive full-scenario runs are session-scoped."""

import numpy as np
import pytest

from weaktunnel.config import DEFAULT_SCENARIO, TRANSMISSION_TRACE_SCENARIO, ScenarioConfig
from weaktunnel.tdse import PropagatorConfig, propagate
from weaktunnel.weakval import (barrier_occupation, conditional_distribution,
                                transmitted_pair)

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


@pytest.fixture(scope="session")
def trace_run():
    """Transmitted-subensemble conditional distribution on the trace scenario."""
    cfg = TRANSMISSION_TRACE_SCENARIO
    barrier = cfg.barrier()
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    dist = conditional_distribution(pair)
    occ = barrier_occupation(dist, barrier)
    return {"cfg": cfg, "barrier": barrier, "pair": pair,
            "prob": pair.postselect_prob, "dist": dist, "occ": occ}


@pytest.fixture(scope="session")
def default_scheme_finals():
    """Final states of both schemes on the default tunneling scenario."""
    cfg = DEFAULT_SCENARIO
    barrier = cfg.barrier()
    psi = cfg.packet()
    finals = {}
    for scheme in ("spectral-split-step", "implicit-fd"):
        prop = PropagatorConfig(dt=cfg.dt, n_steps=cfg.n_steps, scheme=scheme,
                                record_times=(cfg.duration,))
        (_, state), = propagate(psi, prop, barrier)
        finals[scheme] = state
    return {"cfg": cfg, "finals": finals}


@pytest.fixture(scope="session")
def small_pair():
    """Transmitted pair on the small scenario, with its distribution."""
    cfg = SMALL_SCENARIO
    barrier = cfg.barrier()
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    dist = conditional_distribution(pair)
    return {"cfg": cfg, "barrier": barrier, "pair": pair,
            "prob": pair.postselect_prob, "dist": dist}
