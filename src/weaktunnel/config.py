"""Serializable run descriptions and the desk-scale default scenario.

The default numbers describe a packet that tunnels with small probability:
domain [-200, 200) on 4096 points, a unit-height barrier on [-5, 5], and a
sigma = 10 packet launched from x = -50 with mean energy half the barrier
height.  All fields are flat so a run config can round-trip through a plain
JSON object, which the command line echoes verbatim next to its outputs.

The barrier on the grid is wider than nominal.  It covers every cell whose
point falls in [barrier_left, barrier_right), and the effective edges are
the outer faces of those cells: on the default 4096-point grid 103 cells,
faces at +-5.0293, width 10.0586.  The frozen transmit probabilities are
those of this effective barrier.

Time counts in steps of dt: record_steps() spreads n_record steps over the
step grid, the last at n_steps, and propagator() hands them to a leg, which
runs to its last record.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import BarrierSpec, Grid, WaveFunction, check_width, gaussian_packet
from .errors import ConfigError
from .tdse import SCHEMES, PropagatorConfig

__all__ = ["ScenarioConfig", "DEFAULT_SCENARIO", "TRANSMISSION_TRACE_SCENARIO",
           "load_config"]

# the values each field annotation admits; bool, though an int, is none of them
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat, JSON-serializable description of a tunneling run.

    Every field holds an int, a finite float (an int is accepted) or a str,
    as annotated.  The packet's mean wave number k0 derives from
    packet_energy via <H> = k0^2/2 + 1/(8 sigma^2) for a free Gaussian
    packet.
    """

    # spatial grid
    x_min: float = -200.0
    x_max: float = 200.0
    n_points: int = 4096
    # single rectangular barrier
    barrier_left: float = -5.0
    barrier_right: float = 5.0
    barrier_height: float = 1.0
    # initial packet
    packet_center: float = -50.0
    packet_sigma: float = 10.0
    packet_energy: float = 0.5
    # propagation; 90 time units lets the transmitted packet clear the cut
    # while the fast residue shed by the packet tail that started on the
    # barrier (boosted by up to V0) stays well inside the domain
    dt: float = 0.001
    n_steps: int = 90_000
    n_record: int = 20
    scheme: str = "spectral-split-step"
    # post-selection cut beyond the barrier exit, in packet widths
    transmit_cut_sigmas: float = 2.0
    # pointer / detector parameters
    pointer_sigma: float = 1.0
    pointer_delta: float = 1.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float":
                try:
                    finite = math.isfinite(float(value))
                except OverflowError:  # an int past the float range
                    finite = False
                if not finite:
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.packet_sigma <= 0:
            raise ConfigError("packet_sigma must be positive")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.n_record < 1:
            raise ConfigError("n_record must be at least 1")
        check_width(self.pointer_sigma, "pointer_sigma")
        self.k0  # force the derivation so bad energies fail here

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def k0(self) -> float:
        ksq = 2.0 * self.packet_energy - 1.0 / (4.0 * self.packet_sigma**2)
        if ksq <= 0.0:
            raise ConfigError(
                f"packet_energy {self.packet_energy} is below the zero-point "
                f"energy of a sigma={self.packet_sigma} packet"
            )
        return float(np.sqrt(ksq))

    def grid(self) -> Grid:
        return Grid.from_domain(self.x_min, self.x_max, self.n_points)

    def barrier(self) -> BarrierSpec:
        return BarrierSpec.rectangular(
            self.barrier_left, self.barrier_right, self.barrier_height
        )

    def packet(self) -> WaveFunction:
        return gaussian_packet(
            self.grid(), self.packet_center, self.packet_sigma, self.k0
        )

    def record_steps(self) -> tuple[int, ...]:
        """n_record steps, as evenly spaced as the step grid allows, ending
        at n_steps."""
        if self.n_record > self.n_steps:
            raise ConfigError("n_record exceeds n_steps")
        return tuple(j * self.n_steps // self.n_record for j in range(1, self.n_record + 1))

    def propagator(self, record_steps: tuple[int, ...] | None = None) -> PropagatorConfig:
        """The leg of this scenario, recording record_steps() unless told
        which steps to record; it runs to the last of them."""
        return PropagatorConfig(
            dt=self.dt, scheme=self.scheme,
            record_steps=self.record_steps() if record_steps is None else record_steps,
        )

    def transmit_cut(self) -> float:
        return self.barrier_right + self.transmit_cut_sigmas * self.packet_sigma

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


DEFAULT_SCENARIO = ScenarioConfig()

# Scenario for tracing the transmitted subensemble through the barrier.  A
# packet launched from -50 already has ~1e-6 of its tail straddling the
# barrier at t=0; that weight picks up potential energy and arrives on the
# right about forty times stronger than the genuinely tunneled packet,
# swamping any transmission post-selection.  Launching from -80 suppresses
# the straddling tail by e^-18 so the right side is tunneled amplitude to
# one part in 1e5, at the cost of a longer run.
TRANSMISSION_TRACE_SCENARIO = dataclasses.replace(
    DEFAULT_SCENARIO, packet_center=-80.0, n_steps=130_000
)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a flat JSON config file; missing keys fall back to the defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # not JSON, or an int too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return ScenarioConfig.from_dict(data)
