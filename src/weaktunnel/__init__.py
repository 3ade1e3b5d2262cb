"""Weak measurements on tunneling wave packets.

Subpackages cover the pieces of the pipeline: spatial grids and spin algebra
(core), stationary barrier scattering (scatter), time-dependent propagation
(tdse), two-time conditional values (weakval), Gaussian detector algebra
(pointer), the particle-like null model and its statistical test (corpuscle),
and the command line (cli).
"""

from .core import (
    BarrierSpec,
    Grid,
    RegionProjector,
    WaveFunction,
    gaussian_packet,
    region_projector,
    spin_eigenstate,
    spin_ops,
)
from .errors import (
    ConfigError,
    EdgeDensityError,
    NumericalGuardError,
    OverlapFloorError,
    SchemeInstabilityError,
    WeakTunnelError,
)
from .scatter import ScatterResult, delay_vs_width, group_delay, scattering_amplitudes
from .config import (
    DEFAULT_SCENARIO,
    TRANSMISSION_TRACE_SCENARIO,
    ScenarioConfig,
    load_config,
)
from .tdse import (PropagatorConfig, Snapshot, propagate, propagate_backward,
                   propagate_with_source)
from .weakval import (
    BarrierOccupation,
    PrePostPair,
    barrier_occupation,
    ConditionalDwell,
    dwell_time,
    make_pair,
    transmitted_dwell_time,
    transmitted_pair,
    weak_moment,
    weak_value,
)
from .pointer import (
    JointPointerState,
    TwoProbeRun,
    WeakProbe,
    certain_shift_state,
    difference_variance,
    erase_and_postselect,
    two_probe_run,
    which_path_state,
)
from .corpuscle import (
    CorpuscularModel,
    EnsembleStats,
    corpuscular_min_variance,
    corpuscularity_test,
    simulate_corpuscular,
)

__version__ = "0.1.0"
