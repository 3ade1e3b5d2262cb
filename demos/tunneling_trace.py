"""Where a transmitted particle 'was' while it tunneled.

Runs the trace scenario (packet launched far enough out that the right side
of the barrier is pure tunneling), post-selects on transmission, and prints
the conditional barrier occupation over time: the unsigned weight on the
entrance and exit faces against the signed weight of the middle third.
The middle stays near zero at every recorded time while the faces light up
in sequence, and the dwell clock for the whole barrier reads a few time
units even though the run lasts 130.

One forward and one backward propagation leg of 130k split steps build
the transmitted pair, which keeps the conditional value of every cell at
each recorded time; the occupation and the probes read those values.  One
more forward leg, carrying the barrier source beside the state, serves the
dwell clock; about 60 s on a 2-vCPU VM.
"""

from weaktunnel.config import TRANSMISSION_TRACE_SCENARIO
from weaktunnel.core import RegionProjector
from weaktunnel.pointer import WeakProbe, difference_variance, two_probe_run
from weaktunnel.weakval import (barrier_occupation, transmitted_dwell_time,
                                transmitted_pair)


def main() -> None:
    cfg = TRANSMISSION_TRACE_SCENARIO
    barrier = cfg.barrier()
    prop = cfg.propagator()
    # the pair's conditional values serve the occupation and the probes below
    pair = transmitted_pair(cfg.packet(), prop, barrier, cfg.transmit_cut())
    print(f"transmission probability: {pair.postselect_prob:.6e}")

    occ = barrier_occupation(pair, barrier)
    print()
    print("   t     entrance   middle(signed)   exit")
    for t, ent, mid, ex in zip(occ.times, occ.entrance, occ.center, occ.exit):
        print(f"{t:6.1f}   {ent:8.4f}   {mid:+13.5f}   {ex:7.4f}")
    print(f"\nworst middle-to-peak ratio: {occ.center_to_peak():.4f}")

    region = RegionProjector(cfg.grid(), barrier.x_left, barrier.x_right)
    dwell = transmitted_dwell_time(cfg.packet(), prop, barrier, cfg.transmit_cut(), region)
    print(f"conditional barrier dwell: {dwell.time:.3f} of {cfg.duration:.0f} time units")

    # two weak probes in disjoint windows: the incident side early and the
    # transmitted side late are each near-certain, so both pointers shift by
    # the full probe strength while their difference stays quiet
    records = prop.record_times
    grid = cfg.grid()
    probe_a = WeakProbe(RegionProjector(grid, grid.x_min, barrier.x_left),
                        0.1, (records[1], records[5]))
    probe_b = WeakProbe(RegionProjector(grid, barrier.x_right, grid.x_max),
                        0.1, (records[-5], records[-1]))
    run = two_probe_run(pair, probe_a, probe_b, cfg.pointer_sigma)
    print(f"probe shifts: a {run.mean_shift_a:+.5f}, b {run.mean_shift_b:+.5f} "
          f"(strength 0.1), difference variance {difference_variance(run.state):.3f}")


if __name__ == "__main__":
    main()
