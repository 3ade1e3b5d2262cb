"""Group delay saturating with barrier thickness.

For a particle at half-height (kappa = k = 1) the transmission phase delay
stops growing once the barrier is a few decay lengths thick: from a thickness
of 20 on it is 2 to double precision.  A free packet
would take time d/k to cross, so the transmitted peak's effective traversal
speed grows without limit.
"""

from weaktunnel.core import BarrierSpec
from weaktunnel.scatter import group_delay, scattering_amplitudes


def main() -> None:
    energy, height = 0.5, 1.0
    print("thickness    |t|^2          delay      free crossing")
    for d in (2.0, 5.0, 10.0, 20.0, 40.0, 80.0):
        barrier = BarrierSpec.rectangular(-d / 2, d / 2, height)
        res = scattering_amplitudes(energy, barrier)
        delay = group_delay(energy, barrier)
        print(f"{d:9.1f}  {res.transmission:11.3e}  {delay:12.8f}  {d / res.k:13.2f}")
    print()
    print("the delay column settles near 2 (natural units) while the free")
    print("crossing time keeps growing linearly")


if __name__ == "__main__":
    main()
