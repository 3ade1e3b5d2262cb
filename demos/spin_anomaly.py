"""Conditional spin readout landing outside the eigenvalue range.

A spin-1/2 is prepared along +z and only runs later found along +x are
kept.  The conditioned mean of the symmetric combination (S_z + S_x)/sqrt(2)
is then 1/sqrt(2) ~ 0.707, although no eigenvalue of the operator exceeds
1/2.  The second conditioned moment stays at 1/4, so the anomaly lives
entirely in the first moment.
"""

import numpy as np

from weaktunnel.core import spin_eigenstate, spin_ops
from weaktunnel.weakval import weak_moment, weak_value


def main() -> None:
    ops = spin_ops(0.5)
    pre = spin_eigenstate(ops.sz, +0.5)
    post = spin_eigenstate(ops.sx, +0.5)
    combo = (ops.sz + ops.sx) / np.sqrt(2.0)

    value = weak_value(combo, pre, post)
    second = weak_moment(combo, 2, pre, post)

    print(f"conditioned mean : {value.real:+.15f}  (imag {value.imag:+.1e})")
    print(f"eigenvalue range : [-0.5, +0.5]")
    print(f"excess           : {value.real - 0.5:+.15f}")
    print(f"second moment    : {second.real:+.15f}  (operator squared is {0.25} * identity)")


if __name__ == "__main__":
    main()
