"""Three detector-pair states and what their difference statistic knows.

Two Gaussian registers, width sigma, one per path.  If each register shifts
only when its path fires, the pair ends up in the branch superposition whose
difference variance is 2 sigma^2 + Delta^2: the anticorrelated shifts widen
the difference.  Recombining the paths and keeping the symmetric outcome
(erasure) pulls the variance partway back down.  A pair of plainly shifted
registers has 2 sigma^2 exactly: shifted means at zero variance cost, which
no one-register-per-particle story can match.
"""

from weaktunnel.corpuscle import corpuscular_min_variance, corpuscularity_test
from weaktunnel.pointer import (certain_shift_state, erase_and_postselect,
                                which_path_state)


def main() -> None:
    delta = sigma = 1.0
    which = which_path_state(delta, sigma)
    erased = erase_and_postselect(which)
    certain = certain_shift_state(delta / 2, delta / 2, sigma)

    print(f"sigma = delta = 1, so 2 sigma^2 = 2")
    for label, state in (("which-path", which), ("erased", erased),
                         ("plain shift", certain)):
        report = state.moment_report()
        print(f"{label:12s} means ({report['mean_a']:.3f}, {report['mean_b']:.3f})  "
              f"var(a-b) {report['var_diff']:.12f}")

    floor = corpuscular_min_variance(delta / 2, delta / 2, sigma)
    print(f"\none-register-per-particle floor at these means: {floor:.3f}")
    stats = corpuscularity_test(certain.moment_report(), sigma0=sigma)
    print(f"plain-shift pair vs floor: {stats.verdict}")
    stats = corpuscularity_test(which.moment_report(), sigma0=sigma)
    print(f"which-path pair vs floor:  {stats.verdict} (it saturates the floor)")


if __name__ == "__main__":
    main()
