"""Weak measurements on tunneling wave packets.

Modules cover the pieces of the pipeline: spatial grids and spin algebra
(core), stationary barrier scattering (scatter), time-dependent propagation
(tdse), two-time conditional values (weakval), Gaussian detector algebra
(pointer), the particle-like null model and its statistical test (corpuscle),
and the command line (cli).
"""
