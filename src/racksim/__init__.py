"""racksim: a discrete-event simulator of a rack-scale computer whose
top-of-rack switch performs per-request inter-server scheduling and whose
servers run preemptive intra-server schedulers.

All simulated times are microseconds (floats). Runs are deterministic given
(config, seed).
"""

__version__ = "0.1.0"
