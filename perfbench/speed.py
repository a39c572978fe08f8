"""CPU speed probe: a fixed piece of interpreter work timed in the calling
thread's CPU time, so that time spent descheduled does not count.

On a shared two-vCPU virtual machine (Intel Xeon, Python 3.11) each CPU ran
interpreter-bound code at full or at about 0.6 times speed for seconds to
minutes at a time.  Over ten runs of the small-protocol workload the spread
(interquartile range over median) of the raw timings was 0.12 (wall_s) and
0.22 (rep_ms_p50); multiplied by the speed this probe measured alongside
them it was 0.02 and 0.05.  The image workloads' warm repetitions are
memory-bound L x L work: they slowed less, followed the probe only loosely
(correlation 0.3), and normalizing them widened their spread (0.13 to
0.19), so run.py leaves them raw.
"""

import time

PROBE_LOOP = 20000
# Probe time at full speed on that machine; normalized timings are seconds
# at this probe speed.
REFERENCE_S = 0.0008


def probe():
    start = time.thread_time()
    sum(i & 7 for i in range(PROBE_LOOP))
    return time.thread_time() - start


def speed(samples):
    """Mean speed, relative to the reference, over probe samples taken at
    even intervals."""
    return sum(REFERENCE_S / s for s in samples) / len(samples)
