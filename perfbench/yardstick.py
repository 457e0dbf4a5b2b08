"""A fixed piece of pure-Python work that measures the CPU's current speed.

On a shared cloud instance the CPU's speed changes by up to a factor of
two from one millisecond to the next, and for whole minutes, as other
tenants come and go.  The benchmark therefore times every operation next
to the yardstick, run just before it, and reports the operation's time
over the yardstick's, in ns by multiplying with YARDSTICK_NS: the
yardstick's time when the reference machine (a 2-vCPU Intel Xeon cloud
instance, Python 3.11) runs at full speed.  The work imitates the
library's own arithmetic, an asymptotic seed and one Fritsch step, but is
frozen here, so no change to the library can move it.

This module imports nothing but ``math`` and ``time``, so a fresh
interpreter can load it before it imports the library.
"""

import math
import time

YARDSTICK_NS = 3600.0
_XS = (10.0, 100.0, 1000.0, 1e4)


def _kernel(x: float) -> float:
    a = math.log(x)
    b = math.log(a)
    ia = 1.0 / a
    t = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
    t = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * t
    t = 1.0 + ia * t
    w = a - b + b * ia * t
    z = math.log(x / w) - w
    q = 2.0 * (1.0 + w) * (1.0 + w + (2.0 / 3.0) * z)
    return w * (1.0 + (z / (1.0 + w)) * ((q - z) / (q - 2.0 * z)))


def yardstick() -> None:
    for x in _XS:
        _kernel(x)


def mean_ns(calls: int = 500) -> float:
    """Mean wall time of one yardstick over ``calls`` in a row."""
    start = time.perf_counter_ns()
    for _ in range(calls):
        yardstick()
    return (time.perf_counter_ns() - start) / calls
