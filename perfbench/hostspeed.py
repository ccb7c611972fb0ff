"""Host speed, measured beside every timing, and times rescaled by it.

On a shared host the speed of user-mode code drifts: the same
pure-Python loop runs anywhere from about 0.5 to 0.9 ms from one minute
to the next, and every user-mode timing drifts with it. Each operation
of a repetition is therefore timed on its own and bracketed by passes of
:func:`reference_loop`; their median over :data:`REFERENCE_LOOP_S` is
the host factor, and the operation's CPU seconds are divided by it.
Waiting (wall time the process spent off the CPU, such as fsync) is kept
as measured.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from typing import Dict, Iterator, List, Tuple

#: Seconds one pass of :func:`reference_loop` takes on the reference
#: host: a 2-vCPU Intel Xeon VM (2.0 GHz nominal) in its usual state.
REFERENCE_LOOP_S = 0.0007
#: Passes of the reference loop between two operations.
LOOP_PASSES = 7


def reference_loop() -> Dict[int, int]:
    """Fixed pure-Python work whose time tracks the host's speed."""
    counts: Dict[int, int] = {}
    for i in range(4000):
        key = i % 257
        counts[key] = counts.get(key, 0) + (i ^ key)
    return counts


def loop_times() -> List[float]:
    times = []
    for _ in range(LOOP_PASSES):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times


def user_sys() -> Tuple[float, float]:
    """User and system CPU seconds of this process and its waited children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + kids.ru_utime, me.ru_stime + kids.ru_stime


class Sample:
    """Wall, user and system seconds of one operation, and the host factor.

    ``factor`` is the median reference-loop time around the operation
    over :data:`REFERENCE_LOOP_S`: 1.3 means code ran 1.3 times slower
    than on the reference host. The ``ref_`` figures are seconds on the
    reference host: CPU seconds divided by the factor, plus waiting as
    measured.
    """

    def __init__(self, wall: float, user: float, system: float, loops: List[float]) -> None:
        self.wall = wall
        self.user = user
        self.system = system
        self.factor = statistics.median(loops) / REFERENCE_LOOP_S

    @property
    def cpu(self) -> float:
        return self.user + self.system

    @property
    def ref_cpu(self) -> float:
        return self.cpu / self.factor

    @property
    def ref_wall(self) -> float:
        return self.wall - self.cpu + self.ref_cpu


class OpClock:
    """Times each operation of one repetition with the host factor around it.

    Passed to a workload's ``rep`` as its ``op``; the reference-loop
    passes after one operation also serve as the passes before the next,
    and none of them fall inside an operation's timing.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._loops = loop_times()

    @contextlib.contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        before = self._loops
        user0, system0 = user_sys()
        wall0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            user1, system1 = user_sys()
            self._loops = loop_times()
            self.samples.append(Sample(wall, user1 - user0, system1 - system0, before + self._loops))

    def total(self, field: str) -> float:
        return sum(getattr(sample, field) for sample in self.samples)

    def factor(self) -> float:
        """The host factor of the whole repetition, weighted by CPU time."""
        return self.total("cpu") / self.total("ref_cpu")
