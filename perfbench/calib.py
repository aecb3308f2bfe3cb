"""Host-speed calibration, process accounting and the statistics helpers.

The host this benchmark is tuned on runs a fixed pure-Python loop anywhere
between 1x and 2x its best time within a minute, so raw figures move with
the neighbours rather than with the code.  Every CPU-bound span the
benchmark reports is therefore divided by a *speed factor*: the CPU time
of :func:`reference_kernel`, measured while the system under test (SUT)
is idle, over :data:`NOMINAL_KERNEL_S`, averaged over the seconds around
the span.  CPU time, not wall time: it leaves out the time the hypervisor
steals from the VM, which the SUT's own CPU time also leaves out.  Spans whose length a
caller's budget sets (a portfolio race that runs to its deadline) are not
CPU-bound and stay raw.

:class:`Calibrator` runs the kernel and, around each window, reads the CPU
time of the SUT's process tree: if the SUT burned more than a sliver of
CPU while the kernel ran, work was hiding in the gaps and the run fails.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Loop counts of the reference kernel's two halves (together about 10 ms
#: on an unloaded core here).
COMPUTE_ROUNDS = 15_000
MEMORY_ROUNDS = 10_000

#: Entries of the shuffled table the memory half reads: about 1 MB of list
#: and int objects, past the core-private caches like the DP's tables.  A
#: 9 MB table made the kernel slow down under memory contention that
#: barely touched the DP.
TABLE_SIZE = 1 << 15

#: Nominal kernel time: the speed factor is measured time over this.
NOMINAL_KERNEL_S = 0.010

#: Calibration windows on each side of a block that set its speed factor.
SMOOTH_WINDOWS = 4

#: SUT CPU in one calibration window beyond which the window is counted
#: as busy (one scheduler tick absorbs idle-loop wake-ups).
GUARD_TOLERANCE_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: Share of the timed phase's SUT CPU that may fall inside calibration
#: windows before the guard fails the run: an idle server's poll loops and
#: SQLite checkpoints may tick there, real work moved into the gaps may not.
GUARD_SHARE = 0.01

_CLK_TCK = os.sysconf("SC_CLK_TCK")


_TABLE: List[int] = []


def _table() -> List[int]:
    """The memory half's table, built once per process on first use."""
    if not _TABLE:
        _TABLE.extend(range(TABLE_SIZE))
        random.Random(1).shuffle(_TABLE)
    return _TABLE


def reference_kernel() -> int:
    """Fixed pure-Python work in two halves.

    The compute half feeds an integer recurrence into a small dict; the
    memory half reads a shuffled table of :data:`TABLE_SIZE` entries.
    Probes here found the host's slowdowns sometimes CPU-bound and
    sometimes cache-bound: a kernel with only the first half tracked the
    DP's gap solves poorly in one of them, and the mix tracked both
    objectives best.
    """
    table = _table()
    acc = 0
    small: Dict[int, int] = {}
    for i in range(COMPUTE_ROUNDS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        small[acc & 1023] = i
    mask = TABLE_SIZE - 1
    for i in range(MEMORY_ROUNDS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        small[table[acc & mask] & 0xFFFF] = i
    return acc + len(small)


# ---------------------------------------------------------------------------
# /proc accounting of a process tree
# ---------------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2 :].split()


def process_tree(root: int) -> List[int]:
    """``root`` plus every live descendant, found by scanning ``/proc``."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_s(root: int) -> float:
    """CPU seconds of ``root``'s tree, reaped children included.

    Each process contributes user + system time plus the times of the
    children it has already waited for, so a pool worker that was killed
    and reaped keeps counting after it is gone.
    """
    ticks = 0
    for pid in process_tree(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are stat fields 14-17.
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLK_TCK


def host_ticks() -> Tuple[int, int]:
    """``(busy, stolen)`` clock ticks of all CPUs since boot, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def granted_share(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    """Share of the CPU time wanted between two readings that the VM got.

    The hypervisor steals time from the VM in bursts (about 10% overall on
    the development VM, far more for seconds at a time).  Work that wanted
    ``busy + stolen`` CPU ticks ran for ``busy`` of them, so a wall-clock
    span times this share is the span the work would take unstolen.
    """
    busy, stolen = end[0] - start[0], end[1] - start[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0


def tree_peak_rss_mb(root: int) -> float:
    """Largest peak resident set (VmHWM) of any live process in the tree."""
    peak_kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------
def kernel_helper() -> None:
    """Helper-process loop: run the kernel per request line, reply its time."""
    _table()
    for _line in sys.stdin:
        start = time.thread_time()
        reference_kernel()
        print(time.thread_time() - start, flush=True)


@dataclass
class Calibrator:
    """Measures the host speed factor between bursts of SUT activity.

    With ``width=1`` one kernel runs wherever the scheduler places it, as
    a single-threaded SUT does.  With ``width=2`` a helper process runs a
    second copy at the same time, so both CPUs are loaded as they are
    under the service and portfolio workloads, and the factor is the mean
    of the two.  ``sut_cpu`` reads the SUT tree's CPU seconds; the guard
    compares it before and after every window.  ``kernel`` is injectable
    so the tests can emulate a slower host.
    """

    sut_cpu: Callable[[], float] = lambda: 0.0
    kernel: Callable[[], object] = reference_kernel
    width: int = 1
    factors: List[float] = field(default_factory=list)
    busy_windows: int = 0
    leaked_cpu_s: float = 0.0
    #: SUT CPU seconds read at the start / end of the latest window.
    cpu_before: float = 0.0
    cpu_after: float = 0.0

    def __post_init__(self) -> None:
        _table()
        self._helper = None
        if self.width > 1:
            self._helper = subprocess.Popen(
                [sys.executable, "-c", "import calib; calib.kernel_helper()"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )

    def measure(self) -> float:
        """One calibration window; returns (and records) its speed factor."""
        self.cpu_before = self.sut_cpu()
        if self._helper is not None:
            self._helper.stdin.write("go\n")
            self._helper.stdin.flush()
        start = time.thread_time()
        self.kernel()
        times = [time.thread_time() - start]
        if self._helper is not None:
            times.append(float(self._helper.stdout.readline()))
        factor = statistics.fmean(times) / NOMINAL_KERNEL_S
        self.cpu_after = self.sut_cpu()
        leaked = self.cpu_after - self.cpu_before
        self.leaked_cpu_s += leaked
        if leaked > GUARD_TOLERANCE_S + 1e-9:
            self.busy_windows += 1
        self.factors.append(factor)
        return factor

    def guard_holds(self, timed_cpu_s: float) -> bool:
        """True when the SUT did (almost) nothing while the kernel ran."""
        return self.leaked_cpu_s <= GUARD_SHARE * timed_cpu_s + GUARD_TOLERANCE_S

    def close(self) -> None:
        """Stop the helper process, if any."""
        if self._helper is not None:
            self._helper.stdin.close()
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait(timeout=10)
            self._helper.stdout.close()
            self._helper = None

    def summary(self) -> Dict[str, float]:
        """The speed factor's median and quartiles, as per-layer metrics."""
        q1, median, q3 = quartiles(self.factors)
        return {"host.speed_factor": median, "host.speed_factor_q1": q1,
                "host.speed_factor_q3": q3}


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------
def bracket(factor_before: float, factor_after: float) -> float:
    """Speed factor of a block of work measured between two windows."""
    return (factor_before + factor_after) / 2.0


def smoothed(factors: Sequence[float], after: int) -> float:
    """Speed factor of the block that ends at window ``after``.

    One 10 ms kernel run is a noisy reading, while host speed drifts over
    seconds: the mean of the :data:`SMOOTH_WINDOWS` windows on each side
    of the block tracked the DP's slowdown best in probes here.
    """
    lo = max(0, after - SMOOTH_WINDOWS)
    return statistics.fmean(factors[lo : after + SMOOTH_WINDOWS])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def quartiles(values: Iterable[float]) -> Tuple[float, float, float]:
    data = sorted(values)
    if len(data) < 2:
        only = data[0] if data else float("nan")
        return only, only, only
    q1, median, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return q1, median, q3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)``: p90, or the highest percentile with ten samples above.

    A percentile is only reported when at least ten samples lie past it,
    so p90 needs 100 samples; a smaller run reports a lower percentile.
    """
    n = len(values)
    q = 90.0 if n >= 100 else max(0.0, 100.0 * (1.0 - 10 / max(n, 1)))
    return q, percentile(values, q)
