"""Host-speed probe for the end-to-end timings.

The benchmark runs on a shared 2-vCPU host whose speed drifts in
phases that last minutes: within one hour, ten consecutive `p-stream`
runs read 3.2-3.8 s per planning pass for the first four and 2.0-3.0 s
for the last five, and a fixed pure-Python loop moves between 0.74 s
and 1.15 s in the same way.  A run's median is then the speed of the
phase it ran in, and sets of runs of the same code disagree by more
than the benchmark's bounds.

So a run times a fixed probe — interpreter work of the kind the
solvers do: small frozensets of ints, hashing, dict updates — right
before and right after each timed operation (a set-up loop, a
``solve()`` call, a ``p-stream`` pass), and reports the operation's
time scaled to the host speed at which the probe takes
:data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / mean(probe before, probe after)

The probe runs in a child interpreter that waits on a pipe between
probes, so its speed does not depend on the state of the benchmark
process, and it is the benchmark's own code, the same on every commit:
a change to the program moves the reported time exactly as it moves
the measured one.  The measured times and every probe time are kept in
the result file next to the scaled metrics.  A workload whose solves
run on more than one process is reported as measured: the probe, one
interpreter on one core, does not follow it (see ``workloads.Outcome``).

Run as a script, this module is the child: it answers each line on its
standard input with one probe time and exits at end of input.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Optional

#: Probe time, in seconds, at the reference host speed (about the
#: median on a 2-vCPU x86-64 KVM guest with CPython 3.11); the
#: benchmark's times are seconds at this speed.
REFERENCE_S = 0.02
REPEATS = 11
ITEMS = 20_000


def _time_once() -> float:
    started = time.perf_counter()
    table = {}
    acc = 0
    for i in range(ITEMS):
        x = (i * 2654435761) & 0xFFFFF
        key = frozenset((x & 0xFF, (x >> 8) & 0xFF, i & 7))
        table[key] = table.get(key, 0) + 1
        acc ^= hash(key) & x
    elapsed = time.perf_counter() - started
    if not table or acc < 0:  # keeps the loop's results live
        raise RuntimeError("probe miscomputed")
    return elapsed


def _serve() -> None:
    for _ in sys.stdin:
        _time_once()  # the first pass after a wait on the pipe runs cold
        times = sorted(_time_once() for _ in range(REPEATS))
        print(repr(times[len(times) // 2]), flush=True)


_child: Optional[subprocess.Popen] = None


def probe() -> float:
    """One probe time (median of REPEATS), in seconds."""
    global _child
    if _child is None:
        _child = subprocess.Popen(
            [sys.executable, "-I", __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
    _child.stdin.write("probe\n")
    _child.stdin.flush()
    answer = _child.stdout.readline()
    if not answer:
        raise RuntimeError(f"host-speed probe exited with code {_child.wait()}")
    return float(answer)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into
    seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)


def stop() -> None:
    """End the probe's child interpreter, if any, and wait for it."""
    global _child
    if _child is None:
        return
    child, _child = _child, None
    child.stdin.close()
    try:
        child.wait(timeout=30)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    child.stdout.close()


if __name__ == "__main__":
    _serve()
