"""Outside-in accounting of processes from ``/proc`` (Linux only).

The benchmark never asks the program under test how much CPU or memory
it used; it reads the kernel's numbers for every process of the SUT tree.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may contain spaces and parentheses: split after
    # the *last* closing parenthesis.  Field 3 (state) is index 0 here.
    return raw[raw.rindex(")") + 2 :].split()


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process (0 if it is gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _all_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it, parents first."""
    children: Dict[int, List[int]] = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(pid)
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop(0)
        tree.append(pid)
        frontier.extend(sorted(children.get(pid, ())))
    return tree


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(pid)
    return members


class HostCpu:
    """``/proc/stat`` aggregate CPU counters, for the steal fraction."""

    def __init__(self):
        self.start = self._read()

    @staticmethod
    def _read() -> List[int]:
        with open("/proc/stat") as fh:
            first = fh.readline().split()
        return [int(v) for v in first[1:]]

    def steal_fraction(self) -> float:
        """Share of host CPU time stolen by the hypervisor since creation."""
        now = self._read()
        delta = [b - a for a, b in zip(self.start, now)]
        total = sum(delta[:8])  # user..steal; guest time is inside user
        steal = delta[7] if len(delta) > 7 else 0
        return steal / total if total > 0 else 0.0


class CpuSampler:
    """Samples a process set's total CPU seconds on a background thread.

    ``samples`` holds ``(perf_counter time, cpu seconds)`` pairs, one at
    start, one every ``interval_s`` and one at stop; ``perf_counter`` is
    the system-wide monotonic clock, so the times line up with those the
    benchmark's child processes record.
    """

    def __init__(self, read_cpu_s, interval_s: float):
        self._read = read_cpu_s
        self._interval = interval_s
        self._stop = threading.Event()
        self.samples = [(time.perf_counter(), read_cpu_s())]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.samples.append((time.perf_counter(), self._read()))

    def stop(self) -> list:
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), self._read()))
        return self.samples
