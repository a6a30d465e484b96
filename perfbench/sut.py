"""Child processes of the benchmark: the SUT, its load generator and the
catalog-preparation worker.

Every child runs in its own session (so in its own process group), is
read line by line from its stdout, and is reaped on stop: after the
graceful stop the whole group is killed, and any process of the group or
of the recorded tree that is still alive is reported as a survivor.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
from collections import deque
from time import perf_counter
from typing import Callable, Dict, List, Optional

import procstat


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Child:
    """A child process whose stdout lines are queued as they arrive."""

    def __init__(self, argv: List[str], root: str, stdin: bool = False):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.argv = argv
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        self.tree: List[int] = [self.pid]
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr: deque = deque(maxlen=30)
        self._readers = [
            threading.Thread(target=self._pump, args=(self.proc.stdout, self._lines.put), daemon=True),
            threading.Thread(target=self._pump, args=(self.proc.stderr, self._stderr.append), daemon=True),
        ]
        for t in self._readers:
            t.start()

    @staticmethod
    def _pump(stream, sink: Callable) -> None:
        for line in stream:
            sink(line.rstrip("\n"))
        sink(None)

    def _fail(self, what: str) -> BenchError:
        tail = "\n".join(line for line in self._stderr if line)
        name = " ".join(os.path.basename(a) for a in self.argv[1:4])
        return BenchError(f"{name}: {what}\n{tail}")

    def expect(self, predicate: Callable[[str], bool], timeout_s: float) -> str:
        """Block until a stdout line satisfies ``predicate``; return it."""
        deadline = perf_counter() + timeout_s
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise self._fail(f"no expected line within {timeout_s:.0f}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                self._lines.put(None)
                raise self._fail(f"exited with {self.proc.wait()} before the expected line")
            if predicate(line):
                return line

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def snapshot_tree(self) -> List[int]:
        """Record every live process below this child (for the reap check)."""
        for pid in procstat.descendants(self.pid):
            if pid not in self.tree:
                self.tree.append(pid)
        return self.tree

    def stop(self, stop_line: Optional[str] = None, timeout_s: float = 30.0) -> List[int]:
        """Stop the child and its group; return the pids still alive.

        With ``stop_line``, send SIGINT to the child only and wait for
        that line (its own graceful shutdown); otherwise close its stdin,
        which ends every helper of this benchmark.  Wait for the child to
        exit, then kill the group whatever happened.
        """
        self.snapshot_tree()
        graceful_error = None
        if self.proc.poll() is None:
            try:
                if stop_line is not None:
                    self.proc.send_signal(signal.SIGINT)
                    self.expect(lambda line: stop_line in line, timeout_s)
                elif self.proc.stdin:
                    self.proc.stdin.close()
                self.proc.wait(timeout=timeout_s)
            except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
                graceful_error = exc
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=timeout_s)
        for t in self._readers:
            t.join(timeout=timeout_s)
        survivors = set(procstat.group_members(self.pid))
        survivors.update(pid for pid in self.tree[1:] if procstat.alive(pid))
        if graceful_error is not None:
            print(f"note: no graceful stop: {graceful_error}", file=sys.stderr)
        return sorted(survivors)


_FLEET_READY = re.compile(r"router on ([\d.]+):(\d+)")
_SHARD_LINE = re.compile(r"(shard-\d+): ([\d.]+):(\d+) \(pid (\d+)\)")


class Sut(Child):
    """``python -m repro serve --shards N`` as a child process.

    ``roles`` maps ``"router"`` and ``"shard-N"`` to pids; ``ports`` maps
    the same roles to the bound ports.
    """

    def __init__(self, root: str, titles, shards: int):
        argv = [sys.executable, "-m", "repro", "serve", *titles, "--port", "0",
                "--scale", "1.0", "--flight-tail", "0", "--shards", str(shards)]
        super().__init__(argv, root)
        self.shards = shards
        self.roles: Dict[str, int] = {}
        self.ports: Dict[str, int] = {}
        self.host = "127.0.0.1"

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        """Read the ready lines the CLI prints once the router and every
        shard are listening."""
        m = _FLEET_READY.search(self.expect(_FLEET_READY.search, timeout_s))
        self.host = m.group(1)
        self.roles["router"], self.ports["router"] = self.pid, int(m.group(2))
        for _ in range(self.shards):
            s = _SHARD_LINE.search(self.expect(_SHARD_LINE.search, timeout_s))
            self.roles[s.group(1)], self.ports[s.group(1)] = int(s.group(4)), int(s.group(3))
            self.tree.append(int(s.group(4)))

    @property
    def front_port(self) -> int:
        return self.ports["router"]

    def server_roles(self) -> List[str]:
        """Roles that serve sessions (the shards)."""
        return [r for r in self.roles if r != "router"]

    def _by_role(self, read) -> Dict[str, float]:
        """``read(pid)`` per role; other processes of the tree summed as
        ``other``.  Reads the tree afresh and records nothing, so a
        sampler thread may call it."""
        out = {role: read(pid) for role, pid in self.roles.items()}
        known = set(self.roles.values())
        out["other"] = sum(read(p) for p in procstat.descendants(self.pid) if p not in known)
        return out

    def cpu_by_role(self) -> Dict[str, float]:
        """CPU seconds per role."""
        return self._by_role(procstat.cpu_s)

    def hwm_by_role(self) -> Dict[str, float]:
        """Peak RSS (MiB) per role."""
        return self._by_role(procstat.vm_hwm_mb)

    def shutdown(self) -> List[int]:
        """SIGINT, wait for the fleet's stop line, reap the group."""
        return self.stop("fleet stopped")
