"""``repro serve --shards 2`` leaves no shard behind when it is stopped.

Each test launches the real CLI in a subprocess, reads the shard pids it
prints, stops the parent, and checks that every shard process is gone:

* SIGTERM takes the graceful path SIGINT takes (router close, shard
  drain, ``fleet stopped``), and either prints the stop line exactly
  once;
* SIGKILL gives the parent no say at all, so the shards must notice its
  death on their own (their lifecycle pipe reaches EOF).
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: ``--drain-timeout`` passed to the fleet; shards get this long plus 5 s.
DRAIN_TIMEOUT_S = 2.0

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL") or sys.platform == "win32",
    reason="POSIX signals required",
)


def _gone(pid):
    """True once ``pid`` no longer runs (exited, or a zombie awaiting reaping)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _launch_serve(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "themovie",
         "--scale", "0.05", "--port", "0",
         "--drain-timeout", str(DRAIN_TIMEOUT_S), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


def _launch_fleet():
    proc = _launch_serve("--shards", "2")
    pids, lines = [], []
    deadline = time.monotonic() + 120.0
    while len(pids) < 2 and time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"\(pid (\d+)\)", line)
        if match:
            pids.append(int(match.group(1)))
    if len(pids) < 2:
        proc.kill()
        proc.wait()
        pytest.fail("fleet did not report two shard pids:\n" + "".join(lines))
    return proc, pids


def _stop_and_collect(proc, pids, signum):
    try:
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=DRAIN_TIMEOUT_S + 30.0)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S + 5.0
        while time.monotonic() < deadline and not all(_gone(p) for p in pids):
            time.sleep(0.05)
        return out, [p for p in pids if not _gone(p)]
    finally:
        proc.kill()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_sigterm_stops_every_shard():
    proc, pids = _launch_fleet()
    out, survivors = _stop_and_collect(proc, pids, signal.SIGTERM)
    assert survivors == []
    assert proc.returncode == 0
    assert out.count("fleet stopped") == 1, out


def test_sigint_stops_every_shard_with_one_stop_line():
    proc, pids = _launch_fleet()
    out, survivors = _stop_and_collect(proc, pids, signal.SIGINT)
    assert survivors == []
    assert proc.returncode == 0
    assert out.count("fleet stopped") == 1, out


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_single_server_prints_one_stop_line(signum):
    proc = _launch_serve()
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving "), line
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=DRAIN_TIMEOUT_S + 30.0)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0
    assert out.count("drained cleanly") == 1, out
    assert out.count("server stopped") == 1, out


def test_shards_exit_when_the_parent_is_killed():
    proc, pids = _launch_fleet()
    _, survivors = _stop_and_collect(proc, pids, signal.SIGKILL)
    assert survivors == []
