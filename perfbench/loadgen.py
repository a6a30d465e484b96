"""Closed-loop load generator for the serving workloads (a child process).

Protocol on stdin/stdout, one line each:

1. prints ``ready`` once imported;
2. reads the job (JSON: ``host``, ``port``, ``warmup``, ``ops``,
   ``connections``, ``seconds``), fetches every warm-up request, prints
   ``warm``;
3. reads ``go``, runs ``connections`` closed-loop clients over ``ops``
   for ``seconds`` (an op started before the deadline is finished), and
   prints one JSON line with the per-op records, the measured window,
   this process's CPU time from ``getrusage`` and the part of it spent
   summarising ops for the checks.

Each op fetches one whole stream through ``repro.api.fetch_stream`` and
is summarised (completeness, sequence, digest) right after it returns,
outside its latency.  The summary still runs inside the window, on the
event loop the other connection shares; its measured cost (``check_s``)
is reported so that it can be told apart from the client's own work.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
from time import perf_counter

from repro.api import fetch_stream

from checks import summarize_fetch


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def _run(host, port, ops, connections, seconds=None):
    """Fetch ``ops`` with ``connections`` clients; returns the op records
    and the seconds spent summarising them."""
    records = []
    check_s = 0.0
    cursor = iter(range(len(ops)))
    deadline = None if seconds is None else perf_counter() + seconds

    async def client():
        nonlocal check_s
        for i in cursor:
            if deadline is not None and perf_counter() >= deadline:
                return
            title, quality, device = ops[i]
            rec = {"i": i, "title": title, "quality": quality, "device": device}
            t0 = perf_counter()
            try:
                result = await fetch_stream(host, port, title, quality, device)
            except Exception as exc:  # a failed op is counted, the run goes on
                rec.update(t0=t0, t1=perf_counter(), error=f"{type(exc).__name__}: {exc}")
            else:
                t1 = perf_counter()
                rec.update(
                    t0=t0,
                    t1=t1,
                    ttff_s=result.latency.ttff_s if result.latency else None,
                    attempts=result.attempts,
                    **summarize_fetch(result),
                )
                check_s += perf_counter() - t1
            records.append(rec)

    await asyncio.gather(*(client() for _ in range(connections)))
    return records, check_s


def main() -> int:
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    host, port, conns = job["host"], job["port"], job["connections"]
    warm, _ = asyncio.run(_run(host, port, job["warmup"], conns))
    failed = [r for r in warm if "error" in r]
    if failed:
        print(f"warm-up fetch failed: {failed[0]['error']}", file=sys.stderr, flush=True)
        return 1
    print("warm", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    cpu0, t0 = _cpu_s(), perf_counter()
    records, check_s = asyncio.run(_run(host, port, job["ops"], conns, job["seconds"]))
    t1, cpu1 = perf_counter(), _cpu_s()
    print(json.dumps({"window_s": t1 - t0, "cpu_s": cpu1 - cpu0, "check_s": check_s,
                      "ops": records}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
