"""The repository's benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the repository root.

Workloads (see ``perfbench/README.md``):

* ``catalog_prep`` — offline preparation of titles through the facade;
* ``serve_fleet``  — whole-stream fetches through ``repro serve --shards 2``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, from a separate run
that also times each layer's public calls on the same inputs.  The line
before it is a JSON context record (host, versions, per-process CPU and
memory of the SUT, failures).  Every run checks the program's outputs
and exits non-zero without a result when it cannot run or measure.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import statistics
import sys
from time import perf_counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metrics, reported by every ``--trace 0`` run.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ttff_p50_ms": "ms",
    "ttff_p90_ms": "ms",
    "sut_cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "backlight_savings": "fraction",
    "clipped_fraction": "fraction",
}

#: Per-layer metrics, reported by every ``--trace 1`` run.  A layer that
#: is not on a workload's path reads 0 there.
PER_LAYER = {
    "video.frames_ms_per_op": "ms",
    "core.profile_ms_per_title": "ms",
    "core.annotate_ms_per_track": "ms",
    "core.bind_ms_per_track": "ms",
    "core.evaluate_ms_per_track": "ms",
    "core.compensate_ms_per_session": "ms",
    "core.profile_cache_hit_ratio": "fraction",
    "streaming.packetize_self_ms_per_session": "ms",
    "streaming.packets_per_session": "count",
    "net.encode_ms_per_session": "ms",
    "net.decode_ms_per_session": "ms",
    "net.records_per_session": "count",
    "net.wire_bytes_per_session": "bytes",
    "net.probe_rtt_ms_p50": "ms",
    "net.retries_per_session": "count",
    "net.shed_or_disconnected": "count",
    "fleet.router_hop_ms_p50": "ms",
    "fleet.router_cpu_ms_per_session": "ms",
    "fleet.shard_cpu_ms_per_session": "ms",
    "fleet.shard_skew": "ratio",
    "fleet.spillover_fraction": "fraction",
    "client.cpu_ms_per_session": "ms",
    "sut.cpu_utilization": "fraction",
    "unaccounted_fraction": "fraction",
    "host.steal_fraction": "fraction",
}

#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SERVE_SETUPS = 5
PREP_LAUNCHES = 9

#: Closed-loop clients of the serving load generator (one per core).
CONNECTIONS = 2

#: Catalog-preparation worker processes, each a closed loop on one thread
#: (one per core).  Two complete twice the ops of one in a run, and their
#: times average over both cores, where a lone single-threaded process
#: takes the speed of the one core it sits on.
PREP_WORKERS = 2

#: Shard processes behind the fleet's router.
SHARDS = 2

#: Distinct served keys timed layer by layer in a traced run.
TRACED_KEYS = 6

#: Router/direct fetch pairs per traced key behind
#: ``fleet.router_hop_ms_p50``: a hop of a few ms sits under fetch-to-fetch
#: noise of tens of ms, so it needs many pairs.
HOP_PAIRS = 3

#: Health probes behind ``net.probe_rtt_ms_p50``.
PROBES = 21

#: Length of the slices a run's throughput and CPU per op are medians
#: over.  A shared VM's speed wanders by tens of percent for seconds at a
#: time; a median over slices ignores a slow stretch that a whole-run
#: mean would carry.
SLICE_S = 2.0


def _pct(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def slice_medians(ops: List[dict], samples: List[tuple]) -> tuple:
    """Median over CPU-sampler slices of (ops completed per second, CPU
    seconds per op completed).

    An op running across a slice boundary counts in each slice by the
    share of its duration that falls there; a final slice shorter than
    half the others is dropped.
    """
    rates, cpu_per_op = [], []
    for (a, cpu_a), (b, cpu_b) in zip(samples, samples[1:]):
        if b - a < SLICE_S / 2:
            continue
        work = sum(
            max(0.0, min(op["t1"], b) - max(op["t0"], a)) / (op["t1"] - op["t0"])
            for op in ops
        )
        rates.append(work / (b - a))
        if work > 0:
            cpu_per_op.append((cpu_b - cpu_a) / work)
    return statistics.median(rates), statistics.median(cpu_per_op)


def _python(script: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, script)]


# ----------------------------------------------------------------------
# catalog_prep
# ----------------------------------------------------------------------
def run_catalog_prep(root: str, seed: int, seconds: float, trace: bool, ctx: dict) -> dict:
    import procstat
    from checks import PrepReference
    from sut import BenchError, Child
    from workload import QUALITIES, prep_schedule

    def launch():
        worker = Child(_python("prep.py"), root, stdin=True)
        try:
            worker.expect(lambda line: line == "ready", 120)
        except BaseException:
            worker.stop()
            raise
        setup.append(perf_counter() - worker.started)
        return worker

    setup: List[float] = []
    survivors: List[int] = []
    for _ in range(0 if trace else PREP_LAUNCHES - PREP_WORKERS):
        worker = launch()
        worker.send("quit")
        survivors += worker.stop()
    workers: List = []
    try:
        for _ in range(PREP_WORKERS):
            workers.append(launch())
        schedule = prep_schedule(seed, 1000)
        cpu0 = [procstat.cpu_s(w.pid) for w in workers]
        sampler = procstat.CpuSampler(lambda: sum(procstat.cpu_s(w.pid) for w in workers),
                                      SLICE_S)
        for k, worker in enumerate(workers):
            worker.send(json.dumps({"ops": schedule[k::PREP_WORKERS], "seconds": seconds,
                                    "trace": trace}))
        data = [json.loads(w.expect(lambda line: line.startswith("{"), seconds + 150))
                for w in workers]
        samples = sampler.stop()
        cpu = [procstat.cpu_s(w.pid) - c for w, c in zip(workers, cpu0)]
        hwm = [procstat.vm_hwm_mb(w.pid) for w in workers]
        for worker in workers:
            worker.send("exit")
    finally:
        for worker in workers:
            survivors += worker.stop()

    ops = sorted((op for d in data for op in d["ops"]), key=lambda op: op.get("t0", 0.0))
    reference = PrepReference()
    failures = [f"{op['title']}: {reason}" for op in ops
                if (reason := op.get("error") or reference.check(op))]
    good = [op for op in ops if "error" not in op]
    if not good:
        raise BenchError("no catalog_prep op completed")
    n = len(ops)
    window = max(d["window_s"] for d in data)
    cpus = os.cpu_count() or 1
    ctx["processes"] = {
        f"prep-{k}": {"pid": w.pid, "cpu_ms": cpu[k] * 1000.0, "peak_rss_mb": hwm[k]}
        for k, w in enumerate(workers)
    }
    ctx["setup_s_samples"] = setup
    ctx["ops"] = len(good)

    if not trace:
        op_ms = [(op["t1"] - op["t0"]) * 1000.0 for op in good]
        ttff_ms = [op["ttff_s"] * 1000.0 for op in good]
        rate, cpu_per_op = slice_medians(good, samples)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": rate,
            "op_p50_ms": _pct(op_ms, 50),
            "op_p90_ms": _pct(op_ms, 90),
            "ttff_p50_ms": _pct(ttff_ms, 50),
            "ttff_p90_ms": _pct(ttff_ms, 90),
            "sut_cpu_ms_per_op": cpu_per_op * 1000.0,
            "peak_rss_mb": sum(hwm),
            "backlight_savings": _mean(_mean(t[2] for t in op["tracks"]) for op in good),
            "clipped_fraction": _mean(_mean(t[3] for t in op["tracks"]) for op in good),
        }
    else:
        layers = {k: sum(op["layers_ms"][k] for op in good) for k in good[0]["layers_ms"]}
        tracks = sum(len(op["tracks"]) for op in good)
        op_total = sum((op["t1"] - op["t0"]) * 1000.0 for op in good)
        cache = _profile_cache_counts([m for d in data for m in d["metrics"]])
        lookups = cache["hits"] + cache["misses"]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({
            "video.frames_ms_per_op": layers["frames"] / len(good),
            "core.profile_ms_per_title": layers["profile"] / len(good),
            "core.annotate_ms_per_track": layers["annotate"] / (len(good) * len(QUALITIES)),
            "core.bind_ms_per_track": layers["bind"] / tracks,
            "core.evaluate_ms_per_track": layers["evaluate"] / tracks,
            "core.profile_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "sut.cpu_utilization": sum(cpu) / (window * cpus),
            "unaccounted_fraction": 1.0 - sum(layers.values()) / op_total,
        })
    return {"metrics": metrics, "attempted": n, "failures": failures, "survivors": survivors}


# ----------------------------------------------------------------------
# serve_fleet
# ----------------------------------------------------------------------
def _counters(payload: dict) -> Dict[str, float]:
    """Sum every metric of a stats payload by name (labels folded)."""
    out: Dict[str, float] = {}
    for m in payload["metrics"]["metrics"]:
        if "value" in m:
            out[m["name"]] = out.get(m["name"], 0.0) + m["value"]
    return out


def _labelled(payload: dict, name: str, label: str) -> Dict[str, float]:
    return {
        m["labels"].get(label, ""): m["value"]
        for m in payload["metrics"]["metrics"]
        if m["name"] == name
    }


def _profile_cache_counts(metrics: List[dict]) -> Dict[str, float]:
    """Profile-cache hits and misses in a telemetry snapshot's metrics."""
    counts = {"hits": 0.0, "misses": 0.0}
    for m in metrics:
        if m["labels"].get("cache", "").startswith("profile"):
            if m["name"] == "repro_cache_hits_total":
                counts["hits"] += m["value"]
            elif m["name"] == "repro_cache_misses_total":
                counts["misses"] += m["value"]
    return counts


def _probe_all(sut) -> Dict[str, dict]:
    """Stats payload of every role that listens (router and servers)."""
    from repro.api import server_stats

    async def probe():
        return {role: await server_stats(sut.host, port) for role, port in sut.ports.items()}

    return asyncio.run(probe())


async def _timed_fetch(host, port, key) -> float:
    from repro.api import fetch_stream

    t = perf_counter()
    await fetch_stream(host, port, *key)
    return (perf_counter() - t) * 1000.0


def _wire_probes(sut, keys) -> dict:
    """With the SUT up: sequential fetch time of each key through the
    router, the router hop, and the health-probe RTT."""
    from repro.api import server_stats, server_status

    async def probe():
        front = sut.front_port
        fetch_ms, hop_ms = [], []
        for k, key in enumerate(keys):
            # Route once to learn the owning shard, then time fetches each
            # way in pairs, alternating which goes first.
            before = _labelled(await server_stats(sut.host, front),
                               "repro_fleet_routed_sessions_total", "shard")
            fetch_ms.append(await _timed_fetch(sut.host, front, key))
            after = _labelled(await server_stats(sut.host, front),
                              "repro_fleet_routed_sessions_total", "shard")
            owner = max(after, key=lambda s: after[s] - before.get(s, 0.0))
            for r in range(HOP_PAIRS):
                if (k + r) % 2:
                    direct = await _timed_fetch(sut.host, sut.ports[owner], key)
                    via_router = await _timed_fetch(sut.host, front, key)
                else:
                    via_router = await _timed_fetch(sut.host, front, key)
                    direct = await _timed_fetch(sut.host, sut.ports[owner], key)
                hop_ms.append(via_router - direct)
        rtt_ms = []
        for _ in range(PROBES):
            t = perf_counter()
            await server_status(sut.host, front)
            rtt_ms.append((perf_counter() - t) * 1000.0)
        return fetch_ms, hop_ms, rtt_ms

    fetch_ms, hop_ms, rtt_ms = asyncio.run(probe())
    return {
        "fetch_ms": fetch_ms,
        "hop_ms_p50": statistics.median(hop_ms),
        "rtt_ms_p50": statistics.median(rtt_ms),
    }


def run_serve_fleet(root: str, seed: int, seconds: float, trace: bool, ctx: dict) -> dict:
    import procstat
    from checks import ServeReference
    from sut import BenchError, Child, Sut
    from workload import PAPER_TITLES, serve_schedule, serve_warmup

    job = {"warmup": serve_warmup(), "ops": serve_schedule(seed), "connections": CONNECTIONS,
           "seconds": seconds}
    setup: List[float] = []
    survivors: List[int] = []

    def set_up():
        sut = Sut(root, PAPER_TITLES, shards=SHARDS)
        gen = Child(_python("loadgen.py"), root, stdin=True)
        try:
            sut.wait_ready()
            gen.expect(lambda line: line == "ready", 120)
            gen.send(json.dumps(dict(job, host=sut.host, port=sut.front_port)))
            gen.expect(lambda line: line == "warm", 300)
        except BaseException:
            gen.stop()
            sut.shutdown()
            raise
        setup.append(perf_counter() - sut.started)
        return sut, gen

    for _ in range(0 if trace else SERVE_SETUPS - 1):
        sut, gen = set_up()
        survivors += gen.stop() + sut.shutdown()
    sut, gen = set_up()
    try:
        stats0 = _probe_all(sut)
        cpu0 = sut.cpu_by_role()
        sampler = procstat.CpuSampler(lambda: sum(sut.cpu_by_role().values()), SLICE_S)
        gen.send("go")
        data = json.loads(gen.expect(lambda line: line.startswith("{"), seconds + 150))
        samples = sampler.stop()
        cpu1 = sut.cpu_by_role()
        hwm = sut.hwm_by_role()
        stats1 = _probe_all(sut)
        if trace:
            keys = list(dict.fromkeys(
                (op["title"], op["quality"], op["device"]) for op in data["ops"]
            ))[:TRACED_KEYS]
            wire = _wire_probes(sut, keys)
    finally:
        survivors += gen.stop() + sut.shutdown()

    ops = data["ops"]
    reference = ServeReference()
    failures = []
    for op in ops:
        reason = reference.check(op)
        if reason is not None:
            failures.append(f"{op['title']} q={op['quality']} {op['device']}: {reason}")
    good = [op for op in ops if "savings" in op]
    if not good:
        raise BenchError("no fetch completed")
    n = len(ops)
    window = data["window_s"]
    cpus = os.cpu_count() or 1
    cpu = {role: cpu1[role] - cpu0[role] for role in cpu1}
    sut_cpu = sum(cpu.values())
    ctx["processes"] = {
        role: {"pid": sut.roles.get(role), "cpu_ms": cpu[role] * 1000.0,
               "peak_rss_mb": hwm[role]}
        for role in cpu
    }
    ctx["loadgen"] = {"cpu_ms": data["cpu_s"] * 1000.0,
                      "check_ms_per_op": data["check_s"] * 1000.0 / n}
    ctx["setup_s_samples"] = setup
    ctx["ops"] = len(good)

    if not trace:
        op_ms = [(op["t1"] - op["t0"]) * 1000.0 for op in good]
        ttff_ms = [op["ttff_s"] * 1000.0 for op in good]
        rate, cpu_per_op = slice_medians(good, samples)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": rate,
            "op_p50_ms": _pct(op_ms, 50),
            "op_p90_ms": _pct(op_ms, 90),
            "ttff_p50_ms": _pct(ttff_ms, 50),
            "ttff_p90_ms": _pct(ttff_ms, 90),
            "sut_cpu_ms_per_op": cpu_per_op * 1000.0,
            "peak_rss_mb": sum(hwm.values()),
            "backlight_savings": _mean(op["savings"] for op in good),
            "clipped_fraction": _mean(op["clipped"] for op in good),
        }
        return {"metrics": metrics, "attempted": n, "failures": failures, "survivors": survivors}

    from layers import serve_session_layers

    rows = serve_session_layers(keys)
    servers = sut.server_roles()
    c0 = {role: _counters(stats0[role]) for role in stats0}
    c1 = {role: _counters(stats1[role]) for role in stats1}

    def delta(role, name):
        return c1[role].get(name, 0.0) - c0[role].get(name, 0.0)

    sessions = {role: delta(role, "repro_server_sessions_total") for role in servers}
    total_sessions = sum(sessions.values()) or 1.0
    cache = [_profile_cache_counts(stats1[role]["metrics"]["metrics"]) for role in servers]
    lookups = sum(c["hits"] + c["misses"] for c in cache)
    titles = {row["title"]: row["profile_ms"] for row in rows}
    path = ("frames_ms", "bind_ms", "compensate_ms", "packetize_self_ms", "encode_ms", "decode_ms")
    layer_total = sum(sum(row[k] for k in path) for row in rows)
    layer_total += len(rows) * (wire["rtt_ms_p50"] + wire["hop_ms_p50"])
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "video.frames_ms_per_op": _mean(r["frames_ms"] for r in rows),
        "core.profile_ms_per_title": _mean(titles.values()),
        "core.annotate_ms_per_track": _mean(r["annotate_ms"] for r in rows),
        "core.bind_ms_per_track": _mean(r["bind_ms"] for r in rows),
        "core.compensate_ms_per_session": _mean(r["compensate_ms"] for r in rows),
        "core.profile_cache_hit_ratio": (sum(c["hits"] for c in cache) / lookups
                                         if lookups else 0.0),
        "streaming.packetize_self_ms_per_session": _mean(r["packetize_self_ms"] for r in rows),
        "streaming.packets_per_session": _mean(r["packets"] for r in rows),
        "net.encode_ms_per_session": _mean(r["encode_ms"] for r in rows),
        "net.decode_ms_per_session": _mean(r["decode_ms"] for r in rows),
        "net.records_per_session": sum(delta(r, "repro_net_records_sent_total")
                                       for r in servers) / total_sessions,
        "net.wire_bytes_per_session": sum(delta(r, "repro_net_bytes_sent_total")
                                          for r in servers) / total_sessions,
        "net.probe_rtt_ms_p50": wire["rtt_ms_p50"],
        "net.retries_per_session": sum(op.get("attempts", 1) - 1 for op in ops) / n,
        "net.shed_or_disconnected": sum(delta(r, "repro_net_shed_sessions_total")
                                        + delta(r, "repro_net_disconnects_total")
                                        for r in servers),
        "fleet.router_hop_ms_p50": wire["hop_ms_p50"],
        "fleet.router_cpu_ms_per_session": cpu["router"] * 1000.0 / n,
        "fleet.shard_cpu_ms_per_session": sum(cpu[r] for r in servers) * 1000.0 / n,
        "fleet.shard_skew": max(sessions.values()) / (total_sessions / len(servers)),
        "fleet.spillover_fraction": (
            delta("router", "repro_fleet_spillover_sessions_total")
            / max(1.0, delta("router", "repro_fleet_routed_sessions_total"))
        ),
        "client.cpu_ms_per_session": data["cpu_s"] * 1000.0 / n,
        "sut.cpu_utilization": sut_cpu / (window * cpus),
        "unaccounted_fraction": 1.0 - layer_total / sum(wire["fetch_ms"]),
    })
    return {"metrics": metrics, "attempted": n, "failures": failures, "survivors": survivors}


WORKLOADS = {
    "catalog_prep": run_catalog_prep,
    "serve_fleet": run_serve_fleet,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGINT ignored by whoever started the benchmark (any background
    # job of a non-interactive shell) would be inherited through exec by
    # the SUT, which then could not be stopped gracefully.  A handler,
    # unlike SIG_IGN, is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy

    import procstat
    from sut import BenchError

    host = procstat.HostCpu()
    ctx: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        out = WORKLOADS[args.workload](root, args.seed, args.seconds, bool(args.trace), ctx)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    steal = host.steal_fraction()
    metrics = out["metrics"]
    if args.trace:
        metrics["host.steal_fraction"] = steal
    units = PER_LAYER if args.trace else END_TO_END
    ctx.update({
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host.steal_fraction": steal,
        "survivors": out["survivors"],
        "failures": out["failures"][:10],
    })
    print(json.dumps({"context": ctx}))
    failed = len(out["failures"])
    if out["survivors"]:
        print(f"error: SUT processes outlived the run: {out['survivors']}", file=sys.stderr)
        failed = out["attempted"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
