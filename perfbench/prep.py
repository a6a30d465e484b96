"""The ``catalog_prep`` program: prepare titles cold through the facade.

Runs as a child process so its CPU and memory are read from outside.
Protocol on stdin/stdout, one line each: prints ``ready`` once imported;
reads ``quit`` (a set-up-only launch) or a job (JSON: ``ops``,
``seconds``, ``trace``); runs the job closed-loop on one thread; prints
one JSON line of op records; waits for one more line before exiting, so
the parent can read this process's counters while it is still alive.

One op prepares one title from nothing: materialise its frames, profile
it, annotate it at every quality of the ladder, bind every track to
every device, and evaluate each bound track's backlight savings and
clipped fraction.  With ``trace`` the time of each of those calls is
recorded per layer; without it, only the op and its first bound track
are timed.  Each track's digest, for the output check, is taken after the
op's clock stops.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from repro import telemetry
from repro.api import AnnotationService
from repro.core import AnnotatedStream, ProfileCache
from repro.display import get_device
from repro.video import ArrayClip, make_clip

from checks import track_digest
from workload import DEVICES, PREP_SCALE, QUALITIES

_DEVICES = [(name, get_device(name)) for name in DEVICES]

#: Layer buckets of one op, in call order.
LAYERS = ("frames", "profile", "annotate", "bind", "evaluate")


class Laps:
    """Per-layer stopwatch; a no-op unless ``enabled``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.ms = dict.fromkeys(LAYERS, 0.0)
        self._last = perf_counter() if enabled else 0.0

    def lap(self, layer: str) -> None:
        if self.enabled:
            now = perf_counter()
            self.ms[layer] += (now - self._last) * 1000.0
            self._last = now


def prepare(title: str, resolution, trace: bool) -> dict:
    """Prepare one title; returns its op record."""
    t0 = perf_counter()
    laps = Laps(trace)
    clip = ArrayClip.from_clip(
        make_clip(title, resolution=tuple(resolution), duration_scale=PREP_SCALE)
    )
    laps.lap("frames")
    service = AnnotationService(profile_cache=ProfileCache())
    profile = service.profile(clip)
    laps.lap("profile")
    tracks = [service.annotate(clip, quality=q) for q in QUALITIES]
    laps.lap("annotate")
    first_bound = None
    rows, bound_tracks = [], []
    for quality, track in zip(QUALITIES, tracks):
        for name, device in _DEVICES:
            bound = track.bind(device)
            if first_bound is None:
                first_bound = perf_counter()
            laps.lap("bind")
            stream = AnnotatedStream(clip=clip, track=bound, device=device, profile=profile)
            rows.append([
                quality,
                name,
                stream.predicted_backlight_savings(),
                stream.mean_clipped_fraction(),
            ])
            bound_tracks.append(bound)
            laps.lap("evaluate")
    t1 = perf_counter()
    for row, bound in zip(rows, bound_tracks):
        row.append(track_digest(bound))
    record = {
        "title": title,
        "resolution": list(resolution),
        "t0": t0,
        "t1": t1,
        "ttff_s": first_bound - t0,
        "tracks": rows,
    }
    if trace:
        record["layers_ms"] = laps.ms
    return record


def main() -> int:
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if line in ("", "quit"):
        return 0
    job = json.loads(line)
    ops, trace = job["ops"], job["trace"]
    records = []
    t0 = perf_counter()
    deadline = t0 + job["seconds"]
    for title, resolution in ops:
        if perf_counter() >= deadline:
            break
        try:
            records.append(prepare(title, resolution, trace))
        except Exception as exc:  # a failed op is counted, the run goes on
            records.append({"title": title, "resolution": resolution,
                            "error": f"{type(exc).__name__}: {exc}"})
    window = perf_counter() - t0
    print(json.dumps({
        "window_s": window,
        "ops": records,
        "metrics": telemetry.snapshot()["metrics"],
    }), flush=True)
    sys.stdin.readline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
