"""Tests of the benchmark's own checks.

Run from the repository root:
``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import StreamingService
from repro.net import FetchResult
from repro.streaming import PacketType
from repro.video import Frame, make_clip

import procstat
import run
from checks import PrepReference, ServeReference, summarize_fetch
from prep import prepare
from sut import Child

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEY = ("officexp", 0.10, "ipaq3650")


@pytest.fixture(scope="module")
def reference():
    return ServeReference()


@pytest.fixture(scope="module")
def served():
    """One session of ``KEY`` as the server emits it, in-process."""
    service = StreamingService()
    service.add_clip(make_clip(KEY[0], duration_scale=1.0))
    session = service.open_session(KEY[0], KEY[2], KEY[1])
    return session, service.stream(session)


def _op(session, packets) -> dict:
    result = FetchResult(session=session, packets=list(packets), attempts=1)
    return dict(title=KEY[0], quality=KEY[1], device=KEY[2], **summarize_fetch(result))


def test_correct_session_passes(reference, served):
    op = _op(*served)
    assert reference.check(op) is None
    assert 0.0 < op["savings"] < 1.0
    assert 0.0 < op["clipped"] <= KEY[1]


def test_corrupted_frame_is_caught(reference, served):
    session, packets = served
    k = next(i for i, p in enumerate(packets) if p.ptype is PacketType.FRAME) + 17
    pixels = packets[k].frame.pixels.copy()
    pixels[3, 5, 1] ^= 0x01
    bad = list(packets)
    bad[k] = dataclasses.replace(packets[k], frame=Frame(pixels, index=packets[k].frame_index))
    assert "digest" in reference.check(_op(session, bad))


def test_wrong_annotation_is_caught(reference, served):
    session, packets = served
    other = StreamingService()
    other.add_clip(make_clip(KEY[0], duration_scale=1.0))
    wrong = other.stream(other.open_session(KEY[0], KEY[2], 0.20))[0]
    assert wrong.ptype is PacketType.ANNOTATION
    bad = [dataclasses.replace(packets[0], payload=wrong.payload)] + list(packets[1:])
    assert "annotation implies" in reference.check(_op(session, bad))


def test_incomplete_and_reordered_sessions_are_caught(reference, served):
    session, packets = served
    assert "incomplete" in reference.check(_op(session, packets[:-1]))
    swapped = list(packets)
    swapped[5], swapped[6] = swapped[6], swapped[5]
    assert "sequence" in reference.check(_op(session, swapped))


def test_failed_fetch_is_caught(reference):
    assert reference.check({"error": "StreamFetchError: gave up"}) is not None


def test_prepared_title_matches_reference_and_wrong_track_is_caught():
    op = prepare("noir_documentary", (80, 60), trace=False)
    reference = PrepReference()
    assert reference.check(op) is None
    op["tracks"][7][2] += 1e-9
    assert "differs" in reference.check(op)


def test_stop_reports_a_process_that_escaped_the_group():
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],"
        " start_new_session=True)\n"
        "print(p.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    child = Child([sys.executable, "-c", script], ROOT)
    escaped = int(child.expect(str.isdigit, 30))
    try:
        survivors = child.stop(timeout_s=1)
        assert survivors == [escaped]
        assert not procstat.alive(child.pid)
    finally:
        os.kill(escaped, 9)


def test_stop_reaps_the_whole_group():
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(p.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    child = Child([sys.executable, "-c", script], ROOT)
    grandchild = int(child.expect(str.isdigit, 30))
    assert child.stop(timeout_s=1) == []
    assert not procstat.alive(grandchild)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "catalog_prep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_schedules_are_seeded():
    from workload import prep_schedule, serve_schedule

    assert serve_schedule(3) == serve_schedule(3) != serve_schedule(4)
    assert prep_schedule(3) == prep_schedule(3) != prep_schedule(4)
    block = prep_schedule(5)[:14]
    assert len({title for title, _ in block}) == 14
    assert np.isclose(np.mean([res == (96, 72) for _, res in block]), 0.5)
