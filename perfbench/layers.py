"""Per-layer times of one served session, measured in-process.

The traced serving runs call each layer's public function on the same
(title, quality, device) keys the workload fetched, one layer at a time,
with the SUT already stopped so nothing else competes for the CPUs.
Self time of the packetizer is what ``MediaServer.stream_batches`` costs
beyond the video source and the compensation it drives.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Tuple

from repro.api import AnnotationService, StreamingService
from repro.core import AnnotatedStream, AnnotationPipeline, ProfileCache, SchemeParameters
from repro.display import get_device
from repro.net import decode_packet, encode_packet
from repro.streaming.server import LEAD_CHUNK_FRAMES, WIRE_CHUNK_FRAMES
from repro.video import ArrayClip, make_clip


def _ms(start: float) -> float:
    return (perf_counter() - start) * 1000.0


def _drain(iterable) -> int:
    n = 0
    for _ in iterable:
        n += 1
    return n


def serve_session_layers(keys: Iterable[Tuple[str, float, str]]) -> List[Dict[str, float]]:
    """One dict of layer times (ms) and counts per served key."""
    service = StreamingService()
    clips: Dict[str, Tuple[ArrayClip, object, float]] = {}
    rows = []
    for title, quality, device_name in keys:
        device = get_device(device_name)
        lazy = make_clip(title, duration_scale=1.0)
        if title not in clips:
            array = ArrayClip.from_clip(lazy)
            t = perf_counter()
            profile = AnnotationService(profile_cache=ProfileCache()).profile(array)
            clips[title] = (array, profile, _ms(t))
            service.add_clip(lazy)
            # Warm the server's profile and plane caches, as the SUT's
            # warm-up does, so stream_batches below is a steady session.
            service.stream(service.open_session(title, device_name, quality))
        array, profile, profile_ms = clips[title]

        t = perf_counter()
        _drain(lazy.iter_chunks(WIRE_CHUNK_FRAMES, lead=LEAD_CHUNK_FRAMES))
        frames_ms = _ms(t)

        t = perf_counter()
        track = AnnotationPipeline(SchemeParameters().with_quality(quality)).annotate(
            array, profile=profile
        )
        annotate_ms = _ms(t)
        t = perf_counter()
        bound = track.bind(device)
        bind_ms = _ms(t)

        stream = AnnotatedStream(clip=array, track=bound, device=device, profile=profile)
        compensate_ms = []
        for _ in range(2):  # the second pass is the warm one
            t = perf_counter()
            _drain(stream.iter_chunks(chunk_size=WIRE_CHUNK_FRAMES, lead=LEAD_CHUNK_FRAMES,
                                      reuse_output=True))
            compensate_ms.append(_ms(t))

        session = service.open_session(title, device_name, quality)
        t = perf_counter()
        _drain(service.server.stream_batches(session))
        stream_ms = _ms(t)

        packets = service.stream(service.open_session(title, device_name, quality))
        t = perf_counter()
        encoded = [encode_packet(p) for p in packets]
        encode_ms = _ms(t)
        wire = [b"".join(bytes(part) for part in parts) for parts in encoded]
        t = perf_counter()
        for record in wire:
            decode_packet(record)
        decode_ms = _ms(t)

        rows.append({
            "title": title,
            "frames_ms": frames_ms,
            "profile_ms": profile_ms,
            "annotate_ms": annotate_ms,
            "bind_ms": bind_ms,
            "compensate_ms": compensate_ms[1],
            "packetize_self_ms": stream_ms - frames_ms - compensate_ms[1],
            "packets": len(packets),
            "encode_ms": encode_ms,
            "decode_ms": decode_ms,
        })
    return rows
