"""Output checks: every fetched session and every prepared title is
compared with a reference computed in-process, outside the timed region.

A served session passes when it is complete (every frame of the title),
its records carry an unbroken sequence, its digest equals the digest of
``StreamingService.stream`` for the same (title, quality, device), and
the backlight savings and clipped fraction implied by the annotation it
carried equal the offline ``AnnotatedStream`` values for that key.  A
prepared title passes when every (quality, device) track equals the
reference sweep's track, savings and clipped fraction.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from repro.api import AnnotationService, StreamingService
from repro.core import AnnotatedStream, DeviceAnnotationTrack, ProfileCache
from repro.display import get_device
from repro.streaming import PacketType
from repro.video import ArrayClip, make_clip

from workload import DEVICES, PREP_SCALE, QUALITIES

_PTYPE_CODE = {PacketType.CONTROL: 0, PacketType.ANNOTATION: 1, PacketType.FRAME: 2}


def packet_digest(packets: Iterable) -> str:
    """CRC-32 over the data records in order: header fields plus bytes.

    The load generator digests every session inside the measured window,
    so the digest is the cheapest that catches any accidental change to a
    record: CRC-32 costs half of SHA-1 here (about 4 ms per 7.5 MB
    session on one core of a 2-vCPU VM).
    """
    crc = 0
    for p in packets:
        index = -1 if p.frame_index is None else p.frame_index
        crc = zlib.crc32(struct.pack("<qBq", p.seq, _PTYPE_CODE[p.ptype], index), crc)
        if p.ptype is PacketType.FRAME:
            crc = zlib.crc32(np.ascontiguousarray(p.frame.pixels), crc)
        else:
            crc = zlib.crc32(p.payload, crc)
    return f"{crc:08x}"


def summarize_fetch(result) -> dict:
    """Reduce one :class:`FetchResult` to what the checks need.

    ``seq_ok`` holds when record sequence numbers run 0, 1, 2, ... and
    frame indices run 0, 1, 2, ... in arrival order.
    """
    packets = result.packets
    frame_indices = [p.frame_index for p in packets if p.ptype is PacketType.FRAME]
    seq_ok = all(p.seq == k for k, p in enumerate(packets)) and frame_indices == list(
        range(len(frame_indices))
    )
    annotations = [p.payload for p in packets if p.ptype is PacketType.ANNOTATION]
    return {
        "frames": len(frame_indices),
        "expected_frames": result.session.frame_count,
        "seq_ok": seq_ok,
        "digest": packet_digest(packets),
        "track": annotations[0].hex() if len(annotations) == 1 else None,
    }


def _evaluate(clip, track: DeviceAnnotationTrack, device_name: str) -> Tuple[float, float]:
    stream = AnnotatedStream(clip=clip, track=track, device=get_device(device_name))
    return stream.predicted_backlight_savings(), stream.mean_clipped_fraction()


class ServeReference:
    """In-process reference sessions for the titles served at scale 1.0."""

    def __init__(self):
        self._clips: Dict[str, ArrayClip] = {}
        # One content-keyed cache: each title is profiled once for both
        # the streaming and the offline annotation reference.
        profiles = ProfileCache()
        self._service = StreamingService(profile_cache=profiles)
        self._annotator = AnnotationService(profile_cache=profiles)
        self._tracks: Dict[Tuple[str, float], object] = {}
        self._keys: Dict[Tuple[str, float, str], dict] = {}
        self._values: Dict[Tuple[str, str, bytes], Tuple[float, float]] = {}

    def clip(self, title: str) -> ArrayClip:
        if title not in self._clips:
            clip = ArrayClip.from_clip(make_clip(title, duration_scale=1.0))
            self._clips[title] = clip
            self._service.add_clip(clip)
        return self._clips[title]

    def values(self, title: str, device: str, track: bytes) -> Tuple[float, float]:
        """(backlight savings, clipped fraction) implied by a device track."""
        key = (title, device, track)
        if key not in self._values:
            parsed = DeviceAnnotationTrack.from_bytes(track, clip_name=title, device_name=device)
            self._values[key] = _evaluate(self.clip(title), parsed, device)
        return self._values[key]

    def expected(self, title: str, quality: float, device: str) -> dict:
        """Reference digest and offline savings/clipped for one key."""
        key = (title, quality, device)
        if key not in self._keys:
            clip = self.clip(title)
            session = self._service.open_session(title, device, quality)
            digest = packet_digest(self._service.stream(session))
            if (title, quality) not in self._tracks:
                self._tracks[title, quality] = self._annotator.annotate(clip, quality=quality)
            offline = self._tracks[title, quality].bind(get_device(device))
            savings, clipped = self.values(title, device, offline.to_bytes())
            self._keys[key] = {"digest": digest, "savings": savings, "clipped": clipped}
        return self._keys[key]

    def check(self, op: dict) -> Optional[str]:
        """``None`` if the fetched session ``op`` is correct, else why not.

        On success, stores the session's ``savings`` and ``clipped`` in
        ``op``.
        """
        if op.get("error"):
            return op["error"]
        if op["frames"] != op["expected_frames"]:
            return f"incomplete: {op['frames']} of {op['expected_frames']} frames"
        if not op["seq_ok"]:
            return "broken record or frame sequence"
        if op["track"] is None:
            return "expected exactly one annotation record"
        ref = self.expected(op["title"], op["quality"], op["device"])
        savings, clipped = self.values(op["title"], op["device"], bytes.fromhex(op["track"]))
        if (savings, clipped) != (ref["savings"], ref["clipped"]):
            return (
                f"annotation implies savings {savings!r} / clipped {clipped!r}, "
                f"offline reference {ref['savings']!r} / {ref['clipped']!r}"
            )
        if op["digest"] != ref["digest"]:
            return "record digest differs from the in-process reference"
        op["savings"], op["clipped"] = savings, clipped
        return None


def track_digest(track: DeviceAnnotationTrack) -> str:
    return hashlib.sha1(track.to_bytes()).hexdigest()


class PrepReference:
    """Reference results of preparing one title: the facade's quality
    sweep per device over a separately materialised clip."""

    def __init__(self):
        self._results: Dict[Tuple[str, Tuple[int, int]], List[list]] = {}

    def expected(self, title: str, resolution: Tuple[int, int]) -> List[list]:
        """``[quality, device, savings, clipped, track digest]`` rows in
        quality-major, device-minor order."""
        key = (title, tuple(resolution))
        if key not in self._results:
            clip = ArrayClip.from_clip(
                make_clip(title, resolution=tuple(resolution), duration_scale=PREP_SCALE)
            )
            service = AnnotationService(profile_cache=ProfileCache())
            by_device = {d: service.sweep(clip, d, QUALITIES) for d in DEVICES}
            rows = []
            for qi, quality in enumerate(QUALITIES):
                for device in DEVICES:
                    stream = by_device[device][qi]
                    rows.append([
                        quality,
                        device,
                        stream.predicted_backlight_savings(),
                        stream.mean_clipped_fraction(),
                        track_digest(stream.track),
                    ])
            self._results[key] = rows
        return self._results[key]

    def check(self, op: dict) -> Optional[str]:
        """``None`` if the prepared title ``op`` is correct, else why not."""
        expected = self.expected(op["title"], op["resolution"])
        if len(op["tracks"]) != len(expected):
            return f"{len(op['tracks'])} tracks prepared, expected {len(expected)}"
        for got, want in zip(op["tracks"], expected):
            if list(got) != want:
                return f"track {got[:2]} differs from the reference: {got[2:]} != {want[2:]}"
        return None
