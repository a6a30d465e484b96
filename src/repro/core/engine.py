"""Execution-engine selection for the profile→clip→compensate hot path.

The annotation pipeline can walk a clip two ways:

* ``"perframe"`` — the paper-literal scalar loop: one :class:`Frame` at a
  time.  Kept as the reference implementation and as the fallback for
  clips that mix frame resolutions.
* ``"chunked"`` — the default: ``(N, H, W, 3)`` uint8 batches flow through
  vectorized luminance/histogram kernels
  (:func:`~repro.core.analyzer.chunk_frame_stats`).  Bit-identical to the
  per-frame path, several times faster.

Both produce byte-for-byte identical :class:`FrameStats`, so engine
choice is purely a throughput knob — the property tests in
``tests/core/test_engine.py`` and
``tests/streaming/test_serving_equivalence.py`` hold the engines to that
contract.  Parallelism lives above the engine, at session and title
granularity: ``repro serve --shards N`` runs one worker process per
shard.

Chunk sizing is autotuned from frame geometry by default
(:func:`~repro.video.chunks.autotune_chunk_size`): small frames get long
chunks, large frames get short ones, keeping the batched float64 working
set near a fixed byte budget.  Pass an explicit ``chunk_size`` to pin it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar, Union

from .. import telemetry
from ..video.chunks import DEFAULT_CHUNK_SIZE, autotune_chunk_size

#: Engine names accepted wherever an ``engine=`` knob is exposed.
ENGINE_KINDS = ("perframe", "chunked")

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class EngineConfig:
    """Resolved execution-engine settings.

    Attributes
    ----------
    kind:
        One of :data:`ENGINE_KINDS`.
    chunk_size:
        Frames per batch for the chunked engine.  ``None`` (the default)
        autotunes the span from frame geometry via
        :meth:`resolved_chunk_size`.
    """

    kind: str = "chunked"
    chunk_size: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine kind {self.kind!r}, expected one of {ENGINE_KINDS}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    # ------------------------------------------------------------------
    def resolved_chunk_size(self, frame_shape: Optional[Tuple[int, int]] = None) -> int:
        """The chunk span to use for a given ``(height, width)``.

        An explicit ``chunk_size`` wins; otherwise the autotuner picks the
        span from the frame geometry, falling back to
        :data:`~repro.video.chunks.DEFAULT_CHUNK_SIZE` when no geometry
        is known (e.g. an incremental frame stream before the first
        frame arrives).
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if frame_shape is None:
            return DEFAULT_CHUNK_SIZE
        return autotune_chunk_size(int(frame_shape[0]), int(frame_shape[1]))


#: Anything an ``engine=`` knob accepts: a kind name, a full config, or
#: ``None`` for the default (chunked).
EngineSpec = Union[None, str, EngineConfig]


def resolve_engine(spec: EngineSpec) -> EngineConfig:
    """Normalize an ``engine=`` argument into an :class:`EngineConfig`."""
    if spec is None:
        return EngineConfig()
    if isinstance(spec, EngineConfig):
        return spec
    if isinstance(spec, str):
        return EngineConfig(kind=spec)
    raise TypeError(
        f"engine must be None, a kind name, or an EngineConfig, got {type(spec).__name__}"
    )


def map_chunks(
    config: EngineConfig, kernel: Callable[[T], R], chunks: Iterable[T]
) -> List[R]:
    """Apply ``kernel`` to every chunk, in order, as one plain loop.

    When telemetry is enabled, every kernel invocation is timed into the
    ``repro_engine_chunk_seconds{kind=...}`` histogram and the pass as a
    whole updates chunk/frame counters plus the
    ``repro_engine_frames_per_sec{kind=...}`` gauge (frames over the
    pass's wall-clock time; sized chunks only).
    """
    if not telemetry.enabled():
        return [kernel(chunk) for chunk in chunks]

    durations: List[float] = []
    results: List[R] = []
    frames = 0
    wall_start = perf_counter()
    for chunk in chunks:
        start = perf_counter()
        results.append(kernel(chunk))
        durations.append(perf_counter() - start)
        try:
            frames += len(chunk)  # type: ignore[arg-type]
        except TypeError:
            pass
    wall = perf_counter() - wall_start

    reg = telemetry.registry()
    labels = {"kind": config.kind}
    reg.histogram(
        "repro_engine_chunk_seconds",
        help="Per-chunk kernel time under the execution engine.",
        labels=labels,
    ).observe_many(durations)
    reg.counter(
        "repro_engine_chunks_total", help="Chunks processed by the execution engine.",
        labels=labels,
    ).inc(len(durations))
    if frames:
        reg.counter(
            "repro_engine_frames_total", help="Frames processed by the execution engine.",
            labels=labels,
        ).inc(frames)
        if wall > 0.0:
            reg.gauge(
                "repro_engine_frames_per_sec",
                help="Throughput of the most recent engine pass.",
                labels=labels,
            ).set(frames / wall)
    return results
