"""Synthetic scene generators.

The paper evaluates on movie trailers downloaded from the Internet (Section
5).  Those MPEG files are not redistributable, and the technique consumes
nothing but per-pixel luminance statistics — so the clip library synthesizes
deterministic scenes whose luminance structure matches the paper's
description of its workloads: dark scenes where "the highlights are
concentrated in a few points or spots", bright outdoor backgrounds, fades,
scrolling end credits, and textured motion.

Every generator is deterministic given its seed: static assets (textures,
spot positions) are drawn once at construction and motion is a pure function
of the frame index, so :class:`~repro.video.clip.LazyClip` re-reads agree.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .frame import MAX_CHANNEL, Frame

#: Default synthesis resolution (width, height).  Kept small so that a ten
#: title library sweeps in seconds; the algorithms are resolution-agnostic.
DEFAULT_RESOLUTION: Tuple[int, int] = (96, 72)


def _tint_gains(tint: Tuple[float, float, float]) -> Tuple[float, float, float]:
    """Per-channel gains of ``tint``, normalized to preserve luminance.

    The gains are normalized so that the BT.601-weighted sum of the channel
    gains is 1: a pixel with luminance ``y`` keeps luminance ``y`` after
    tinting (up to uint8 rounding), which keeps scene luminance scripts
    honest.  Gains are then scaled down so the largest maps 1.0 -> 1.0.
    """
    r, g, b = tint
    norm = 0.299 * r + 0.587 * g + 0.114 * b
    if norm <= 0:
        raise ValueError(f"tint {tint} has non-positive luminance weight")
    gains = np.array([r, g, b]) / norm
    # Avoid channel overflow: scale down so the largest gain maps 1.0 -> 1.0.
    peak = gains.max()
    if peak > 1.0:
        gains = gains / peak
    return tuple(float(gain) for gain in gains)


def _tint(luminance: np.ndarray, gains: Sequence[float]) -> Frame:
    """Colorize a luminance map with per-channel ``gains`` (see :func:`_tint_gains`).

    Byte-identical to ``Frame(np.clip(luminance, 0, 1)[..., None] * gains)``:
    every pixel goes through the same float operations in the same order
    (clip, scale, saturate, x255, round half to even, truncate), but each
    channel is computed on a planar scratch rather than broadcast over a
    trailing size-3 axis, and once per distinct gain.  The saturating clip
    is skipped for a gain in [0, 1], where it cannot change a value: the
    product of two floats in [0, 1] stays in [0, 1] under round-to-nearest.
    """
    lum = np.clip(luminance, 0.0, 1.0)
    pixels = np.empty(lum.shape + (3,), dtype=np.uint8)
    plane = np.empty(lum.shape)
    codes = np.empty(lum.shape, dtype=np.uint8)
    for c, gain in enumerate(gains):
        if any(gains[k] == gain for k in range(c)):
            continue  # written along with an earlier, equal gain
        np.multiply(lum, gain, out=plane)
        if not 0.0 <= gain <= 1.0:
            np.clip(plane, 0.0, 1.0, out=plane)
        plane *= MAX_CHANNEL
        np.rint(plane, out=plane)
        codes[...] = plane
        for k in range(c, len(gains)):
            if k == c or gains[k] == gain:
                pixels[..., k] = codes
    return Frame(pixels)


class SceneGenerator:
    """Base class: renders frames of one scene.

    Subclasses implement :meth:`luminance_map` returning a normalized
    ``(H, W)`` luminance array for local frame ``i``.
    """

    def __init__(
        self,
        duration: int,
        resolution: Tuple[int, int] = DEFAULT_RESOLUTION,
        tint: Tuple[float, float, float] = (1.0, 1.0, 1.0),
        seed: int = 0,
    ):
        if duration <= 0:
            raise ValueError(f"scene duration must be positive, got {duration}")
        self.duration = int(duration)
        self.width, self.height = resolution
        self.tint = tint
        self._gains = _tint_gains(tint)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._grid = np.meshgrid(
            np.linspace(0.0, 1.0, self.width),
            np.linspace(0.0, 1.0, self.height),
        )

    # -- subclass hook --------------------------------------------------
    def luminance_map(self, i: int) -> np.ndarray:
        """Normalized (H, W) luminance of local frame ``i``."""
        raise NotImplementedError

    # -- public API -----------------------------------------------------
    def render(self, i: int) -> Frame:
        """Render local frame ``i`` (0-based within the scene)."""
        if not 0 <= i < self.duration:
            raise IndexError(f"scene frame {i} out of range [0, {self.duration})")
        return _tint(self.luminance_map(i), self._gains)


class DarkScene(SceneGenerator):
    """A dark scene with a few bright, sparse highlights.

    This is the workload the technique wins on: the maximum luminance is set
    by a handful of spot pixels, so clipping even a tiny fraction of pixels
    collapses the effective dynamic range and lets the backlight dim deeply.

    Parameters
    ----------
    background:
        Luminance of the dark body of the image.
    highlight:
        Peak luminance of the bright spots.
    n_spots:
        Number of highlight blobs.
    spot_sigma:
        Gaussian radius of each blob (in normalized image units).
    drift:
        How far spots wander over the scene (normalized units).
    """

    def __init__(
        self,
        duration: int,
        background: float = 0.18,
        highlight: float = 0.92,
        n_spots: int = 4,
        spot_sigma: float = 0.07,
        glow_level: float = 0.42,
        glow_sigma: float = 0.22,
        drift: float = 0.1,
        **kwargs,
    ):
        super().__init__(duration, **kwargs)
        self.background = background
        self.highlight = highlight
        self.spot_sigma = spot_sigma
        self.glow_level = glow_level
        self.glow_sigma = glow_sigma
        self.drift = drift
        self.centers = self.rng.uniform(0.15, 0.85, size=(n_spots, 2))
        self.velocities = self.rng.uniform(-1.0, 1.0, size=(n_spots, 2))
        self.glow_center = self.rng.uniform(0.3, 0.7, size=2)
        # Static low-contrast texture so the dark body is not a flat field.
        self.texture = self.rng.uniform(-0.04, 0.04, size=(self.height, self.width))
        # The frame-independent body: background, texture and glow, summed
        # once in the order a frame would sum them.  A broad dim glow fills
        # the mid-tones (street light, moonlit fog): its gradual falloff is
        # what makes the luminance quantiles drop smoothly as the clipping
        # budget grows.
        xs, ys = self._grid
        body = np.full((self.height, self.width), background)
        body += self.texture
        gx, gy = self.glow_center
        gd2 = (xs - gx) ** 2 + (ys - gy) ** 2
        body += (glow_level - background) * np.exp(-gd2 / (2 * glow_sigma**2))
        self._body = body
        # Every row of xs (column of ys) is the same linspace.
        self._x, self._y = xs[0], ys[:, 0]

    def luminance_map(self, i: int) -> np.ndarray:
        angle = 2 * math.pi * (i / max(self.duration - 1, 1))
        swing = self.drift * self.velocities
        cx = self.centers[:, 0] + swing[:, 0] * math.sin(angle)
        cy = self.centers[:, 1] + swing[:, 1] * math.cos(angle)
        # All spots at once, (n_spots, H, W).  -(dx^2 + dy^2) is summed as
        # (-dy^2) + (-dx^2): negation is exact.
        spots = np.add(-((self._y - cy[:, None]) ** 2)[:, :, None],
                       -((self._x - cx[:, None]) ** 2)[:, None, :])
        spots /= 2 * self.spot_sigma**2
        np.exp(spots, out=spots)
        spots *= self.highlight - self.background
        # One spot at a time, in spot order: float addition is not associative.
        lum = self._body.copy()
        for spot in spots:
            lum += spot
        return np.clip(lum, 0.0, self.highlight, out=lum)


class BrightScene(SceneGenerator):
    """A bright scene (snow field, daylight, white UI) — the adverse case.

    Pixels are concentrated in the high-luminance range, so clipping a small
    percentage barely lowers the effective maximum and the backlight cannot
    dim without visible degradation (the paper's ``ice_age`` and
    ``hunter_subres`` behaviour).
    """

    def __init__(
        self,
        duration: int,
        background: float = 0.85,
        variation: float = 0.1,
        **kwargs,
    ):
        super().__init__(duration, **kwargs)
        self.background = background
        self.variation = variation
        self.texture = self.rng.uniform(-1.0, 1.0, size=(self.height, self.width))
        # The frame-independent part of every frame's sum.
        self._body = background + variation * self.texture

    def luminance_map(self, i: int) -> np.ndarray:
        phase = i / max(self.duration - 1, 1)
        shimmer = 0.5 * self.variation * math.sin(2 * math.pi * 2 * phase)
        lum = self._body + shimmer
        return np.clip(lum, 0.0, 1.0, out=lum)


class GradientScene(SceneGenerator):
    """A slowly panning luminance ramp between two levels."""

    def __init__(
        self,
        duration: int,
        low: float = 0.05,
        high: float = 0.7,
        horizontal: bool = True,
        **kwargs,
    ):
        super().__init__(duration, **kwargs)
        self.low = low
        self.high = high
        self.horizontal = horizontal

    def luminance_map(self, i: int) -> np.ndarray:
        xs, ys = self._grid
        ramp = xs if self.horizontal else ys
        phase = i / max(self.duration - 1, 1)
        shifted = np.mod(ramp + 0.25 * phase, 1.0)
        return self.low + (self.high - self.low) * shifted


class FadeScene(SceneGenerator):
    """A fade between two luminance levels (scene transition material).

    Fades stress the scene detector: max luminance moves continuously, so
    the 10 % change threshold fires repeatedly and the rate limiter must
    suppress flicker.
    """

    def __init__(
        self,
        duration: int,
        start_level: float = 0.05,
        end_level: float = 0.8,
        **kwargs,
    ):
        super().__init__(duration, **kwargs)
        self.start_level = start_level
        self.end_level = end_level
        self.texture = self.rng.uniform(-0.02, 0.02, size=(self.height, self.width))

    def luminance_map(self, i: int) -> np.ndarray:
        phase = i / max(self.duration - 1, 1)
        level = self.start_level + (self.end_level - self.start_level) * phase
        return np.clip(level + self.texture, 0.0, 1.0)


class CreditsScene(SceneGenerator):
    """Scrolling end credits: bright text rows on a uniform dark background.

    The paper singles credits out as the failure mode of the fixed-percent
    clipping heuristic ("it may distort the text if too many pixels are
    clipped and the background is uniform") — text pixels are numerous enough
    that the clip budget eats into them.
    """

    def __init__(
        self,
        duration: int,
        background: float = 0.02,
        text_luminance: float = 0.9,
        row_height: int = 3,
        row_gap: int = 5,
        text_fill: float = 0.6,
        scroll_rows_per_frame: float = 0.25,
        **kwargs,
    ):
        super().__init__(duration, **kwargs)
        self.background = background
        self.text_luminance = text_luminance
        self.scroll = scroll_rows_per_frame
        period = row_height + row_gap
        # Pre-render one tall page of "text" and scroll a window over it.
        page_height = self.height + int(math.ceil(duration * scroll_rows_per_frame)) + period
        page = np.full((page_height, self.width), background)
        for top in range(0, page_height - row_height, period):
            mask = self.rng.random(self.width) < text_fill
            for dy in range(row_height):
                page[top + dy, mask] = text_luminance
        self.page = page

    def luminance_map(self, i: int) -> np.ndarray:
        offset = int(i * self.scroll)
        return self.page[offset : offset + self.height, :].copy()


class ActionScene(SceneGenerator):
    """Textured motion with bounded max-luminance jitter.

    Simulates mid-brightness action footage: a band-limited texture advected
    horizontally, with the peak luminance jittering frame-to-frame inside
    ``jitter`` — small enough not to trip the 10 % scene threshold unless
    asked to.
    """

    def __init__(
        self,
        duration: int,
        base: float = 0.3,
        peak: float = 0.75,
        jitter: float = 0.04,
        speed: float = 2.0,
        **kwargs,
    ):
        super().__init__(duration, **kwargs)
        self.base = base
        self.peak = peak
        self.jitter = jitter
        self.speed = speed
        # Band-limited texture built from a few random sinusoids.
        xs, ys = self._grid
        texture = np.zeros((self.height, self.width))
        for _ in range(6):
            fx = self.rng.uniform(1.0, 6.0)
            fy = self.rng.uniform(1.0, 6.0)
            ph = self.rng.uniform(0, 2 * math.pi)
            texture += np.sin(2 * math.pi * (fx * xs + fy * ys) + ph)
        texture -= texture.min()
        texture /= texture.max()
        self.texture = texture
        self.jitter_seq = self.rng.uniform(-1.0, 1.0, size=duration)

    def luminance_map(self, i: int) -> np.ndarray:
        shift = int(i * self.speed) % self.width
        moved = np.roll(self.texture, shift, axis=1)
        peak = self.peak + self.jitter * self.jitter_seq[i]
        peak = min(max(peak, self.base + 0.05), 1.0)
        return self.base + (peak - self.base) * moved


class FlashScene(SceneGenerator):
    """A dark scene punctuated by brief full-screen flashes (explosions).

    Flash frames spike the max luminance to ~1.0 for ``flash_len`` frames;
    scene-grouped backlight control must either split a scene or accept
    clipping, which makes this the stress input for threshold ablations.
    """

    def __init__(
        self,
        duration: int,
        background: float = 0.15,
        flash_level: float = 0.98,
        flash_every: int = 40,
        flash_len: int = 2,
        **kwargs,
    ):
        super().__init__(duration, **kwargs)
        self.background = background
        self.flash_level = flash_level
        self.flash_every = flash_every
        self.flash_len = flash_len
        self.texture = self.rng.uniform(-0.04, 0.04, size=(self.height, self.width))

    def luminance_map(self, i: int) -> np.ndarray:
        in_flash = self.flash_every > 0 and (i % self.flash_every) < self.flash_len
        level = self.flash_level if in_flash else self.background
        return np.clip(level + self.texture, 0.0, 1.0)


@dataclass
class SceneSpec:
    """Declarative description of one scene inside a scripted clip."""

    kind: str
    duration: int
    params: dict = field(default_factory=dict)
    tint: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    GENERATORS = {
        "dark": DarkScene,
        "bright": BrightScene,
        "gradient": GradientScene,
        "fade": FadeScene,
        "credits": CreditsScene,
        "action": ActionScene,
        "flash": FlashScene,
    }

    def build(
        self, resolution: Tuple[int, int], seed: int
    ) -> SceneGenerator:
        """Instantiate the generator for this spec."""
        try:
            cls = self.GENERATORS[self.kind]
        except KeyError:
            raise ValueError(
                f"unknown scene kind {self.kind!r}; expected one of "
                f"{sorted(self.GENERATORS)}"
            ) from None
        return cls(
            self.duration,
            resolution=resolution,
            tint=self.tint,
            seed=seed,
            **self.params,
        )


class ScriptedClipFactory:
    """Frame factory for a clip assembled from :class:`SceneSpec` entries.

    Used as the ``factory`` argument of :class:`~repro.video.clip.LazyClip`.
    Also records the ground-truth scene boundaries, which the scene-detector
    tests compare against.

    ``letterbox_fraction`` blacks out that fraction of rows at the top and
    bottom of every frame (widescreen content on a 4:3 panel) — the
    classic don't-care region for ROI-weighted annotation.
    """

    def __init__(
        self,
        scenes: Sequence[SceneSpec],
        resolution: Tuple[int, int] = DEFAULT_RESOLUTION,
        seed: int = 0,
        letterbox_fraction: float = 0.0,
    ):
        if not scenes:
            raise ValueError("a scripted clip needs at least one scene")
        if not 0.0 <= letterbox_fraction < 0.5:
            raise ValueError("letterbox_fraction must be in [0, 0.5)")
        self.resolution = resolution
        self.letterbox_rows = int(round(resolution[1] * letterbox_fraction))
        self.generators = [
            spec.build(resolution, seed=seed * 1000 + k) for k, spec in enumerate(scenes)
        ]
        starts = [0]
        for gen in self.generators:
            starts.append(starts[-1] + gen.duration)
        #: Frame index at which each scene starts; final entry == frame_count.
        self.scene_starts = starts
        self.frame_count = starts[-1]

    def scene_of(self, index: int) -> int:
        """Ground-truth scene id containing frame ``index``."""
        if not 0 <= index < self.frame_count:
            raise IndexError(f"frame {index} out of range [0, {self.frame_count})")
        return bisect.bisect_right(self.scene_starts, index) - 1

    def __call__(self, index: int) -> Frame:
        scene = self.scene_of(index)
        local = index - self.scene_starts[scene]
        frame = self.generators[scene].render(local)
        if self.letterbox_rows:
            pixels = frame.pixels
            pixels[: self.letterbox_rows, :, :] = 0
            pixels[-self.letterbox_rows :, :, :] = 0
        return frame
