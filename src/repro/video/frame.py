"""Frame: the fundamental image unit of a video stream.

A :class:`Frame` wraps an ``(H, W, 3)`` ``uint8`` RGB array and exposes the
luminance math used throughout the paper: the per-pixel luminance

    Y = r*R + g*G + b*B

with the ITU-R BT.601 constants ``r=0.299, g=0.587, b=0.114`` (the "known
constants" of Section 4.1).  Luminance is reported normalized to ``[0, 1]``
so that it can be plugged directly into the perceived-intensity formula
``I = rho * L * Y``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: ITU-R BT.601 luma coefficients (the paper's ``r, g, b`` constants).
LUMA_COEFFS: Tuple[float, float, float] = (0.299, 0.587, 0.114)

#: Maximum representable channel value ("pixel values for most LCDs are in
#: the range 0-255", Section 4.1).
MAX_CHANNEL = 255


def rgb_to_luminance(rgb: np.ndarray) -> np.ndarray:
    """Convert an ``(..., 3)`` uint8/float RGB array to normalized luminance.

    Parameters
    ----------
    rgb:
        Array whose last axis holds R, G, B.  ``uint8`` arrays are assumed
        to span ``0..255``; float arrays are assumed already normalized.

    Returns
    -------
    numpy.ndarray
        Luminance in ``[0, 1]`` with the last axis dropped.
    """
    arr = np.asarray(rgb)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected trailing RGB axis of size 3, got shape {arr.shape}")
    values = arr.astype(np.float64)
    if np.issubdtype(arr.dtype, np.integer):
        values = values / MAX_CHANNEL
    r, g, b = LUMA_COEFFS
    return r * values[..., 0] + g * values[..., 1] + b * values[..., 2]


def luminance_to_gray_rgb(luminance: np.ndarray) -> np.ndarray:
    """Expand a normalized luminance map into a gray uint8 RGB image."""
    lum = np.clip(np.asarray(luminance, dtype=np.float64), 0.0, 1.0)
    channel = np.round(lum * MAX_CHANNEL).astype(np.uint8)
    return np.stack([channel, channel, channel], axis=-1)


class Frame:
    """A single RGB video frame.

    Parameters
    ----------
    pixels:
        ``(H, W, 3)`` array.  ``uint8`` input is used as-is; float input in
        ``[0, 1]`` is quantized to ``uint8``.
    index:
        Optional position of the frame within its clip.
    """

    __slots__ = ("pixels", "index", "_luminance", "_peak_channel")

    def __init__(self, pixels: np.ndarray, index: int = 0):
        arr = np.asarray(pixels)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"frame pixels must be (H, W, 3), got {arr.shape}")
        if np.issubdtype(arr.dtype, np.floating):
            arr = np.round(np.clip(arr, 0.0, 1.0) * MAX_CHANNEL).astype(np.uint8)
        elif arr.dtype != np.uint8:
            arr = np.clip(arr, 0, MAX_CHANNEL).astype(np.uint8)
        self.pixels = arr
        self.index = int(index)
        self._luminance: np.ndarray | None = None
        self._peak_channel: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def solid(cls, height: int, width: int, rgb: Tuple[int, int, int], index: int = 0) -> "Frame":
        """Create a frame filled with a single RGB color."""
        pixels = np.empty((height, width, 3), dtype=np.uint8)
        pixels[..., 0] = rgb[0]
        pixels[..., 1] = rgb[1]
        pixels[..., 2] = rgb[2]
        return cls(pixels, index=index)

    @classmethod
    def solid_gray(cls, height: int, width: int, level: int, index: int = 0) -> "Frame":
        """Create a uniform gray frame (the calibration pattern of Section 5)."""
        return cls.solid(height, width, (level, level, level), index=index)

    @classmethod
    def from_luminance(cls, luminance: np.ndarray, index: int = 0) -> "Frame":
        """Create a gray frame whose luminance map matches ``luminance``."""
        return cls(luminance_to_gray_rgb(luminance), index=index)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def resolution(self) -> Tuple[int, int]:
        """``(width, height)`` of the frame."""
        return (self.width, self.height)

    @property
    def pixel_count(self) -> int:
        return self.height * self.width

    # ------------------------------------------------------------------
    # Luminance statistics
    # ------------------------------------------------------------------
    @property
    def luminance(self) -> np.ndarray:
        """Normalized per-pixel luminance ``Y`` in ``[0, 1]`` (cached)."""
        if self._luminance is None:
            self._luminance = rgb_to_luminance(self.pixels)
        return self._luminance

    @property
    def max_luminance(self) -> float:
        """The frame's maximum luminance (drives scene detection)."""
        return float(self.luminance.max())

    @property
    def mean_luminance(self) -> float:
        return float(self.luminance.mean())

    @property
    def peak_channel(self) -> np.ndarray:
        """Per-pixel maximum normalized RGB channel value (cached).

        Multiplicative compensation saturates a pixel as soon as its
        *largest channel* reaches 1.0 — for saturated colors well before
        the luminance does — so clipping budgets are enforced on this map,
        not on luminance.  Equal to luminance for gray content.
        """
        if self._peak_channel is None:
            self._peak_channel = self.pixels.max(axis=-1).astype(np.float64) / MAX_CHANNEL
        return self._peak_channel

    @property
    def max_peak_channel(self) -> float:
        """The frame's largest channel value anywhere."""
        return float(self.peak_channel.max())

    def luminance_percentile(self, fraction: float) -> float:
        """Luminance below which ``fraction`` of the pixels fall.

        ``luminance_percentile(0.95)`` is the effective maximum luminance
        when the brightest 5 % of pixels are allowed to clip (Section 4.3's
        fixed-percent heuristic).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return float(np.quantile(self.luminance, fraction))

    def normalized(self) -> np.ndarray:
        """Return the pixels as float RGB in ``[0, 1]``."""
        return self.pixels.astype(np.float64) / MAX_CHANNEL

    # ------------------------------------------------------------------
    # Dunder support
    # ------------------------------------------------------------------
    def copy(self) -> "Frame":
        """Deep-copy the frame (pixels included)."""
        return Frame(self.pixels.copy(), index=self.index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __hash__(self):  # Frames are mutable arrays; keep them unhashable.
        raise TypeError("Frame objects are not hashable")

    def __repr__(self) -> str:
        # O(1): no pixel statistics, so reprs of many frames stay cheap.
        return f"Frame(index={self.index}, {self.width}x{self.height})"
