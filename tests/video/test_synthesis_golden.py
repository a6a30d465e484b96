"""Golden bytes of the clip library's synthesized frames.

The scene generators are the server's decoder stand-in, so every byte
they produce reaches annotation, compensation and the wire.  Generator
speed-ups must keep each pixel's float operations and their order; this
module pins the result.  ``GOLDEN`` holds the frame count and CRC-32 of
every library title's frames, at each duration scale and resolution,
as rendered before any generator was optimized.  A generator edit that
moves one byte fails here.

The ``_tint`` oracle checks the per-channel colorizer against the
broadcast formula it replaced, including gains outside [0, 1] where the
saturating clip must stay.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.video import EXTENDED_CLIP_NAMES, PAPER_CLIP_NAMES, Frame, make_clip
from repro.video.synthesis import _tint, _tint_gains

#: title -> {((width, height), duration_scale): (frame_count, crc32)}.
GOLDEN = {
    "themovie": {
        ((96, 72), 1.0): (360, 0xe59647bb),
        ((96, 72), 0.5): (180, 0xedfaa769),
        ((96, 72), 0.15): (56, 0xddd7755f),
        ((80, 60), 1.0): (360, 0x6658b5bd),
        ((80, 60), 0.5): (180, 0x164b753f),
        ((80, 60), 0.15): (56, 0xf4002f47),
    },
    "catwoman": {
        ((96, 72), 1.0): (360, 0x92bd9447),
        ((96, 72), 0.5): (180, 0x20884f96),
        ((96, 72), 0.15): (54, 0x1638117a),
        ((80, 60), 1.0): (360, 0x22113abb),
        ((80, 60), 0.5): (180, 0xcaf4b8f1),
        ((80, 60), 0.15): (54, 0x50acd53b),
    },
    "hunter_subres": {
        ((96, 72), 1.0): (300, 0xc8384a85),
        ((96, 72), 0.5): (150, 0xe8842c7d),
        ((96, 72), 0.15): (45, 0xafca27f3),
        ((80, 60), 1.0): (300, 0x3591fe3a),
        ((80, 60), 0.5): (150, 0x64fd720a),
        ((80, 60), 0.15): (45, 0x1677c49e),
    },
    "i_robot": {
        ((96, 72), 1.0): (320, 0x4975b17e),
        ((96, 72), 0.5): (160, 0x24566404),
        ((96, 72), 0.15): (49, 0xe5fd7d7b),
        ((80, 60), 1.0): (320, 0x7576af90),
        ((80, 60), 0.5): (160, 0xf7b3213f),
        ((80, 60), 0.15): (49, 0x4d68b31d),
    },
    "ice_age": {
        ((96, 72), 1.0): (360, 0x4efdfc11),
        ((96, 72), 0.5): (180, 0x6f075525),
        ((96, 72), 0.15): (54, 0x86330f88),
        ((80, 60), 1.0): (360, 0x78258be9),
        ((80, 60), 0.5): (180, 0xf6a85eef),
        ((80, 60), 0.15): (54, 0x877e78a5),
    },
    "officexp": {
        ((96, 72), 1.0): (300, 0x90081638),
        ((96, 72), 0.5): (150, 0x93bf3072),
        ((96, 72), 0.15): (47, 0x82f7933b),
        ((80, 60), 1.0): (300, 0xe96d5e30),
        ((80, 60), 0.5): (150, 0x382bca6f),
        ((80, 60), 0.15): (47, 0x49590c0f),
    },
    "returnoftheking": {
        ((96, 72), 1.0): (340, 0x75387228),
        ((96, 72), 0.5): (170, 0x67e6f0e8),
        ((96, 72), 0.15): (52, 0x67d79cbe),
        ((80, 60), 1.0): (340, 0x6fd23b26),
        ((80, 60), 0.5): (170, 0x9743309d),
        ((80, 60), 0.15): (52, 0x08e787c8),
    },
    "shrek2": {
        ((96, 72), 1.0): (300, 0x2ee1b05d),
        ((96, 72), 0.5): (150, 0x19c6795a),
        ((96, 72), 0.15): (46, 0x2fcde254),
        ((80, 60), 1.0): (300, 0x726f3548),
        ((80, 60), 0.5): (150, 0x797e9c50),
        ((80, 60), 0.15): (46, 0x6a30e6fb),
    },
    "spiderman2": {
        ((96, 72), 1.0): (320, 0xcc8c66e1),
        ((96, 72), 0.5): (160, 0xa8a6dee9),
        ((96, 72), 0.15): (49, 0x547bbbef),
        ((80, 60), 1.0): (320, 0x00448fb3),
        ((80, 60), 0.5): (160, 0x55b6ffd2),
        ((80, 60), 0.15): (49, 0x1bb0b080),
    },
    "theincredibles-tlr2": {
        ((96, 72), 1.0): (300, 0xfa523d9f),
        ((96, 72), 0.5): (150, 0x2aa92662),
        ((96, 72), 0.15): (46, 0x6316796f),
        ((80, 60), 1.0): (300, 0xce82a9a8),
        ((80, 60), 0.5): (150, 0xbe78200e),
        ((80, 60), 0.15): (46, 0x736f002b),
    },
    "sports_highlights": {
        ((96, 72), 1.0): (270, 0x8b0e2b22),
        ((96, 72), 0.5): (135, 0x2c7e5fe9),
        ((96, 72), 0.15): (41, 0xb289f28b),
        ((80, 60), 1.0): (270, 0x5b23414e),
        ((80, 60), 0.5): (135, 0xb0500cb0),
        ((80, 60), 0.15): (41, 0x24f9961d),
    },
    "concert_strobe": {
        ((96, 72), 1.0): (260, 0x807878e5),
        ((96, 72), 0.5): (130, 0x1a63196e),
        ((96, 72), 0.15): (39, 0x7e1dfa97),
        ((80, 60), 1.0): (260, 0x8e59fd28),
        ((80, 60), 0.5): (130, 0xd4f90de4),
        ((80, 60), 0.15): (39, 0x24659c8a),
    },
    "noir_documentary": {
        ((96, 72), 1.0): (380, 0x715d3c20),
        ((96, 72), 0.5): (190, 0xc7dd32c4),
        ((96, 72), 0.15): (58, 0x979f51be),
        ((80, 60), 1.0): (380, 0x4f8ac365),
        ((80, 60), 0.5): (190, 0xcba20309),
        ((80, 60), 0.15): (58, 0x5339062b),
    },
    "widescreen_letterbox": {
        ((96, 72), 1.0): (250, 0xa416c395),
        ((96, 72), 0.5): (125, 0x3fbaf685),
        ((96, 72), 0.15): (39, 0x8b911bdb),
        ((80, 60), 1.0): (250, 0x8a11890e),
        ((80, 60), 0.5): (125, 0xe3c06ad2),
        ((80, 60), 0.15): (39, 0x2c3eddd8),
    },
}

CASES = [
    (name, resolution, scale)
    for name in PAPER_CLIP_NAMES + EXTENDED_CLIP_NAMES
    for resolution, scale in GOLDEN[name]
]


def test_golden_table_covers_the_library():
    assert sorted(GOLDEN) == sorted(PAPER_CLIP_NAMES + EXTENDED_CLIP_NAMES)
    assert len(CASES) == 14 * 2 * 3


@pytest.mark.parametrize(
    "name,resolution,scale", CASES,
    ids=[f"{n}-{w}x{h}-{s}" for n, (w, h), s in CASES],
)
def test_synthesized_bytes_match_golden(name, resolution, scale):
    frame_count, crc = GOLDEN[name][(resolution, scale)]
    clip = make_clip(name, resolution=resolution, duration_scale=scale)
    assert clip.frame_count == frame_count

    via_chunks = 0
    for chunk in clip.iter_chunks():
        via_chunks = zlib.crc32(np.ascontiguousarray(chunk.pixels).tobytes(),
                                via_chunks)
    assert via_chunks == crc

    # Random access, back to front: a frame's bytes must not depend on
    # which frames the generators rendered before it.
    frames = [clip.frame(i).pixels.tobytes()
              for i in reversed(range(frame_count))]
    via_frames = 0
    for data in reversed(frames):
        via_frames = zlib.crc32(data, via_frames)
    assert via_frames == crc


def _broadcast_tint(lum, gains):
    """The colorizer before the per-channel rewrite, kept as the oracle."""
    return Frame(np.clip(lum, 0.0, 1.0)[..., None] * np.array(gains))


_LUMINANCE = arrays(
    np.float64,
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    elements=st.floats(-0.5, 1.5, allow_nan=False),
)
#: Equal, pairwise-equal and distinct gains; negative and > 1 gains keep
#: the saturating clip.
_GAIN = st.sampled_from([0.0, 0.5, 1.0, -0.25, 1.75]) | st.floats(-1.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(lum=_LUMINANCE, gains=st.tuples(_GAIN, _GAIN, _GAIN))
def test_tint_matches_broadcast_oracle(lum, gains):
    assert np.array_equal(_tint(lum, gains).pixels, _broadcast_tint(lum, gains).pixels)


@settings(max_examples=200, deadline=None)
@given(
    lum=_LUMINANCE,
    tint=st.tuples(st.floats(-1.0, 3.0), st.floats(-1.0, 3.0), st.floats(-1.0, 3.0)),
)
def test_tint_of_normalized_gains_matches_oracle(lum, tint):
    try:
        gains = _tint_gains(tint)
    except ValueError:
        return  # non-positive luminance weight: rejected, nothing to render
    assert np.array_equal(_tint(lum, gains).pixels, _broadcast_tint(lum, gains).pixels)


def test_tint_gains_reach_each_colorizer_branch():
    assert _tint_gains((1.0, 1.0, 1.0)) == (1.0, 1.0, 1.0)
    cool = _tint_gains((0.8, 0.8, 1.2))
    assert cool[0] == cool[1] != cool[2]
    assert not all(0.0 <= g <= 1.0 for g in _tint_gains((1.0, 1.0, -0.5)))
