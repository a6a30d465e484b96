"""Unit tests for repro.video.frame."""

import numpy as np
import pytest

from repro.video import Frame, LUMA_COEFFS, luminance_to_gray_rgb, rgb_to_luminance


class TestRgbToLuminance:
    def test_white_is_one(self):
        white = np.full((2, 2, 3), 255, dtype=np.uint8)
        assert rgb_to_luminance(white) == pytest.approx(np.ones((2, 2)))

    def test_black_is_zero(self):
        black = np.zeros((2, 2, 3), dtype=np.uint8)
        assert rgb_to_luminance(black) == pytest.approx(np.zeros((2, 2)))

    def test_coefficients_sum_to_one(self):
        assert sum(LUMA_COEFFS) == pytest.approx(1.0)

    def test_pure_channels_match_coefficients(self):
        for channel, coeff in enumerate(LUMA_COEFFS):
            rgb = np.zeros((1, 1, 3), dtype=np.uint8)
            rgb[0, 0, channel] = 255
            assert rgb_to_luminance(rgb)[0, 0] == pytest.approx(coeff)

    def test_float_input_taken_as_normalized(self):
        rgb = np.full((1, 1, 3), 0.5)
        assert rgb_to_luminance(rgb)[0, 0] == pytest.approx(0.5)

    def test_rejects_wrong_trailing_axis(self):
        with pytest.raises(ValueError, match="trailing RGB axis"):
            rgb_to_luminance(np.zeros((2, 2, 4)))

    def test_gray_equals_channel_value(self):
        rgb = np.full((3, 3, 3), 100, dtype=np.uint8)
        assert rgb_to_luminance(rgb) == pytest.approx(np.full((3, 3), 100 / 255))


class TestLuminanceToGrayRgb:
    def test_round_trip(self):
        lum = np.linspace(0, 1, 16).reshape(4, 4)
        rgb = luminance_to_gray_rgb(lum)
        back = rgb_to_luminance(rgb)
        assert np.max(np.abs(back - lum)) < 1 / 255

    def test_clips_out_of_range(self):
        rgb = luminance_to_gray_rgb(np.array([[-0.5, 1.5]]))
        assert rgb[0, 0, 0] == 0
        assert rgb[0, 1, 0] == 255

    def test_channels_equal(self):
        rgb = luminance_to_gray_rgb(np.array([[0.3]]))
        assert rgb[0, 0, 0] == rgb[0, 0, 1] == rgb[0, 0, 2]


class TestFrameConstruction:
    def test_uint8_kept_verbatim(self):
        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        frame = Frame(pixels)
        assert np.array_equal(frame.pixels, pixels)

    def test_float_input_quantized(self):
        frame = Frame(np.full((2, 2, 3), 0.5))
        assert frame.pixels.dtype == np.uint8
        assert frame.pixels[0, 0, 0] == 128  # round(0.5 * 255)

    def test_float_input_clipped(self):
        frame = Frame(np.full((1, 1, 3), 2.0))
        assert frame.pixels[0, 0, 0] == 255

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            Frame(np.zeros((4, 4)))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_int_input_converted_and_clipped(self):
        frame = Frame(np.full((1, 1, 3), 300, dtype=np.int32))
        assert frame.pixels.dtype == np.uint8
        assert frame.pixels[0, 0, 0] == 255


class TestFrameFactories:
    def test_solid_color(self):
        frame = Frame.solid(4, 6, (10, 20, 30))
        assert frame.resolution == (6, 4)
        assert frame.pixels[2, 3, 0] == 10
        assert frame.pixels[2, 3, 1] == 20
        assert frame.pixels[2, 3, 2] == 30

    def test_solid_gray(self):
        frame = Frame.solid_gray(3, 3, 77)
        assert np.all(frame.pixels == 77)

    def test_from_luminance(self):
        lum = np.array([[0.0, 1.0]])
        frame = Frame.from_luminance(lum)
        assert frame.max_luminance == pytest.approx(1.0)
        assert frame.luminance[0, 0] == pytest.approx(0.0)


class TestFrameStatistics:
    def test_max_luminance(self):
        lum = np.array([[0.1, 0.9], [0.2, 0.3]])
        frame = Frame.from_luminance(lum)
        assert frame.max_luminance == pytest.approx(0.9, abs=1 / 255)

    def test_mean_luminance(self):
        frame = Frame.solid_gray(4, 4, 51)
        assert frame.mean_luminance == pytest.approx(0.2)

    def test_luminance_cached(self):
        frame = Frame.solid_gray(2, 2, 100)
        assert frame.luminance is frame.luminance

    def test_luminance_percentile_bounds(self):
        frame = Frame.solid_gray(4, 4, 100)
        assert frame.luminance_percentile(0.0) == frame.luminance_percentile(1.0)

    def test_luminance_percentile_invalid(self):
        frame = Frame.solid_gray(2, 2, 0)
        with pytest.raises(ValueError):
            frame.luminance_percentile(1.5)

    def test_percentile_on_ramp(self, gray_ramp_frame):
        p95 = gray_ramp_frame.luminance_percentile(0.95)
        assert 0.92 <= p95 <= 0.97


class TestPeakChannel:
    def test_gray_peak_equals_luminance(self):
        frame = Frame.solid_gray(3, 3, 100)
        assert frame.peak_channel == pytest.approx(frame.luminance)

    def test_saturated_color_peak_above_luminance(self):
        frame = Frame.solid(2, 2, (0, 0, 255))  # pure blue
        assert frame.max_peak_channel == pytest.approx(1.0)
        assert frame.max_luminance == pytest.approx(0.114)

    def test_peak_channel_cached(self):
        frame = Frame.solid_gray(2, 2, 10)
        assert frame.peak_channel is frame.peak_channel

    def test_peak_dominates_luminance_everywhere(self, dark_frame):
        assert np.all(dark_frame.peak_channel >= dark_frame.luminance - 1e-12)


class TestFrameDunder:
    def test_copy_is_independent(self):
        frame = Frame.solid_gray(2, 2, 10, index=5)
        dup = frame.copy()
        dup.pixels[0, 0, 0] = 99
        assert frame.pixels[0, 0, 0] == 10
        assert dup.index == 5

    def test_equality_by_pixels(self):
        a = Frame.solid_gray(2, 2, 10, index=0)
        b = Frame.solid_gray(2, 2, 10, index=7)
        assert a == b  # index does not participate

    def test_inequality(self):
        assert Frame.solid_gray(2, 2, 10) != Frame.solid_gray(2, 2, 11)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Frame.solid_gray(2, 2, 0))

    def test_repr_mentions_size(self):
        assert "4x2" in repr(Frame.solid_gray(2, 4, 0))

    def test_repr_never_touches_luminance(self, monkeypatch):
        frame = Frame.solid_gray(2, 4, 0, index=3)

        def boom(self):
            raise AssertionError("repr computed luminance")

        monkeypatch.setattr(Frame, "luminance", property(boom))
        assert repr(frame) == "Frame(index=3, 4x2)"
        assert frame._luminance is None

    def test_normalized_range(self, dark_frame):
        values = dark_frame.normalized()
        assert values.min() >= 0.0 and values.max() <= 1.0
