"""Unit tests for repro.video.synthesis."""

import numpy as np
import pytest

from repro.video.synthesis import (
    ActionScene,
    BrightScene,
    CreditsScene,
    DarkScene,
    FadeScene,
    FlashScene,
    GradientScene,
    SceneSpec,
    ScriptedClipFactory,
    _tint,
    _tint_gains,
)

RES = (32, 24)


class TestTint:
    def test_neutral_tint_preserves_luminance(self):
        lum = np.linspace(0, 1, 12).reshape(3, 4)
        frame = _tint(lum, _tint_gains((1.0, 1.0, 1.0)))
        assert frame.luminance == pytest.approx(lum, abs=2 / 255)

    def test_color_tint_never_exceeds_unity_channels(self):
        lum = np.ones((2, 2))
        frame = _tint(lum, _tint_gains((0.8, 0.8, 1.2)))
        assert frame.pixels.max() <= 255

    def test_tint_scales_luminance_down_at_most(self):
        lum = np.full((2, 2), 0.5)
        frame = _tint(lum, _tint_gains((0.5, 0.5, 2.0)))
        # Peak-normalized gains can only dim, never brighten.
        assert frame.max_luminance <= 0.5 + 1 / 255

    def test_invalid_tint_rejected(self):
        with pytest.raises(ValueError):
            _tint_gains((0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            DarkScene(duration=4, resolution=RES, tint=(0.0, 0.0, 0.0))


class TestSceneGeneratorBasics:
    def test_render_range_checked(self):
        gen = DarkScene(duration=5, resolution=RES)
        with pytest.raises(IndexError):
            gen.render(5)
        with pytest.raises(IndexError):
            gen.render(-1)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            DarkScene(duration=0, resolution=RES)

    def test_determinism_across_instances(self):
        a = DarkScene(duration=8, resolution=RES, seed=5)
        b = DarkScene(duration=8, resolution=RES, seed=5)
        assert a.render(3) == b.render(3)

    def test_different_seeds_differ(self):
        a = DarkScene(duration=4, resolution=RES, seed=1)
        b = DarkScene(duration=4, resolution=RES, seed=2)
        assert a.render(0) != b.render(0)

    def test_resolution_respected(self):
        gen = BrightScene(duration=2, resolution=(20, 10))
        frame = gen.render(0)
        assert frame.resolution == (20, 10)


class TestDarkScene:
    def test_mostly_dark(self):
        gen = DarkScene(duration=3, resolution=RES, seed=2)
        frame = gen.render(0)
        assert frame.mean_luminance < 0.45

    def test_highlights_present(self):
        gen = DarkScene(duration=3, resolution=RES, seed=2, highlight=0.9)
        frame = gen.render(0)
        assert frame.max_luminance > 0.6

    def test_sparse_bright_tail(self):
        """Most pixels sit well below the maximum (clipping wins here)."""
        gen = DarkScene(duration=3, resolution=(64, 48), seed=2)
        frame = gen.render(0)
        p80 = frame.luminance_percentile(0.80)
        assert p80 < 0.75 * frame.max_luminance

    def test_quantiles_fall_gradually(self):
        """The highlight falloff gives a graded tail: q=5% and q=20%
        clip points must be distinct (Figure 9's monotone growth)."""
        gen = DarkScene(duration=3, resolution=(64, 48), seed=2)
        frame = gen.render(0)
        assert frame.luminance_percentile(0.80) < frame.luminance_percentile(0.95) - 0.02


class TestBrightScene:
    def test_mostly_bright(self):
        gen = BrightScene(duration=3, resolution=RES, seed=4)
        frame = gen.render(1)
        assert frame.mean_luminance > 0.7

    def test_narrow_dynamic_range(self):
        gen = BrightScene(duration=3, resolution=RES, seed=4)
        frame = gen.render(0)
        assert frame.luminance_percentile(0.05) > 0.5


class TestGradientAndFade:
    def test_gradient_span(self):
        gen = GradientScene(duration=2, resolution=RES, low=0.1, high=0.8)
        frame = gen.render(0)
        assert frame.luminance.min() == pytest.approx(0.1, abs=0.05)
        assert frame.luminance.max() == pytest.approx(0.8, abs=0.05)

    def test_fade_monotone_mean(self):
        gen = FadeScene(duration=10, resolution=RES, start_level=0.1, end_level=0.8)
        means = [gen.render(i).mean_luminance for i in range(10)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_fade_endpoints(self):
        gen = FadeScene(duration=10, resolution=RES, start_level=0.1, end_level=0.8)
        assert gen.render(0).mean_luminance == pytest.approx(0.1, abs=0.05)
        assert gen.render(9).mean_luminance == pytest.approx(0.8, abs=0.05)


class TestCreditsScene:
    def test_text_rows_bright_background_dark(self):
        gen = CreditsScene(duration=10, resolution=RES, seed=3)
        frame = gen.render(0)
        assert frame.max_luminance > 0.8
        assert frame.luminance_percentile(0.3) < 0.1

    def test_substantial_text_mass(self):
        """Text covers enough pixels that a 20 % budget cannot clip it all
        (the paper's credits warning)."""
        gen = CreditsScene(duration=10, resolution=(64, 48), seed=3)
        frame = gen.render(0)
        bright = float((frame.luminance > 0.5).mean())
        assert bright > 0.1

    def test_scrolling_changes_content(self):
        gen = CreditsScene(duration=40, resolution=RES, seed=3)
        assert gen.render(0) != gen.render(30)


class TestActionScene:
    def test_jitter_bounded(self):
        gen = ActionScene(duration=20, resolution=RES, base=0.3, peak=0.7,
                          jitter=0.05, seed=6)
        maxima = [gen.render(i).max_luminance for i in range(20)]
        assert max(maxima) - min(maxima) < 0.15

    def test_motion_between_frames(self):
        gen = ActionScene(duration=10, resolution=RES, seed=6)
        assert gen.render(0) != gen.render(4)


class TestFlashScene:
    def test_flash_frames_bright(self):
        gen = FlashScene(duration=20, resolution=RES, flash_every=10,
                         flash_len=2, seed=8)
        assert gen.render(0).mean_luminance > 0.8  # frame 0 is in a flash
        assert gen.render(5).mean_luminance < 0.3

    def test_flash_period(self):
        gen = FlashScene(duration=30, resolution=RES, flash_every=10,
                         flash_len=1, seed=8)
        flash_frames = [i for i in range(30) if gen.render(i).mean_luminance > 0.5]
        assert flash_frames == [0, 10, 20]


class TestSceneSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scene kind"):
            SceneSpec("wibble", 5).build(RES, seed=0)

    def test_build_passes_params(self):
        gen = SceneSpec("dark", 5, {"background": 0.3}).build(RES, seed=0)
        assert gen.background == 0.3

    def test_all_kinds_buildable(self):
        for kind in SceneSpec.GENERATORS:
            gen = SceneSpec(kind, 5).build(RES, seed=1)
            assert gen.render(0).resolution == RES


class TestScriptedClipFactory:
    def test_scene_boundaries(self):
        factory = ScriptedClipFactory(
            [SceneSpec("dark", 5), SceneSpec("bright", 7)], resolution=RES, seed=1
        )
        assert factory.frame_count == 12
        assert factory.scene_starts == [0, 5, 12]
        assert factory.scene_of(0) == 0
        assert factory.scene_of(4) == 0
        assert factory.scene_of(5) == 1
        assert factory.scene_of(11) == 1

    def test_scene_of_out_of_range(self):
        factory = ScriptedClipFactory([SceneSpec("dark", 3)], resolution=RES, seed=1)
        with pytest.raises(IndexError):
            factory.scene_of(3)

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            ScriptedClipFactory([], resolution=RES, seed=1)

    def test_frames_change_at_boundary(self):
        factory = ScriptedClipFactory(
            [SceneSpec("dark", 5, {"background": 0.1}),
             SceneSpec("bright", 5, {"background": 0.9})],
            resolution=RES, seed=1,
        )
        assert factory(4).mean_luminance < 0.5 < factory(5).mean_luminance
