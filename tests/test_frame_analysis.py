import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jerkmeter import (
    ChromaFormat,
    FrameDiffSeries,
    FreezeEvent,
    FreezeTimeline,
    ShapeError,
    TooFewFrames,
    VideoHeader,
    VideoSequence,
    Y4MReader,
    compute_series,
    detect_scene_cuts,
    frame_diff,
)
from jerkmeter import frame_analysis
from jerkmeter.features import content_features

from conftest import frame, random_frames, y4m_bytes

luma_arrays = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    min_side=1, max_side=16))


def brute_frame_diff(a, b):
    total = 0
    h, w = a.shape
    for y in range(h):
        for x in range(w):
            d = int(b[y][x]) - int(a[y][x])
            total += d * d
    return total / (h * w)


def int64_fd(a, b):
    d = a.samples.astype(np.int64) - b.samples.astype(np.int64)
    return int((d * d).sum()) / d.size


class TestFrameDiff:
    def test_identical_frames(self):
        f = frame([[1, 2], [3, 4]])
        assert frame_diff(f, f) == 0.0

    def test_full_swing_is_exact(self):
        a = frame(np.zeros((4, 4), dtype=np.uint8))
        b = frame(np.full((4, 4), 255, dtype=np.uint8))
        assert frame_diff(a, b) == 255.0 ** 2

    def test_hand_case(self):
        a = frame([[0, 0], [0, 0]])
        b = frame([[1, 2], [3, 4]])
        assert frame_diff(a, b) == (1 + 4 + 9 + 16) / 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frame_diff(frame([[0, 0]]), frame([[0], [0]]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), arr=luma_arrays)
    def test_matches_brute_force_exactly(self, data, arr):
        other = data.draw(hnp.arrays(np.uint8, arr.shape))
        a, b = frame(arr), frame(other)
        assert frame_diff(a, b) == brute_frame_diff(arr, other)
        assert frame_diff(a, b) == frame_diff(b, a)


def direct_scene_cuts(values):
    """The scene-cut rule as stated, one np.sum per five-entry window."""
    flags = np.zeros(len(values), dtype=bool)
    for i in range(5, len(values)):
        flags[i] = values[i] > 5.0 * (float(np.sum(values[i - 5:i])) / 5.0)
    return flags


class TestSceneCuts:
    def test_equality_is_not_a_cut(self):
        values = [1, 1, 1, 1, 1, 5]
        assert not detect_scene_cuts(values)[5]

    def test_strictly_above_is_a_cut(self):
        values = [1, 1, 1, 1, 1, 5.0001]
        assert detect_scene_cuts(values)[5]

    def test_warmup_entries_never_flagged(self):
        values = [1000, 1000, 1000, 0, 0, 0, 0, 0]
        flags = detect_scene_cuts(values)
        assert not flags[:5].any()

    def test_zero_history_flags_any_positive(self):
        flags = detect_scene_cuts([0, 0, 0, 0, 0, 0.1])
        assert flags[5]

    def test_zero_over_zero_history_not_flagged(self):
        flags = detect_scene_cuts([0, 0, 0, 0, 0, 0])
        assert not flags.any()

    def test_history_is_raw_values_including_freeze_zeros(self):
        # Zeros from a freeze drag the local mean down, so a modest
        # post-freeze value can legitimately trip the rule.
        values = [10, 10, 0, 0, 0, 11]
        # mean of previous five = 20/5 = 4, threshold 20, 11 is not a cut
        assert not detect_scene_cuts(values)[5]
        values = [10, 10, 0, 0, 0, 21]
        assert detect_scene_cuts(values)[5]

    def test_window_slides(self):
        values = [1, 1, 1, 1, 1, 1, 100, 1, 1, 1]
        flags = detect_scene_cuts(values)
        assert flags[6]
        # After the spike enters the history, the local mean jumps too.
        assert not flags[7:].any()

    def test_matches_direct_rule(self):
        rng = np.random.default_rng(7)
        for length in range(41):
            values = rng.uniform(0, 1e6, size=length)
            assert np.array_equal(detect_scene_cuts(values), direct_scene_cuts(values))
        # Windows spanning twenty decades, each followed by a value one ulp
        # below, at and one ulp above its threshold: a window sum taken in
        # any other order than np.sum's flips some of these flags.
        windows = 10.0 ** rng.uniform(-3, 17, size=(2000, 5))
        thresholds = 5.0 * (np.array([float(np.sum(w)) for w in windows]) / 5.0)
        probes = (np.nextafter(thresholds, -np.inf), thresholds,
                  np.nextafter(thresholds, np.inf))
        values = np.concatenate([np.column_stack((windows, p)) for p in probes]).ravel()
        flags = detect_scene_cuts(values)
        assert np.array_equal(flags, direct_scene_cuts(values))
        assert flags[5::6].tolist() == [False] * 4000 + [True] * 2000


class TestComputeSeries:
    def test_matches_pairwise_loop(self, rng):
        frames = random_frames(rng, 9, 6, 4)
        series = compute_series(frames)
        expected = [frame_diff(frames[i], frames[i + 1]) for i in range(8)]
        assert series.values.tolist() == expected
        assert series.frame_count == 9
        assert series.transition_count == 8

    def test_iterator_input_equals_list_input(self, rng):
        frames = random_frames(rng, 7, 4, 4)
        assert compute_series(iter(frames)).values.tolist() == \
            compute_series(frames).values.tolist()

    def test_single_frame_rejected(self, rng):
        with pytest.raises(TooFewFrames):
            compute_series(random_frames(rng, 1, 4, 4))

    @pytest.mark.parametrize("width,height", [(8, 6), (5, 3), (1, 1)])
    def test_block_boundaries(self, rng, monkeypatch, width, height):
        # Four frames per block: the counts below end a block one frame
        # early, exactly, one frame late and after two full blocks.
        monkeypatch.setattr(frame_analysis, "_BLOCK_BYTES", 4 * width * height)
        header = VideoHeader(width=width, height=height, fps_num=25, fps_den=1,
                             chroma=ChromaFormat.MONO)
        for count in (2, 3, 4, 5, 9):
            frames = random_frames(rng, count, width, height)
            expected = np.array([frame_diff(frames[i], frames[i + 1])
                                 for i in range(count - 1)])
            seq = VideoSequence.from_luma(header, frames)
            sources = (iter(frames), seq, Y4MReader(io.BytesIO(y4m_bytes(seq))))
            for source in sources:
                series = compute_series(source)
                assert series.values.tobytes() == expected.tobytes()
                assert np.array_equal(series.scene_cut_flags, detect_scene_cuts(expected))

    def test_default_block_boundaries(self, rng):
        # 64x64 frames fill a 64 KiB block with 16 frames.
        frames = random_frames(rng, 33, 64, 64)
        expected = [frame_diff(frames[i], frames[i + 1]) for i in range(32)]
        assert compute_series(frames).values.tolist() == expected

    def test_strided_frames(self, rng):
        wide = random_frames(rng, 6, 8, 4)
        views = [frame(np.asarray(f.samples)[:, ::2]) for f in wide]
        copies = [frame(np.ascontiguousarray(v.samples)) for v in views]
        assert compute_series(views).values.tolist() == \
            compute_series(copies).values.tolist()
        assert frame_diff(views[0], views[1]) == frame_diff(copies[0], copies[1])

    @pytest.mark.parametrize("position", [1, 3, 4, 5])
    def test_mixed_frame_sizes_rejected(self, rng, monkeypatch, position):
        monkeypatch.setattr(frame_analysis, "_BLOCK_BYTES", 4 * 6 * 4)
        frames = random_frames(rng, 7, 6, 4)
        frames[position] = random_frames(rng, 1, 4, 6)[0]
        with pytest.raises(ShapeError):
            compute_series(frames)

    @pytest.mark.parametrize("width,height", [
        (1, 66051), (66051, 1), (1, 66052), (66052, 1), (300, 300)])
    def test_exact_at_uint32_bound(self, width, height):
        # 255**2 * 66051 is the largest sum of squares a uint32 holds: whole
        # frames, groups of rows and uint64 rows are all taken here.
        dark = frame(np.zeros((height, width), dtype=np.uint8))
        bright = frame(np.full((height, width), 255, dtype=np.uint8))
        assert compute_series([dark, bright, dark]).values.tolist() == [65025.0, 65025.0]

    @pytest.mark.parametrize("width,height", [(64, 64), (2 * 66051 + 7, 1), (1280, 720)])
    @pytest.mark.parametrize("content", ["random", "all-255"])
    def test_run_wise_sums_match_int64_reference(self, rng, width, height, content):
        # Rows longer than 66,051 pixels are summed in runs of that many,
        # shorter ones in one run.
        if content == "random":
            frames = random_frames(rng, 3, width, height)
        else:
            dark = frame(np.zeros((height, width), dtype=np.uint8))
            frames = [dark, frame(np.full((height, width), 255, dtype=np.uint8)), dark]
        expected = np.array([int64_fd(frames[i], frames[i + 1]) for i in range(2)])
        assert compute_series(frames).values.tobytes() == expected.tobytes()

    def test_run_wise_sums_with_several_large_rows_per_block(self, rng, monkeypatch):
        width, height = 2 * 66051 + 7, 1
        monkeypatch.setattr(frame_analysis, "_BLOCK_BYTES", 3 * width * height)
        header = VideoHeader(width=width, height=height, fps_num=25, fps_den=1,
                             chroma=ChromaFormat.MONO)
        frames = random_frames(rng, 8, width, height)
        expected = np.array([int64_fd(frames[i], frames[i + 1]) for i in range(7)])
        seq = VideoSequence.from_luma(header, frames)
        for source in (iter(frames), Y4MReader(io.BytesIO(y4m_bytes(seq)))):
            assert compute_series(source).values.tobytes() == expected.tobytes()

    def test_large_pair_allocates_one_run_of_scratch(self, rng):
        # Full-frame temporaries of a 1080p pair would take about 6 MB.
        a, b = (rng.integers(0, 256, (1, 1920 * 1080), dtype=np.uint8) for _ in range(2))
        tracemalloc.start()
        try:
            frame_analysis._fd_pairs(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_streaming_memory_is_flat(self, rng):
        # Beyond the output, which grows by a few float64 per frame,
        # streaming 5,000 frames may cost no more than 500 do: one block
        # buffer and kernel temporaries (a few bytes per block byte) at most.
        header = b"YUV4MPEG2 W64 H64 F25:1 C420jpeg\n"
        records = [b"FRAME\n" + rng.bytes(64 * 64 * 3 // 2) for _ in range(7)]

        def peak(count):
            stream = io.BytesIO(header + b"".join(records[i % 7] for i in range(count)))
            tracemalloc.start()
            try:
                compute_series(Y4MReader(stream))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        output = 4 * 8 * 5000
        assert peak(5000) <= peak(500) + output + 4 * frame_analysis._BLOCK_BYTES

    def test_scene_cut_flags_populated(self):
        quiet = frame(np.zeros((4, 4), dtype=np.uint8))
        loud = frame(np.full((4, 4), 200, dtype=np.uint8))
        frames = [quiet] * 7 + [loud]
        series = compute_series(frames)
        assert series.scene_cut_flags[6]


class TestSeriesValidation:
    def test_parallel_arrays_enforced(self):
        with pytest.raises(ShapeError):
            FrameDiffSeries(values=np.zeros(3), scene_cut_flags=np.zeros(2, bool))

    def test_negative_values_rejected(self):
        with pytest.raises(ShapeError):
            FrameDiffSeries(values=np.array([-1.0]), scene_cut_flags=np.zeros(1, bool))


def make_series(values, cuts=None):
    values = np.asarray(values, dtype=np.float64)
    flags = np.zeros(len(values), dtype=bool)
    if cuts:
        flags[list(cuts)] = True
    return FrameDiffSeries(values=values, scene_cut_flags=flags)


class TestBackgroundFd:
    """The background motion level, ``content_features``' AvgBgFD."""

    def test_excludes_freeze_adjacent_transitions(self):
        # 6 frames, event on frames 2-3: transitions 1,2,3 touch it.
        series = make_series([10, 0, 0, 40, 20])
        timeline = FreezeTimeline([FreezeEvent(2, 2)], frame_count=6)
        assert content_features(series, timeline)["AvgBgFD"] == (10 + 20) / 2

    def test_excludes_scene_cuts(self):
        series = make_series([10, 20, 900], cuts=[2])
        timeline = FreezeTimeline([], frame_count=4)
        assert content_features(series, timeline)["AvgBgFD"] == 15.0

    def test_all_excluded(self):
        # Every transition touches the event: 0, not the mean of 5, 7, 9.
        series = make_series([5, 7, 9])
        timeline = FreezeTimeline([FreezeEvent(1, 3)], frame_count=4)
        assert content_features(series, timeline)["AvgBgFD"] == 0.0

    def test_frame_count_mismatch(self):
        series = make_series([1, 2, 3])
        timeline = FreezeTimeline([], frame_count=99)
        with pytest.raises(ShapeError):
            content_features(series, timeline)
