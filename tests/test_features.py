import dataclasses
import io
import math
import statistics

import numpy as np
import pytest

from jerkmeter import (
    FEATURE_NAMES,
    FrameDiffSeries,
    FreezeEvent,
    FreezeKind,
    FreezePlan,
    FreezeTimeline,
    ShapeError,
    VideoSequence,
    Y4MReader,
    analyze,
    extract,
    gradient_video,
    inject,
)
from jerkmeter.features import content_features, freeze_pattern_features

from conftest import frame, y4m_bytes


def make_series(values, cuts=()):
    values = np.asarray(values, dtype=np.float64)
    flags = np.zeros(len(values), dtype=bool)
    for i in cuts:
        flags[i] = True
    return FrameDiffSeries(values=values, scene_cut_flags=flags)


def brute_force_features(values, cuts, events, frame_count):
    """Independent recomputation, written directly from the definitions."""
    out = {}
    durs = [d for _, d in events]
    if not events:
        out.update({k: 0.0 for k in FEATURE_NAMES[:9]})
    else:
        if len(events) == 1:
            dists = [frame_count - sum(durs)]
        else:
            dists = [events[i + 1][0] - (events[i][0] + events[i][1])
                     for i in range(len(events) - 1)]
        avg_dur = statistics.fmean(durs)
        avg_dist = statistics.fmean(dists)
        out["NumFz"] = float(len(events))
        out["AvgFzDur"] = avg_dur
        out["MaxFzDur"] = float(max(durs))
        out["StdFzDur"] = statistics.pstdev(durs)
        out["AvgFzDist"] = avg_dist
        out["MaxFzDist"] = float(max(dists))
        out["StdFzDist"] = statistics.pstdev(dists)
        out["rLenFz"] = sum(durs) / frame_count
        out["rDurDist"] = avg_dur / avg_dist if avg_dist > 0 else 0.0
    exits = [values[s + d - 1] for s, d in events if s + d - 1 < frame_count - 1]
    out["AvgFzFD"] = statistics.fmean(exits) if exits else 0.0
    out["MaxFzFD"] = max(exits) if exits else 0.0
    frozen = set()
    for s, d in events:
        frozen.update(range(s, s + d))
    bg = [values[i] for i in range(frame_count - 1)
          if i not in cuts and i not in frozen and (i + 1) not in frozen]
    out["AvgBgFD"] = statistics.fmean(bg) if bg else 0.0
    out["rFD"] = out["AvgFzFD"] / max(out["AvgBgFD"], 1e-6)
    return out


class TestPatternFeatures:
    def test_two_event_hand_trace(self):
        timeline = FreezeTimeline([FreezeEvent(10, 5), FreezeEvent(40, 7)],
                                  frame_count=300)
        got = freeze_pattern_features(timeline)
        assert got == {
            "NumFz": 2.0, "AvgFzDur": 6.0, "MaxFzDur": 7.0, "StdFzDur": 1.0,
            "AvgFzDist": 25.0, "MaxFzDist": 25.0, "StdFzDist": 0.0,
            "rLenFz": 12 / 300, "rDurDist": 6 / 25,
        }

    def test_single_event_distance_convention(self):
        timeline = FreezeTimeline([FreezeEvent(50, 10)], frame_count=200)
        got = freeze_pattern_features(timeline)
        assert got["NumFz"] == 1.0
        assert (got["AvgFzDur"], got["MaxFzDur"], got["StdFzDur"]) == (10, 10, 0)
        assert (got["AvgFzDist"], got["MaxFzDist"], got["StdFzDist"]) == (190, 190, 0)
        assert got["rLenFz"] == 0.05
        assert got["rDurDist"] == 10 / 190

    def test_zero_events_all_zero(self):
        timeline = FreezeTimeline([], frame_count=100)
        got = freeze_pattern_features(timeline)
        assert all(got[k] == 0.0 for k in got)
        assert len(got) == 9

    def test_population_std(self):
        timeline = FreezeTimeline([FreezeEvent(2, 2), FreezeEvent(10, 6)],
                                  frame_count=50)
        got = freeze_pattern_features(timeline)
        assert got["StdFzDur"] == 2.0  # population std of {2, 6}


class TestContentFeatures:
    def test_exit_transition_mean_and_max(self):
        # Events on frames 2-3 and 7-8; exits at transitions 3 and 8.
        values = [5, 0, 0, 50, 5, 5, 0, 0, 80, 5]
        timeline = FreezeTimeline([FreezeEvent(2, 2), FreezeEvent(7, 2)],
                                  frame_count=11)
        got = content_features(make_series(values), timeline)
        assert got["AvgFzFD"] == 65.0
        assert got["MaxFzFD"] == 80.0

    def test_event_to_last_frame_contributes_nothing(self):
        values = [5, 0, 0]
        timeline = FreezeTimeline([FreezeEvent(2, 2)], frame_count=4)
        got = content_features(make_series(values), timeline)
        assert got["AvgFzFD"] == 0.0
        assert got["MaxFzFD"] == 0.0
        assert got["rFD"] == 0.0

    def test_zero_events_plain_background_mean(self):
        values = [1, 2, 3, 900]
        timeline = FreezeTimeline([], frame_count=5)
        got = content_features(make_series(values, cuts=[3]), timeline)
        assert got["AvgBgFD"] == 2.0
        assert got["AvgFzFD"] == 0.0 and got["rFD"] == 0.0

    def test_static_background_hits_ratio_floor(self):
        # Only freeze-adjacent transitions exist outside the exit: AvgBgFD
        # is 0 and the ratio divides by the documented floor instead.
        values = [0, 0, 0, 50]
        timeline = FreezeTimeline([FreezeEvent(1, 3)], frame_count=5)
        got = content_features(make_series(values), timeline)
        assert got["AvgBgFD"] == 0.0
        assert got["rFD"] == 50.0 / 1e-6

    def test_frame_count_mismatch(self):
        with pytest.raises(ShapeError):
            content_features(make_series([1, 2, 3]),
                             FreezeTimeline([], frame_count=9))


class TestExtract:
    def test_merges_both_partials(self):
        values = [5, 0, 0, 50, 5]
        timeline = FreezeTimeline([FreezeEvent(2, 2)], frame_count=6)
        fv = extract(make_series(values), timeline)
        assert fv.NumFz == 1.0
        assert fv.AvgFzFD == 50.0
        assert set(dataclasses.asdict(fv)) == set(FEATURE_NAMES)

    def test_getitem_and_array_order(self):
        values = [5, 0, 0, 50, 5]
        timeline = FreezeTimeline([FreezeEvent(2, 2)], frame_count=6)
        fv = extract(make_series(values), timeline)
        arr = fv.as_array()
        for i, name in enumerate(FEATURE_NAMES):
            assert arr[i] == fv[name]
        with pytest.raises(KeyError):
            fv["NotAFeature"]

    def test_invariants_on_random_inputs(self, rng):
        for _ in range(50):
            values, cuts, events, n = random_case(rng)
            fv = extract(make_series(values, cuts),
                         FreezeTimeline([FreezeEvent(s, d) for s, d in events],
                                        frame_count=n))
            assert fv.MaxFzDur >= fv.AvgFzDur >= 0
            assert fv.MaxFzDist >= fv.AvgFzDist >= 0
            assert fv.MaxFzFD >= fv.AvgFzFD >= 0
            assert 0 <= fv.rLenFz <= 1
            assert fv.StdFzDur >= 0 and fv.StdFzDist >= 0


def random_case(rng, frame_count=None):
    n = int(frame_count or rng.integers(8, 120))
    events = []
    cursor = 1
    while cursor < n - 2 and rng.random() < 0.7:
        start = int(rng.integers(cursor, min(cursor + 12, n - 1)))
        max_dur = n - start
        if max_dur < 2:
            break
        duration = int(rng.integers(2, min(9, max_dur) + 1))
        events.append((start, duration))
        cursor = start + duration + 1
    values = rng.uniform(0, 500, size=n - 1)
    cuts = set(int(i) for i in rng.choice(n - 1, size=max(0, (n - 1) // 10),
                                          replace=False))
    return values, cuts, events, n


class TestBruteForceEquivalence:
    def test_random_timelines_match_oracle(self, rng):
        for _ in range(200):
            values, cuts, events, n = random_case(rng)
            timeline = FreezeTimeline([FreezeEvent(s, d) for s, d in events],
                                      frame_count=n)
            fv = extract(make_series(values, cuts), timeline)
            oracle = brute_force_features(values, cuts, events, n)
            for name in FEATURE_NAMES:
                assert math.isclose(fv[name], oracle[name],
                                    rel_tol=1e-12, abs_tol=1e-12), name


class TestScaling:
    def test_fd_features_scale_quadratically(self):
        # Doubling every luma difference scales the FD features by 4 and
        # leaves rFD unchanged.
        def clip(step):
            frames = []
            level = 0
            deltas = [step, step, 0, 0, 3 * step, step, step, step]
            for d in deltas:
                level += d
                frames.append(frame(np.full((4, 4), level, dtype=np.uint8)))
            return frames

        small = analyze(clip(2)).features
        big = analyze(clip(4)).features
        assert small.NumFz == big.NumFz
        for name in ("AvgFzFD", "MaxFzFD", "AvgBgFD"):
            assert big[name] == 4.0 * small[name]
        assert math.isclose(big.rFD, small.rFD, rel_tol=1e-12)


class TestAnalyzeSources:
    """Streaming a reader and materializing a sequence give the same analysis."""

    @pytest.fixture
    def degraded(self):
        base = gradient_video(frame_count=60, width=16, height=8,
                              fps=(30000, 1001), noise=0.02, seed=3)
        plan = FreezePlan(kind=FreezeKind.LOSS, events=[(10, 4), (30, 6)])
        return inject(base, plan)[0]

    def assert_same(self, streamed, materialized, fps):
        assert streamed.series.values.tobytes() == materialized.series.values.tobytes()
        assert np.array_equal(streamed.series.scene_cut_flags,
                              materialized.series.scene_cut_flags)
        assert streamed.features == materialized.features
        assert streamed.timeline.events == materialized.timeline.events
        assert len(streamed.timeline.events) == 2
        assert streamed.timeline.fps == materialized.timeline.fps == fps

    def test_y4m(self, degraded):
        data = y4m_bytes(degraded)
        self.assert_same(analyze(Y4MReader(io.BytesIO(data))),
                         analyze(VideoSequence.from_reader(Y4MReader(io.BytesIO(data)))),
                         degraded.header.fps)

    def test_raw(self, degraded):
        header = degraded.header
        data = b"".join(f.samples.tobytes() + c
                        for f, c in zip(degraded.frames, degraded.chroma))
        self.assert_same(analyze(Y4MReader(io.BytesIO(data), header)),
                         analyze(VideoSequence.from_reader(Y4MReader(io.BytesIO(data), header))),
                         header.fps)
