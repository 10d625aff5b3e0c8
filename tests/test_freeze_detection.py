import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jerkmeter import (
    ConfigError,
    DetectorConfig,
    FrameDiffSeries,
    FreezeEvent,
    FreezeTimeline,
    ShapeError,
    detect_freezes,
    freeze_threshold,
    score_detection,
)
from jerkmeter.freeze_detection import MATCH_OVERLAP


def make_series(values, cuts=()):
    values = np.asarray(values, dtype=np.float64)
    flags = np.zeros(len(values), dtype=bool)
    for i in cuts:
        flags[i] = True
    return FrameDiffSeries(values=values, scene_cut_flags=flags)


class TestThreshold:
    def test_median_of_values_above_floor(self):
        series = make_series([9, 0, 0, 0, 9, 9])
        cfg = DetectorConfig(epsilon_abs=0.01, rel_factor=0.02)
        assert freeze_threshold(series, cfg) == 0.02 * 9

    def test_floor_wins_when_motion_is_tiny(self):
        series = make_series([0.06, 0.07, 0.08])
        cfg = DetectorConfig()  # 0.05 floor, 0.02 relative
        assert freeze_threshold(series, cfg) == 0.05

    def test_no_values_above_floor(self):
        series = make_series([0.0, 0.0])
        cfg = DetectorConfig()
        assert freeze_threshold(series, cfg) == cfg.epsilon_abs

    def test_values_at_floor_are_excluded_from_background(self):
        cfg = DetectorConfig(epsilon_abs=1.0, rel_factor=0.5)
        series = make_series([1.0, 1.0, 8.0])  # only the 8 is above the floor
        assert freeze_threshold(series, cfg) == 4.0


    @pytest.mark.parametrize("fields", [
        {"epsilon_abs": -1e-9}, {"rel_factor": -0.5}, {"epsilon_abs": float("nan")}])
    def test_negative_or_nan_setting_rejected(self, fields):
        with pytest.raises(ConfigError):
            DetectorConfig(**fields)
        assert freeze_threshold(make_series([0.0, 0.0]),
                                DetectorConfig(epsilon_abs=0.0, rel_factor=0.0)) == 0.0


class TestDetect:
    def test_run_grouping(self):
        series = make_series([9, 0, 0, 0, 9, 9])
        cfg = DetectorConfig(epsilon_abs=0.01)
        timeline = detect_freezes(series, cfg)
        assert timeline.events == [FreezeEvent(2, 3)]
        assert timeline.frame_count == 7

    def test_single_frame_run_discarded(self):
        series = make_series([9, 0, 9, 9, 9, 9])
        timeline = detect_freezes(series, DetectorConfig(epsilon_abs=0.01))
        assert timeline.events == []

    def test_static_clip_is_one_long_event(self):
        series = make_series([0.0] * 9)
        timeline = detect_freezes(series)
        assert timeline.events == [FreezeEvent(1, 9)]

    def test_trailing_run_kept(self):
        series = make_series([9, 9, 0, 0])
        timeline = detect_freezes(series, DetectorConfig(epsilon_abs=0.01))
        assert timeline.events == [FreezeEvent(3, 2)]

    def test_trailing_single_frame_discarded(self):
        series = make_series([9, 9, 9, 0])
        timeline = detect_freezes(series, DetectorConfig(epsilon_abs=0.01))
        assert timeline.events == []

    def test_scene_cut_transition_never_frozen(self):
        # Transition 2 is below threshold but flagged as a cut: the run
        # around it splits and each half is too short to keep.
        series = make_series([9, 0, 0, 9, 9, 9], cuts=[2])
        timeline = detect_freezes(series, DetectorConfig(epsilon_abs=0.01))
        assert timeline.events == []

    def test_equal_to_threshold_is_frozen(self):
        cfg = DetectorConfig(epsilon_abs=0.05, rel_factor=0.02)
        series = make_series([10.0, 0.05, 0.05, 10.0, 10.0, 10.0])
        timeline = detect_freezes(series, cfg)
        assert timeline.events == [FreezeEvent(2, 2)]

    def test_fps_carried(self):
        series = make_series([9, 0, 0, 9])
        timeline = detect_freezes(series, DetectorConfig(epsilon_abs=0.01), fps=24.0)
        assert timeline.fps == 24.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["move", "still", "cut"]), min_size=1, max_size=60))
    def test_matches_run_loop(self, kinds):
        series = make_series([9.0 if k == "move" else 0.0 for k in kinds],
                             cuts=[i for i, k in enumerate(kinds) if k == "cut"])
        cfg = DetectorConfig(epsilon_abs=0.01)
        expected = []
        run_start = None
        for i, k in enumerate(kinds + ["move"]):
            if k == "still" and run_start is None:
                run_start = i + 1
            elif k != "still" and run_start is not None:
                if i + 1 - run_start >= 2:
                    expected.append(FreezeEvent(run_start, i + 1 - run_start))
                run_start = None
        assert detect_freezes(series, cfg).events == expected


class TestEventValidation:
    def test_start_zero_rejected(self):
        with pytest.raises(ValueError):
            FreezeEvent(0, 2)

    def test_short_event_rejected(self):
        with pytest.raises(ValueError):
            FreezeEvent(3, 1)

    def test_end_frame(self):
        assert FreezeEvent(3, 4).end_frame == 6

    def test_timeline_rejects_overlap(self):
        with pytest.raises(ValueError):
            FreezeTimeline([FreezeEvent(1, 4), FreezeEvent(4, 2)], frame_count=10)

    def test_timeline_rejects_adjacent_events(self):
        # No clean frame between them means they are one event, not two.
        with pytest.raises(ValueError):
            FreezeTimeline([FreezeEvent(1, 3), FreezeEvent(4, 2)], frame_count=10)

    def test_timeline_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            FreezeTimeline([FreezeEvent(8, 3)], frame_count=10)

    def test_frame_mask(self):
        timeline = FreezeTimeline([FreezeEvent(1, 2), FreezeEvent(5, 2)],
                                  frame_count=8)
        assert timeline.frame_mask().tolist() == [
            False, True, True, False, False, True, True, False,
        ]
        assert timeline.frame_mask().sum() == 4


class TestScoreDetection:
    def test_identity_is_perfect(self):
        t = FreezeTimeline([FreezeEvent(2, 3), FreezeEvent(10, 2),
                            FreezeEvent(20, 5), FreezeEvent(30, 2)],
                           frame_count=40)
        report = score_detection(t, t)
        assert report.detection_rate == 1.0
        assert report.false_alarm_rate == 0.0
        assert report.correctly_detected == 4

    def test_half_overlap_counts(self):
        truth = FreezeTimeline([FreezeEvent(10, 4)], frame_count=30)
        found = FreezeTimeline([FreezeEvent(12, 2)], frame_count=30)
        assert score_detection(found, truth).correctly_detected == 1

    def test_below_half_overlap_does_not_count(self):
        truth = FreezeTimeline([FreezeEvent(10, 5)], frame_count=30)
        found = FreezeTimeline([FreezeEvent(13, 2)], frame_count=30)
        report = score_detection(found, truth)
        assert report.correctly_detected == 0
        # It still touches the true event, so it is not a false alarm.
        assert report.false_alarms == 0

    def test_two_small_finds_do_not_add_up(self):
        # Coverage must come from a single found event.
        truth = FreezeTimeline([FreezeEvent(10, 8)], frame_count=40)
        found = FreezeTimeline([FreezeEvent(10, 3), FreezeEvent(15, 3)],
                               frame_count=40)
        assert score_detection(found, truth).correctly_detected == 0

    def test_disjoint_find_is_false_alarm(self):
        truth = FreezeTimeline([FreezeEvent(10, 4)], frame_count=40)
        found = FreezeTimeline([FreezeEvent(30, 2)], frame_count=40)
        report = score_detection(found, truth)
        assert report.false_alarms == 1
        assert report.false_alarm_rate == 1.0

    def test_no_truth_is_vacuously_perfect(self):
        empty = FreezeTimeline([], frame_count=10)
        report = score_detection(empty, empty)
        assert report.detection_rate == 1.0
        assert report.false_alarm_rate == 0.0

    def test_frame_count_mismatch(self):
        with pytest.raises(ShapeError):
            score_detection(FreezeTimeline([], frame_count=10),
                            FreezeTimeline([], frame_count=11))

    def test_published_rates_reproduce(self):
        # 140 true events; the first 131 are found exactly; 11 extra
        # detections sit in gaps touching nothing: 93.57% and 7.75%.
        truth_events = [FreezeEvent(10 + 20 * k, 8) for k in range(140)]
        found_events = []
        for k in range(131):
            found_events.append(FreezeEvent(10 + 20 * k, 8))
        for k in range(9):
            found_events.append(FreezeEvent(10 + 20 * (131 + k) + 10, 2))
        found_events.append(FreezeEvent(10 + 20 * 139 + 14, 2))
        found_events.append(FreezeEvent(10 + 20 * 139 + 17, 2))
        frame_count = 10 + 20 * 140 + 10
        report = score_detection(
            FreezeTimeline(sorted(found_events), frame_count=frame_count),
            FreezeTimeline(truth_events, frame_count=frame_count),
        )
        assert report.total_true == 140
        assert report.correctly_detected == 131
        assert report.false_alarms == 11
        assert round(report.detection_rate * 100, 2) == 93.57
        assert round(report.false_alarm_rate * 100, 2) == 7.75


@st.composite
def timelines(draw, frame_count=60):
    events = []
    cursor = 1
    while cursor < frame_count - 2 and draw(st.booleans()):
        start = draw(st.integers(cursor, min(cursor + 10, frame_count - 2)))
        duration = draw(st.integers(2, min(8, frame_count - start)))
        events.append(FreezeEvent(start, duration))
        cursor = start + duration + 1
    return FreezeTimeline(events, frame_count=frame_count)


def _overlap(a, b):
    lo = max(a.start_frame, b.start_frame)
    hi = min(a.start_frame + a.duration, b.start_frame + b.duration)
    return max(0, hi - lo)


def reference_counts(found, truth):
    """(detected, false alarms) by comparing every (found, true) pair of events."""
    detected = sum(any(_overlap(f, t) >= MATCH_OVERLAP * t.duration for f in found.events)
                   for t in truth.events)
    false_alarms = sum(
        1 for f in found.events if all(_overlap(f, t) == 0 for t in truth.events)
    )
    return detected, false_alarms


def _timeline(*events):
    return FreezeTimeline([FreezeEvent(*ev) for ev in events], frame_count=60)


class TestScoreProperties:
    @settings(max_examples=300, deadline=None)
    @given(timelines(), timelines())
    @example(_timeline((12, 2)), _timeline((10, 4)))  # exactly half covered
    @example(_timeline((13, 2)), _timeline((10, 5)))  # just under half, touching
    @example(_timeline((10, 4)), _timeline((14, 3)))  # adjacent, no shared frame
    @example(_timeline((10, 4), (20, 6)), _timeline((13, 8)))  # shared ends
    @example(_timeline(), _timeline((10, 4)))
    @example(_timeline((10, 4)), _timeline())
    def test_merge_pass_equals_every_pair(self, found, truth):
        report = score_detection(found, truth)
        assert (report.correctly_detected, report.false_alarms) == \
            reference_counts(found, truth)
        assert report.total_true == len(truth.events)

    @settings(max_examples=50, deadline=None)
    @given(timelines())
    def test_self_score_is_perfect(self, timeline):
        report = score_detection(timeline, timeline)
        assert report.detection_rate == 1.0
        assert report.false_alarm_rate == 0.0

    @settings(max_examples=50, deadline=None)
    @given(timelines(), timelines())
    def test_rates_are_rates(self, found, truth):
        report = score_detection(found, truth)
        assert 0.0 <= report.detection_rate <= 1.0
        assert 0.0 <= report.false_alarm_rate <= 1.0
        assert report.correctly_detected <= report.total_true
        assert report.false_alarms <= len(found.events)
