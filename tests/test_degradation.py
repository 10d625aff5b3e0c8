import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from jerkmeter import (
    FreezeEvent,
    FreezeKind,
    FreezePlan,
    FreezeTimeline,
    LumaFrame,
    PlanError,
    VideoHeader,
    VideoSequence,
    add_capture_noise,
    analyze,
    compute_series,
    gradient_video,
    inject,
    score_detection,
)
from jerkmeter.freeze_detection import MIN_EVENT_FRAMES


def reference_validate(plan, frame_count):
    """The per-kind plan rules, written out one by one."""
    prev_end = 0
    for start, duration in plan.events:
        if duration < MIN_EVENT_FRAMES:
            raise PlanError("too short")
        if start < 1:
            raise PlanError("starts before frame 1")
        if start <= prev_end:
            raise PlanError("unsorted or no clean frame between")
        if plan.kind is FreezeKind.LOSS and start + duration > frame_count:
            raise PlanError("runs past the last frame")
        prev_end = start + duration
    if plan.kind is FreezeKind.DELAY:
        if sum(d for _, d in plan.events) > frame_count - 1:
            raise PlanError("inserted duplicates exceed the sequence length")
        shift = 0
        for start, duration in plan.events:
            if start + shift + duration > frame_count:
                raise PlanError("cut off by end truncation")
            shift += duration


def reference_inject(seq, plan):
    """Loss overwrites spans in place; delay inserts duplicates, cuts the tail."""
    reference_validate(plan, seq.frame_count)
    if plan.kind is FreezeKind.LOSS:
        frames, chroma = list(seq.frames), list(seq.chroma)
        for start, duration in plan.events:
            for i in range(start, start + duration):
                frames[i] = frames[start - 1]
                chroma[i] = chroma[start - 1]
        events = [FreezeEvent(s, d) for s, d in plan.events]
    else:
        frames, chroma, events = [], [], []
        consumed = shift = 0
        for start, duration in plan.events:
            frames += seq.frames[consumed:start] + [seq.frames[start - 1]] * duration
            chroma += seq.chroma[consumed:start] + [seq.chroma[start - 1]] * duration
            events.append(FreezeEvent(start + shift, duration))
            consumed = start
            shift += duration
        frames = (frames + seq.frames[consumed:])[: seq.frame_count]
        chroma = (chroma + seq.chroma[consumed:])[: seq.frame_count]
    truth = FreezeTimeline(events=events, frame_count=seq.frame_count, fps=seq.header.fps)
    return VideoSequence(seq.header, frames, chroma), truth


def numbered_clip(count):
    """Tiny 4:2:0 clip whose every frame, luma and chroma, is distinct."""
    header = VideoHeader(width=4, height=2, fps_num=25, fps_den=1)
    frames = [LumaFrame(4, 2, np.full((2, 4), i, dtype=np.uint8)) for i in range(count)]
    chroma = [bytes([255 - i]) * header.chroma_size for i in range(count)]
    return VideoSequence(header, frames, chroma)


@st.composite
def plans(draw):
    """A clip length and a plan, often with short events that (almost) touch."""
    n = draw(st.integers(1, 30))
    events, prev_end = [], 0
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            start = min(prev_end + draw(st.integers(-1, 2)), n + 2)
        else:
            start = draw(st.integers(-1, n + 2))
        duration = draw(st.one_of(st.integers(0, min(n, 3)), st.integers(0, n)))
        events.append((start, duration))
        prev_end = start + duration
    if draw(st.booleans()):
        events.sort()
    return n, FreezePlan(draw(st.sampled_from(FreezeKind)), events)


class TestGradientVideo:
    def test_uniform_motion_profile(self):
        seq = gradient_video(20, 64, 48)
        series = compute_series(seq)
        # Translation by a constant step: every transition is identical.
        assert np.ptp(series.values) == 0.0
        assert series.values[0] > 0

    def test_deterministic_given_seed(self):
        a = gradient_video(6, 32, 32, noise=0.05, seed=9)
        b = gradient_video(6, 32, 32, noise=0.05, seed=9)
        assert a == b
        c = gradient_video(6, 32, 32, noise=0.05, seed=10)
        assert a != c

    def test_noise_perturbs_by_one(self):
        clean = gradient_video(4, 32, 32)
        noisy = gradient_video(4, 32, 32, noise=0.1, seed=3)
        delta = noisy.frames[0].samples.astype(int) - clean.frames[0].samples.astype(int)
        assert set(np.unique(delta)) <= {-1, 0, 1}
        assert np.any(delta != 0)

    def test_velocity_scales_motion(self):
        slow = compute_series(gradient_video(5, 64, 8, velocity=1))
        fast = compute_series(gradient_video(5, 64, 8, velocity=2))
        assert fast.values[0] > slow.values[0]

    def test_degenerate_geometry(self):
        with pytest.raises(ValueError):
            gradient_video(0, 64, 64)
        with pytest.raises(ValueError):
            gradient_video(5, 1, 64)


class TestLossInjection:
    def test_replaces_span_with_previous_frame(self):
        src = gradient_video(10, 64, 8)
        plan = FreezePlan(FreezeKind.LOSS, [(3, 3)])
        out, truth = inject(src, plan)
        assert out.frame_count == 10
        for i in (3, 4, 5):
            assert out.frames[i] == src.frames[2]
        assert out.frames[6] == src.frames[6]
        assert truth.events == [FreezeEvent(3, 3)]

    def test_post_freeze_spike(self):
        src = gradient_video(10, 64, 8)
        out, _ = inject(src, FreezePlan(FreezeKind.LOSS, [(3, 3)]))
        series = compute_series(out)
        assert series.values[2] == series.values[3] == series.values[4] == 0.0
        background = series.values[0]
        assert series.values[5] > background

    def test_empty_plan_is_identity(self):
        src = gradient_video(8, 64, 8)
        out, truth = inject(src, FreezePlan(FreezeKind.LOSS, []))
        assert out == src
        assert truth.events == []

    def test_event_to_last_frame_allowed(self):
        src = gradient_video(8, 64, 8)
        out, truth = inject(src, FreezePlan(FreezeKind.LOSS, [(5, 3)]))
        assert out.frames[7] == src.frames[4]
        assert truth.events == [FreezeEvent(5, 3)]

    @pytest.mark.parametrize("events", [
        [(6, 5)],            # runs past the end
        [(0, 3)],            # nothing precedes frame 0
        [(2, 1)],            # too short to be an event
        [(2, 3), (5, 2)],    # no clean frame between events
        [(5, 2), (2, 2)],    # unsorted
    ])
    def test_bad_plans(self, events):
        src = gradient_video(10, 64, 8)
        with pytest.raises(PlanError):
            inject(src, FreezePlan(FreezeKind.LOSS, events))


class TestDelayInjection:
    def test_content_shifts_after_freeze(self):
        src = gradient_video(10, 64, 8)
        out, truth = inject(src, FreezePlan(FreezeKind.DELAY, [(3, 2)]))
        assert out.frame_count == 10
        assert out.frames[:3] == src.frames[:3]
        assert out.frames[3] == src.frames[2]
        assert out.frames[4] == src.frames[2]
        assert out.frames[5:] == src.frames[3:8]
        assert truth.events == [FreezeEvent(3, 2)]

    def test_exit_transition_is_one_normal_step(self):
        src = gradient_video(10, 64, 8)
        baseline = compute_series(src).values[0]
        out, _ = inject(src, FreezePlan(FreezeKind.DELAY, [(3, 2)]))
        series = compute_series(out)
        assert series.values[4] == baseline

    def test_cumulative_shift_bookkeeping(self):
        src = gradient_video(20, 64, 8)
        out, truth = inject(src, FreezePlan(FreezeKind.DELAY, [(3, 2), (8, 2)]))
        assert truth.events == [FreezeEvent(3, 2), FreezeEvent(10, 2)]
        # After both freezes the content lags by 4 original frames.
        assert out.frames[19] == src.frames[15]

    def test_empty_plan_is_identity(self):
        src = gradient_video(8, 64, 8)
        out, truth = inject(src, FreezePlan(FreezeKind.DELAY, []))
        assert out == src
        assert truth.events == []

    def test_truncation_cutting_an_event_rejected(self):
        src = gradient_video(10, 64, 8)
        with pytest.raises(PlanError):
            inject(src, FreezePlan(FreezeKind.DELAY, [(8, 4)]))

    def test_overlong_plan_rejected(self):
        src = gradient_video(6, 64, 8)
        with pytest.raises(PlanError):
            inject(src, FreezePlan(FreezeKind.DELAY, [(1, 6)]))


class TestDetectionTieIn:
    @pytest.mark.parametrize("kind", [FreezeKind.LOSS, FreezeKind.DELAY])
    def test_noiseless_injection_detected_perfectly(self, kind):
        src = gradient_video(80, 64, 16)
        plan = FreezePlan(kind, [(10, 4), (30, 2), (50, 9)])
        degraded, truth = inject(src, plan)
        result = analyze(degraded)
        report = score_detection(result.timeline, truth)
        assert report.detection_rate == 1.0
        assert report.false_alarm_rate == 0.0

    def test_rfd_separates_kinds(self):
        src = gradient_video(80, 64, 16)
        events = [(10, 4), (30, 6)]
        lossy, _ = inject(src, FreezePlan(FreezeKind.LOSS, events))
        delayed, _ = inject(src, FreezePlan(FreezeKind.DELAY, events))
        assert analyze(lossy).features.rFD > 1.0
        assert 0.5 <= analyze(delayed).features.rFD <= 2.0


class TestCaptureNoise:
    def test_zero_density_is_identity(self):
        src = gradient_video(5, 32, 32)
        assert add_capture_noise(src, 0.0) is src

    def test_deterministic_and_sparse(self):
        src = gradient_video(5, 32, 32)
        a = add_capture_noise(src, 0.02, seed=4)
        b = add_capture_noise(src, 0.02, seed=4)
        assert a == b
        changed = sum(
            int(np.count_nonzero(x.samples != y.samples))
            for x, y in zip(a.frames, src.frames)
        )
        total = 5 * 32 * 32
        assert 0 < changed < 0.08 * total

    def test_duplicated_frames_stop_being_identical(self):
        src = gradient_video(12, 32, 32)
        frozen, _ = inject(src, FreezePlan(FreezeKind.LOSS, [(4, 3)]))
        noisy = add_capture_noise(frozen, 0.02, seed=1)
        series = compute_series(noisy)
        assert series.values[3] > 0.0
        assert series.values[3] < 0.05  # still far below the detection floor


class TestFrameMap:
    """`inject`'s one frame map against the per-kind loops it replaced."""

    @seed(20261018)
    @settings(max_examples=600, deadline=None)
    @given(case=plans())
    def test_matches_the_per_kind_reference(self, case):
        n, plan = case
        src = numbered_clip(n)
        try:
            want = reference_inject(src, plan)
        except Exception as exc:
            with pytest.raises(Exception) as got:
                inject(src, plan)
            assert type(got.value) is type(exc)
            return
        got_seq, got_truth = inject(src, plan)
        want_seq, want_truth = want
        assert got_seq.frames == want_seq.frames
        assert got_seq.chroma == want_seq.chroma
        assert got_truth == want_truth

    def test_delay_gap_is_counted_in_source_frames(self):
        # In output frames the events would be (3, 2) and (6, 2), which a
        # timeline accepts; in source frames 4 starts inside the first one.
        src = gradient_video(12, 64, 8)
        with pytest.raises(PlanError):
            inject(src, FreezePlan(FreezeKind.DELAY, [(3, 2), (4, 2)]))
        FreezeTimeline([FreezeEvent(3, 2), FreezeEvent(6, 2)], frame_count=12)
