#!/usr/bin/env python3
"""Sweep capture-noise density against freeze-detection accuracy.

Builds one gradient clip, injects random loss/delay freeze plans with
exact ground truth, adds increasing amounts of +/-1 pixel noise, and
reports aggregate detection and false-alarm rates per density.

It measures noise on one content only: a full-frame ramp with a median
FD of about 1,030, whose threshold (0.02 x median, about 20) no +/-1
noise reaches, so it reads a detection rate of 1.000 at every density.
It does not vary the content, so it cannot pick detector thresholds:
low-motion content, whose threshold sits at the 0.05 floor, misses every
freeze at a noise density of 0.05.

    python3 scripts/detection_sweep.py --plans 60 --noise 0,0.005,0.01,0.05
"""

import argparse

import numpy as np

from jerkmeter import (
    DetectorConfig,
    FreezeKind,
    FreezePlan,
    add_capture_noise,
    compute_series,
    detect_freezes,
    gradient_video,
    inject,
    score_detection,
)


def random_plan(rng, frame_count):
    events = []
    cursor = int(rng.integers(2, 30))
    shift = 0
    while len(events) < 3 and rng.random() < 0.85:
        duration = int(rng.integers(2, 31))
        if cursor + shift + duration > frame_count - 10:
            break
        events.append((cursor, duration))
        shift += duration
        cursor += duration + int(rng.integers(3, 25))
    return events or [(10, int(rng.integers(2, 31)))]


def sweep(plans, frames, densities, config, seed):
    rng = np.random.default_rng(seed)
    base = gradient_video(frame_count=frames, width=64, height=32)
    rows = []
    for density in densities:
        true_total = hit_total = found_total = alarm_total = 0
        for i in range(plans):
            kind = FreezeKind.LOSS if i % 2 == 0 else FreezeKind.DELAY
            plan = FreezePlan(kind=kind,
                              events=random_plan(rng, base.frame_count))
            degraded, truth = inject(base, plan)
            if density > 0:
                degraded = add_capture_noise(degraded, density,
                                             seed=seed * 1000 + i)
            found = detect_freezes(compute_series(degraded), config=config)
            report = score_detection(found, truth)
            true_total += report.total_true
            hit_total += report.correctly_detected
            found_total += len(found.events)
            alarm_total += report.false_alarms
        rows.append((density, hit_total / true_total,
                     alarm_total / max(found_total, 1)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plans", type=int, default=60,
                        help="freeze plans per density")
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--noise", default="0,0.002,0.005,0.01,0.02,0.05",
                        help="comma-separated flip densities")
    parser.add_argument("--epsilon-abs", type=float,
                        default=DetectorConfig.epsilon_abs)
    parser.add_argument("--rel-factor", type=float,
                        default=DetectorConfig.rel_factor)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    densities = [float(d) for d in args.noise.split(",") if d.strip()]
    config = DetectorConfig(epsilon_abs=args.epsilon_abs,
                            rel_factor=args.rel_factor)
    rows = sweep(args.plans, args.frames, densities, config, args.seed)

    print(f"{'noise density':>14}  {'detection rate':>14}  "
          f"{'false alarm rate':>16}")
    for density, detection, alarms in rows:
        print(f"{density:>14.4f}  {detection:>14.4f}  {alarms:>16.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
