#!/usr/bin/env python3
"""End-to-end training demo on a fully synthetic corpus.

Degrades gradient clips with random freeze plans, scores each clip with a
hidden annotation rule standing in for subjective ratings, then runs the
cross-validated exhaustive structure search and reports how well the
selected model recovers the ratings. Writes the fitted model (and the
structure ranking) under --out-dir.

    python3 scripts/train_synthetic_demo.py --samples 80 --out-dir out
"""

import argparse
import pathlib

import numpy as np

from jerkmeter import (
    FreezeKind,
    FreezePlan,
    LMConfig,
    SearchConfig,
    TrainingSample,
    analyze,
    evaluate,
    exhaustive_search,
    gradient_video,
    inject,
    save_model,
    score_features,
)


def random_plan(rng, frame_count):
    events = []
    cursor = int(rng.integers(2, 30))
    shift = 0
    while len(events) < 4 and rng.random() < 0.8:
        duration = int(rng.integers(2, 26))
        if cursor + shift + duration > frame_count - 10:
            break
        events.append((cursor, duration))
        shift += duration
        cursor += duration + int(rng.integers(3, 30))
    return events or [(10, int(rng.integers(2, 26)))]


def annotation_rule(features, rng, noise):
    """Synthetic stand-in for subjective ratings: more freezing, worse."""
    dmos = (1.0
            + 0.45 * features["NumFz"]
            + 0.05 * features["AvgFzDur"]
            + 3.0 * features["rLenFz"]
            + 0.25 * min(features["rFD"], 4.0))
    return dmos + rng.normal(0.0, noise)


def build_corpus(count, seed, noise):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        frame_count = int(rng.integers(150, 301))
        base = gradient_video(frame_count=frame_count, width=64, height=32,
                              velocity=int(rng.integers(1, 3)))
        kind = FreezeKind.LOSS if i % 2 == 0 else FreezeKind.DELAY
        plan = FreezePlan(kind=kind, events=random_plan(rng, frame_count))
        degraded, _ = inject(base, plan)
        features = analyze(degraded).features
        samples.append(TrainingSample(
            features=features,
            dmos=annotation_rule(features, rng, noise),
            sample_id=f"clip{i:03d}",
            source_id=f"src{i % 8}",
        ))
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=80)
    parser.add_argument("--annotation-noise", type=float, default=0.05)
    parser.add_argument("--subset-sizes", default="2,3")
    parser.add_argument("--hidden", default="1,2")
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)

    print(f"building {args.samples} annotated synthetic clips ...")
    samples = build_corpus(args.samples, args.seed, args.annotation_noise)

    config = SearchConfig(
        hidden_range=tuple(int(m) for m in args.hidden.split(",")),
        subset_sizes=tuple(int(n) for n in args.subset_sizes.split(",")),
        folds=args.folds,
        rng_seed=args.seed,
        lm=LMConfig(max_iters=80, restarts=2),
    )
    print(f"searching {len(config.subset_sizes)} subset sizes x "
          f"{len(config.hidden_range)} structures, {config.folds}-fold CV ...")
    result = exhaustive_search(samples, config)

    print("\ntop structures by cross-validation error:")
    for entry in result.ranking[:5]:
        print(f"  mse {entry.cv_error:9.5f}  M={entry.hidden_nodes}  "
              f"{', '.join(entry.features)}")

    preds = [score_features(s.features, result.model).dmos_pred
             for s in samples]
    report = evaluate(preds, [s.dmos for s in samples])
    print(f"\nwhole-corpus fit: pcc {report.pcc:.4f}  srocc {report.srocc:.4f}  "
          f"rrmse {report.rrmse:.2f}%")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    model_path.write_bytes(save_model(result.model))
    ranking_path = out_dir / "ranking.csv"
    with open(ranking_path, "w", encoding="utf-8") as handle:
        handle.write(result.ranking_csv())
    print(f"model -> {model_path}\nranking -> {ranking_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
