"""Input generator for the jerkmeter benchmark.

Writes every input one workload needs into a directory, deterministically
from a seed, together with ``manifest.json`` describing what was written
and what the program is expected to answer. It uses numpy only and never
imports jerkmeter, so inputs stay the same whatever the program under
test does. The benchmark runs it in its own process, so generation counts
towards no timing and no memory figure.

    python3 perfbench/gen.py --workload score_720p --seed 1 --out DIR

Clips are 8-bit 4:2:0 Y4M: a smooth periodic texture panned by a fixed
step per content frame, shown through a display schedule that repeats
frames. A loss freeze repeats the last shown frame while content moves
on, so playback resumes with a jump; a delay freeze repeats it while
content waits, so playback resumes with ordinary motion. Light +/-1
capture noise on every shown frame keeps repeats from being bit
identical. The ground truth is read off the schedule itself: frame i is
frozen when it shows the same content frame as frame i-1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os

import numpy as np

FEATURE_NAMES = (
    "NumFz", "AvgFzDur", "MaxFzDur", "StdFzDur",
    "AvgFzDist", "MaxFzDist", "StdFzDist",
    "rLenFz", "rDurDist",
    "AvgFzFD", "MaxFzFD", "AvgBgFD", "rFD",
)

# Per workload and size: clip geometry and count, or the training table.
# "full" is what the benchmark measures; "tiny" exercises the same code
# paths in a second or two for the benchmark's own test.
SPECS = {
    "score_720p": {
        "full": {"width": 1280, "height": 720, "frames": 90, "clips": 3},
        "tiny": {"width": 96, "height": 64, "frames": 40, "clips": 2},
    },
    "score_long_small": {
        "full": {"width": 64, "height": 64, "frames": 20000, "clips": 1},
        "tiny": {"width": 64, "height": 64, "frames": 600, "clips": 1},
    },
    "train_search": {
        "full": {"rows": 320, "tables": 6},
        "tiny": {"rows": 320, "tables": 1},
    },
}

# Pan step in pixels per content frame (x, y), and the texture's box blur.
PAN_STEP = (2, 1)
BLUR = 9
# Share of luma samples moved by +/-1 on every shown frame.
CAPTURE_NOISE = 0.004
# Freeze schedule: clean run before each event, and event length, in frames.
GAP_RANGE = (6, 40)
FREEZE_RANGE = (2, 12)

# Planted network for the training table: one hidden node over all
# thirteen z-scored features. Its pre-activation has this norm, so the
# sigmoid is neither linear nor saturated, and each feature carries an
# equal share, so every 12-feature subset underfits clearly.
PLANTED_NORM = 1.2
DMOS_NOISE = 0.05


def smooth_texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Periodic box-blurred noise scaled to a luma std of about 40."""
    tex = rng.random((height, width))
    for axis in (0, 1):
        acc = np.zeros_like(tex)
        for shift in range(-(BLUR // 2), BLUR // 2 + 1):
            acc += np.roll(tex, shift, axis=axis)
        tex = acc / BLUR
    tex = (tex - tex.mean()) / tex.std()
    return np.clip(np.rint(128.0 + 40.0 * tex), 16, 235).astype(np.uint8)


def display_schedule(rng: np.random.Generator, frames: int
                     ) -> tuple[list[int], list[dict]]:
    """Content index per shown frame, and the freeze events it creates.

    Events alternate between loss and delay. Every event is followed by
    a clean run, so consecutive events never merge.
    """
    shown: list[int] = []
    events: list[dict] = []
    content = 0
    kind = "loss"
    while True:
        gap = int(rng.integers(*GAP_RANGE))
        duration = int(rng.integers(*FREEZE_RANGE))
        if len(shown) + gap + duration + GAP_RANGE[0] > frames:
            break
        for _ in range(gap):
            shown.append(content)
            content += 1
        events.append({"start_frame": len(shown), "duration": duration})
        shown.extend([shown[-1]] * duration)
        if kind == "loss":
            content += duration
        kind = "delay" if kind == "loss" else "loss"
    while len(shown) < frames:
        shown.append(content)
        content += 1
    return shown, events


def write_clip(path: str, rng: np.random.Generator, width: int, height: int,
               frames: int) -> list[dict]:
    """Write one degraded clip and return its true freeze events."""
    shown, events = display_schedule(rng, frames)
    tex_h = max(256, 2 * height)
    tex_w = max(512, 2 * width)
    texture = smooth_texture(rng, tex_h, tex_w)
    rows = np.arange(height)
    cols = np.arange(width)
    chroma = np.full(2 * ((width + 1) // 2) * ((height + 1) // 2), 128,
                     dtype=np.uint8).tobytes()
    with open(path, "wb") as sink:
        sink.write(f"YUV4MPEG2 W{width} H{height} F25:1 Ip A1:1 C420jpeg\n"
                   .encode("ascii"))
        for content in shown:
            y0 = (content * PAN_STEP[1]) % tex_h
            x0 = (content * PAN_STEP[0]) % tex_w
            plane = texture.take((rows + y0) % tex_h, axis=0)
            plane = plane.take((cols + x0) % tex_w, axis=1).astype(np.int16)
            hit = rng.random(plane.shape) < CAPTURE_NOISE
            plane[hit] += rng.integers(0, 2, size=int(hit.sum())) * 2 - 1
            sink.write(b"FRAME\n")
            sink.write(plane.astype(np.uint8).tobytes())
            sink.write(chroma)
    return events


def write_table(path: str, rng: np.random.Generator, rows: int) -> None:
    """Thirteen uniform feature columns and a DMOS from the planted net."""
    x = rng.uniform(0.0, 3.0, size=(rows, len(FEATURE_NAMES)))
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    w = rng.choice([-1.0, 1.0], size=len(FEATURE_NAMES))
    w *= PLANTED_NORM / np.linalg.norm(w)
    dmos = 1.0 + 3.0 / (1.0 + np.exp(-(z @ w)))
    dmos += rng.normal(0.0, DMOS_NOISE, size=rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(["id", "source_id", "dmos", *FEATURE_NAMES])
        for i in range(rows):
            out.writerow([f"s{i:03d}", f"src{i % 8}", repr(float(dmos[i])),
                          *(repr(float(v)) for v in x[i])])


def generate(workload: str, seed: int, out_dir: str, size: str = "full") -> dict:
    spec = SPECS[workload][size]
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "size": size}
    if workload == "train_search":
        manifest["tables"] = []
        for i in range(spec["tables"]):
            path = os.path.join(out_dir, f"table{i}.csv")
            write_table(path, rng, spec["rows"])
            manifest["tables"].append({"path": path, "rows": spec["rows"]})
        manifest["planted"] = {"features": list(FEATURE_NAMES),
                               "hidden_nodes": 1}
    else:
        manifest["clips"] = []
        for i in range(spec["clips"]):
            path = os.path.join(out_dir, f"clip{i}.y4m")
            events = write_clip(path, rng, spec["width"], spec["height"],
                                spec["frames"])
            manifest["clips"].append({
                "path": path, "width": spec["width"], "height": spec["height"],
                "frames": spec["frames"], "events": events,
            })
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.size)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
