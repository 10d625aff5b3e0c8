"""In-process `score` timings and peak RSS of two checkouts, clip by clip.

    python3 scripts/bench_split.py PARENT_DIR CHANGE_DIR --pairs 10 --out split.json

perfbench reports one call time per workload and the peak RSS of the
calling process only. This script fills in what that leaves out when
analysis forks: for each clip below, alternating pairs of fresh
processes, one per checkout, each import that checkout's ``src`` and time
``--calls`` ``jerkmeter.cli.run(["score", CLIP, "--json"])`` calls. Each
process reports its median call time, its own peak RSS
(``RUSAGE_SELF``), the largest peak RSS of its reaped children
(``RUSAGE_CHILDREN``, 0 when it never forked) and whether it imported
``multiprocessing``. The stdout of every call must match across both
checkouts. The clips:

  tiny_720p, tiny_long  perfbench ``--size tiny`` inputs (96x64x40, 64x64x600)
  small_300             a 64x64 ``synth`` clip of 300 frames
  perf_720p, perf_long  perfbench ``score_720p`` and ``score_long_small`` clips
  hd_1080p              a 1920x1080 ``synth`` clip of 120 frames, noise 0.01

With ``--floor-sweep`` it instead times ``compute_series`` on CHANGE_DIR's
jerkmeter with every clip split, against serial, on 64x64 and 1280x720
clips of 16 to 64 MiB: where splitting starts to pay.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def child(src: str, clip: str, calls: int) -> None:
    """Time ``calls`` score calls on ``clip`` with the jerkmeter under ``src``."""
    import resource

    sys.path.insert(0, src)
    import jerkmeter.cli as cli
    from jerkmeter.quality_model import default_model

    default_model()
    times, out = [], None
    for _ in range(calls):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = cli.run(["score", clip, "--json"])
            times.append(time.perf_counter() - start)
        if code != 0 or (out is not None and sink.getvalue() != out):
            raise SystemExit(f"score on {clip} exited {code} or changed output")
        out = sink.getvalue()
    usage = {who: resource.getrusage(who).ru_maxrss / 1024.0
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
    print(json.dumps({
        "call_ms": 1e3 * statistics.median(times),
        "self_rss_mb": usage[resource.RUSAGE_SELF],
        "children_rss_mb": usage[resource.RUSAGE_CHILDREN],
        "forked": "multiprocessing" in sys.modules,
        "stdout": out,
    }))


# name: (perfbench workload, size) or (frames, synth size, noise)
CLIPS = {
    "tiny_720p": ("score_720p", "tiny"),
    "tiny_long": ("score_long_small", "tiny"),
    "small_300": (300, "64x64", "0"),
    "perf_720p": ("score_720p", "full"),
    "perf_long": ("score_long_small", "full"),
    "hd_1080p": (120, "1920x1080", "0.01"),
}


def make_clip(work: str, name: str, seed: int) -> str:
    spec = CLIPS[name]
    out = os.path.join(work, name)
    if isinstance(spec[0], str):
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "gen.py"),
                        "--workload", spec[0], "--seed", str(seed), "--out", out,
                        "--size", spec[1]], check=True)
        return os.path.join(out, "clip0.y4m")
    frames, size, noise = spec
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "jerkmeter.cli", "synth", "--frames",
                    str(frames), "--size", size, "--noise", noise, "--velocity", "3",
                    "--seed", str(seed), "--out", out + ".y4m"],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return out + ".y4m"


def floor_sweep(src: str, reps: int) -> dict:
    """``compute_series`` with every file split against serial, by clip size.

    Run in this process on ``src``'s jerkmeter with the size floor set to
    0. Each repetition times every clip both ways, in alternating order,
    so that load from elsewhere on the host reaches all sizes alike. The
    clips are written by ``synth`` processes, so this one stays as small
    as the CLI.
    """
    sys.path.insert(0, src)
    from jerkmeter import Y4MReader, compute_series, frame_analysis
    from jerkmeter.pool import cpu_count

    frame_analysis._SPLIT_BYTES = 0
    with tempfile.TemporaryDirectory(prefix="bench_split_") as work:
        clips = {}
        for width, height in ((64, 64), (1280, 720)):
            for mib in (16, 24, 32, 48, 64):
                frames = mib * 2**20 // (width * height * 3 // 2 + 6)
                path = os.path.join(work, f"{width}x{height}_{mib}.y4m")
                subprocess.run([sys.executable, "-m", "jerkmeter.cli", "synth", "--frames",
                                str(frames), "--size", f"{width}x{height}", "--velocity",
                                "3", "--out", path], check=True, stdout=subprocess.DEVNULL,
                               env=dict(os.environ, PYTHONPATH=src))
                clips[f"{width}x{height} {mib} MiB"] = (frames, path)
        times = {key: {1: [], cpu_count(): []} for key in clips}
        for i in range(-1, reps):  # the first round warms up, untimed
            for key, (_, path) in clips.items():
                for workers in sorted(times[key], reverse=bool(i % 2)):
                    with open(path, "rb") as handle:
                        start = time.perf_counter()
                        compute_series(Y4MReader(handle), workers=workers)
                        if i >= 0:
                            times[key][workers].append(1e3 * (time.perf_counter() - start))
    sweep = {}
    for key, (frames, _) in clips.items():
        serial, split = times[key].values()
        sweep[key] = {"frames": frames, "serial_ms": statistics.median(serial),
                      "split_ms": statistics.median(split),
                      "split_better": sum(b < a for a, b in zip(serial, split)),
                      "reps": reps}
        print(f"{key} ({frames} frames): serial {sweep[key]['serial_ms']:.2f} ms,"
              f" split {sweep[key]['split_ms']:.2f} ms, split better in "
              f"{sweep[key]['split_better']}/{reps}", flush=True)
    return sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--calls", type=int, default=9,
                        help="score calls per process (default 9)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--clips", default=None,
                        help="comma-separated clip names (default all)")
    parser.add_argument("--out", default=None)
    parser.add_argument("--floor-sweep", action="store_true",
                        help="time split against serial by clip size on CHANGE_DIR "
                             "alone, with the size floor at 0")
    parser.add_argument("--child", nargs=3, metavar=("SRC", "CLIP", "CALLS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], args.child[1], int(args.child[2]))
        return 0

    srcs = {side: os.path.join(os.path.abspath(d), "src")
            for side, d in (("parent", args.parent), ("change", args.change))}
    if args.floor_sweep:
        record = {"floor_sweep": floor_sweep(srcs["change"], 2 * args.pairs + 1)}
    else:
        record = compare(srcs, args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


def compare(srcs: dict[str, str], args) -> dict:
    """Alternating pairs of score processes on each clip, one per checkout."""
    work = tempfile.mkdtemp(prefix="bench_split_")
    record = {"calls_per_process": args.calls, "pairs": args.pairs, "seed": args.seed,
              "clips": {}}
    try:
        for name in args.clips.split(",") if args.clips else CLIPS:
            clip = make_clip(work, name, args.seed)
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    proc = subprocess.run(
                        [sys.executable, __file__, "--child", srcs[side], clip,
                         str(args.calls)], check=True, capture_output=True, text=True)
                    runs[side].append(json.loads(proc.stdout))
            if len({r.pop("stdout") for side in runs.values() for r in side}) != 1:
                raise SystemExit(f"{name}: the checkouts printed different scores")
            entry = {"bytes": os.path.getsize(clip)}
            os.unlink(clip)
            for side, results in runs.items():
                ms = [r["call_ms"] for r in results]
                q1, med, q3 = statistics.quantiles(ms, n=4, method="inclusive")
                entry[side] = {
                    "call_ms": {"median": med, "q1": q1, "q3": q3},
                    "self_rss_mb": max(r["self_rss_mb"] for r in results),
                    "children_rss_mb": max(r["children_rss_mb"] for r in results),
                    "forked": any(r["forked"] for r in results),
                }
            entry["change_better_pairs"] = sum(
                c["call_ms"] < p["call_ms"] for p, c in zip(runs["parent"], runs["change"]))
            entry["change_pct"] = 100.0 * (entry["change"]["call_ms"]["median"]
                                           / entry["parent"]["call_ms"]["median"] - 1.0)
            record["clips"][name] = entry
            p, c = entry["parent"], entry["change"]
            print(f"{name:<10} call_ms {p['call_ms']['median']:8.2f} -> "
                  f"{c['call_ms']['median']:8.2f} ({entry['change_pct']:+.1f} %, "
                  f"{entry['change_better_pairs']}/{args.pairs})  self RSS "
                  f"{p['self_rss_mb']:.1f} -> {c['self_rss_mb']:.1f} MB  children "
                  f"{p['children_rss_mb']:.1f} -> {c['children_rss_mb']:.1f} MB  "
                  f"forked {p['forked']} -> {c['forked']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return record


if __name__ == "__main__":
    raise SystemExit(main())
