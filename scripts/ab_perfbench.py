"""Alternating-pair comparison of two checkouts on one perfbench workload.

    python3 scripts/ab_perfbench.py PARENT_DIR CHANGE_DIR --workload score_720p \
        --pairs 10 --seconds 6 --seed 101 --out ab.json

Each pair runs ``perfbench/run.py`` (``--trace 0``) once in each checkout
on the same seed, ``--seed`` plus the pair's number; which side goes
first alternates from pair to pair, so drift on the host reaches both
sides alike. Each pair also adds an environment variable of 1 to 48
bytes, the same on both sides, since some timings move with the byte
size of the environment. For every end-to-end metric of
``BENCHMARK.json`` it prints and writes each side's median and
quartiles, the change in the median, in how many pairs the change
side was better, and a verdict against the metric's ``bound`` (a share
of the parent's median):

  worse         the change's median is worse than the parent's by more
                than the bound;
  unresolved    the parent's quartile spread is wider than the bound,
                and not every change run beats every parent run;
  within bound  anything else.

Every run's metrics, seed and order go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_side(checkout: str, workload: str, seed: int, seconds: float, size: str,
             pad: int) -> tuple[dict, str]:
    """One perfbench run in ``checkout``: (its result document, its host line)."""
    env = dict(os.environ, AB_PERFBENCH_PAD="x" * pad)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--size", size],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench failed in {checkout} (code {proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    host = next((line for line in proc.stderr.splitlines()
                 if line.startswith("host:")), "")
    return json.loads(lines[-1]), host


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in SIDES}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * c < sign * p
                   for p, c in zip(sides["parent"], sides["change"]))
        q = {side: quartiles(values) for side, values in sides.items()}
        margin = metric["bound"] * q["parent"][1]
        beats_all = all(sign * c < sign * p
                        for p in sides["parent"] for c in sides["change"])
        if sign * (q["change"][1] - q["parent"][1]) > margin:
            verdict = "worse"
        elif q["parent"][2] - q["parent"][0] > margin and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {"median": q["parent"][1], "q1": q["parent"][0],
                       "q3": q["parent"][2]},
            "change": {"median": q["change"][1], "q1": q["change"][0],
                       "q3": q["change"][2]},
            "change_pct": 100.0 * (q["change"][1] / q["parent"][1] - 1.0),
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "bound": metric["bound"],
            "verdict": verdict,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs, host = [], ""
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0], "env_pad_bytes": i % 48 + 1}
        for side in order:
            pair[side], host = run_side(dirs[side], args.workload, seed, args.seconds,
                                        args.size, pair["env_pad_bytes"])
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
            f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
            f"{pair['change']['metrics'][name]['value']:.4g}"
            for name in (m["name"] for m in metrics)), file=sys.stderr)

    summary = summarise(pairs, metrics)
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    print(f"{args.workload}: {args.pairs} alternating pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, {args.seconds:g} s runs; {host}")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"  {name:<12} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
              f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {s['unit']}"
              f"  ({s['change_pct']:+.1f} %, change better in "
              f"{s['change_better_pairs']}/{s['pairs']}): {s['verdict']}")
    print(f"  failed operations: parent {failed['parent']}, change {failed['change']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "host": host, "seconds": args.seconds,
                       "size": args.size, "failed": failed,
                       "summary": summary, "pairs": pairs}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
