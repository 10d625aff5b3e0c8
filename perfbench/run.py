"""The jerkmeter benchmark: end-to-end and per-module figures for one workload.

    python3 perfbench/run.py --workload score_720p --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --repeats 3

Run it from the root of a jerkmeter checkout; it uses the sources under
``src/`` there and nothing installed. Workloads, metrics and bounds are
listed in ``BENCHMARK.json`` beside ``perfbench/``.

For one workload it
  1. generates the inputs from the seed in a separate process
     (``perfbench/gen.py``), so generation counts towards nothing;
  2. starts short-lived probe processes that import ``jerkmeter.cli`` and
     load the model the workload needs, for ``setup_s``;
  3. starts one work process (``perfbench/child.py``) that calls
     ``jerkmeter.cli.run`` on the inputs in turn for ``--seconds``, as the
     console script would, and reports each call's time, output digest,
     and its own peak RSS;
  4. checks every output: detected freeze events equal the injected ones,
     output is byte-identical across repeats, ``train`` finds the planted
     structure and its model reaches a PCC floor on its own table.

With ``--trace 0`` no call is traced and the result holds the end-to-end
metrics. With ``--trace 1`` the work process alternates untraced and
traced passes over the inputs; traced calls record spans at each module
boundary (``perfbench/tracing.py``) and the result holds the per-layer
metrics, with the tracing overhead as traced minus untraced call time.

A human-readable report goes to stderr. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"

# Set-up probes besides the work process, half before it and half after,
# so drift during the run reaches set-up time as it reaches call time.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
PCC_FLOOR = 0.99
# Largest gap between a traced score call's duration and the sum of its
# spans' self times, as a share of the duration.
SELF_SUM_TOLERANCE = 0.01

TRAIN_ARGS = {
    # Paper defaults: 10 folds, 5 restarts, 500 iterations, cap 52. The
    # structure set is cut to the 12- and 13-feature subsets with one
    # hidden node: 14 structures in two (N, M) groups.
    "full": ["--subset-sizes", "12,13", "--hidden", "1", "--folds", "10",
             "--lm-restarts", "5", "--lm-max-iters", "500", "--cap", "52"],
    "tiny": ["--subset-sizes", "12,13", "--hidden", "1", "--folds", "5",
             "--lm-restarts", "5", "--lm-max-iters", "100", "--cap", "52"],
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spawn_child(root: str, job: dict, job_path: str, timeout: float) -> dict:
    """Run child.py on ``job`` and return its result document."""
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), job_path, repr(spawn)],
        cwd=root, env=env, timeout=timeout, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} process failed with code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(job["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    src = os.path.join(root, "src") + os.sep
    if not result["jerkmeter"].startswith(src):
        raise BenchError(f"imported jerkmeter from {result['jerkmeter']}, "
                         f"not from {src}")
    return result


def build_job(workload: str, manifest: dict, run_dir: str, seed: int,
              size: str) -> tuple[list[dict], list[dict]]:
    """The timed calls and the untimed check calls of one workload."""
    if workload == "train_search":
        calls, checks = [], []
        for k, table in enumerate(manifest["tables"]):
            model = os.path.join(run_dir, f"model{k}.json")
            calls.append({"key": str(k), "argv": [
                "train", "--data", table["path"], "--out", model, "--json",
                "--threads", str(nproc()), "--seed", str(seed),
                *TRAIN_ARGS[size]]})
            checks.append({"key": str(k), "argv": [
                "eval", "--data", table["path"], "--model", model, "--json"]})
        return calls, checks
    calls = [{"key": str(i), "argv": ["score", clip["path"], "--json"],
              "width": clip["width"], "height": clip["height"],
              "frames": clip["frames"]}
             for i, clip in enumerate(manifest["clips"])]
    return calls, []


def failed_keys(workload: str, manifest: dict, result: dict) -> dict[str, str]:
    """Inputs whose (first) output is wrong, with the reason."""
    bad = {}
    for key, out in result["first_out"].items():
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            bad[key] = "output is not JSON"
            continue
        if workload == "train_search":
            planted = manifest["planted"]
            best = doc.get("best") if isinstance(doc, dict) else None
            if not isinstance(best, dict):
                bad[key] = "output has no best structure"
            elif sorted(best["features"]) != sorted(planted["features"]) \
                    or best["hidden_nodes"] != planted["hidden_nodes"]:
                bad[key] = (f"picked {len(best['features'])} features with "
                            f"{best['hidden_nodes']} hidden nodes")
        else:
            truth = manifest["clips"][int(key)]["events"]
            events = doc.get("events") if isinstance(doc, dict) else None
            if events != truth:
                bad[key] = (f"detected {len(events or [])} events, "
                            f"injected {len(truth)}")
    for check in result["checks"]:
        try:
            pcc = json.loads(check["out"])["pcc"] if check["code"] == 0 else None
        except (json.JSONDecodeError, KeyError):
            pcc = None
        if pcc is None or not pcc >= PCC_FLOOR:
            bad.setdefault(check["key"], f"model check failed (pcc {pcc})")
    return bad


def run_workload(root: str, bench: dict, workload: str, seed: int,
                 seconds: float, trace: bool, size: str = "full",
                 fault: bool = False) -> dict:
    run_dir = os.path.join(root, WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        gen = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", run_dir, "--size", size],
            cwd=root, timeout=120, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if gen.returncode != 0:
            raise BenchError(f"input generation failed:\n{gen.stderr[-4000:]}")
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)

        load_model = workload != "train_search"
        probe = {"mode": "probe", "load_model": load_model,
                 "result": os.path.join(run_dir, "probe.json")}
        job_path = os.path.join(run_dir, "job.json")
        spawn_child(root, probe, job_path, PROBE_TIMEOUT_S)  # warms caches
        setups = [spawn_child(root, probe, job_path, PROBE_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]

        calls, checks = build_job(workload, manifest, run_dir, seed, size)
        job = {"mode": "work", "load_model": load_model, "calls": calls,
               "checks": checks, "seconds": seconds, "trace": trace,
               "fault": fault, "result": os.path.join(run_dir, "work.json"),
               "spans": os.path.join(root, WORK_ROOT, f"spans-{workload}.jsonl")}
        result = spawn_child(root, job, job_path, seconds + 150)
        setups.append(result["setup_s"])
        setups += [spawn_child(root, probe, job_path, PROBE_TIMEOUT_S)["setup_s"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return summarise_run(bench, workload, manifest, result, setups, trace)


def summarise_run(bench, workload, manifest, result, setups, trace) -> dict:
    bad = failed_keys(workload, manifest, result)
    records = result["records"]
    digests = {key: hashlib.sha256(out.encode("utf-8")).hexdigest()
               for key, out in result["first_out"].items()}
    problems = dict(bad)
    failed = 0
    for r in records:
        reason = None
        if r["code"] != 0:
            reason = f"exit code {r['code']}"
        elif r["key"] in bad:
            reason = bad[r["key"]]
        elif r["digest"] != digests[r["key"]]:
            reason = "output differs from an earlier run on the same input"
        elif r["traced"] and workload != "train_search" and abs(
                r["layers"]["trace.self_sum_ratio"] - 1.0) > SELF_SUM_TOLERANCE:
            reason = "self times do not add up to the root span"
        if reason:
            failed += 1
            problems.setdefault(r["key"], reason)
    for c in result["checks"]:
        if c["key"] in bad:
            failed += 1
    attempted = len(records) + len(result["checks"])

    plain = [r["seconds"] for r in records if not r["traced"]]
    traced = [r["seconds"] for r in records if r["traced"]]
    best_mse = []
    for out in result["first_out"].values():
        try:
            best_mse.append(float(json.loads(out)["best"]["cv_error"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
    report = {
        "setup_s": statistics.median(setups),
        "call_ms": 1e3 * statistics.fmean(plain),
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": failed / attempted,
        "calls": len(plain),
        "proc.cpu_s": result["proc.cpu_s"],
        "host.steal_s": result["host.steal_s"],
    }
    if workload == "train_search":
        report["inputs"] = [f"{len(manifest['tables'])} tables of "
                            f"{manifest['tables'][0]['rows']} rows",
                            f"--threads {nproc()}"]
        report["train_s"] = statistics.fmean(plain)
        report["best_cv_mse"] = statistics.fmean(best_mse) if best_mse else 0.0
    else:
        frames = {str(i): clip["frames"] for i, clip in enumerate(manifest["clips"])}
        scored = sum(frames[r["key"]] for r in records if not r["traced"])
        report["score_fps"] = scored / sum(plain)
        report["inputs"] = [f"{c['width']}x{c['height']}x{c['frames']}"
                            for c in manifest["clips"]]

    if trace:
        layers = {}
        traced_records = [r for r in records if r["traced"]]
        for name in traced_records[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced_records)
        layers["proc.cpu_s"] = result["proc.cpu_s"]
        layers["host.steal_s"] = result["host.steal_s"]
        layers["training.best_cv_mse"] = report.get("best_cv_mse", 0.0)
        overhead = statistics.median(traced) - statistics.median(plain)
        layers["trace.overhead_ms"] = 1e3 * overhead
        layers["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
        wanted = bench["per_layer"]
        values = layers
    else:
        wanted = bench["end_to_end"]
        values = report
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"workload": workload, "correct": failed == 0, "attempted": attempted,
            "self_sum_ratio": layers.get("trace.self_sum_ratio") if trace else None,
            "failed": failed, "metrics": metrics, "report": report,
            "problems": problems, "trace": trace}


def print_report(run: dict, bench: dict) -> None:
    err = sys.stderr
    rep = run["report"]
    print(f"== {run['workload']}: {rep['calls']} untraced calls"
          + (f" on {', '.join(rep['inputs'])}" if "inputs" in rep else ""), file=err)
    units = {"setup_s": "s", "call_ms": "ms", "peak_rss_mb": "MB",
             "error_rate": "ratio", "score_fps": "frames/s", "train_s": "s",
             "best_cv_mse": "MSE", "proc.cpu_s": "s", "host.steal_s": "s"}
    for name, unit in units.items():
        if name in rep:
            print(f"  {name:<16} {rep[name]:.6g} {unit}", file=err)
    if run["trace"]:
        print("  per layer (median over traced calls):", file=err)
        print(f"    {'self times / cli.run duration':<34} "
              f"{run['self_sum_ratio']:.6g} ratio", file=err)
        for m in bench["per_layer"]:
            value = run["metrics"][m["name"]]["value"]
            print(f"    {m['name']:<34} {value:.6g} {m['unit']}", file=err)
    for key, reason in sorted(run["problems"].items()):
        print(f"  FAILED input {key}: {reason}", file=err)


def host_record() -> str:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return (f"host: nproc {nproc()}, cpu {cpu_model()}, python "
            f"{platform.python_version()}, numpy {numpy_version}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --workload all: interleaved passes over "
                             "the workloads, one seed each")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--fault", action="store_true",
                        help="plant one wrong output, for the benchmark's own test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jerkmeter", "cli.py")):
        print(f"perfbench: no jerkmeter sources under {root}/src", file=sys.stderr)
        return 2
    bench = load_benchmark(root)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        plan = [(w, args.seed + r) for r in range(args.repeats) for w in names]
    elif args.workload in names:
        plan = [(args.workload, args.seed)]
    else:
        parser.error(f"--workload must be one of {names} or all")

    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(host_record(), file=sys.stderr)
    runs = []
    try:
        for workload, seed in plan:
            run = run_workload(root, bench, workload, seed, args.seconds,
                               bool(args.trace), args.size, args.fault)
            print_report(run, bench)
            runs.append(run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {}
        for w in names:
            mine = [r for r in runs if r["workload"] == w]
            for name, m in mine[0]["metrics"].items():
                metrics[f"{w}.{name}"] = {
                    "value": statistics.median(r["metrics"][name]["value"] for r in mine),
                    "unit": m["unit"]}
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
