"""One workload process of the jerkmeter benchmark.

    python3 perfbench/child.py JOB_JSON SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process; on Linux that clock is shared by all processes, so set-up
time runs from spawn until ``jerkmeter.cli`` is imported and the model the
workload needs is loaded. In ``probe`` mode the process stops there. In
``work`` mode it then calls ``jerkmeter.cli.run`` on the job's argument
lists in turn, timing each call, until the job's seconds are used up and
every argument list has run at least once (twice when tracing: once
untraced, once traced). Untimed check calls follow. The result goes to
the job's result file as JSON; program output is captured, never printed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spawn = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)

    import jerkmeter.cli as cli
    if job["load_model"]:
        from jerkmeter.quality_model import default_model
        default_model()
    setup_s = time.monotonic() - spawn

    result = {"setup_s": setup_s, "jerkmeter": os.path.abspath(cli.__file__)}
    if job["mode"] == "work":
        result.update(work(cli, job))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def read_steal_s() -> float:
    """Steal time of all CPUs since boot, in seconds; 0 if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def invoke(cli, argv, tracer=None):
    """One ``cli.run`` call with output captured; (code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = cli.run(argv)
        else:
            code = tracer.call("cli.run", cli.run, (argv,), {})
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def plant_fault():
    """Make the next detection drop its last event: a wrong output on purpose."""
    import jerkmeter.features as features

    original = features.detect_freezes

    def faulty(*args, **kwargs):
        features.detect_freezes = original
        timeline = original(*args, **kwargs)
        timeline.events = timeline.events[:-1]
        return timeline

    features.detect_freezes = faulty


def work(cli, job) -> dict:
    from tracing import Tracer, cpu_seconds, summarise

    calls = job["calls"]
    tracer = Tracer() if job["trace"] else None
    cycles = 2 if tracer else 1
    if job["fault"]:
        plant_fault()

    records = []
    first_out = {}
    traced_spans = []
    cpu0, steal0 = cpu_seconds(), read_steal_s()
    wall0 = time.perf_counter()
    deadline = wall0 + job["seconds"]
    i = 0
    while i < cycles * len(calls) or time.perf_counter() < deadline:
        call = calls[i % len(calls)]
        traced = tracer is not None and (i // len(calls)) % 2 == 1
        if traced:
            tracer.install()
        try:
            code, out, seconds = invoke(cli, call["argv"], tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record = {"key": call["key"], "code": code, "seconds": seconds,
                  "traced": traced,
                  "digest": hashlib.sha256(out.encode("utf-8")).hexdigest()}
        first_out.setdefault(call["key"], out)
        if traced:
            spans = tracer.take()
            record["layers"] = summarise(spans, call)
            traced_spans.append(spans)
        records.append(record)
        i += 1
    wall = time.perf_counter() - wall0
    noise = {"proc.cpu_s": cpu_seconds() - cpu0, "host.steal_s": read_steal_s() - steal0}

    checks = []
    for check in job["checks"]:
        code, out, _ = invoke(cli, check["argv"])
        checks.append({"key": check["key"], "code": code, "out": out})

    if traced_spans and job.get("spans"):
        with open(job["spans"], "w", encoding="utf-8") as handle:
            for n, spans in enumerate(traced_spans):
                for s in spans:
                    handle.write(json.dumps([n, s.id, s.parent, s.name, s.start,
                                             s.end, s.counts]) + "\n")
    return {"records": records, "first_out": first_out, "checks": checks,
            "wall_s": wall, **noise}


if __name__ == "__main__":
    raise SystemExit(main())
