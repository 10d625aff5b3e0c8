"""Index-ordered work on forked processes, shared by analysis and training.

The calling process and children forked from it claim task indices from
one shared counter. ``multiprocessing`` is imported only when a second
process is started, so a serial run never loads it.
"""

from __future__ import annotations

import os

from .errors import JerkmeterError


def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _worker_count(workers: int, tasks: int) -> int:
    """Processes `tasks` run on when `workers` are asked for.

    No more than one per task, nor more than the CPUs this process may run on.
    """
    return min(workers, tasks, cpu_count())


def _claim(evaluate, counter, total: int) -> list[tuple[int, object]]:
    """(index, result or JerkmeterError) of each task this process claims.

    Indices are claimed one at a time from the shared `counter`. After an
    error no process claims a later index, whose result cannot matter.
    """
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= total:
            return done
        try:
            done.append((i, evaluate(i)))
        except JerkmeterError as exc:
            done.append((i, exc))
            with counter.get_lock():
                counter.value = total


def _claimed_map(evaluate, total: int, workers: int) -> list:
    """``[evaluate(i) for i in range(total)]``, run by up to `workers` processes.

    This process and ``workers - 1`` children forked from it claim indices
    one at a time, so tasks of unequal cost still keep every process busy.
    The results come back in index order, and the JerkmeterError of the
    lowest failing index is raised: what the list comprehension gives.
    """
    workers = _worker_count(workers, total) if hasattr(os, "fork") else 1
    if workers <= 1:
        return [evaluate(i) for i in range(total)]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)

    def child(writer):
        writer.send(_claim(evaluate, counter, total))

    children = []
    try:
        for _ in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(writer,))
            proc.start()
            writer.close()  # so `recv` sees EOF if the child dies
            children.append((proc, reader))
        results = _claim(evaluate, counter, total)
        for proc, reader in children:
            try:
                results += reader.recv()
            except EOFError:
                proc.join()
                raise JerkmeterError(
                    f"a search worker exited with code {proc.exitcode} "
                    "before reporting its results") from None
            proc.join()
    finally:
        for proc, reader in children:
            proc.terminate()  # no-op for a child already joined
            proc.join()
            reader.close()
    results.sort(key=lambda item: item[0])
    for _, value in results:
        if isinstance(value, JerkmeterError):
            raise value
    return [value for _, value in results]
