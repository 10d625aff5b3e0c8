"""Index-ordered work on forked processes, shared by analysis and training.

The calling process and children forked from it claim task indices one at
a time through a token in one pipe; each child sends its results back
through a pipe of its own.
"""

from __future__ import annotations

import os
import pickle

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


def _claim(evaluate, token: tuple[int, int], total: int) -> list[tuple[int, object]]:
    """(index, result or JerkmeterError) of each task this process claims.

    The next index is the one 8-byte token in the `token` pipe: a process
    holds the claim from its read until it writes the next index back, or
    `total` after an error, since a later index's result cannot matter.
    """
    done = []
    while True:
        i = int.from_bytes(os.read(token[0], 8), "little")
        failed = bool(done) and isinstance(done[-1][1], JerkmeterError)
        os.write(token[1], (total if failed else min(i + 1, total)).to_bytes(8, "little"))
        if failed or i >= total:
            return done
        try:
            done.append((i, evaluate(i)))
        except JerkmeterError as exc:
            done.append((i, exc))


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
    token = os.pipe()
    os.write(token[1], bytes(8))
    children = {}  # pid: the reading end of its result pipe
    try:
        for _ in range(workers - 1):
            reader, writer = map(open, os.pipe(), ("rb", "wb"))
            if not (pid := os.fork()):  # the child always leaves through os._exit
                code = 1
                try:
                    pickle.dump(_claim(evaluate, token, total), writer)
                    writer.close()
                    code = 0
                except BaseException:
                    import traceback
                    traceback.print_exc()
                finally:
                    os._exit(code)
            writer.close()  # so that `read` sees EOF if the child dies
            children[pid] = reader
        results = _claim(evaluate, token, total)
        for pid, reader in list(children.items()):
            data = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if code:
                raise JerkmeterError(f"a search worker exited with code {code} "
                                     "before reporting its results")
            results += pickle.loads(data)
    finally:
        for pid, reader in children.items():
            os.kill(pid, 9)  # SIGKILL: a child may be blocked on the token
            os.waitpid(pid, 0)
            reader.close()
        os.close(token[0])
        os.close(token[1])
    results.sort(key=lambda item: item[0])
    for _, value in results:
        if isinstance(value, JerkmeterError):
            raise value
    return [value for _, value in results]
