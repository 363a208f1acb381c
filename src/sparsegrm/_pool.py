"""One bounded process pool for the independent fits of a public call.

The CV fold chains of a stage and the starts of a multistart fit share no
state, so they run as tasks on worker processes.  Each public call
(``select_lambda``, ``fit_multistart``, ``tune_and_fit``) opens at most one
pool; ``tune_and_fit`` shares its pool between both CV stages and the final
starts.  Tasks are submitted in a fixed order and their results are read
back in that order, so every result is bit-identical to a serial run.

A pool has min(usable CPUs // threads, tasks) workers, because each fit
may run ``threads`` update blocks of its own.  Below two workers, or where
the ``fork`` start method is missing, the tasks run in this process, in
order.  Workers are forked: ``spawn`` and ``forkserver`` would re-import
numpy and the package in each worker first.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(n_tasks: int, threads: int, cpus: int) -> int:
    """Workers for n_tasks fits of `threads` blocks each on `cpus` CPUs.

    The pool runs only with two or more; fewer means the tasks run serially.
    """
    return min(cpus // threads, n_tasks)


@contextmanager
def task_pool(n_tasks: int, threads: int):
    """A forked process pool for up to n_tasks fits at a time, or None."""
    n = worker_count(n_tasks, threads, usable_cpus())
    if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def shared_pool(pool, n_tasks: int, threads: int):
    """The caller's pool when it passed one, else a new task_pool."""
    return nullcontext(pool) if pool is not None else task_pool(n_tasks, threads)


def run_tasks(pool, fn, arg_lists) -> list:
    """[fn(*args) for args in arg_lists], on the pool when there is one.

    The pool may also be a fit's thread pool (optimizer._phase).  On a
    process pool, fn must be a module-level function, so a worker can find
    it by name.  A task's exception is raised here, with its own type.
    """
    if pool is None or len(arg_lists) < 2:
        return [fn(*args) for args in arg_lists]
    futures = [pool.submit(fn, *args) for args in arg_lists]
    return [f.result() for f in futures]
