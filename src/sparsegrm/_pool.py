"""Bounded process pools: one for the independent fits of a public call,
and one for the update blocks of each fit.

The CV fold chains of a stage and the starts of a multistart fit share no
state, so they run as tasks on worker processes.  Each public call
(``select_lambda``, ``fit_multistart``, ``tune_and_fit``) opens at most one
pool; ``tune_and_fit`` shares its pool between both CV stages and the final
starts.  Tasks are submitted in a fixed order and their results are read
back in that order, so every result is bit-identical to a serial run.

A pool has min(usable CPUs // threads, tasks) workers, because each fit
may run ``threads`` worker processes of its own.  A fit (optimizer.fit) of
more than optimizer.FORK_CELLS cells opens its pool for ``threads`` tasks
of one CPU each, so with min(threads, usable CPUs) workers, and hands them
its arrays, which live in anonymous shared mappings (shared_array), through
the pool's initializer.  Below two workers, or where the ``fork`` start
method is missing, the tasks run in this process, in order.  Workers are
forked: ``spawn`` and ``forkserver`` would re-import numpy and the package
in each worker first, and would pickle an initializer's arguments instead
of inheriting them.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(n_tasks: int, threads: int, cpus: int) -> int:
    """Workers for n_tasks tasks of `threads` CPUs each on `cpus` CPUs.

    The pool runs only with two or more; fewer means the tasks run serially.
    """
    return min(cpus // threads, n_tasks)


def pool_workers(n_tasks: int, threads: int) -> int:
    """Workers task_pool(n_tasks, threads) forks; 0 when its tasks run in this process."""
    n = worker_count(n_tasks, threads, usable_cpus())
    return n if n >= 2 and "fork" in multiprocessing.get_all_start_methods() else 0


def shared_array(a: np.ndarray) -> np.ndarray:
    """A copy of a in an anonymous shared mapping, which forked workers write in place."""
    out = np.frombuffer(mmap.mmap(-1, max(a.nbytes, 1)), dtype=a.dtype, count=a.size)
    out = out.reshape(a.shape)
    out[...] = a
    return out


@contextmanager
def task_pool(n_tasks: int, threads: int, initializer=None, initargs=()):
    """A forked process pool for up to n_tasks tasks at a time, or None.

    Each worker calls initializer(*initargs) first; the arguments reach it
    through the fork, not by pickling.
    """
    n = pool_workers(n_tasks, threads)
    if not n:
        yield None
        return
    pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"),
                               initializer=initializer, initargs=initargs)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def shared_pool(pool, n_tasks: int, threads: int):
    """The caller's pool when it passed one, else a new task_pool."""
    return nullcontext(pool) if pool is not None else task_pool(n_tasks, threads)


def run_tasks(pool, fn, arg_lists) -> list:
    """[fn(*args) for args in arg_lists], on the pool when there is one.

    On a process pool, fn must be a module-level function, so a worker can
    find it by name.  A task's exception is raised here, with its own type.
    """
    if pool is None or len(arg_lists) < 2:
        return [fn(*args) for args in arg_lists]
    futures = [pool.submit(fn, *args) for args in arg_lists]
    return [f.result() for f in futures]
