"""The one process pool in rck: an ordered map over independent jobs.

The CLI maps it over input graphs and graphs_up_to over the parents of its
final level.  concurrent.futures is imported only when a pool starts, since
it loads multiprocessing, which a serial run never uses.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, jobs: list, workers: int) -> list:
    """fn over jobs, with the results in input order.

    The pool has min(workers, jobs, usable CPUs) processes, since a process
    pool may start all of them at the first job; below two the jobs run
    inline.  A pool runs them in about eight chunks per process, enough to
    balance uneven jobs while keeping the per-chunk hand-over rare.  A job
    that raises stops the map and cancels the chunks not yet started.
    """
    workers = min(workers, len(jobs), usable_cpus())
    if workers < 2:
        return list(map(fn, jobs))
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(jobs) // (8 * workers))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, jobs, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)
