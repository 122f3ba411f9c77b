"""Deterministic fan-out executor for multi-arm experiment sweeps.

Every multi-arm experiment in the reproduction — seed-robustness sweeps,
ablation grids, the RESILIENCE loss/partition/crash matrix — is a map of
a pure function over a list of *arms* (seeds, configs, fault scenarios).
:func:`run_arms` executes that map either serially in-process or across
a ``multiprocessing`` worker pool, with a hard determinism contract:

**The rows are bit-identical either way.**  Arm functions are pure
(deterministic given their arm), workers receive arms unchanged, and the
parent reassembles results in arm order, so ``run_arms(fn, arms,
workers=8)`` returns exactly ``[fn(a) for a in arms]``.

Worker model
------------
Workers are forked processes (``fork`` start method): the arm function
and its closure — including already-built underlays — are inherited by
reference at fork time, **not pickled**, so lambdas and closures over
shared substrate work unchanged.  Only arm indices travel to workers
(dynamic load balancing via a task queue) and only
``(index, ok, result)`` tuples travel back.

Observability
-------------
Traces are per-process and are *not* shipped: a worker's trace events,
if any, stay in the worker.  A traced sweep is only digestable when run
serially, where arms execute in the ambient ``obs.observe()`` scope
exactly like a plain ``for`` loop; the CLI refuses ``--trace`` with
more than one worker.

Serial fallback
---------------
``workers=1``, ``REPRO_RUNNER_SERIAL=1``, a daemonic parent process
(e.g. inside another pool), or a platform without ``fork`` all fall back
to the serial path automatically.

    from repro.runner import run_arms

    rows = run_arms(lambda seed: run_fig6(seed=seed), [3, 17, 29, 41],
                    workers=4)
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import traceback
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.errors import RunnerError

__all__ = [
    "configure_default_workers",
    "default_workers",
    "resolve_workers",
    "run_arms",
]

A = TypeVar("A")
R = TypeVar("R")

#: Force the serial path regardless of any ``workers`` setting (CI
#: environments hostile to nested multiprocessing, pytest-xdist, etc.).
ENV_SERIAL = "REPRO_RUNNER_SERIAL"
#: Default worker count when neither the call nor
#: :func:`configure_default_workers` specifies one.
ENV_WORKERS = "REPRO_RUNNER_WORKERS"

_DEFAULT_WORKERS: Optional[int] = None


def configure_default_workers(workers: Optional[int]) -> None:
    """Set (or with ``None`` clear) the process-wide default worker
    count used by :func:`run_arms` calls that do not pass ``workers`` —
    the hook behind the CLI's ``--workers`` flag and the benchmark
    suite's option."""
    global _DEFAULT_WORKERS
    if workers is not None and workers < 1:
        raise RunnerError(f"worker count must be >= 1, got {workers}")
    _DEFAULT_WORKERS = workers


def default_workers() -> Optional[int]:
    """The configured process-wide default worker count, or ``None``."""
    return _DEFAULT_WORKERS


def resolve_workers(workers: Optional[int] = None) -> int:
    """The worker count :func:`run_arms` will actually use.

    Precedence: ``REPRO_RUNNER_SERIAL=1`` forces ``1``; then the
    explicit argument; then :func:`configure_default_workers`; then
    ``REPRO_RUNNER_WORKERS``; else ``1`` (serial).  Environments where
    forked workers cannot run (no ``fork`` start method, daemonic
    parent) also resolve to ``1``.
    """
    if os.environ.get(ENV_SERIAL, "").strip() in ("1", "true", "yes"):
        return 1
    if workers is None:
        workers = _DEFAULT_WORKERS
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise RunnerError(f"{ENV_WORKERS}={raw!r} is not an integer")
    if workers is None or workers <= 1:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return workers


def _worker_main(
    fn: Callable[[Any], Any],
    arms: Sequence[Any],
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Worker loop: pull arm indices until the ``None`` sentinel, run
    each arm, ship the result home."""
    while True:
        idx = task_queue.get()
        if idx is None:
            return
        try:
            payload = (idx, True, fn(arms[idx]))
        except BaseException as exc:  # ship the failure, do not hang the parent
            detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            payload = (idx, False, detail)
        try:
            result_queue.put(payload)
        except Exception as exc:  # unpicklable result
            result_queue.put(
                (
                    idx,
                    False,
                    f"arm result for index {idx} could not be pickled: {exc!r}",
                )
            )


def _run_serial(fn: Callable[[A], R], arms: Sequence[A]) -> list[R]:
    """In-process path: arms run in the ambient obs scope, in order —
    behaviourally identical to the plain ``for`` loop it replaces (same
    trace digest when traced)."""
    return [fn(arm) for arm in arms]


def _run_parallel(
    fn: Callable[[A], R], arms: Sequence[A], workers: int
) -> list[R]:
    ctx = multiprocessing.get_context("fork")
    task_queue = ctx.SimpleQueue()
    result_queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(fn, arms, task_queue, result_queue),
            daemon=True,
        )
        for _ in range(workers)
    ]
    for p in procs:
        p.start()
    # dynamic load balancing: workers pull the next arm when free
    for idx in range(len(arms)):
        task_queue.put(idx)
    for _ in procs:
        task_queue.put(None)

    results: dict[int, R] = {}
    failure: Optional[str] = None
    try:
        while len(results) < len(arms):
            try:
                idx, ok, value = result_queue.get(timeout=1.0)
            except queue.Empty:  # is the pool still alive?
                if all(not p.is_alive() for p in procs) and result_queue.empty():
                    failure = "worker pool died without reporting results"
                    break
                continue
            if not ok:
                failure = f"arm {idx} ({arms[idx]!r}) failed in worker:\n{value}"
                break
            results[idx] = value
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join()
        result_queue.close()
        result_queue.cancel_join_thread()
    if failure is not None:
        raise RunnerError(failure)
    return [results[i] for i in range(len(arms))]


def run_arms(
    fn: Callable[[A], R],
    arms: Sequence[A],
    *,
    workers: Optional[int] = None,
) -> list[R]:
    """Map ``fn`` over ``arms`` and return the results **in arm order**.

    ``fn`` must be deterministic given its arm (every experiment arm in
    this repo is); under that contract the output is bit-identical to
    ``[fn(a) for a in arms]`` at any worker count.  ``workers`` follows
    :func:`resolve_workers`; the parallel path forks, so ``fn`` may be a
    lambda or a closure over shared read-only state (an ``Underlay``, a
    warm substrate cache) without any pickling of the function itself.
    """
    arms = list(arms)
    if not arms:
        return []
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(arms) == 1:
        return _run_serial(fn, arms)
    return _run_parallel(fn, arms, min(n_workers, len(arms)))
