"""The sweep runner: fan an experiment matrix across a worker pool.

Design notes:

* **One scheduler: a persistent pool.**  At most ``workers`` long-lived
  processes each take one cell at a time from the parent over their own
  pipe; the parent hands out the next cell, in matrix order, as workers
  free up.  A worker outlives its cells, so its in-process caches — the
  warm-state snapshot cache above all — serve every cell it runs.
* **Crash isolation.**  The parent owns the queue, so a worker that
  segfaults, OOMs, or calls ``os._exit`` takes down only the cell it
  was running: it leaves the pool, a replacement starts while work
  remains, and its siblings never notice.  (``concurrent.futures``
  raises ``BrokenProcessPool`` for every queued cell.)
* **An assignment ends one of three ways**, decided in one place
  (:meth:`ParallelRunner._settle`): the worker reported success; the
  runner raised in-process — deterministic, a :class:`CellFailure`
  without retry; or the worker died or hung without reporting —
  environmental, retried with exponential backoff up to
  ``max_attempts`` and only then a :class:`CellFailure`.
* **Results over pipes.**  The parent waits on result pipes *and*
  process sentinels at once, bounded by the nearest hung-worker
  deadline: large payloads stream while other workers keep running, and
  a worker that dies before sending is detected by its sentinel.
* **Fork start method.**  When available (Linux), ``fork`` shares the
  parent's warmed pre-train/classifier caches copy-on-write, so workers
  never redundantly pre-train.  Other platforms fall back to ``spawn``,
  where the disk cache (warmed by :func:`warm_policy_cache`) serves the
  same purpose.
* **Determinism.**  Cells are seeded by their matrix coordinates alone,
  and merging happens in matrix order — so a sweep's merged telemetry is
  byte-identical no matter how many workers ran it or which finished
  first.  ``run_serial`` runs the same :func:`run_cell` code in-process;
  :meth:`SweepResult.telemetry` equality between the two is asserted in
  the test suite and checkable via ``repro sweep --verify-serial``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from multiprocessing.process import BaseProcess
from typing import List, NamedTuple, Optional, Sequence, Union

from repro.parallel.worker import CellOutcome, WorkCell, run_cell
from repro.profiling import merge_profiles


def usable_cores() -> int:
    """Cores this process may run on: its CPU-affinity mask where the
    platform has one (a container pinned to 2 of 64 cores must size its
    pool for 2), the host's core count otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return multiprocessing.cpu_count()


@dataclass
class CellFailure:
    """A cell whose worker died or whose runner raised."""

    cell: WorkCell
    #: Process exit code (None when the runner raised in-process).
    exitcode: Optional[int] = None
    #: ``{"type", "message", "traceback"}`` when the runner raised.
    error: Optional[dict] = None
    #: How many launches this cell got before being declared failed.
    attempts: int = 1
    #: True when the final attempt was terminated by the hung-worker
    #: watchdog rather than dying on its own.
    hung: bool = False

    def describe(self) -> str:
        """One line: what failed and how."""
        retries = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        if self.error is not None:
            return (
                f"{self.cell.cell_id}: {self.error['type']}: "
                f"{self.error['message']}"
            )
        if self.hung:
            return f"{self.cell.cell_id}: worker hung (terminated){retries}"
        return f"{self.cell.cell_id}: worker died (exitcode={self.exitcode}){retries}"


@dataclass
class SweepResult:
    """Merged outcome of one sweep, in matrix order."""

    #: One entry per cell, matrix order: CellOutcome or CellFailure.
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    mode: str = "serial"

    @property
    def succeeded(self) -> list:
        """Successful outcomes, matrix order."""
        return [o for o in self.outcomes if isinstance(o, CellOutcome) and o.ok]

    @property
    def failures(self) -> list:
        """Failures (worker deaths and runner exceptions), matrix order."""
        return [o for o in self.outcomes if not isinstance(o, CellOutcome) or not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def telemetry(self) -> bytes:
        """Merged telemetry: successful cells' bytes, matrix order."""
        return b"".join(o.telemetry for o in self.succeeded)

    @property
    def telemetry_digest(self) -> str:
        """SHA-256 of the merged telemetry (the determinism fingerprint)."""
        return hashlib.sha256(self.telemetry).hexdigest()

    @property
    def profile(self) -> dict:
        """Profiler counters merged across all cells."""
        return merge_profiles(o.profile for o in self.succeeded)

    def results(self) -> dict:
        """``cell_id -> ExperimentResult`` for the successful cells."""
        return {o.cell.cell_id: o.result for o in self.succeeded}

    def detsan_traces(self) -> dict:
        """``cell_id -> serialized detsan trace`` for instrumented cells.

        Empty unless the sweep ran with ``REPRO_DETSAN`` set (workers
        inherit the variable through fork/spawn).
        """
        return {
            o.cell.cell_id: o.detsan
            for o in self.succeeded
            if o.detsan is not None
        }


class _Task(NamedTuple):
    """One launch of one cell: a queue entry, then a worker's assignment."""

    index: int
    cell: WorkCell
    #: 1 for the first launch; retries count up to ``max_attempts``.
    attempt: int = 1
    #: Earliest ``time.monotonic()`` at which a retry may launch.
    not_before: float = 0.0


@dataclass(eq=False)
class _Worker:
    """One pool process as the parent sees it."""

    proc: BaseProcess
    conn: connection.Connection
    #: The cell in flight; None while the worker is idle.
    task: Optional[_Task] = None
    #: ``time.monotonic()`` past which the watchdog condemns ``task``.
    deadline: Optional[float] = None


def _worker_main(conn: connection.Connection, profile: bool) -> None:
    """Worker process body: run cells sent down the pipe until told to stop.

    ``run_cell``'s before/after profiler delta keeps per-cell profiles
    correct in a long-lived process.  A ``None`` message (or a closed
    pipe) is the shutdown signal.
    """
    while True:
        try:
            cell = conn.recv()
        except (EOFError, OSError):
            break
        if cell is None:
            break
        # Results can hold numpy arrays and megabytes of telemetry; if the
        # pipe buffer fills, send() blocks until the parent drains it (the
        # parent reads concurrently — see ParallelRunner._drain).
        conn.send(run_cell(cell, profile=profile))
    conn.close()


def run_serial(
    cells: Sequence[WorkCell], profile: bool = True
) -> SweepResult:
    """Run every cell in-process, matrix order — the reference output."""
    started = time.perf_counter()
    outcomes: list = []
    for cell in cells:
        outcome = run_cell(cell, profile=profile)
        if outcome.ok:
            outcomes.append(outcome)
        else:
            outcomes.append(CellFailure(cell=cell, error=outcome.error))
    return SweepResult(
        outcomes=outcomes,
        wall_s=time.perf_counter() - started,
        workers=1,
        mode="serial",
    )


class ParallelRunner:
    """Fans cells across a persistent worker pool with crash isolation."""

    def __init__(
        self,
        workers: Optional[int] = None,
        profile: bool = True,
        join_timeout_s: Optional[float] = 900.0,
        max_attempts: int = 2,
        retry_backoff_s: float = 0.5,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if join_timeout_s is not None and join_timeout_s <= 0:
            raise ValueError(f"join_timeout_s must be positive, got {join_timeout_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        #: Hung-worker watchdog: a worker that neither reports nor exits
        #: within this budget of being handed a cell is terminated
        #: (``None`` disables the watchdog).  The sweep then retries or
        #: records the cell as a hung :class:`CellFailure` and *returns
        #: the other cells' results* — one wedged worker hangs nothing.
        self.join_timeout_s = join_timeout_s
        #: Total launches a cell may consume.  Worker *deaths* (crash or
        #: hang — environmental failures) are retried with exponential
        #: backoff up to this bound; a runner that raises in-process is
        #: deterministic and fails immediately without retry.
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        # Cap at the usable core count: more workers than cores cannot
        # run concurrently — they just time-slice one another and add
        # process startup/scheduling overhead, turning "parallel" runs
        # slower than serial on small hosts (observed 0.73x with 4
        # workers on a 1-core box).  An explicit request is still
        # honoured up to the cap; the default leaves one core for the
        # parent.
        cores = usable_cores()
        requested = workers or max(cores - 1, 1)
        self.workers = min(requested, cores)
        self.profile = profile
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self.start_method)

    def run(self, cells: Sequence[WorkCell]) -> SweepResult:
        """Run the cells; returns merged results in matrix order.

        Outcomes are keyed by matrix index and merged in that order, so
        which worker ran a cell (and in what sequence) never shows in
        the result bytes.
        """
        started = time.perf_counter()
        cells = list(cells)
        outcomes: dict = {}  # index -> CellOutcome | CellFailure
        # The initial pass launches in matrix order; crashed/hung cells
        # re-enter at the back with a backoff-delayed not_before.
        pending = [_Task(i, cell) for i, cell in enumerate(cells)]
        workers: List[_Worker] = []
        spawned = 0
        target = min(self.workers, max(len(cells), 1))
        try:
            while pending or any(w.task is not None for w in workers):
                now = time.monotonic()
                idle = [w for w in workers if w.task is None]
                for task in [t for t in pending if t.not_before <= now]:
                    if idle:
                        worker = idle.pop(0)
                    elif len(workers) < target:
                        # Also how a dead worker is replaced: it left the
                        # pool in _drain, so the pool is below target.
                        worker = self._spawn(spawned)
                        workers.append(worker)
                        spawned += 1
                    else:
                        break
                    pending.remove(task)
                    worker.conn.send(task.cell)
                    worker.task = task
                    if self.join_timeout_s is not None:
                        worker.deadline = time.monotonic() + self.join_timeout_s
                if all(w.task is None for w in workers):
                    # Every queued cell is waiting out its retry backoff.
                    wake = min(t.not_before for t in pending)
                    time.sleep(max(wake - time.monotonic(), 0.0) + 0.001)
                    continue
                self._drain(workers, pending, outcomes)
        finally:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass  # already dead; _reap below collects it
                worker.conn.close()
                self._reap(worker.proc)
        return SweepResult(
            outcomes=[outcomes[i] for i in range(len(cells))],
            wall_s=time.perf_counter() - started,
            workers=self.workers,
            mode=f"pool/{self.start_method}",
        )

    def _spawn(self, serial: int) -> _Worker:
        """Start one long-lived worker, idle until handed a cell."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.profile),
            name=f"repro-pool-{serial}",
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _reap(self, proc: BaseProcess) -> None:
        """Bounded shutdown of a finished or condemned worker process.

        ``join`` with a timeout instead of an unbounded join: a child
        that closed its pipe but wedged on the way out (atexit hook,
        stuck flush) cannot hang the sweep.  Escalates to ``terminate``
        and then ``kill`` before the final reaping join.
        """
        proc.join(5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)
        if proc.is_alive():  # pragma: no cover - needs an unkillable child
            proc.kill()
            proc.join()

    def _drain(
        self, workers: List[_Worker], pending: List[_Task], outcomes: dict
    ) -> None:
        """Wait for at least one worker event; settle whatever ended.

        Also the hung-worker watchdog: a worker still silent past its
        deadline is terminated.  Dead and condemned workers just leave
        the pool — ``run`` starts replacements while work remains.
        """
        handles: list = [w.proc.sentinel for w in workers]
        handles.extend(w.conn for w in workers if w.task is not None)
        # Block until the nearest watchdog deadline or retry wake-up.  A
        # queued cell that is already due is waiting for a free worker,
        # which arrives as a pipe event: it must not bound the wait, or
        # the parent spins for as long as anything is queued.
        now = time.monotonic()
        horizons = [w.deadline for w in workers if w.deadline is not None]
        horizons.extend(t.not_before for t in pending if t.not_before > now)
        timeout = max(min(horizons) - now, 0.0) if horizons else None
        ready = set(connection.wait(handles, timeout=timeout))
        now = time.monotonic()
        for worker in list(workers):
            task = worker.task
            payload: Optional[CellOutcome] = None
            dead = worker.proc.sentinel in ready
            if task is not None:
                # poll(), not membership in ``ready``: a result buffered
                # in the pipe may have raced the worker's death or its
                # watchdog deadline, and a result in hand wins.
                try:
                    if worker.conn.poll():
                        payload = worker.conn.recv()
                except (EOFError, OSError):
                    dead = True  # pipe closed with nothing sent: dying
            expired = worker.deadline is not None and now >= worker.deadline
            hung = expired and payload is None and not dead
            if dead or hung:
                workers.remove(worker)
                if hung:
                    worker.proc.terminate()
                self._reap(worker.proc)
                worker.conn.close()
            if task is not None and (payload is not None or dead or hung):
                worker.task = worker.deadline = None
                verdict = self._settle(task, payload, worker.proc.exitcode, hung)
                if isinstance(verdict, _Task):
                    pending.append(verdict)
                else:
                    outcomes[task.index] = verdict

    def _settle(
        self,
        task: _Task,
        payload: Optional[CellOutcome],
        exitcode: Optional[int],
        hung: bool,
    ) -> Union[CellOutcome, CellFailure, _Task]:
        """What a finished assignment becomes: the outcome, a failure,
        or the retry to queue — the only place that is decided."""
        if payload is None:
            # The worker died or hung without reporting — environmental
            # (crash, OOM kill, wedge), so worth retrying with backoff.
            if task.attempt < self.max_attempts:
                backoff = self.retry_backoff_s * 2.0 ** (task.attempt - 1)
                return task._replace(
                    attempt=task.attempt + 1, not_before=time.monotonic() + backoff
                )
            return CellFailure(
                cell=task.cell, exitcode=exitcode, attempts=task.attempt, hung=hung
            )
        if not payload.ok:
            # The runner raised in-process: deterministic, no retry.
            return CellFailure(
                cell=task.cell, error=payload.error, attempts=task.attempt
            )
        payload.attempts = task.attempt
        return payload
