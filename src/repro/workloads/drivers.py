"""Discrete-event drivers that feed workload I/O into the dispatcher.

Latency-sensitive services use an *open loop* (Poisson arrivals — clients
do not wait for storage), bandwidth-intensive batch jobs a *closed loop*
(a fixed number of in-flight requests — the job consumes whatever
bandwidth the vSSD offers).  Both honor the spec's intensity phases,
which is what creates the fluctuating demand FleetIO harvests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sched.request import IoRequest
from repro.workloads.model import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.workloads.spec import WorkloadSpec

SubmitFn = Callable[[IoRequest], None]


class _DriverBase:
    """Common bookkeeping for both driver kinds."""

    def __init__(
        self,
        model: WorkloadModel,
        vssd_id: int,
        sim: "Simulator",
        submit: SubmitFn,
        page_size: int,
    ) -> None:
        self.model = model
        self.vssd_id = vssd_id
        self.sim = sim
        self.submit = submit
        self.page_size = page_size
        self.running = False
        self.submitted = 0
        self.completed = 0

    @property
    def spec(self) -> "WorkloadSpec":
        """The workload spec driving this generator."""
        return self.model.spec

    def start(self) -> None:
        """Begin generating I/O on the simulator clock."""
        self.running = True

    def stop(self) -> None:
        """Stop generating new I/O (in-flight requests drain)."""
        self.running = False

    def on_complete(self, request: IoRequest) -> None:
        """Completion hook; closed loops use it to refill the window."""
        self.completed += 1

    def _submit_one(self) -> None:
        self.submitted += 1
        op, lpn, pages = self.model.sample_request()
        self.submit(
            IoRequest(self.vssd_id, op, lpn, pages, self.page_size, self.sim.now)
        )


class OpenLoopDriver(_DriverBase):
    """Poisson arrivals at the phase-scaled rate of the spec."""

    def start(self) -> None:
        """Begin Poisson arrivals."""
        super().start()
        sim = self.sim
        sim.schedule(self.model.interarrival_us(sim.now / 1_000_000.0), self._arrive)

    def _arrive(self) -> None:
        """One arrival, one frame: submit a request, schedule the next.

        ``_submit_one`` is written out here — this fires once per
        open-loop request, and the frames between the engine and
        ``sample_request`` / ``submit`` / ``interarrival_us`` were a
        measurable slice of the arrival.
        """
        if not self.running:
            return
        sim = self.sim
        model = self.model
        self.submitted += 1
        op, lpn, pages = model.sample_request()
        self.submit(IoRequest(self.vssd_id, op, lpn, pages, self.page_size, sim.now))
        sim.schedule(model.interarrival_us(sim.now / 1_000_000.0), self._arrive)


class ClosedLoopDriver(_DriverBase):
    """Keeps ``outstanding × phase-scale`` requests in flight."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.in_flight = 0

    def start(self) -> None:
        """Fill the in-flight window and arm phase ticks."""
        super().start()
        self._top_up()
        self._schedule_phase_tick()

    def target_outstanding(self) -> int:
        """The phase-scaled in-flight target right now."""
        spec = self.model.spec
        return int(round(spec.outstanding * spec.scale_at(self.sim.now / 1_000_000.0)))

    def _top_up(self) -> None:
        target = self.target_outstanding()
        while self.running and self.in_flight < target:
            self.in_flight += 1
            self._submit_one()

    def on_complete(self, request: IoRequest) -> None:
        """Refill the closed-loop window after a completion."""
        self.completed += 1
        self.in_flight -= 1
        if self.running:
            self._top_up()

    def _schedule_phase_tick(self) -> None:
        """Wake at phase boundaries so idle phases end on time."""
        if not self.spec.phases:
            return
        delay_us = self.model._time_to_next_phase_us(self.sim.now_seconds)
        self.sim.schedule(delay_us + 1.0, self._phase_tick)

    def _phase_tick(self) -> None:
        if not self.running:
            return
        self._top_up()
        self._schedule_phase_tick()


def make_driver(
    model: WorkloadModel,
    vssd_id: int,
    sim: "Simulator",
    submit: SubmitFn,
    page_size: int,
) -> "_DriverBase":
    """Build the driver kind the spec asks for."""
    driver_cls = OpenLoopDriver if model.spec.mode == "open" else ClosedLoopDriver
    return driver_cls(model, vssd_id, sim, submit, page_size)
