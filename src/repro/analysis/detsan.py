"""Runtime determinism sanitizer (detsan).

The telemetry digest gives one bit — match or mismatch — at the end of a
run.  Detsan turns that bit into a coordinate.  When enabled, the
harness records a cheap checkpoint at every decision-window boundary:

* ``engine`` — event-engine clock, fired-event count, and a digest of
  the live heap (time, seq) pairs;
* ``rng:<stream>`` — a digest of each named stream's bit-generator
  state (draw position without drawing);
* ``ftl:<vssd>`` — the cumulative per-vSSD FTL counters;
* ``telemetry:<vssd>`` — a rolling digest of the window rows each
  monitor has accumulated.

Two traces of the same cell (serial vs parallel, scalar vs vector,
before vs after an optimization) then :func:`compare` to the *first*
divergent (subsystem, window) instead of a terminal digest mismatch.

Recording is off by default and costs nothing when off.  A recorder
passed to ``Experiment.run`` turns it on; the cell runner
(``repro.parallel.worker``) passes one, labelled with the cell id, when
the ``REPRO_DETSAN`` environment variable (inherited by forked sweep
workers) is on.  Checkpoints only *read* state — no events are
scheduled, no draws are taken — so an instrumented run is
event-for-event identical to a bare one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.flags import env_flag

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.experiment import Experiment

#: Trace file format version.
TRACE_VERSION = 1


def detsan_enabled() -> bool:
    """Whether ``REPRO_DETSAN`` asks for detsan recording (unset: off;
    an unrecognised value raises, see :func:`repro.flags.env_flag`)."""
    return env_flag("REPRO_DETSAN", default=False)


def digest_state(payload: object) -> str:
    """A short stable digest of any JSON-encodable state snapshot.

    Non-JSON scalars (numpy integers in bit-generator state dicts) are
    stringified, which is deterministic for the integer types that
    appear there.
    """
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Checkpoint:
    """One (window, subsystem) state digest."""

    window: int
    t_us: float
    section: str
    digest: str


@dataclass
class DetsanTrace:
    """A compact, serializable sequence of checkpoints."""

    label: str = ""
    checkpoints: List[Checkpoint] = field(default_factory=list)

    def add(self, window: int, t_us: float, section: str, digest: str) -> None:
        self.checkpoints.append(Checkpoint(window, t_us, section, digest))

    def windows(self) -> List[int]:
        """Distinct window indices, in recorded order."""
        seen: List[int] = []
        for cp in self.checkpoints:
            if not seen or seen[-1] != cp.window:
                seen.append(cp.window)
        return seen

    def sections_at(self, window: int) -> Dict[str, Checkpoint]:
        return {
            cp.section: cp for cp in self.checkpoints if cp.window == window
        }

    def to_bytes(self) -> bytes:
        doc = {
            "version": TRACE_VERSION,
            "label": self.label,
            "checkpoints": [
                {
                    "window": cp.window,
                    "t_us": cp.t_us,
                    "section": cp.section,
                    "digest": cp.digest,
                }
                for cp in self.checkpoints
            ],
        }
        return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")

    @staticmethod
    def from_bytes(data: bytes) -> "DetsanTrace":
        doc = json.loads(data.decode("utf-8"))
        if doc.get("version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported detsan trace version {doc.get('version')!r}"
            )
        trace = DetsanTrace(label=doc.get("label", ""))
        for entry in doc["checkpoints"]:
            trace.add(
                int(entry["window"]),
                float(entry["t_us"]),
                str(entry["section"]),
                str(entry["digest"]),
            )
        return trace

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @staticmethod
    def load(path: str) -> "DetsanTrace":
        with open(path, "rb") as fh:
            return DetsanTrace.from_bytes(fh.read())


@dataclass(frozen=True)
class Divergence:
    """The first point where two traces disagree."""

    window: int
    t_us: float
    #: Divergent subsystem sections at that window, sorted.
    sections: Tuple[str, ...]

    def render(self) -> str:
        subsystems = ", ".join(self.sections)
        return (
            f"first divergence at window {self.window} "
            f"(t={self.t_us / 1_000_000.0:.3f}s): {subsystems}"
        )


def compare(a: DetsanTrace, b: DetsanTrace) -> Optional[Divergence]:
    """The first divergent (window, subsystems) between two traces.

    Windows are aligned positionally.  A window diverges when any
    section's digest differs, or when a section — or the whole window —
    exists on one side only (a run that ended early or checkpointed
    differently is itself a divergence).
    """
    windows_a, windows_b = a.windows(), b.windows()
    for index in range(max(len(windows_a), len(windows_b))):
        one_sided = index >= len(windows_a) or index >= len(windows_b)
        side = a if index < len(windows_a) else b
        window = (windows_a if side is a else windows_b)[index]
        at_side = side.sections_at(window)
        t_us = next(iter(at_side.values())).t_us if at_side else 0.0
        if one_sided or windows_a[index] != windows_b[index]:
            return Divergence(window, t_us, tuple(sorted(at_side)))
        at_a, at_b = a.sections_at(window), b.sections_at(window)
        bad = sorted(
            section
            for section in set(at_a) | set(at_b)
            if section not in at_a
            or section not in at_b
            or at_a[section].digest != at_b[section].digest
        )
        if bad:
            t_us = at_a[bad[0]].t_us if bad[0] in at_a else at_b[bad[0]].t_us
            return Divergence(window, t_us, tuple(bad))
    return None


class DetsanRecorder:
    """Collects per-window checkpoints from a running experiment."""

    def __init__(self, label: str = "") -> None:
        self.trace = DetsanTrace(label=label)

    def checkpoint(self, window: int, experiment: "Experiment") -> None:
        """Record one window boundary.  Read-only: no draws, no events."""
        sim = experiment.virt.sim
        t_us = sim.now
        trace = self.trace
        trace.add(window, t_us, "engine", digest_state(sim.detsan_state()))
        for name, state in experiment.streams.detsan_states().items():
            trace.add(window, t_us, f"rng:{name}", digest_state(state))
        for plan in experiment.plans:
            name = plan.name or plan.workload
            vssd = experiment.virt.vssd_by_name(name)
            trace.add(
                window,
                t_us,
                f"ftl:{name}",
                digest_state(_ftl_state(vssd.ftl)),
            )
            monitor = experiment.monitors.get(name)
            if monitor is not None:
                trace.add(
                    window,
                    t_us,
                    f"telemetry:{name}",
                    _history_digest(monitor.window_history),
                )


def _ftl_state(ftl: object) -> Dict[str, int]:
    """The cumulative FTL counters as a plain dict."""
    stats = getattr(ftl, "stats", None)
    out: Dict[str, int] = {}
    if stats is None:
        return out
    for field_name in (
        "host_reads",
        "host_writes",
        "unmapped_reads",
        "gc_reads",
        "gc_writes",
        "gc_runs",
        "blocks_erased",
    ):
        out[field_name] = int(getattr(stats, field_name, 0))
    return out


def _history_digest(history: List[object]) -> str:
    """Rolling digest of a monitor's accumulated window rows.

    ``WindowStats`` is a frozen dataclass of scalars, so ``repr`` is a
    stable canonical form; hashing row reprs in order makes the digest
    sensitive to both content and ordering.
    """
    hasher = hashlib.sha256()
    for row in history:
        hasher.update(repr(row).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def write_traces(
    outcomes: Mapping[str, bytes], directory: str
) -> List[str]:
    """Write per-cell trace blobs into ``directory``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for cell_id in sorted(outcomes):
        safe = cell_id.replace("/", "_")
        path = os.path.join(directory, f"{safe}.detsan.json")
        with open(path, "wb") as fh:
            fh.write(outcomes[cell_id])
        paths.append(path)
    return paths
