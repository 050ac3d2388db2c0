"""Exception types of the resilience layer.

These classes name the failure modes of the orchestrator's error
taxonomy (see :mod:`repro.resilience.retry`): the *injected* variants
are raised by the deterministic fault-injection harness
(:mod:`repro.resilience.faults`), the others by real machinery - the
watchdog and the checkpoint store.  The retry engine classifies
failures by exception type name, so a worker process and the
coordinating process agree on the taxonomy without shipping exception
objects across the pipe.
"""

from __future__ import annotations


class ResilienceError(Exception):
    """Base class of every resilience-layer exception."""


class FaultInjected(ResilienceError):
    """Base class of deliberately injected faults (never raised by
    production code paths; only by a :class:`~repro.resilience.faults.FaultPlan`)."""


class InjectedCrash(FaultInjected):
    """Injected stand-in for a worker process dying mid-cell.

    Classified as ``"crash"`` - exactly like a real
    ``BrokenProcessPool`` - so the retry engine exercises the same
    recovery path without the cost of actually breaking a pool.
    """


class TransientCellError(FaultInjected):
    """Injected stand-in for a transient infrastructure error (flaky
    filesystem, OOM-killed sibling, torn socket).  Classified as
    ``"transient"`` and always retryable."""


class CellTimeout(ResilienceError):
    """A cell exceeded its watchdog deadline (or an injected timeout
    fault fired).  Classified as ``"timeout"`` and retryable."""


class CheckpointCorruption(ResilienceError):
    """A checkpoint failed its sha256 integrity verification and no
    good fallback existed.  Classified as ``"corrupt-checkpoint"``."""
