"""Deterministic fault injection, retry policies, and checkpoint integrity.

The resilience layer makes the orchestrator's failure behavior a
first-class, *testable* subsystem:

- :class:`FaultPlan` (``faults``) injects worker crashes, cell
  timeouts, transient exceptions, and checkpoint corruption as pure
  SplitMix64 functions of ``(seed, cell, attempt)`` - fully
  reproducible, independent of every other RNG stream;
- :class:`RetryPolicy` (``retry``) gives every cell an attempt budget
  with exponential backoff, deterministic jitter, and a ``SIGALRM``
  watchdog, and :func:`classify_error` maps failures onto the
  structured taxonomy quarantine records carry;
- :class:`CheckpointStore` (``checkpoint``) adds sha256 footers,
  fsync-before-rename durability, and automatic rollback to the last
  verified checkpoint;
- ``report`` renders quarantine tables and resilience telemetry for
  the CLI.

The headline contract (property-tested): a grid run under fault
injection completes via retries with results *byte-identical* to a
fault-free serial run, at any worker count.
"""

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.errors import (
    CellTimeout,
    CheckpointCorruption,
    FaultInjected,
    InjectedCrash,
    ResilienceError,
    TransientCellError,
)
from repro.resilience.faults import CELL_FAULT_KINDS, FAULT_KINDS, FaultPlan
from repro.resilience.report import (
    format_quarantine_table,
    format_resilience_summary,
    summarize_failures,
)
from repro.resilience.retry import (
    ERROR_CLASSES,
    RETRYABLE_CLASSES,
    RetryPolicy,
    classify_error,
    watchdog,
)

__all__ = [
    "CELL_FAULT_KINDS",
    "ERROR_CLASSES",
    "FAULT_KINDS",
    "RETRYABLE_CLASSES",
    "CellTimeout",
    "CheckpointCorruption",
    "CheckpointStore",
    "FaultInjected",
    "FaultPlan",
    "InjectedCrash",
    "ResilienceError",
    "RetryPolicy",
    "TransientCellError",
    "classify_error",
    "format_quarantine_table",
    "format_resilience_summary",
    "summarize_failures",
    "watchdog",
]
