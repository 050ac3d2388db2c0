"""Retry policy engine: error taxonomy, backoff, and the cell watchdog.

The orchestrator used to *quarantine* a failed cell on first contact.
This module supplies the layer that runs before quarantine:

- :func:`classify_error` maps an exception type name onto the
  structured error taxonomy (``crash`` / ``timeout`` / ``transient`` /
  ``corrupt-checkpoint`` / ``error``), which
  every quarantine record carries as ``error_class``;
- :class:`RetryPolicy` decides how many attempts a cell gets, how long
  to back off between them (exponential growth with *deterministic*
  SplitMix64 jitter - reproducible, and independent of the per-cell
  seed stream), and what watchdog deadline each attempt runs under;
- :func:`watchdog` arms a ``SIGALRM``-based deadline around cell
  execution so a hung cell raises
  :class:`~repro.resilience.errors.CellTimeout` instead of stalling the
  grid forever.

Only ``crash``, ``timeout``, and ``transient`` failures are retried:
they are the classes a re-execution can plausibly fix.  Deterministic
failures (a cell that *raises*, a corrupt checkpoint) would fail
identically on every attempt and are quarantined immediately.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import threading
from typing import Optional

from repro.resilience.errors import CellTimeout
from repro.rng import MASK64, unit_uniform

#: The structured error taxonomy carried by quarantine records.
ERROR_CLASSES = (
    "crash",
    "timeout",
    "transient",
    "corrupt-checkpoint",
    "error",
)

#: Classes worth re-executing; everything else is deterministic.
RETRYABLE_CLASSES = frozenset({"crash", "timeout", "transient"})

_CLASS_BY_TYPE = {
    "InjectedCrash": "crash",
    "WorkerCrash": "crash",
    "BrokenProcessPool": "crash",
    "CellTimeout": "timeout",
    "TimeoutError": "timeout",
    "TransientCellError": "transient",
    "CheckpointCorruption": "corrupt-checkpoint",
}


def classify_error(error_type: str) -> str:
    """Map an exception type name onto the error taxonomy.

    Unrecognized types classify as ``"error"`` - the deterministic,
    non-retryable bucket (a cell that raised ``KeyError`` will raise it
    again on every retry).
    """
    return _CLASS_BY_TYPE.get(error_type, "error")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Per-cell attempt budget, backoff schedule, and watchdog deadline.

    Parameters
    ----------
    max_attempts:
        Total executions a cell may consume (first run + retries).
    backoff_base:
        Backoff before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per additional retry (exponential backoff).
    backoff_max:
        Hard cap on any single backoff, in seconds.
    jitter:
        Fractional jitter width: the backoff is scaled by a factor
        drawn deterministically from ``[1 - jitter/2, 1 + jitter/2)``.
    retry_seed:
        Seeds the jitter stream.  Domain-tagged ``"retry-backoff"``,
        so it can never alias the orchestrator's ``"cell-fault"`` or
        per-cell seed streams even under the same integer seed.
    cell_timeout:
        Watchdog deadline per attempt, in seconds (``None`` disables).
    """

    max_attempts: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    retry_seed: int = 0
    cell_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0.0 or self.backoff_max < 0.0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.cell_timeout is not None and self.cell_timeout <= 0.0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )

    def backoff_seconds(self, cell_key: str, attempt: int) -> float:
        """Deterministic backoff before ``attempt`` (attempt >= 1).

        ``base * factor**(attempt - 1)`` capped at ``backoff_max``, then
        jittered by a pure SplitMix64 function of
        ``(retry_seed, cell_key, attempt)`` - reproducible run to run,
        different per cell so retry storms decorrelate, and provably
        independent of every cell-seed draw (distinct mix domain).
        """
        if attempt < 1:
            return 0.0
        raw = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        u = unit_uniform(
            self.retry_seed & MASK64, ("retry-backoff", cell_key, attempt)
        )
        return raw * (1.0 + self.jitter * (u - 0.5))


@contextlib.contextmanager
def watchdog(seconds: Optional[float]):
    """Arm a wall-clock deadline around a block of work.

    Yields ``True`` when armed; on expiry the block is interrupted by
    :class:`~repro.resilience.errors.CellTimeout`.  Yields ``False`` -
    without arming anything - when ``seconds`` is falsy, the platform
    lacks ``SIGALRM``, or the caller is not the main thread (signal
    handlers can only be installed there).  Worker processes of a
    ``ProcessPoolExecutor`` always execute cells on their main thread,
    so pooled grids get real watchdog coverage regardless of how the
    coordinating process is threaded.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield False
        return

    def _expired(signum, frame):
        raise CellTimeout(f"cell exceeded its {seconds}s watchdog deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
