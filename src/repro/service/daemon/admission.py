"""Admission and flow control for the serve daemon.

The daemon must never let the batch queue outrun the farm: admitted
work is bounded by a **pending-jobs watermark** (the sum of
not-yet-measured jobs across admitted and running requests), and each
tenant is bounded by a **live-request quota** so one noisy submitter
cannot starve the rest.  A request the bounds cannot take is either
**deferred** (left ``submitted`` in the journal, reconsidered every
scheduling pass — queue-and-defer, at the cost of one journal record,
never of daemon memory) or **rejected** (journaled ``cancelled`` with a
retry-after hint in the error), per the policy's ``overflow`` knob.

Decisions are pure functions of (record, observed load), so tests
exercise the policy without a daemon, and the daemon emits exactly one
``daemon.admit`` / ``daemon.reject`` event per decision on its tracer
(events reach the tracer's sinks; they are never persisted).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.service.daemon.journal import JournalRecord

ADMIT = "admit"
DEFER = "defer"
REJECT = "reject"

#: Overflow handling modes: queue-and-defer or reject-with-retry-after.
OVERFLOW_MODES = (DEFER, REJECT)


@dataclass(frozen=True)
class AdmissionPolicy:
    """The daemon's flow-control knobs.

    Attributes:
        max_pending_jobs: watermark on not-yet-measured jobs across all
            admitted/running requests.  A request whose jobs would push
            the total past the watermark waits — except when nothing is
            pending at all, so one request larger than the watermark
            still makes progress instead of livelocking.
        tenant_quota: max live (admitted or running) requests per
            tenant.
        overflow: what happens past a bound — ``"defer"`` leaves the
            request submitted (retried every pass), ``"reject"``
            cancels it with a retry-after hint.
        retry_after_s: the hint a rejection carries.
    """

    max_pending_jobs: int = 256
    tenant_quota: int = 8
    overflow: str = DEFER
    retry_after_s: float = 30.0

    def validate(self) -> "AdmissionPolicy":
        if self.max_pending_jobs < 1:
            raise ConfigError("max_pending_jobs must be at least 1")
        if self.tenant_quota < 1:
            raise ConfigError("tenant_quota must be at least 1")
        if self.overflow not in OVERFLOW_MODES:
            raise ConfigError(
                f"overflow must be one of {OVERFLOW_MODES}, "
                f"got {self.overflow!r}")
        if self.retry_after_s < 0:
            raise ConfigError("retry_after_s must be non-negative")
        return self


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict: admit, defer, or reject."""

    action: str
    reason: str = ""
    retry_after_s: float | None = None

    @property
    def admitted(self) -> bool:
        return self.action == ADMIT

    def describe(self) -> str:
        text = self.action
        if self.reason:
            text += f": {self.reason}"
        if self.retry_after_s is not None:
            text += f" (retry after {self.retry_after_s:g}s)"
        return text


class AdmissionController:
    """Apply one :class:`AdmissionPolicy` to submitted requests."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = (policy or AdmissionPolicy()).validate()

    def _overflow(self, reason: str) -> AdmissionDecision:
        if self.policy.overflow == REJECT:
            return AdmissionDecision(
                action=REJECT, reason=reason,
                retry_after_s=self.policy.retry_after_s)
        return AdmissionDecision(action=DEFER, reason=reason)

    def decide(self, record: JournalRecord, *, pending_jobs: int,
               tenant_live: int) -> AdmissionDecision:
        """Judge one submitted request against the observed load.

        Args:
            record: the submitted journal record.
            pending_jobs: not-yet-measured jobs across currently
                admitted/running requests.
            tenant_live: the record's tenant's live request count.
        """
        policy = self.policy
        if tenant_live >= policy.tenant_quota:
            return self._overflow(
                f"tenant {record.tenant!r} at quota "
                f"({tenant_live}/{policy.tenant_quota} live "
                f"request(s))")
        remaining = max(record.total_jobs - record.done_jobs, 0)
        if pending_jobs > 0 \
                and pending_jobs + remaining > policy.max_pending_jobs:
            return self._overflow(
                f"pending-jobs watermark ({pending_jobs} pending "
                f"+ {remaining} requested > {policy.max_pending_jobs})")
        return AdmissionDecision(action=ADMIT)
