"""Deterministic fault injection for the sweep execution stack.

Robustness code that is merely *believed* to work is worse than none:
the recovery paths are the least-travelled code in the system, and a
latent bug there surfaces exactly when real data is on the line.  This
module makes every recovery path testable by injecting faults —
exceptions, hard process crashes, SIGKILLs and delays — at *named
sites* in scenario execution and store writes, under a seeded,
fully deterministic plan.

Model
-----

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultRule` s.  Instrumented code calls :func:`fault_point`
with a site name; the active plan decides — as a pure function of
``(plan seed, rule index, site, context key, context attempt)`` —
whether a rule fires.  The *context* (which scenario, which attempt)
is established by the executing layer via :func:`fault_context`, so a
rule can target one scenario (``key=``) or only early attempts
(``max_attempt=``), which is how tests script "fail twice, then
succeed" without any cross-process mutable state: the attempt number
is persisted by the scheduler's failure log, so the draw sequence
survives worker death and process restarts.

Sites instrumented today (:data:`SITES`):

``scenario.pre``
    start of a scenario attempt, before the campaign executes;
``scenario.post``
    after the campaign computed its result, before the store write;
``store.put_arrays``
    inside :meth:`~repro.sweeps.store.SweepStore.put`, before the
    array bundle is atomically published;
``store.put_record``
    inside :meth:`~repro.sweeps.store.SweepStore.put`, before the
    completion record is atomically published (the commit point).

Activation
----------

Programmatic: :func:`install_fault_plan`.  Cross-process (CLI, CI,
scheduler worker children on any start method): export the plan JSON
in the :data:`FAULT_PLAN_ENV` environment variable — the first
:func:`fault_point` in any process reads it lazily.  With no plan
active, :func:`fault_point` is a near-free no-op, so the hooks stay
compiled into production paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Tuple

#: Environment variable carrying a JSON-encoded plan (see
#: :meth:`FaultPlan.to_json`); read lazily once per process.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code used by ``kind="crash"`` rules (``os._exit``), chosen to
#: be distinguishable from Python's own exit codes in tests and logs.
CRASH_EXIT_CODE = 66

#: Supported rule kinds.
KINDS = ("exception", "crash", "sigkill", "delay")

#: The sites a :func:`fault_point` call names.  A rule for any other
#: site would never fire, so a typo in a plan is rejected instead of
#: silently testing nothing.
SITES = ("scenario.pre", "scenario.post", "store.put_arrays", "store.put_record")


class InjectedFault(RuntimeError):
    """The exception raised by ``kind="exception"`` rules."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic trigger at a named site.

    ``kind``:

    * ``"exception"`` — raise :class:`InjectedFault`;
    * ``"crash"`` — ``os._exit(CRASH_EXIT_CODE)`` (no cleanup, no
      ``finally`` blocks: a hard worker death);
    * ``"sigkill"`` — ``SIGKILL`` to the calling process (the kernel
      kills it; exit code is ``-SIGKILL`` to a joining parent);
    * ``"delay"`` — sleep ``delay`` seconds, then continue (models a
      stall; pair with a scenario timeout to exercise the kill path).

    ``key`` restricts the rule to one context key (a scenario id);
    ``max_attempt`` fires only while the context attempt number is at
    most that value (attempts are 1-based), which is how "transient"
    faults are scripted; ``probability`` thins firing with a seeded
    per-``(site, key, attempt)`` draw — deterministic, so two
    evaluations of the same plan fire identically.
    """

    site: str
    kind: str = "exception"
    key: Optional[str] = None
    max_attempt: Optional[int] = None
    probability: float = 1.0
    delay: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; supported: {SITES}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; supported: {KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability {self.probability} outside [0, 1]"
            )
        if self.delay < 0:
            raise ValueError(f"negative delay {self.delay}")
        if self.kind == "delay" and self.delay == 0:
            raise ValueError("a delay rule needs delay > 0")
        if self.max_attempt is not None and self.max_attempt < 1:
            raise ValueError("max_attempt is 1-based; must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of rules.

    Rules are evaluated in order at each :func:`fault_point`; ``delay``
    rules fall through to later rules, terminal kinds do not return.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [asdict(r) for r in self.rules]}

    def to_json(self) -> str:
        """Compact JSON form, suitable for :data:`FAULT_PLAN_ENV`."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        rules = tuple(
            FaultRule(**dict(rule)) for rule in payload.get("rules", ())
        )
        return cls(rules=rules, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- evaluation ------------------------------------------------------

    def _draw(self, index: int, site: str, key: Optional[str], attempt: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{index}:{site}:{key}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def matching_rules(
        self, site: str, key: Optional[str], attempt: int
    ) -> Iterator[Tuple[int, FaultRule]]:
        """The ``(index, rule)`` pairs that fire for this evaluation."""
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.key is not None and rule.key != key:
                continue
            if rule.max_attempt is not None and attempt > rule.max_attempt:
                continue
            if rule.probability < 1.0 and (
                self._draw(index, site, key, attempt) >= rule.probability
            ):
                continue
            yield index, rule


# -- process-wide activation ---------------------------------------------

#: Sentinel meaning "environment not consulted yet".
_UNSET = object()
_active: object = _UNSET
_context = threading.local()


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` process-wide (``None`` deactivates)."""
    global _active
    _active = plan


def clear_fault_plan() -> None:
    """Deactivate any installed plan and re-arm the lazy env read."""
    global _active
    _active = _UNSET


def active_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from :data:`FAULT_PLAN_ENV`."""
    global _active
    if _active is _UNSET:
        payload = os.environ.get(FAULT_PLAN_ENV)
        _active = FaultPlan.from_json(payload) if payload else None
    return _active  # type: ignore[return-value]


@contextmanager
def fault_context(key: Optional[str], attempt: int = 1):
    """Scope the ambient (scenario id, attempt number) for this thread."""
    previous = (
        getattr(_context, "key", None),
        getattr(_context, "attempt", 1),
    )
    _context.key, _context.attempt = key, attempt
    try:
        yield
    finally:
        _context.key, _context.attempt = previous


def fault_point(site: str) -> None:
    """Evaluate the active plan at ``site`` (no-op without a plan).

    Raises :class:`InjectedFault`, kills the process, or sleeps,
    according to the first terminal matching rule; ``delay`` rules
    stack before a terminal one.
    """
    plan = active_fault_plan()
    if plan is None:
        return
    key = getattr(_context, "key", None)
    attempt = getattr(_context, "attempt", 1)
    for _, rule in plan.matching_rules(site, key, attempt):
        if rule.kind == "delay":
            time.sleep(rule.delay)
        elif rule.kind == "exception":
            raise InjectedFault(
                f"{rule.message} [site={site} key={key} attempt={attempt}]"
            )
        elif rule.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        elif rule.kind == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_PLAN_ENV",
    "KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_context",
    "fault_point",
    "install_fault_plan",
]
