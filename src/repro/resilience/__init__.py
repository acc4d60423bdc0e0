"""``repro.resilience`` — soft-error injection, recovery, verification.

Three pieces, all inert by default so a clean run stays bit-identical:

- :mod:`repro.resilience.faults` — deterministic bit-flip injection
  into compressed payloads (``REPRO_SOFT_ERRORS=<rate|@index[:bit]>``);
- recovery policies (``REPRO_SOFT_ERROR_POLICY=refetch|raw|failstop``)
  implemented inside the cache models, with refetch cost carried by the
  ordinary miss path through the memory controller and energy model;
- :mod:`repro.resilience.verify` — opt-in round-trip verification and
  cache invariant audits (``REPRO_VERIFY=1``).

Events (``soft_error``/``recovery``/``verify_fail``) flow through the
``resilience`` category of :mod:`repro.obs.trace` and surface in
``python -m repro obs``.  The knobs live in :mod:`repro.settings`;
tests and long-lived processes can flip them at runtime::

    from repro import settings
    settings.configure(soft_errors="@0", soft_error_policy="failstop")
    ...
    settings.reset()   # back to the environment's settings
"""

from __future__ import annotations

from repro.resilience.faults import SoftErrorInjector, make_injector
from repro.resilience.verify import audit, verification_enabled

__all__ = [
    "SoftErrorInjector", "audit", "make_injector", "verification_enabled",
]
