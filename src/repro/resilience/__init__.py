"""``repro.resilience`` — opt-in self-verification of the data plane.

:mod:`repro.resilience.verify` holds the round-trip checks and cache
invariant audits that ``REPRO_VERIFY=1`` turns on; callers import that
module, and the package itself exports nothing.  The checks are
read-only, so a verified run's outputs are bit-identical to an
unverified one.

Failures emit ``verify_fail`` events on the ``resilience`` category of
:mod:`repro.obs.trace`, which ``python -m repro obs`` renders.  The knob
lives in :mod:`repro.settings`; tests and long-lived processes can flip
it at runtime::

    from repro import settings
    settings.configure(verify=True)
    ...
    settings.reset()   # back to the environment's settings
"""
