"""The shipped invariant rules.

Importing this package registers every rule with the framework registry:

* D001 ``no-wallclock`` — simulated time only; never the host clock.
* D002 ``no-global-rng`` — randomness flows through ``SeededStream``.
* D003 ``unordered-iteration`` — no order-dependent iteration over sets
  in the deterministic replay core.
* S001 ``unyielded-process`` — generator processes must be driven.
* C001 ``missing-rights-check`` — opcode handlers must reach a rights
  check.
* A001 ``assert-as-validation`` — library validation must survive
  ``python -O``.
"""

from . import asserts, caps, determinism, simproc  # noqa: F401  (registration)
