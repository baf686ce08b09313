"""Differential consistency checking for the continuous-query stack.

The :class:`ConsistencyOracle` watches a running
:class:`~repro.core.server.LocationAwareServer` from the outside — via
link delivery observers and server protocol observers, never from
inside the delivery path — and, each cycle, cross-checks four
independent derivations of "what the answer is":

1. **replay** — the previous engine answers plus the cycle's update
   stream must reproduce the new engine answers (the update language is
   complete);
2. **snapshot** — a from-scratch brute-force recomputation over all
   objects must match the engine's incrementally-maintained answers
   (the incremental evaluation is correct);
3. **commit** — the server's committed answer must equal the state the
   mirrored client provably received (the commit invariant
   *committed ⊆ delivered* from :mod:`repro.core.server`);
4. **desync** — a client that lost nothing since its last recovery must
   hold exactly the engine's answer (loss-free delivery is lossless).

The snapshot check's answer functions are the ones
:class:`~repro.check.reference.ReferenceEngine` — the brute-force
engine the production engine is tested against in lock-step — is
built on.

Divergences are reported as :class:`Divergence` records with the query,
client, cycle and offending oids; counts land in the
``oracle_divergence_total{kind=...}`` counter so chaos runs can assert
on a single metric.
"""

from repro.check.oracle import ConsistencyOracle, Divergence

__all__ = ["ConsistencyOracle", "Divergence"]
