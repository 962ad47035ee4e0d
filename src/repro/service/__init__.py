"""LANDLORD as a long-lived service: daemon, wire protocol, client.

The paper evaluates the cache as one caller running one stream to
completion; a production deployment is the opposite shape — many
concurrent submitters, one shared cache, a daemon that outlives them
all.  This package promotes the job-wrapper deployment to exactly that:

- :mod:`repro.service.daemon` — :class:`LandlordDaemon`, a
  zero-dependency loopback HTTP (and optional UNIX-socket) server in
  the same stdlib idiom as :mod:`repro.obs.server`.  Submissions from
  many clients funnel through a bounded admission queue; one committer
  at a time — a submitting thread, leader/follower style — group-commits
  each window to the write-ahead journal and applies it through
  :meth:`~repro.core.journal.JournaledState.apply_batch` (one
  ``_apply_interned`` per request) *before* acknowledging (crash →
  ``recover`` replays to bit-identical state).
- :mod:`repro.service.client` — :class:`LandlordClient`, the thin
  stdlib client behind ``repro-landlord submit --remote`` and the CI
  smoke test, with optional bounded retry on backpressure.

CLI surface: ``repro-landlord serve`` runs the daemon;
``repro-landlord submit SPEC --remote URL`` submits through it.  See
the "LANDLORD as a service" section of DESIGN.md for the queue →
journal → apply → ack pipeline and its durability/ordering guarantees.
"""

from .client import LandlordClient, ServiceError, SubmitRejected
from .daemon import LandlordDaemon

__all__ = [
    "LandlordClient",
    "LandlordDaemon",
    "ServiceError",
    "SubmitRejected",
]
