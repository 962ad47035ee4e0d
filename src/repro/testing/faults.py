"""Crash/torn-write injection for the durable-state code paths.

The persistence layer must uphold one guarantee: *whatever instant the
process dies, the next invocation recovers to exactly the pre-crash
cache state*.  Proving that requires dying at every instant that
matters.  This module enumerates those instants (:data:`CRASH_SITES`)
and provides a context manager (:class:`CrashPoint`) that makes the
corresponding :func:`checkpoint` call raise :class:`SimulatedCrash` —
optionally after truncating the bytes written so far, simulating a torn
write that a real power loss can leave behind before fsync returned.
Given an ``error``, the same site raises that instead: the process
lives on and sees a failed I/O call (ENOSPC, EIO) it must handle.

Checkpoints cost one global ``is None`` test when disarmed, so the
production call sites keep them unconditionally.
"""

from __future__ import annotations

import os
from typing import IO, Optional

__all__ = ["CRASH_SITES", "SimulatedCrash", "CrashPoint", "checkpoint"]

#: Every instant at which the persistence layer can be killed.  The
#: first component names the operation (journal append, journal
#: compaction, snapshot save); the second names the moment within it.
CRASH_SITES = (
    "journal:append",    # before the entry's bytes reach the file
    "journal:torn",      # entry written but not fsynced (may tear)
    "journal:synced",    # entry durable, but the operation not yet applied
    "compact:write",     # before the compacted journal tmp is written
    "compact:torn",      # compacted tmp written but not fsynced (may tear)
    "compact:renamed",   # compacted journal renamed, directory not fsynced
    "state:write",       # before the snapshot tmp is written
    "state:torn",        # snapshot tmp written but not fsynced (may tear)
    "state:synced",      # snapshot tmp durable, rename not yet performed
    "state:renamed",     # snapshot renamed over the old one, dir not fsynced
)

#: Sites where a file handle is mid-write, so torn-write simulation applies.
TORN_SITES = ("journal:torn", "compact:torn", "state:torn")


class SimulatedCrash(BaseException):
    """Stands in for the process dying at an armed crash site.

    A :class:`BaseException`, like :class:`SystemExit`: a dead process
    runs no ``except Exception`` clean-up, so none may run here either.
    """


_active: Optional["CrashPoint"] = None


class CrashPoint:
    """Arm a simulated crash at one persistence call site.

    Args:
        site: one of :data:`CRASH_SITES`.
        hits: crash on the Nth time the site is reached (1 = first).
        torn: optional fraction in ``(0, 1)`` of the in-flight bytes to
            leave behind before crashing — only meaningful at the
            ``*:torn`` sites, where a file is written but not yet
            fsynced.  ``None`` leaves the full write in place (the
            "lucky" crash where the page cache happened to be flushed).
        error: raise this exception instead of :class:`SimulatedCrash`
            — an I/O failure the process survives.  At
            ``journal:torn``, ``OSError(errno.EIO, ...)`` is a failed
            fsync (the bytes stay in the file) and, with ``torn``,
            ``OSError(errno.ENOSPC, ...)`` is a short write.

    Use as a context manager::

        with CrashPoint("state:synced") as cp:
            ...  # persistence code raises SimulatedCrash at the site
        assert cp.fired
    """

    def __init__(
        self,
        site: str,
        hits: int = 1,
        torn: Optional[float] = None,
        error: Optional[Exception] = None,
    ):
        if site not in CRASH_SITES:
            raise ValueError(f"unknown crash site {site!r}")
        if hits < 1:
            raise ValueError("hits must be >= 1")
        if torn is not None and not 0.0 < torn < 1.0:
            raise ValueError("torn must be a fraction in (0, 1)")
        if torn is not None and site not in TORN_SITES:
            raise ValueError(f"site {site!r} has no in-flight write to tear")
        self.site = site
        self.hits = hits
        self.torn = torn
        self.error = error
        self.fired = False
        self._count = 0

    def __enter__(self) -> "CrashPoint":
        """Install this crash point as the process-wide active one."""
        global _active
        if _active is not None:
            raise RuntimeError("another CrashPoint is already armed")
        _active = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Disarm the crash point."""
        global _active
        _active = None

    def _trip(self, fh: Optional[IO[str]], start: int) -> None:
        if self.fired:
            return
        self._count += 1
        if self._count < self.hits:
            return
        if self.torn is not None and fh is not None:
            fh.flush()
            fileno = fh.fileno()
            size = os.fstat(fileno).st_size
            keep = start + int((size - start) * self.torn)
            os.ftruncate(fileno, keep)
            os.fsync(fileno)  # the torn prefix is what "survives" the crash
        self.fired = True
        if self.error is not None:
            raise self.error
        raise SimulatedCrash(self.site)


def checkpoint(site: str, fh: Optional[IO[str]] = None, start: int = 0) -> None:
    """Declare a crash site; no-op unless a matching CrashPoint is armed.

    Args:
        site: one of :data:`CRASH_SITES`.
        fh: the file object mid-write, when the site sits between a write
            and its fsync (enables torn-write simulation).
        start: file offset where the in-flight write began — bytes before
            it are already durable and are never torn away.
    """
    if _active is not None and _active.site == site:
        _active._trip(fh, start)
