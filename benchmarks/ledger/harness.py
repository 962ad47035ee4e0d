"""Shared machinery of the performance ledger.

Everything here belongs to the benchmark, not to the program under
test: locating the source tree, the benchmark's own span log, ``/proc``
readers, a scratch workspace inside the checkout, and a fork server
that runs each recovery in a process that has never seen a cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".ledger_work"

#: The site repository is fixed; ``--seed`` only drives spec sampling.
REPO_SEED = 2020

clock = time.perf_counter


def require_source_tree() -> None:
    """Exit non-zero, printing no result, when there is nothing to measure."""
    missing = [p for p in (SRC / "repro" / "__init__.py", SPEC_FILE)
               if not p.is_file()]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"ledger: not a source checkout (missing {names})",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json`` — the one list of workloads, metrics and bounds."""
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def generator_cap() -> int:
    """Load-generator threads/connections: never more than the cores."""
    return min(2, os.cpu_count() or 1)


# -- statistics ------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of unsorted samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def digest(snapshot: dict) -> str:
    """Content hash of a ``cache.snapshot()`` (canonical JSON)."""
    canon = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- the machine's speed --------------------------------------------------------


class MachineSpeed:
    """How fast this machine runs right now, against a fixed reference.

    On a shared sandbox the same lap of identical work takes up to twice
    as long when a neighbour is busy, and the slow spells last from a
    fraction of a second to minutes, so neither the median nor the best
    of a run's laps repeats from run to run (quartile spreads of 10-30 %
    were measured).  What does repeat is the *ratio* of a region's time
    to the time of a fixed kernel run in the same moments: both slow
    down together.

    So every measured region is bracketed by passes of this reference
    kernel — dictionary lookups in shuffled order plus bit operations on
    a matrix the size of the engine's, i.e. the kind of work the program
    does — and a region made of many timed calls takes another pass
    after every ``EVERY_S`` seconds of them.  The region's CPU time is
    then reported at the speed of a core that runs one pass in
    ``NOMINAL_S``; time spent waiting (timers, fsync, a sleeping peer)
    is not scaled.  Passes spaced more than a few hundred milliseconds
    apart were measured to track the machine half as well.

    The decision kernel, with its larger working set and code footprint,
    loses more to a busy neighbour than the small kernel does: over 256
    laps of ``replay_zone`` through calm and busy spells, lap time went
    as the 1.96th power of pass time (r = 0.93), and over three sets of
    ten runs taken hours apart an exponent of 1.5-2 both halved the
    spread between runs and brought the sets' medians from 13 % apart
    to within 2-6 % on every CPU-bound workload.  ``LAP_SENSITIVITY`` is
    that exponent.  Recoveries and set-ups (JSON parsing, numpy, file
    I/O) went as the 0.8-1.2th power and are scaled as they are.
    """

    #: A typical pass on the 2-core sandbox this was built on.
    NOMINAL_S = 0.008
    #: Timed work between two passes inside a region.
    EVERY_S = 0.05
    #: A lap's slowdown = (pass time / NOMINAL_S) ** LAP_SENSITIVITY.
    LAP_SENSITIVITY = 1.75

    def __init__(self) -> None:
        import numpy as np

        self._table = {i: str(i) for i in range(150_000)}
        self._keys = random.Random(REPO_SEED).sample(range(150_000), 8_000)
        rng = np.random.default_rng(REPO_SEED)
        self._matrix = rng.integers(0, 2 ** 63, size=(2000, 151), dtype=np.uint64)
        self._row = self._matrix[7].copy()
        self.samples: List[float] = []
        self.cpu_spent = 0.0   # so callers can leave the passes out of theirs
        self._since = 0.0

    def sample(self) -> float:
        table, matrix, row = self._table, self._matrix, self._row
        cpu0, t0 = time.process_time(), clock()
        total = 0
        for key in self._keys:
            total += len(table[key])
        for _ in range(4):
            ((matrix & row) == row).all(axis=1).sum()
        elapsed = clock() - t0
        self.cpu_spent += time.process_time() - cpu0
        self.samples.append(elapsed)
        self._since = 0.0
        return elapsed

    def after(self, timed_s: float) -> None:
        """Account ``timed_s`` of a region's work; take a pass when due."""
        self._since += timed_s
        if self._since >= self.EVERY_S:
            self.sample()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, sensitivity: float = 1.0) -> float:
        """How many times slower than at the reference speed a region of
        that sensitivity ran, going by the passes since ``start``."""
        samples = self.samples[start:]
        return (sum(samples) / len(samples) / self.NOMINAL_S) ** sensitivity


def at_reference_speed(wall_s: float, cpu_s: float, factor: float) -> float:
    """``wall_s`` with its CPU-busy part scaled to the reference speed."""
    busy = min(cpu_s, wall_s)
    return wall_s - busy * (1 - 1 / factor)


# -- /proc readers ---------------------------------------------------------


def _proc(pid: Optional[int]) -> str:
    return f"/proc/{pid if pid is not None else 'self'}"


def proc_status_mb(key: str, pid: Optional[int] = None) -> float:
    """A ``VmHWM``/``VmRSS``-style field of ``/proc/<pid>/status`` in MiB."""
    with open(f"{_proc(pid)}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(key)


def proc_wchar(pid: Optional[int] = None) -> int:
    """Bytes the process passed to write-like syscalls (exact)."""
    with open(f"{_proc(pid)}/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise KeyError("wchar")


def proc_cpu_s(pid: Optional[int] = None) -> float:
    """utime + stime of the process in seconds."""
    with open(f"{_proc(pid)}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- spans -----------------------------------------------------------------


class SpanLog:
    """The benchmark's own spans, kept in memory until the run ends.

    A span is ``{id, name, start, end, parent, ref}`` on the
    ``perf_counter`` timebase: ``parent`` is the id of the span that
    caused it and ``ref`` the request or window it belongs to.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, ref: object = None) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "ref": ref})
        return len(self.spans) - 1

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus what child spans cover —
        the time a layer spent outside the layers it called."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- correctness -----------------------------------------------------------


class Checks:
    """Correctness checks of one run; each failure counts as a failed op."""

    def __init__(self) -> None:
        self.results: List[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", flush=True)
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(1 for result in self.results if not result["ok"])


def check_ack_set(checks: Checks, indices: Sequence[int], expected: int) -> bool:
    """The daemon must have numbered the acked submissions 0..expected-1."""
    ok = sorted(indices) == list(range(expected))
    return checks.check(
        "serve.ack_set", ok,
        f"{len(indices)} acks, {len(set(indices))} distinct, want "
        f"range({expected})",
    )


def check_recovery(checks: Checks, label: str, result: dict,
                   want_digest: str, want_replayed: Optional[int]) -> bool:
    """A recovery must rebuild exactly the state that was live."""
    if "error" in result:
        return checks.check(f"{label}.recover", False, result["error"])
    ok = checks.check(
        f"{label}.recover_digest", result["digest"] == want_digest,
        f"recovered {result['digest'][:12]} != live {want_digest[:12]}",
    )
    if want_replayed is not None:
        ok &= checks.check(
            f"{label}.replayed_count", result["replayed"] == want_replayed,
            f"replayed {result['replayed']}, want {want_replayed}",
        )
    return ok


# -- workspace -------------------------------------------------------------


class Workspace:
    """A scratch directory inside the checkout, removed on close."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = WORK_ROOT / f"run-{os.getpid()}-{time.time_ns():x}"
        self.path.mkdir()
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.path / f"{label}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def copy_state(src_dir: Path, dst_dir: Path) -> Path:
    """Copy a crash image (snapshot + journal) so it can be recovered twice."""
    for item in src_dir.iterdir():
        if item.is_file():
            shutil.copy2(item, dst_dir / item.name)
    return dst_dir


# -- cold processes --------------------------------------------------------


def reap(pid: int, timeout: float = 10.0) -> None:
    """Wait for a child; SIGKILL it when it outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, _ = os.waitpid(pid, os.WNOHANG)
        if done:
            return
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


class ColdForker:
    """Runs ``fn(*args)`` in processes that never held a cache.

    Forked during set-up, right after the repository is built and before
    any cache, stream or connection exists, the server child waits on a
    pipe; each :meth:`call` makes it fork a grandchild that runs ``fn``
    once and exits.  Every recovery therefore starts from "interpreter +
    imports + repository" — what a restarted daemon has — without paying
    a two-second interpreter start per measurement.  Must be created
    while the calling process has no threads of its own.
    """

    def __init__(self, fn: Callable[..., dict]) -> None:
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            status = 1
            try:
                os.close(request_w)
                os.close(result_r)
                self._serve(fn, request_r, result_w)
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(result_w)
        self._requests = os.fdopen(request_w, "w", encoding="utf-8")
        self._results = os.fdopen(result_r, "r", encoding="utf-8")

    @staticmethod
    def _serve(fn: Callable[..., dict], request_fd: int, result_fd: int) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with os.fdopen(request_fd, "r", encoding="utf-8") as requests:
            for line in requests:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        try:
                            result = fn(*json.loads(line))
                        except Exception as exc:  # reported, not swallowed
                            result = {"error": f"{type(exc).__name__}: {exc}"}
                        os.write(result_fd,
                                 (json.dumps(result) + "\n").encode("utf-8"))
                        status = 0
                    finally:
                        os._exit(status)
                _, code = os.waitpid(pid, 0)
                if code != 0:
                    os.write(result_fd, (json.dumps(
                        {"error": f"cold process died with status {code}"}
                    ) + "\n").encode("utf-8"))

    def call(self, *args: object) -> dict:
        self._requests.write(json.dumps(list(args)) + "\n")
        self._requests.flush()
        line = self._results.readline()
        if not line:
            return {"error": "cold process server closed its pipe"}
        return json.loads(line)

    def close(self) -> None:
        if self._pid:
            self._requests.close()  # EOF ends the server loop
            self._results.close()
            reap(self._pid)
            self._pid = 0
