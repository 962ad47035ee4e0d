"""Job-trace persistence: save, load and replay request streams.

Trace-driven simulation (the paper's methodology) needs reproducible
streams; this module serialises them as JSON lines — one record per request
with the job id and its package list — so a stream generated once can be
replayed across cache configurations, shared between machines, or diffed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.core.spec import ImageSpec
from repro.htc.job import Job

__all__ = ["save_trace", "iter_trace", "jobs_to_trace_records"]

PathLike = Union[str, Path]


def jobs_to_trace_records(jobs: Iterable[Job]) -> Iterator[dict]:
    """Serialisable records for a job sequence."""
    for job in jobs:
        yield {
            "job": job.job_id,
            "user": job.user,
            "runtime": job.runtime_seconds,
            "packages": sorted(job.packages),
        }


def save_trace(path: PathLike, jobs: Iterable[Job]) -> int:
    """Write jobs as JSON lines; returns the number of records written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in jobs_to_trace_records(jobs):
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count


def iter_trace(path: PathLike) -> Iterator[Job]:
    """Stream jobs back from a trace file (validates each record)."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                packages = record["packages"]
                job_id = record["job"]
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: record missing required field: {exc}"
                ) from exc
            if not isinstance(packages, list):
                raise ValueError(f"{path}:{lineno}: 'packages' must be a list")
            yield Job(
                job_id=str(job_id),
                spec=ImageSpec(packages),
                runtime_seconds=float(record.get("runtime", 0.0)),
                user=str(record.get("user", "")),
            )
