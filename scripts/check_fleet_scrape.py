#!/usr/bin/env python3
"""Validate a fleet-telemetry scrape: formats, labels, and arithmetic.

The CI fleet smoke step runs ``sweep --serve``, scrapes ``/metrics`` in
both exposition formats, and pipes the bodies through this checker::

    python scripts/check_fleet_scrape.py scrape.prom scrape.om \
        --workers 4 --cells 8

Checks, beyond what :mod:`repro.obs.promcheck` already enforces on
each body:

- both bodies validate under their strict format checker;
- at least ``--workers`` distinct ``worker="..."`` label values appear;
- for every counter family that has per-worker series, the aggregated
  (worker-less) sample equals the sum of the per-worker samples for
  the same residual label set — the fleet arithmetic a dashboard's
  "total" row silently depends on;
- with ``--status``, the ``/statusz`` companion JSON reports
  completion (and, with ``--cells N``, exactly ``N`` folded cells);
  every per-worker row splits its requests into hits + merges +
  inserts, and the rows' requests add up to the scraped aggregate
  ``landlord_requests_total`` — the numbers ``top --url`` shows.

Exit code 0 on success; 1 with a diagnostic on the first violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict

from repro.obs.promcheck import (
    validate_openmetrics_text,
    validate_prometheus_text,
)

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>[^ ]+)"
)
_WORKER = re.compile(r'worker="([^"]*)"')


def _counter_families(text: str) -> set:
    return {
        line.split(" ")[2]
        for line in text.splitlines()
        if line.startswith("# TYPE ") and line.endswith(" counter")
    }


def _strip_worker(labels: str) -> str:
    residual = [
        part for part in labels.split(",")
        if part and not part.startswith("worker=")
    ]
    return ",".join(residual)


def check_fleet_arithmetic(text: str, min_workers: int) -> None:
    """Aggregate counter == sum of its per-worker series, per label set."""
    counters = _counter_families(text)
    aggregated = {}
    per_worker = defaultdict(float)
    workers = set()
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            continue
        name = re.sub(r"_(total|created)$", "", match.group("name"))
        if name not in counters and match.group("name") not in counters:
            continue
        labels = match.group("labels") or ""
        value = float(match.group("value"))
        found = _WORKER.search(labels)
        key = (match.group("name"), _strip_worker(labels))
        if found:
            workers.add(found.group(1))
            per_worker[key] += value
        else:
            aggregated[key] = value
    if len(workers) < min_workers:
        raise SystemExit(
            f"expected >= {min_workers} workers in the scrape, "
            f"found {len(workers)}: {sorted(workers)}"
        )
    checked = 0
    for key, total in per_worker.items():
        if key not in aggregated:
            raise SystemExit(
                f"per-worker series {key} has no aggregated counterpart"
            )
        if aggregated[key] != total:
            raise SystemExit(
                f"fleet arithmetic broken for {key}: aggregate "
                f"{aggregated[key]} != per-worker sum {total}"
            )
        checked += 1
    if not checked:
        raise SystemExit("no per-worker counter series found to check")
    print(
        f"fleet arithmetic ok: {checked} counter series, "
        f"{len(workers)} workers"
    )


def check_worker_rows(status: dict, text: str) -> None:
    """Per-worker ``/statusz`` rows agree with themselves and the scrape."""
    workers = status.get("telemetry", {}).get("workers", {})
    if not workers:
        raise SystemExit("statusz reports no worker rows")
    for worker, row in sorted(workers.items()):
        parts = [row.get(key) for key in ("hits", "merges", "inserts")]
        if None in parts or sum(parts) != row.get("requests"):
            raise SystemExit(
                f"worker {worker}: hits + merges + inserts {parts} "
                f"!= requests {row.get('requests')}"
            )
    total = sum(
        float(match.group("value"))
        for match in map(_SAMPLE.match, text.splitlines())
        if match and match.group("name") == "landlord_requests_total"
        and not _WORKER.search(match.group("labels") or "")
    )
    rows = sum(row["requests"] for row in workers.values())
    if rows != total:
        raise SystemExit(
            f"worker rows sum to {rows} requests, the scraped aggregate "
            f"landlord_requests_total is {total}"
        )
    print(f"worker rows ok: {len(workers)} rows, {rows:g} requests")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("classic", help="classic-format scrape body file")
    parser.add_argument("openmetrics",
                        help="openmetrics-format scrape body file")
    parser.add_argument("--workers", type=int, default=1,
                        help="minimum distinct worker labels expected")
    parser.add_argument("--cells", type=int, default=None,
                        help="exact folded cell count expected in --status")
    parser.add_argument("--status", default=None,
                        help="optional /statusz JSON body to cross-check")
    args = parser.parse_args(argv)

    classic = open(args.classic, encoding="utf-8").read()
    openmetrics = open(args.openmetrics, encoding="utf-8").read()
    validate_prometheus_text(classic)
    validate_openmetrics_text(openmetrics)
    print("exposition formats ok (prometheus + openmetrics)")
    check_fleet_arithmetic(classic, args.workers)
    check_fleet_arithmetic(openmetrics, args.workers)
    if args.status:
        status = json.load(open(args.status, encoding="utf-8"))
        telemetry = status.get("telemetry", {})
        if not telemetry.get("complete"):
            raise SystemExit("statusz does not report the run complete")
        folded = telemetry.get("cells", {}).get("folded")
        if args.cells is not None and folded != args.cells:
            raise SystemExit(
                f"statusz reports {folded} folded cells, "
                f"expected {args.cells}"
            )
        print(f"statusz ok: complete, {folded} cells folded")
        check_worker_rows(status, classic)
    return 0


if __name__ == "__main__":
    sys.exit(main())
