#!/usr/bin/env python3
"""Render committed-vs-regenerated benchmark deltas as a Markdown table.

CI regenerates ``BENCH_cache.json`` / ``BENCH_sweep.json`` on every run;
this script diffs each regenerated file against the committed baseline
(``git show <ref>:<file>``) and prints one GitHub-flavoured Markdown
table per file, meant for ``$GITHUB_STEP_SUMMARY``::

    python scripts/bench_summary.py BENCH_cache.json BENCH_sweep.json \
        >> "$GITHUB_STEP_SUMMARY"

``--cold-start DAEMON_MS WRAPPER_MS...`` prints the one-line cold-start
readout the daemon smoke step measures (spawn → port file, and the wall
time of consecutive ``submit --scale paper`` invocations).

Nested payloads (the ``{"scales": {...}}`` layout of BENCH_cache.json)
are flattened to dotted keys.  Only scalar leaves are compared; numeric
deltas carry a sign and a percentage so regressions read at a glance.
A missing baseline (new file, shallow clone) degrades to a
current-only table rather than failing the build.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

Scalar = object  # int | float | bool | str | None


def flatten(doc: object, prefix: str = "") -> Dict[str, Scalar]:
    """Dotted-key view of a nested JSON document's scalar leaves."""
    out: Dict[str, Scalar] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(flatten(value, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = doc
    return out


def baseline_of(path: Path, ref: str) -> Optional[dict]:
    """The committed version of ``path`` at ``ref``, or None."""
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{path.as_posix()}"],
            capture_output=True, check=True, cwd=path.parent or Path("."),
        ).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, OSError, ValueError):
        return None


def _fmt(value: Scalar) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _delta(old: Scalar, new: Scalar) -> str:
    if old == new:
        return ""
    if isinstance(old, bool) or isinstance(new, bool):
        return "changed"
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        diff = new - old
        pct = f" ({diff / old:+.1%})" if old else ""
        return f"{diff:+g}{pct}"
    return "changed"


_DEGRADED_NOTE = " _(single-CPU runner; gate informational)_"


def _scale_payload(doc: object, scale: str) -> Optional[dict]:
    """BENCH_cache's payload for one scale, or None."""
    if not isinstance(doc, dict):
        return None
    payload = (doc.get("scales") or {}).get(scale)
    return payload if isinstance(payload, dict) else None


def _zone_highlight(doc: object) -> Optional[str]:
    """One-line readout for BENCH_cache's ``zone`` scale: the default
    engine in the configuration the paper runs, against the reference."""
    payload = _scale_payload(doc, "zone")
    if payload is None or payload.get("speedup") is None:
        return None
    line = (
        f"**Operating zone (alpha {payload.get('alpha', '?')}):** "
        f"{payload.get('requests_per_second', '?')} req/s vectorized, "
        f"{payload['speedup']}x the naive reference "
        f"(gate {payload.get('gate_min_speedup', '?')}) — "
        f"{payload.get('final_images', '?')} live image(s), "
        f"{payload.get('merges', '?')} merge(s)"
    )
    if payload["speedup"] < payload.get("gate_min_speedup", 0):
        line += " — **gate not met** (maintenance beside the loops)"
    if payload.get("degraded_single_cpu"):
        line += _DEGRADED_NOTE
    return line


def summarize(path: Path, ref: str) -> str:
    doc = json.loads(path.read_text())
    current = flatten(doc)
    baseline_doc = baseline_of(path, ref)
    lines = [f"### {path.name}", ""]
    highlight = _zone_highlight(doc)
    if highlight:
        lines += [highlight, ""]
    if baseline_doc is None:
        lines += ["| metric | value |", "|---|---|"]
        lines += [f"| {k} | {_fmt(v)} |" for k, v in sorted(current.items())]
        lines += ["", f"_No committed baseline at `{ref}`._", ""]
        return "\n".join(lines)
    baseline = flatten(baseline_doc)
    lines += [
        f"| metric | committed (`{ref}`) | this run | delta |",
        "|---|---|---|---|",
    ]
    for key in sorted(baseline.keys() | current.keys()):
        old = baseline.get(key, "—")
        new = current.get(key, "—")
        delta = _delta(old, new) if key in baseline and key in current else "new" \
            if key not in baseline else "removed"
        lines.append(f"| {key} | {_fmt(old)} | {_fmt(new)} | {delta} |")
    lines.append("")
    return "\n".join(lines)


def cold_start_line(daemon_ms: int, wrapper_ms: Sequence[int]) -> str:
    """What a process pays before its first decision, at paper scale."""
    walls = ", ".join(str(ms) for ms in wrapper_ms) or "—"
    return (
        f"**Cold start (paper scale):** job wrapper {walls} ms wall per "
        f"`submit` invocation; daemon spawn → port file {daemon_ms} ms"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="regenerated benchmark JSON files to diff")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the committed baseline "
                        "(default: %(default)s)")
    parser.add_argument("--cold-start", nargs="+", type=int, default=None,
                        metavar="MS",
                        help="daemon start-up, then each wrapper "
                        "invocation's wall time, in milliseconds")
    args = parser.parse_args(argv)
    if not args.files and not args.cold_start:
        parser.error("nothing to summarise: give files or --cold-start")
    if args.cold_start:
        print(cold_start_line(args.cold_start[0], args.cold_start[1:]) + "\n")
    if not args.files:
        return 0
    failures = 0
    print("## Benchmark deltas\n")
    for path in args.files:
        if not path.exists():
            print(f"### {path.name}\n\n_Not regenerated in this run._\n")
            continue
        try:
            print(summarize(path, args.ref))
        except ValueError as exc:
            print(f"### {path.name}\n\n_Unreadable: {exc}_\n")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
