"""Strict validators for the exposition formats we emit.

Lives in the package (not the test tree) so the same checkers guard
three surfaces: the unit tests over ``MetricsRegistry.to_prometheus`` /
``to_openmetrics``, the CI serve-and-scrape smoke steps
(``python -m repro.obs.promcheck`` over a curl'ed ``/metrics`` body),
and ad-hoc operator debugging.

Checked properties, classic Prometheus text: every sample line parses;
every sample is preceded by a ``# TYPE`` declaration of a known kind;
histogram bucket counts are cumulative *per label child*, end at
``le="+Inf"``, and equal ``_count``.

OpenMetrics adds: the body terminates with ``# EOF`` (and nothing
follows it); counter samples use the ``_total`` / ``_created`` suffixes
while the ``# TYPE`` name does not; exemplars
(`` # {labels} value [timestamp]``) appear only on histogram
``_bucket`` or counter ``_total`` samples, parse, keep their label set
within the 128-rune spec limit, and carry their value — and optional
wall-clock timestamp, strictly *after* the value — as finite float
seconds.  A timestamp before the value, or two timestamps, cannot
match the sample grammar and is rejected as unparseable.
"""

from __future__ import annotations

import math
import re
import sys

__all__ = [
    "validate_openmetrics_text",
    "validate_prometheus_text",
    "main",
]

_SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$")

# An OpenMetrics sample with an optional exemplar:
#   name{labels} value [# {exemplar-labels} exemplar-value [timestamp]]
# The grammar fixes the ordering (value first, at most one timestamp);
# token *contents* are validated in code so a malformed float gets a
# named assertion instead of a generic parse failure.
_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)"
    r"(?P<exemplar> # \{(?P<exlabels>[^}]*)\} (?P<exvalue>[^ ]+)"
    r"(?: (?P<exts>[^ ]+))?)?$"
)

_EXEMPLAR_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)

# OpenMetrics caps an exemplar's combined label names + values length.
EXEMPLAR_MAX_RUNES = 128


def _check_histograms(text: str, typed: dict) -> None:
    """Shared histogram checks: cumulative buckets per label child,
    terminal ``+Inf``, ``_count`` agreement (both formats)."""
    for name, kind in typed.items():
        if kind != "histogram":
            continue
        # Bucket series are cumulative *per label child* — a labelled
        # family (e.g. landlord_request_seconds{engine=...}) interleaves
        # several independent cumulative series, so group by
        # the label set minus the ``le`` bound (rendered last).
        children = {}
        for labels, le, count in re.findall(
            rf'^{name}_bucket{{(?:(.*),)?le="([^"]+)"}} (\d+)', text, re.M
        ):
            children.setdefault(labels or "", []).append((le, int(count)))
        assert children, f"histogram {name} has no buckets"
        for child, series in children.items():
            counts = [c for _, c in series]
            label = f"{name}{{{child}}}" if child else name
            assert counts == sorted(counts), f"{label} buckets not cumulative"
            assert series[-1][0] == "+Inf", f"{label} missing +Inf bucket"
            count_re = (
                rf"^{name}_count{{{re.escape(child)}}} (\d+)$"
                if child
                else rf"^{name}_count (\d+)$"
            )
            (total,) = re.findall(count_re, text, re.M)
            assert int(total) == counts[-1], f"{label} count != +Inf bucket"


def validate_prometheus_text(text: str) -> None:
    """Assert ``text`` is well-formed classic exposition; raise on drift.

    Raises :class:`AssertionError` naming the offending line or
    histogram; returns ``None`` on success.  An empty body is legal
    (a registry with no families scrapes as zero bytes).
    """
    if not text.strip():
        return
    typed = {}
    for line in text.strip().split("\n"):
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in {"counter", "gauge", "histogram"}
            typed[name] = kind
            continue
        assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"
        name = re.split(r"[{ ]", line, 1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or base in typed, f"sample before TYPE: {line!r}"
    _check_histograms(text, typed)


def validate_openmetrics_text(text: str) -> None:
    """Assert ``text`` is well-formed OpenMetrics exposition.

    Raises :class:`AssertionError` naming the offending line; returns
    ``None`` on success.
    """
    lines = text.strip().split("\n")
    assert lines and lines[-1] == "# EOF", "missing terminal # EOF marker"
    typed = {}
    for line in lines[:-1]:
        assert line != "# EOF", "# EOF before the end of the body"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in {"counter", "gauge", "histogram"}
            assert not (
                kind == "counter" and name.endswith("_total")
            ), f"counter TYPE keeps _total suffix: {line!r}"
            typed[name] = kind
            continue
        match = _OM_SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count|total|created)$", "", name)
        kind = typed.get(name) or typed.get(base)
        assert kind is not None, f"sample before TYPE: {line!r}"
        if kind == "counter":
            assert re.search(r"_(total|created)$", name), (
                f"counter sample without _total/_created suffix: {line!r}"
            )
        if match.group("exemplar"):
            assert (
                name.endswith("_bucket") and kind == "histogram"
            ) or (
                name.endswith("_total") and kind == "counter"
            ), f"exemplar on a non-bucket/total sample: {line!r}"
            exlabels = match.group("exlabels")
            pairs = _EXEMPLAR_LABEL_RE.findall(exlabels)
            reconstructed = ",".join(f'{k}="{v}"' for k, v in pairs)
            assert reconstructed == exlabels, (
                f"malformed exemplar label set: {line!r}"
            )
            runes = sum(len(k) + len(v) for k, v in pairs)
            assert runes <= EXEMPLAR_MAX_RUNES, (
                f"exemplar label set exceeds {EXEMPLAR_MAX_RUNES} runes "
                f"({runes}): {line!r}"
            )
            try:
                exvalue = float(match.group("exvalue"))
            except ValueError:
                exvalue = float("nan")
            assert math.isfinite(exvalue), (
                f"exemplar value not a finite float: {line!r}"
            )
            ts = match.group("exts")
            if ts is not None:
                try:
                    ts_value = float(ts)
                except ValueError:
                    ts_value = float("nan")
                assert math.isfinite(ts_value), (
                    f"exemplar timestamp not finite float seconds: {line!r}"
                )
                assert ts_value >= 0, (
                    f"exemplar timestamp before the epoch: {line!r}"
                )
    _check_histograms("\n".join(lines[:-1]), typed)


def main(argv=None) -> int:
    """Validate a scrape body from a file argument (or stdin).

    ``--openmetrics`` forces the OpenMetrics validator; the default
    auto-detects on the terminal ``# EOF`` marker.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    force_openmetrics = False
    if "--openmetrics" in argv:
        force_openmetrics = True
        argv.remove("--openmetrics")
    if argv:
        text = open(argv[0], encoding="utf-8").read()
    else:
        text = sys.stdin.read()
    openmetrics = force_openmetrics or text.strip().endswith("# EOF")
    checker = (
        validate_openmetrics_text if openmetrics else validate_prometheus_text
    )
    try:
        checker(text)
    except AssertionError as exc:
        kind = "openmetrics" if openmetrics else "prometheus"
        print(f"invalid {kind} exposition format: {exc}", file=sys.stderr)
        return 1
    print(
        "exposition format ok "
        f"({'openmetrics' if openmetrics else 'prometheus'})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
