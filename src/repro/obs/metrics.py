"""Zero-dependency metrics registry: counters, gauges, histograms.

Production cache deployments are operated through exported metrics (the
CMS XCache fleet and Charliecloud's build cache both motivate every
design decision with cache-event counters), so the reproduction carries
the same substrate: a :class:`MetricsRegistry` of named metric families
— :class:`Counter`, :class:`Gauge`, and fixed-bucket :class:`Histogram`,
each optionally labelled — exposable as Prometheus text exposition
format and as a JSON snapshot.

Two properties shape the implementation:

- **The disabled path is free.**  Nothing here is global: a cache (or
  journal, or simulator) holds either a registry or ``None``, and every
  instrumentation site is guarded by one ``is not None`` check.  The
  hot paths additionally pre-bind label children once
  (:meth:`Counter.labels`), so an enabled increment is a single bound
  method call with no dict construction.
- **A ledger kept elsewhere is read, not copied.**  A counter or gauge
  that mirrors state its owner already keeps (the cache's
  ``CacheStats``) is bound to a reader (:meth:`Counter.bind`): its
  value is computed whenever the registry is read, so it costs the
  hot path nothing and cannot drift from its source.
- **Merging is deterministic.**  :meth:`MetricsRegistry.snapshot`
  produces a canonical (label-sorted) JSON-safe form and
  :meth:`MetricsRegistry.merge_snapshot` folds one in by summation
  (counters, histograms) or replacement (gauges).  Merging worker
  snapshots in submission order therefore yields bit-identical parent
  registries for any worker count — for every metric whose *values* are
  deterministic.  By convention (documented in DESIGN.md) wall-clock
  metrics are named ``*_seconds``;
  :meth:`MetricsRegistry.deterministic_snapshot` excludes exactly
  those, and is what determinism tests compare.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DISTANCE_BUCKETS",
    "EXEMPLAR_MAX_RUNES",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "load_registry",
    "save_registry",
]

PathLike = Union[str, Path]

# Exponential latency buckets from 1 µs to 1 s — wide enough for an
# in-memory subset scan and a journal fsync on spinning rust alike.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)

# Jaccard-distance buckets matching the paper's α grid granularity.
DISTANCE_BUCKETS: Tuple[float, ...] = tuple(
    round(0.05 * i, 2) for i in range(1, 21)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Exposition content types for the two text formats we can emit.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

# OpenMetrics caps an exemplar's label set (all names + values) at 128
# runes; oversize exemplars are dropped at render time, never emitted.
EXEMPLAR_MAX_RUNES = 128


def _render_exemplar(exemplars, bucket_index: int) -> str:
    """The `` # {labels} value [timestamp]`` suffix for one bucket, or
    ``""``.  The timestamp (wall-clock epoch seconds from the hybrid
    clock, per the OpenMetrics spec's optional third exemplar field) is
    emitted only when the observation carried one."""
    if exemplars is None:
        return ""
    cell = exemplars[bucket_index]
    if cell is None:
        return ""
    labels, value = cell[0], cell[1]
    if sum(len(str(k)) + len(str(v)) for k, v in labels) > EXEMPLAR_MAX_RUNES:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in labels
    )
    suffix = f" # {{{body}}} {_format_value(value)}"
    if len(cell) > 2 and cell[2] is not None:
        suffix += f" {_format_value(float(cell[2]))}"
    return suffix


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(labelnames)
    for label in out:
        if not _LABEL_RE.match(label) or label == "le":
            raise ValueError(f"invalid label name {label!r}")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate label names in {out}")
    return out


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class _BoundCounter:
    """One labelled series of a :class:`Counter` (pre-resolved child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1; must be non-negative)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class _BoundGauge:
    """One labelled series of a :class:`Gauge`."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount


class _BoundHistogram:
    """One labelled series of a :class:`Histogram` (bucket counts).

    Each bucket can additionally hold one *exemplar* — a tiny label set
    (e.g. ``(("request", "1423"),)``) plus the observed value — the
    OpenMetrics mechanism that lets a latency bucket link back to the
    concrete request that landed in it.  Storage is lazy: a series that
    never sees an exemplar pays one ``None`` attribute.
    """

    __slots__ = ("uppers", "counts", "sum", "count", "exemplars")

    def __init__(self, uppers: Tuple[float, ...]) -> None:
        self.uppers = uppers
        self.counts = [0] * (len(uppers) + 1)  # final slot is +Inf
        self.sum: float = 0.0
        self.count: int = 0
        self.exemplars: Optional[List[Optional[tuple]]] = None

    def observe(
        self,
        value: float,
        exemplar: Optional[tuple] = None,
        exemplar_ts: Optional[float] = None,
    ) -> None:
        """Record one observation into its bucket.

        ``exemplar`` is a tuple of ``(label, value)`` string pairs; the
        newest exemplar per bucket wins (matching the "most recent
        sample" recommendation of the OpenMetrics spec).
        ``exemplar_ts`` optionally stamps it with wall-clock epoch
        seconds (rendered as the spec's third exemplar field); cells
        without one stay 2-tuples, so timestamp-less callers are
        untouched.
        """
        lo = bisect_left(self.uppers, value)  # first bound >= value
        self.counts[lo] += 1
        self.sum += value
        self.count += 1
        if exemplar is not None:
            if self.exemplars is None:
                self.exemplars = [None] * len(self.counts)
            self.exemplars[lo] = (
                (exemplar, value) if exemplar_ts is None
                else (exemplar, value, exemplar_ts)
            )

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0–1) from the bucket counts.

        Linear interpolation within the containing bucket, the same
        estimate ``histogram_quantile`` computes in PromQL; returns
        ``nan`` when the series is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if seen + bucket_count >= rank and bucket_count:
                lower = 0.0 if i == 0 else self.uppers[i - 1]
                upper = (
                    self.uppers[i] if i < len(self.uppers)
                    else self.uppers[-1]
                )
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * min(1.0, fraction)
            seen += bucket_count
        return self.uppers[-1]  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        """Average observed value (``nan`` when empty)."""
        return self.sum / self.count if self.count else float("nan")


class _Family:
    """Shared machinery of a named metric family with labels."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if tuple(labels) != self.labelnames:
            if set(labels) != set(self.labelnames):
                raise ValueError(
                    f"{self.name}: expected labels {self.labelnames}, "
                    f"got {tuple(labels)}"
                )
        return tuple(str(labels[label]) for label in self.labelnames)

    def _child_for(self, key: Tuple[str, ...]):
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """All (label values, child) pairs, sorted for determinism."""
        return sorted(self._children.items())


class _ReadChild:
    """A counter or gauge series whose value is read, not pushed:
    ``offset + read()`` (see :meth:`Counter.bind`).  Read-only."""

    __slots__ = ("name", "read", "offset")

    def __init__(self, name: str, read: Callable[[], float], offset: float):
        self.name = name
        self.read = read
        self.offset = offset

    @property
    def value(self) -> float:
        """The series' current value."""
        return self.offset + self.read()

    def rebase(self, value: float) -> None:
        """Fix the offset so the series reads ``value`` now — a jump in
        what ``read`` returns that the series must not count."""
        self.offset = value - self.read()

    def _read_only(self, *args: object) -> None:
        raise ValueError(
            f"{self.name} is read from its source, not pushed: it "
            "cannot be incremented, set or merged into"
        )

    inc = set = _read_only


class _ScalarFamily(_Family):
    """A family whose series each hold one number (counters, gauges)."""

    def labels(self, **labels: str):
        """Resolve (creating if needed) the child for one label set."""
        return self._child_for(self._key(labels))

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0 when never touched)."""
        child = self._children.get(self._key(labels))
        return child.value if child is not None else 0

    def bind(self, read: Callable[[], float], **labels: str) -> _ReadChild:
        """Make one labelled series a reader of ``read``.

        Its value is then ``offset + read()`` whenever it is read.  A
        counter's offset is fixed here so that the series continues
        from its current value (0, or what a loaded snapshot held) and
        advances only with what ``read`` gains from now on; a gauge's
        offset is 0, so it reads its source as it stands.
        """
        offset = self.value(**labels) - read() if self.kind == "counter" else 0
        child = self._children[self._key(labels)] = _ReadChild(
            self.name, read, offset
        )
        return child


class Counter(_ScalarFamily):
    """A monotonically increasing metric family (e.g. requests served)."""

    kind = "counter"

    def _new_child(self) -> _BoundCounter:
        return _BoundCounter()

    def inc(self, amount: float = 1, **labels: str) -> None:
        """Increment one labelled series by ``amount``."""
        self.labels(**labels).inc(amount)


class Gauge(_ScalarFamily):
    """A metric family that can go up and down (e.g. cached bytes)."""

    kind = "gauge"

    def _new_child(self) -> _BoundGauge:
        return _BoundGauge()

    def set(self, value: float, **labels: str) -> None:
        """Set one labelled series to an absolute value."""
        self.labels(**labels).set(value)


class Histogram(_Family):
    """A fixed-bucket cumulative histogram family (Prometheus semantics).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    rest, and ``sum``/``count`` ride along, so rates and means are
    derivable exactly as with ``prometheus_client``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise ValueError("histogram needs at least one bucket")
        if list(uppers) != sorted(set(uppers)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = uppers

    def _new_child(self) -> _BoundHistogram:
        return _BoundHistogram(self.buckets)

    def labels(self, **labels: str) -> _BoundHistogram:
        """Resolve (creating if needed) the child for one label set."""
        return self._child_for(self._key(labels))

    def observe(
        self,
        value: float,
        exemplar: Optional[tuple] = None,
        exemplar_ts: Optional[float] = None,
        **labels: str,
    ) -> None:
        """Record one observation into one labelled series."""
        self.labels(**labels).observe(value, exemplar, exemplar_ts)


def _openmetrics_names(family: _Family) -> Tuple[str, str]:
    """``(display, sample)`` names for one family in OpenMetrics mode.

    Counters drop their ``_total`` suffix in ``# TYPE``/``# HELP`` lines
    while samples keep (or gain) it; other kinds are unchanged.
    """
    display = family.name
    sample_name = family.name
    if family.kind == "counter":
        if display.endswith("_total"):
            display = display[: -len("_total")]
        else:
            sample_name = f"{display}_total"
    return display, sample_name


def family_header_lines(family: _Family, openmetrics: bool) -> List[str]:
    """The ``# HELP`` / ``# TYPE`` block for one family."""
    display = _openmetrics_names(family)[0] if openmetrics else family.name
    return [
        f"# HELP {display} {family.help}",
        f"# TYPE {display} {family.kind}",
    ]


def render_family_lines(
    family: _Family,
    openmetrics: bool,
    extra_labels: Tuple[Tuple[str, str], ...] = (),
) -> List[str]:
    """Sample lines (no header) for one family's series.

    ``extra_labels`` are prepended to every series — the fleet renderer
    in :mod:`repro.obs.telemetry` uses this to interleave per-worker
    series (``worker="pid-1234"``) under the aggregated family's single
    ``# TYPE`` block, which both exposition formats require.  Exemplars
    are emitted only in OpenMetrics mode (classic Prometheus text has no
    syntax for them).
    """
    display, sample_name = (
        _openmetrics_names(family) if openmetrics
        else (family.name, family.name)
    )
    prefix = [
        f'{label}="{_escape_label_value(str(value))}"'
        for label, value in extra_labels
    ]
    lines: List[str] = []
    for key, child in family.series():
        labelled = prefix + [
            f'{label}="{_escape_label_value(value)}"'
            for label, value in zip(family.labelnames, key)
        ]
        base = ",".join(labelled)
        if isinstance(family, Histogram):
            cumulative = 0
            for i, (upper, count) in enumerate(
                zip(list(family.buckets) + [float("inf")], child.counts)
            ):
                cumulative += count
                le = "+Inf" if math.isinf(upper) else _format_value(upper)
                sep = "," if base else ""
                line = (
                    f'{display}_bucket{{{base}{sep}le="{le}"}} {cumulative}'
                )
                if openmetrics:
                    line += _render_exemplar(child.exemplars, i)
                lines.append(line)
            suffix = f"{{{base}}}" if base else ""
            lines.append(
                f"{display}_sum{suffix} {_format_value(child.sum)}"
            )
            lines.append(f"{display}_count{suffix} {child.count}")
        else:
            suffix = f"{{{base}}}" if base else ""
            lines.append(
                f"{sample_name}{suffix} {_format_value(child.value)}"
            )
    return lines


class MetricsRegistry:
    """An ordered collection of metric families with export and merge.

    Registration is idempotent: asking for an existing name with the
    same type/labels/buckets returns the existing family, so call sites
    can declare their metrics without coordinating; a conflicting
    re-registration raises :class:`ValueError` instead of silently
    aliasing two meanings onto one name.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        """Whether a family with this name is registered."""
        return name in self._families

    def get(self, name: str) -> Optional[_Family]:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def families(self) -> List[_Family]:
        """All families in registration order."""
        return list(self._families.values())

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is None:
            self._families[family.name] = family
            return family
        if type(existing) is not type(family):
            raise ValueError(
                f"metric {family.name!r} already registered as "
                f"{existing.kind}, cannot re-register as {family.kind}"
            )
        if existing.labelnames != family.labelnames:
            raise ValueError(
                f"metric {family.name!r} already registered with labels "
                f"{existing.labelnames}, cannot re-register with "
                f"{family.labelnames}"
            )
        if (
            isinstance(existing, Histogram)
            and existing.buckets != family.buckets  # type: ignore[attr-defined]
        ):
            raise ValueError(
                f"histogram {family.name!r} already registered with "
                f"bucket bounds {existing.buckets}, cannot re-register "
                f"with {family.buckets}"  # type: ignore[attr-defined]
            )
        return existing

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get-or-create a :class:`Counter` family."""
        return self._register(Counter(name, help, labelnames))  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get-or-create a :class:`Gauge` family."""
        return self._register(Gauge(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Get-or-create a :class:`Histogram` family."""
        return self._register(Histogram(name, help, labelnames, buckets))  # type: ignore[return-value]

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Canonical JSON-safe view of every family and series.

        Series are sorted by label values, so two registries holding the
        same data produce byte-identical snapshots regardless of the
        order series were touched in.
        """
        families = {}
        for family in self._families.values():
            entry: dict = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
                series_out = []
                for key, child in family.series():
                    item = {
                        "labels": list(key),
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                    if child.exemplars is not None:
                        # Preserve arity: timestamped cells serialise as
                        # [labels, value, ts], bare ones as [labels, value].
                        item["exemplars"] = [
                            None
                            if cell is None
                            else [[list(pair) for pair in cell[0]]]
                            + list(cell[1:])
                            for cell in child.exemplars
                        ]
                    series_out.append(item)
                entry["series"] = series_out
            else:
                entry["series"] = [
                    {"labels": list(key), "value": child.value}
                    for key, child in family.series()
                ]
            families[family.name] = entry
        return {"v": 1, "families": families}

    def deterministic_snapshot(self) -> dict:
        """The snapshot minus wall-clock metrics (names ending
        ``_seconds``) — the part that must be bit-identical between a
        serial run and any parallel fan-out of the same work."""
        snap = self.snapshot()
        snap["families"] = {
            name: entry
            for name, entry in snap["families"].items()
            if not name.endswith("_seconds")
        }
        return snap

    def to_json(self) -> dict:
        """Alias of :meth:`snapshot` (the JSON export format)."""
        return self.snapshot()

    def to_prometheus(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self._families.values():
            lines.extend(family_header_lines(family, openmetrics=False))
            lines.extend(render_family_lines(family, openmetrics=False))
        return "\n".join(lines) + "\n" if lines else ""

    def to_openmetrics(self) -> str:
        """Render every family in the OpenMetrics text exposition format.

        Differences from :meth:`to_prometheus`: the ``# TYPE`` line of a
        counter names the family *without* its ``_total`` suffix while
        samples keep it; histogram bucket samples carry exemplars when
        one was captured (``# {request="42"} 0.0031``), with an optional
        trailing wall-clock timestamp when the observation was stamped
        by a :class:`~repro.obs.clock.HybridClock`
        (``# {trace_id="..."} 0.0031 1700000000.5``); and the body
        terminates with the mandatory ``# EOF`` marker.  Scrape it with
        ``Accept: application/openmetrics-text`` semantics — the content
        type is :data:`OPENMETRICS_CONTENT_TYPE`.
        """
        lines: List[str] = []
        for family in self._families.values():
            lines.extend(family_header_lines(family, openmetrics=True))
            lines.extend(render_family_lines(family, openmetrics=True))
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    # -- merge -------------------------------------------------------------

    def merge_snapshot(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the incoming value
        (the merged snapshot is the newer observation).  Families absent
        here are created with the snapshot's declaration.  Shape drift
        never mis-sums silently: a family that exists with a different
        type, label set, or histogram bucket bounds raises
        :class:`ValueError` naming the metric and both shapes, and a
        histogram series whose count vector does not match the declared
        buckets is rejected the same way.  Bucket exemplars, when
        present, take the incoming value per bucket (newest wins, so
        index-ordered folding keeps the result deterministic).
        """
        for name, entry in snap.get("families", {}).items():
            kind = entry["type"]
            labelnames = tuple(entry.get("labelnames", ()))
            try:
                if kind == "counter":
                    family = self.counter(
                        name, entry.get("help", ""), labelnames
                    )
                elif kind == "gauge":
                    family = self.gauge(
                        name, entry.get("help", ""), labelnames
                    )
                elif kind == "histogram":
                    buckets = entry.get("buckets")
                    if not buckets:
                        raise ValueError(
                            "snapshot histogram entry declares no buckets"
                        )
                    family = self.histogram(
                        name, entry.get("help", ""), labelnames,
                        buckets=buckets,
                    )
                else:
                    raise ValueError(f"unknown metric type {kind!r}")
            except ValueError as exc:
                raise ValueError(
                    f"cannot merge snapshot family {name!r}: {exc}"
                ) from None
            if kind == "counter":
                for series in entry["series"]:
                    child = family._child_for(tuple(series["labels"]))
                    child.inc(series["value"])
            elif kind == "gauge":
                for series in entry["series"]:
                    child = family._child_for(tuple(series["labels"]))
                    child.set(series["value"])
            else:
                for series in entry["series"]:
                    child = family._child_for(tuple(series["labels"]))
                    counts = series["counts"]
                    if len(counts) != len(child.counts):
                        raise ValueError(
                            f"cannot merge snapshot family {name!r}: "
                            f"series {series['labels']} has "
                            f"{len(counts)} bucket counts, registered "
                            f"bounds need {len(child.counts)}"
                        )
                    for i, count in enumerate(counts):
                        child.counts[i] += count
                    child.sum += series["sum"]
                    child.count += series["count"]
                    incoming = series.get("exemplars")
                    if incoming:
                        if child.exemplars is None:
                            child.exemplars = [None] * len(child.counts)
                        for i, cell in enumerate(incoming):
                            if cell is not None:
                                labels_part, value = cell[0], cell[1]
                                rebuilt = (
                                    tuple(
                                        tuple(pair) for pair in labels_part
                                    ),
                                    value,
                                )
                                if len(cell) > 2:
                                    rebuilt += (cell[2],)
                                child.exemplars[i] = rebuilt

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MetricsRegistry":
        """A fresh registry holding exactly one snapshot's contents."""
        registry = cls()
        registry.merge_snapshot(snap)
        return registry


def save_registry(registry: MetricsRegistry, path: PathLike) -> Path:
    """Write a registry to disk — JSON for ``.json`` paths, Prometheus
    text exposition format for everything else."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        path.write_text(
            json.dumps(registry.snapshot(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    else:
        path.write_text(registry.to_prometheus(), encoding="utf-8")
    return path


def load_registry(path: PathLike, missing_ok: bool = False) -> MetricsRegistry:
    """Load a JSON registry snapshot from disk.

    Only the JSON format round-trips (the Prometheus text format is an
    export, not a store).  With ``missing_ok`` a nonexistent file yields
    an empty registry — the first run of an accumulating CLI flag.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        if missing_ok:
            return MetricsRegistry()
        raise
    try:
        snap = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt metrics file {path}: {exc}") from exc
    return MetricsRegistry.from_snapshot(snap)
