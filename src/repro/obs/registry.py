"""Labeled metric instruments and the registry that exposes them.

A deliberately small, dependency-free take on the Prometheus client data
model: :class:`Counter` (monotonic), :class:`Gauge` (point-in-time, with
pull-style callback series) and :class:`Histogram` (bucketed samples),
all supporting label sets, owned by one :class:`MetricsRegistry`.

Two readouts, both deterministic:

* :meth:`MetricsRegistry.snapshot` -- a plain nested dict, instruments
  sorted by name and series sorted by label set, so two identical seeded
  runs produce byte-identical JSON;
* :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` lines, ``name{k="v"} v``
  samples, histograms expanded to ``_bucket{le=...}`` / ``_sum`` /
  ``_count``).

The instruments are the store: a source that counts events
(:class:`~repro.serve.metrics.ServeMetrics`) is constructed on a registry
and writes its series with :meth:`Counter.inc` / :meth:`Histogram.observe`
when the event happens, so there is no second copy to restate.  What a
registry *pulls* is live state that is not a count of events -- current
:class:`~repro.serve.bucketing.BucketQueue` depths, memory-pool
accounting, a :class:`~repro.serve.faults.FaultInjector`'s append-only
log: function-backed gauges (:meth:`Gauge.set_function`) and collectors
(:meth:`MetricsRegistry.register_collector`) are evaluated immediately
before either readout and rebuild their series from that state.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-ish magnitudes, Prometheus style).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for byte-valued histograms (powers of four).
BYTES_BUCKETS = tuple(float(4 ** k) for k in range(5, 18))


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    """Canonical (sorted, stringified) form of one label set."""
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _finite(sample: float) -> float:
    """``sample`` as a float; NaN or an infinity would corrupt its series."""
    sample = float(sample)
    if not math.isfinite(sample):
        raise ValueError(f"metric samples must be finite, got {sample}")
    return sample


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


class _Instrument:
    """Shared name/help/series plumbing of the three instrument kinds."""

    kind = ""

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._series: dict[tuple[tuple[str, str], ...], float] = {}

    def clear(self) -> None:
        """Drop every series (collectors rebuilding from scratch)."""
        self._series.clear()

    def series(self) -> list[tuple[tuple[tuple[str, str], ...], float]]:
        """All (label key, value) pairs, deterministically sorted."""
        return sorted(self._series.items())

    def value(self, **labels) -> float:
        """Current value of one series (0.0 if never touched)."""
        return self._series.get(_label_key(labels), 0.0)


class Counter(_Instrument):
    """A monotonically increasing count (requests served, faults fired)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (finite and non-negative) to one series."""
        amount = _finite(amount)
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A point-in-time value (queue depth, bytes in use, availability)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._functions: dict[tuple[tuple[str, str], ...], Callable[[], float]] = {}

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + float(amount)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Pull-style series: ``fn()`` is evaluated at every readout."""
        self._functions[_label_key(labels)] = fn

    def collect(self) -> None:
        """Fold function-backed series into the stored values."""
        for key, fn in self._functions.items():
            self._series[key] = float(fn())

    def value(self, **labels) -> float:
        key = _label_key(labels)
        fn = self._functions.get(key)
        if fn is not None:
            return float(fn())
        return self._series.get(key, 0.0)


class _HistogramSeries:
    """Bucket counts plus sum/count of one labeled histogram series."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, bucket_count: int) -> None:
        self.counts = [0] * bucket_count
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Bucketed samples (latencies, fused batch sizes, drain peak bytes)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] | None = None) -> None:
        super().__init__(name, help)
        bounds = sorted(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.buckets = tuple(bounds)
        self._series: dict[tuple[tuple[str, str], ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        value = _finite(value)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series.counts[i] += 1
                break
        series.sum += value
        series.count += 1

    def value(self, **labels):  # pragma: no cover - guard only
        raise TypeError("histograms have no scalar value; use snapshot()")


class MetricsRegistry:
    """Owns a set of named instruments and renders them deterministically.

    Instruments are get-or-create: asking twice for the same name returns
    the same object (so collectors are idempotent); asking for the same
    name with a different kind raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- instrument factories ------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] | None = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # -- collectors ----------------------------------------------------------

    def register_collector(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` before every readout (pull-style live state)."""
        self._collectors.append(fn)

    def collect(self) -> None:
        """Run all collectors and refresh function-backed gauges."""
        for fn in self._collectors:
            fn()
        for instrument in self._instruments.values():
            if isinstance(instrument, Gauge):
                instrument.collect()

    # -- readouts ------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """One series' current value, collectors included (0.0 if absent)."""
        self.collect()
        instrument = self._instruments.get(name)
        if instrument is None:
            return 0.0
        return instrument.value(**labels)

    def snapshot(self) -> dict:
        """Deterministic nested-dict readout of every instrument."""
        self.collect()
        out: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            entry: dict = {"type": instrument.kind, "help": instrument.help}
            if isinstance(instrument, Histogram):
                entry["series"] = [
                    {
                        "labels": dict(key),
                        "count": series.count,
                        "sum": series.sum,
                        "buckets": [
                            [_format_value(bound), count]
                            for bound, count in zip(
                                instrument.buckets, series.counts
                            )
                        ],
                    }
                    for key, series in sorted(instrument._series.items())
                ]
            else:
                entry["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in instrument.series()
                ]
            out[name] = entry
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (one big string)."""
        self.collect()
        lines: list[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for key, series in sorted(instrument._series.items()):
                    cumulative = 0
                    for bound, count in zip(instrument.buckets, series.counts):
                        cumulative += count
                        bucket_key = key + (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_key)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_format_value(series.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {series.count}"
                    )
            else:
                for key, value in instrument.series():
                    lines.append(
                        f"{name}{_render_labels(key)} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"


__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
