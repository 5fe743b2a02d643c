"""Chrome-trace-event / Perfetto JSON export of kernels and spans.

One loadable file (open it at https://ui.perfetto.dev or
``chrome://tracing``) renders both halves of a serving run on a shared
simulated-time axis:

* **kernel tracks** -- every recorded drain's
  :class:`~repro.gpu.stream.ScheduleResult` timeline, one process for the
  GPU with one thread per stream (plus a ``host launch`` thread for the
  kernel-launch intervals of §III-F.1).  Slice names are the kernel
  names; the operation scope tag rides in ``args``.
* **request spans** -- the :class:`~repro.obs.spans.SpanTracer` tree
  (submit/admission/queued/drain/fused/retry), one thread per root span,
  nested by time containment.

Events use the complete-event form (``"ph": "X"``) with microsecond
timestamps; metadata events (``"ph": "M"``) name the processes and
threads.  Every event carries the full required key set
(``ph/ts/dur/pid/tid/name``) and the ``X`` events are emitted in
non-decreasing timestamp order, which the exporter tests pin down.
"""

from __future__ import annotations

import json

#: Process ids of the two track families.
PID_SPANS = 1
PID_DEVICE_BASE = 100

#: Thread id of the GPU's host-side launch track.
TID_LAUNCH = 99

#: Simulated seconds -> trace microseconds.
_US = 1e6


def _meta(pid: int, tid: int, kind: str, name: str) -> dict:
    return {
        "ph": "M", "ts": 0, "dur": 0, "pid": pid, "tid": tid,
        "name": kind, "args": {"name": name},
    }


def _slice(name: str, ts: float, dur: float, pid: int, tid: int,
           args: dict) -> dict:
    return {
        "ph": "X",
        "ts": round(ts * _US, 3),
        "dur": round(max(dur, 0.0) * _US, 3),
        "pid": pid,
        "tid": tid,
        "name": name,
        "args": args,
    }


def chrome_trace_events(*, timelines=(), spans=()) -> list[dict]:
    """Build the flat event list (metadata first, slices by timestamp).

    ``timelines`` is an iterable of drain records, each exposing
    ``offset`` (simulated start time of the drain), ``schedule`` (a
    :class:`~repro.gpu.stream.ScheduleResult`), ``scopes`` (leaf scope
    per trace-event index) and ``label``; ``spans`` is an iterable of
    :class:`~repro.obs.spans.Span` (unfinished spans are skipped).
    """
    slices: list[dict] = []
    streams: set[int] = set()
    launches = False

    for record in timelines:
        offset = float(record.offset)
        scopes = record.scopes
        label = record.label
        for slot in record.schedule.timeline:
            scope = (
                scopes[slot.index]
                if 0 <= slot.index < len(scopes) else ""
            )
            args = {"scope": scope, "drain": label, "index": slot.index}
            streams.add(slot.stream)
            slices.append(_slice(
                slot.name, offset + slot.start, slot.end - slot.start,
                PID_DEVICE_BASE, slot.stream, args,
            ))
            if slot.launch_end > slot.launch_start:
                launches = True
                slices.append(_slice(
                    f"launch {slot.name}",
                    offset + slot.launch_start,
                    slot.launch_end - slot.launch_start,
                    PID_DEVICE_BASE, TID_LAUNCH, args,
                ))

    # Serve spans: one thread per root tree, nesting by containment.
    root_tid: dict[int, int] = {}
    span_list = [span for span in spans if span.finished]
    by_id = {span.span_id: span for span in span_list}
    for span in span_list:
        top = span
        while top.parent_id is not None and top.parent_id in by_id:
            top = by_id[top.parent_id]
        tid = root_tid.setdefault(top.span_id, len(root_tid))
        args = {str(k): v for k, v in span.attributes.items()}
        slices.append(_slice(span.name, span.start, span.duration,
                             PID_SPANS, tid, args))

    metadata: list[dict] = []
    if root_tid:
        metadata.append(_meta(PID_SPANS, 0, "process_name", "serve spans"))
        for root_id, tid in sorted(root_tid.items(), key=lambda kv: kv[1]):
            metadata.append(_meta(
                PID_SPANS, tid, "thread_name",
                f"{by_id[root_id].name} #{root_id}",
            ))
    if streams:
        metadata.append(_meta(PID_DEVICE_BASE, 0, "process_name",
                              "GPU device 0"))
        for stream in sorted(streams):
            metadata.append(_meta(PID_DEVICE_BASE, stream, "thread_name",
                                  f"stream {stream}"))
        if launches:
            metadata.append(_meta(PID_DEVICE_BASE, TID_LAUNCH, "thread_name",
                                  "host launch"))

    slices.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], -e["dur"]))
    return metadata + slices


def chrome_trace_document(*, timelines=(), spans=()) -> dict:
    """The full Chrome-trace JSON document."""
    return {
        "traceEvents": chrome_trace_events(timelines=timelines, spans=spans),
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs.perfetto",
            "time_unit": "simulated microseconds",
        },
    }


def export_chrome_trace(path=None, *, timelines=(), spans=()) -> dict:
    """Build the document and (when ``path`` is given) write it to disk."""
    document = chrome_trace_document(timelines=timelines, spans=spans)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return document


__all__ = [
    "chrome_trace_document",
    "chrome_trace_events",
    "export_chrome_trace",
]
