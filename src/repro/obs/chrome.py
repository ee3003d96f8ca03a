"""Chrome trace-event / Perfetto JSON exporter.

Converts a :class:`repro.obs.tracer.Tracer` capture into the JSON
object form of the Chrome trace-event format, which loads directly in
``ui.perfetto.dev`` (or ``chrome://tracing``):

* every distinct *process* name among the tracer's tracks becomes a
  ``pid`` (host, each replica machine, the DES kernel), announced with
  a ``process_name`` metadata event;
* every *thread* within a process becomes a ``tid`` with a
  ``thread_name`` metadata event (per-cluster tracks, per-replica
  tracks, per-query tracks);
* spans export as complete ``"X"`` events, instants as ``"i"``, and
  counter samples as ``"C"`` — timestamps are simulated microseconds,
  which is exactly the unit the format expects, so the Perfetto
  timeline reads in machine time.

Events are emitted sorted by timestamp (FIFO tie-break on capture
order), so per-track ``ts`` sequences are monotone — the property the
CI trace smoke validates (:mod:`repro.obs.validate`).
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

#: Body sort key: stable on ``ts``, so ties keep spans, then instants,
#: then counters, each in capture order.
_BY_TS = itemgetter("ts")


#: The argument name of a single-series counter sample.
_VALUE = ("value",)


def _shared_args(shared: Dict[tuple, Dict[str, Any]], names: tuple,
                 values: tuple) -> Dict[str, Any]:
    """The ``args`` dict for ``names`` and ``values``, shared with every
    earlier event of equal arguments.

    Argument sets repeat: in a perfbench ``serve-observed`` pass 94%
    of the 41,606 events with arguments reuse an earlier event's dict,
    and each dict not built is one collector-counted allocation fewer.
    The key holds the value types, since ``1``, ``1.0`` and ``True``
    are equal but serialize differently.  Equal floats serialize alike
    except ``0.0`` and ``-0.0``, so arguments holding a zero float are
    never shared.
    """
    types = tuple(map(type, values))
    if float in types and 0.0 in values:
        return dict(zip(names, values))
    # Names and values pair up, so the flat key is unambiguous.
    key = names + values + types
    args = shared.get(key)
    if args is None:
        args = shared[key] = dict(zip(names, values))
    return args


def export_chrome_json(tracer, metrics=None) -> Dict[str, Any]:
    """Build the Chrome trace-event document for a tracer capture.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` plus a
    ``"metrics"`` key when a registry is given (extra top-level keys
    are legal in the object form of the format).  One walk over the
    records builds every event and finds the latest timestamp; spans
    still open are then closed at it (see
    :meth:`~repro.obs.tracer.Tracer.close_open_spans`).

    Events with equal arguments share one ``args`` dict (see
    :func:`_shared_args`); the document is for serializing and
    reading, so copy an event before editing it.
    """
    # Stable pid/tid assignment in track-registration order.
    pids: Dict[str, int] = {}
    threads_in: Dict[int, int] = {}  # pid -> tracks numbered so far
    pid_of: List[int] = []
    tid_of: List[int] = []
    meta: List[Dict[str, Any]] = []
    for process, thread in tracer.tracks:
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids) + 1
            meta.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": process},
            })
        tid = threads_in[pid] = threads_in.get(pid, 0) + 1
        pid_of.append(pid)
        tid_of.append(tid)
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": thread},
        })

    shared: Dict[tuple, Dict[str, Any]] = {}
    body: List[Dict[str, Any]] = []
    append = body.append
    last = 0.0
    #: (body position, span index) of spans still open.
    still_open: List[Tuple[int, int]] = []
    for index, rec in enumerate(tracer.spans):
        track = rec[0]
        begin = rec[2]
        end = rec[3]
        if end is not None and end > last:
            last = end
        elif begin > last:
            last = begin
        if end is None:
            still_open.append((len(body), index))
            end = begin
        event: Dict[str, Any] = {
            "name": rec[1], "cat": "span", "ph": "X",
            "ts": begin, "dur": end - begin,
            "pid": pid_of[track], "tid": tid_of[track],
        }
        if rec[4] or rec[5]:
            event["args"] = _shared_args(shared, rec[4] + rec[5], rec[6:])
        append(event)
    for rec in tracer.instants:
        track = rec[0]
        ts = rec[2]
        if ts > last:
            last = ts
        event = {
            "name": rec[1], "cat": "instant", "ph": "i", "s": "t",
            "ts": ts, "pid": pid_of[track], "tid": tid_of[track],
        }
        if rec[3]:
            event["args"] = _shared_args(shared, rec[3], rec[4:])
        append(event)
    for track, name, ts, value in tracer.counters:
        if ts > last:
            last = ts
        append({
            "name": name, "cat": "counter", "ph": "C",
            "ts": ts, "pid": pid_of[track], "tid": tid_of[track],
            "args": (_shared_args(shared, value[0], value[1:])
                     if value.__class__ is tuple
                     else _shared_args(shared, _VALUE, (value,))),
        })
    for position, index in still_open:
        rec = tracer.close_at_eof(index, last)
        event = body[position]
        event["dur"] = rec[3] - rec[2]
        event["args"] = dict(zip(rec[4] + rec[5], rec[6:]))

    body.sort(key=_BY_TS)
    document: Dict[str, Any] = {
        "traceEvents": meta + body,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        document["metrics"] = metrics.as_dict()
    return document


def write_chrome_json(
    path: str, tracer, metrics=None, indent: Optional[int] = None
) -> Dict[str, Any]:
    """Export and write the document to ``path``; returns it."""
    document = export_chrome_json(tracer, metrics=metrics)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=indent)
        handle.write("\n")
    return document
