"""The load generator: one thread, completion callbacks, no per-request threads.

Requests go out from the calling thread only.  Completions arrive as
future callbacks on the client's own threads, which just stamp the time and
hand the record back through a queue; the generator thread decides what to
send next.  So however many requests are outstanding, the generator adds
one thread and the connections of the client stack it drives.

* **Closed loop** (:func:`closed_loop`): ``callers`` callers, each sending
  its next request as soon as its previous reply is in.  A request's
  latency runs from its actual send; the generator's lag is the time from a
  caller becoming ready to its send.
* **Open loop** (:func:`open_loop`): requests sent at fixed offsets whatever
  the replies do.  A request's latency runs from its *scheduled* send, so a
  stall also charges the requests it delays; the lag is how late each send
  went out.

Both cycle through the workload's request pool and stop sending when the
window closes, then wait for every outstanding reply.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass

#: Longest the generator waits for outstanding replies after the window.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Record:
    """One request as the generator saw it (perf_counter seconds)."""

    rid: int
    entry: object
    #: When the request was due: its scheduled time (open loop) or the
    #: moment its caller became ready (closed loop).
    due: float
    sent: float = 0.0
    done: float | None = None
    response: object = None
    error: BaseException | None = None
    #: Set by the checks when the answer is wrong.
    wrong: str | None = None

    @property
    def ok(self) -> bool:
        return self.done is not None and self.error is None and self.wrong is None


class Generator:
    """Sends pool requests through ``submit`` and collects the records."""

    def __init__(self, submit, pool, tracer=None):
        self.submit = submit
        self.pool = pool
        self.tracer = tracer
        self.records: list[Record] = []
        self.outstanding = 0
        self.outstanding_max = 0
        self._next = 0
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    def send(self, due: float, entry=None) -> Record:
        if entry is None:
            entry = self.pool[self._next % len(self.pool)]
            self._next += 1
        record = Record(rid=len(self.records), entry=entry, due=due)
        self.records.append(record)
        if self.tracer is not None:
            self.tracer.set_rid(record.rid)
        self.outstanding += 1
        self.outstanding_max = max(self.outstanding_max, self.outstanding)
        record.sent = time.perf_counter()
        try:
            future = self.submit(entry.request)
        except Exception as exc:  # noqa: BLE001 - a failed send is a failed request
            record.error = exc
            record.done = time.perf_counter()
            self._done.put(record)
            return record
        future.add_done_callback(lambda f, r=record: self._complete(r, f))
        return record

    def _complete(self, record: Record, future) -> None:
        record.done = time.perf_counter()
        try:
            record.response = future.result()
        except BaseException as exc:  # noqa: BLE001 - recorded as a failure
            record.error = exc
        self._done.put(record)

    def wait_one(self, deadline: float) -> Record | None:
        """The next completed record, or None once ``deadline`` passes."""
        try:
            record = self._done.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            return None
        self.outstanding -= 1
        return record

    def drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.outstanding and self.wait_one(deadline) is not None:
            pass
        for record in self.records:
            if record.done is None:
                record.error = TimeoutError("no reply before the drain timeout")


def closed_loop(gen: Generator, callers: int, seconds: float) -> tuple[float, float]:
    """Run ``callers`` closed-loop callers for ``seconds``; returns the window."""
    start = time.perf_counter()
    end = start + seconds
    for _ in range(callers):
        gen.send(due=start)
    while gen.outstanding:
        record = gen.wait_one(start + seconds + DRAIN_TIMEOUT_S)
        if record is None:
            break
        if record.done < end:
            gen.send(due=record.done)
    gen.drain()
    return start, end


def open_loop(gen: Generator, offsets, seconds: float) -> tuple[float, float]:
    """Send one request at each offset into the window; returns the window."""
    start = time.perf_counter()
    for offset in offsets:
        due = start + float(offset)
        # Collect completions while waiting: the queue wait is the sleep.
        while time.perf_counter() < due:
            gen.wait_one(due)
        gen.send(due=due)
    gen.drain()
    return start, start + seconds
