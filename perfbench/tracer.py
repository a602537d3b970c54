"""Span recorder that wraps a program's functions from the outside.

A :class:`Probe` names one function (a class attribute or a module-level
function) and the span group its calls are charged to.  While a
:class:`Tracer` is installed, every call of a probed function records a
span: its name, start, end, parent span and, where the arguments expose
them, the client and query it serves.  Generator functions (simulation
processes that are ``yield from``-ed) record one span per resumption.

Spans stay in memory as packed columns and are written to a binary file
when the run ends.  Per span name the tracer also keeps call counts,
inclusive seconds, self seconds — a span's duration minus the time its
child spans cover — and how many spans nest inside, so the per-layer
split needs no second pass over the file.

A span's own bookkeeping is partly outside its ``[start, end]`` window
and so lands in its parent's self time.  :func:`calibrate` measures that
cost on a probed no-op; :class:`SpanCost` holds it, so the per-layer
split can charge the instrumentation to a row of its own.

:meth:`Tracer.uninstall` restores every patched attribute to the exact
object it replaced; an untraced run in the same process is untouched.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
import typing as t
from array import array
from pathlib import Path

#: Returns ``(client_id, query_id)`` for a call's positional arguments;
#: ``None`` in either slot means "inherit from the parent span".
KeyFn = t.Callable[[tuple], "tuple[int | None, int | None]"]
#: Called after a probed call returns: ``(tracer, args, result)``.
ReturnHook = t.Callable[["Tracer", tuple, t.Any], None]

#: Packed span columns, in file order, with their ``array`` type codes.
COLUMNS = (
    ("name", "H"),
    ("span_id", "i"),
    ("parent_id", "i"),
    ("client", "i"),
    ("query", "i"),
    ("start", "d"),
    ("end", "d"),
)


@dataclasses.dataclass(frozen=True)
class SpanCost:
    """Seconds of tracer bookkeeping per span, as seen by each window.

    ``inner`` lies inside a span's own window (a probed no-op's whole
    self time); ``outer`` lies in its parent's window, outside its own;
    ``outer_step`` is ``outer`` under a kernel-step parent, which also
    looks up the running process bucket.
    """

    inner: float = 0.0
    outer: float = 0.0
    outer_step: float = 0.0


@dataclasses.dataclass(frozen=True)
class Probe:
    """One function to wrap: ``owner.attr``, charged to ``group``.

    ``owner`` is a class (the attribute must be defined on that class
    itself) or a module (the function is replaced wherever a loaded
    ``repro`` module holds it, so ``from x import f`` callers see the
    wrapper too).
    """

    owner: t.Any
    attr: str
    group: str
    key: "KeyFn | None" = None
    on_return: "ReturnHook | None" = None
    #: Marks the kernel step: direct children of these spans are
    #: charged to the process bucket that was running when they closed.
    step: bool = False

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__qualname__", None) or getattr(
            self.owner, "__name__", "?"
        )
        return f"{self.group}:{owner}.{self.attr}"


class Tracer:
    """Records spans for every call of the installed probes."""

    def __init__(
        self,
        spans_path: "Path | None" = None,
        bucket_of: "t.Callable[[t.Any], str] | None" = None,
    ) -> None:
        self.spans_path = spans_path
        #: Maps the kernel environment to the process bucket running now.
        self.bucket_of = bucket_of
        self.names: list[str] = []
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_seconds: list[float] = []
        #: Direct child spans and all nested spans, per span name.
        self.child_calls: list[int] = []
        self.nested: list[int] = []
        #: Bookkeeping cost per span; zero until :func:`calibrate` sets it.
        self.span_cost = SpanCost()
        #: Free-form counters filled by ``on_return`` hooks.
        self.counters: dict[str, float] = {}
        #: Seconds of direct children of step spans, per process bucket.
        self.bucket_child_seconds: dict[str, float] = {}
        self.bucket_child_calls: dict[str, int] = {}
        self.spans_written = 0
        self._columns = {name: array(code) for name, code in COLUMNS}
        self._stack: list[list[t.Any]] = []
        self._next_id = 0
        self._step_names: set[int] = set()
        self._env: t.Any = None
        self._patches: list[tuple[t.Any, str, t.Any]] = []

    # ------------------------------------------------------------------
    def add(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.inclusive.append(0.0)
        self.self_seconds.append(0.0)
        self.child_calls.append(0)
        self.nested.append(0)
        return len(self.names) - 1

    def _open(self, name_id: int, key: "KeyFn | None", args: tuple) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        client = query = None
        if key is not None:
            client, query = key(args)
        if parent is not None:
            if client is None:
                client = parent[4]
            if query is None:
                query = parent[5]
        if name_id in self._step_names:
            self._env = args[0]
        span_id = self._next_id
        self._next_id += 1
        frame = [
            name_id,
            0.0,  # start
            0.0,  # seconds covered by child spans
            span_id,
            -1 if client is None else client,
            -1 if query is None else query,
            -1 if parent is None else parent[3],
            parent,
            0,  # spans nested inside
        ]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        (name_id, start, child, span_id, client, query, parent_id, parent,
         nested) = frame
        duration = end - start
        self.calls[name_id] += 1
        self.inclusive[name_id] += duration
        self.self_seconds[name_id] += duration - child
        self.nested[name_id] += nested
        if parent is not None:
            parent[2] += duration
            parent[8] += 1 + nested
            self.child_calls[parent[0]] += 1
            if parent[0] in self._step_names and self.bucket_of is not None:
                bucket = self.bucket_of(self._env)
                self.bucket_child_seconds[bucket] = (
                    self.bucket_child_seconds.get(bucket, 0.0) + duration
                )
                self.bucket_child_calls[bucket] = (
                    self.bucket_child_calls.get(bucket, 0) + 1
                )
        columns = self._columns
        columns["name"].append(name_id)
        columns["span_id"].append(span_id)
        columns["parent_id"].append(parent_id)
        columns["client"].append(client)
        columns["query"].append(query)
        columns["start"].append(start)
        columns["end"].append(end)

    # ------------------------------------------------------------------
    def _wrap(self, fn: t.Callable, probe: Probe) -> t.Callable:
        name_id = self._name_id(probe.name)
        if probe.step:
            self._step_names.add(name_id)
        key, on_return = probe.key, probe.on_return
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args: t.Any, **kwargs: t.Any) -> t.Any:
                generator = fn(*args, **kwargs)
                value: t.Any = None
                error: "BaseException | None" = None
                while True:
                    frame = open_(name_id, key, args)
                    try:
                        if error is None:
                            item = generator.send(value)
                        else:
                            item = generator.throw(error)
                    except StopIteration as stop:
                        close(frame)
                        return stop.value
                    except BaseException:
                        close(frame)
                        raise
                    close(frame)
                    try:
                        value, error = (yield item), None
                    except GeneratorExit:
                        generator.close()
                        raise
                    except BaseException as thrown:
                        value, error = None, thrown

            return traced_generator

        @functools.wraps(fn)
        def traced(*args: t.Any, **kwargs: t.Any) -> t.Any:
            frame = open_(name_id, key, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self, probes: t.Iterable[Probe]) -> "Tracer":
        """Wrap every probe's function; undone by :meth:`uninstall`."""
        for probe in probes:
            owner, attr = probe.owner, probe.attr
            if inspect.ismodule(owner):
                original = getattr(owner, attr)
                wrapper = self._wrap(original, probe)
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if not (name == "repro" or name.startswith("repro.")):
                        continue
                    if module.__dict__.get(attr) is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
                continue
            raw = owner.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                replacement: t.Any = type(raw)(self._wrap(raw.__func__, probe))
            else:
                replacement = self._wrap(raw, probe)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        return self

    def uninstall(self) -> None:
        """Put back every original, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
        self.close()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write the recorded spans, then the span-name index beside them."""
        columns = self._columns
        count = len(columns["name"])
        if self.spans_path is None or not count:
            return
        self.spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.spans_path, "wb") as handle:
            for name, __ in COLUMNS:
                columns[name].tofile(handle)
        self.spans_written = count
        index = {
            "columns": [list(column) for column in COLUMNS],
            "names": self.names,
            "spans": count,
        }
        self.spans_path.with_suffix(".json").write_text(
            json.dumps(index, indent=1) + "\n"
        )


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Load a spans file written by :meth:`Tracer.close`."""
    index = json.loads(path.with_suffix(".json").read_text())
    columns = {name: array(code) for name, code in index["columns"]}
    with open(path, "rb") as handle:
        for column in columns.values():
            column.fromfile(handle, index["spans"])
    return index["names"], columns


class _Calibration:
    """A probed no-op and the loops that call it, for :func:`calibrate`."""

    client_id = 0
    #: Read by a step-marked parent's ``bucket_of`` (no process runs).
    active_process = None

    def leaf(self) -> None:
        return None

    def loop(self, count: int) -> None:
        leaf = self.leaf
        for __ in range(count):
            leaf()

    #: The same loop, probed as a kernel step.
    step = loop


def _calibration_key(args: tuple) -> tuple[int | None, int | None]:
    return args[0].client_id, None


def calibrate(
    bucket_of: "t.Callable[[t.Any], str] | None" = None,
    calls: int = 20_000,
    rounds: int = 7,
) -> SpanCost:
    """Measure the tracer's bookkeeping per span on a probed no-op.

    Each round times ``calls`` no-op calls in a loop untraced, then the
    same loop under a plain and a step-marked probed parent with the
    no-op probed (keyed like the cache probes).  A figure is the lowest
    over the rounds, so a scheduling hiccup does not inflate it.
    """
    owner = _Calibration()
    clock = time.perf_counter
    inner, outer, outer_step = [], [], []
    for __ in range(rounds):
        began = clock()
        owner.loop(calls)
        untraced = (clock() - began) / calls
        tracer = Tracer(bucket_of=bucket_of)
        tracer.install(
            [
                Probe(_Calibration, "loop", "calibration.loop"),
                Probe(_Calibration, "step", "calibration.step", step=True),
                Probe(
                    _Calibration, "leaf", "calibration.leaf", _calibration_key
                ),
            ]
        )
        try:
            owner.loop(calls)
            owner.step(calls)
        finally:
            tracer.uninstall()
        loop_id, step_id, leaf_id = range(3)
        inner.append(tracer.self_seconds[leaf_id] / tracer.calls[leaf_id])
        outer.append(tracer.self_seconds[loop_id] / calls - untraced)
        outer_step.append(tracer.self_seconds[step_id] / calls - untraced)
    return SpanCost(
        inner=min(inner),
        outer=max(0.0, min(outer)),
        outer_step=max(0.0, min(outer_step)),
    )
