"""In-memory span tracing around the public functions of qkdpost.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent) and the operation it belongs to.
Wrappers are installed at every name a qkdpost module binds to the wrapped
function, so a call through ``qkdpost.protocol.bp_decode`` and one through
``qkdpost.codes.bp_decode`` are both seen. Nothing under ``src/`` changes;
``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable


def patch(owner: object, attr: str, make_wrapper: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace owner.attr by make_wrapper(owner.attr); return the undo.

    For a class the attribute is replaced on the class. For a module it is
    replaced in every loaded qkdpost module that binds the same object, so
    callers that imported the name directly see the wrapper too.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        targets = [owner]
    else:
        targets = [
            mod
            for key, mod in sorted(sys.modules.items())
            if (key == "qkdpost" or key.startswith("qkdpost.")) and getattr(mod, attr, None) is original
        ]
    for target in targets:
        setattr(target, attr, wrapper)

    def restore() -> None:
        for target in targets:
            setattr(target, attr, original)

    return restore


class Tracer:
    """Records spans in memory; ``write`` dumps them when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.inner_calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._op_id = -1
        self._restores: list[Callable[[], None]] = []

    # --- recording ---

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(name.split(".", 1)[0])
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    def run_op(self, op_id: int, fn: Callable, *args):
        """Call fn(*args) as operation op_id under a root span named "op"."""
        self._op_id = op_id
        idx = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None, inner: bool = False) -> Callable:
        """fn with a span around each call.

        With inner=True a call made from inside the same layer (the open
        span's name has the same "layer." prefix) gets no span and is only
        counted in inner_calls, which keeps helpers called thousands of
        times per operation from dominating the trace and its cost.
        """
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inner and self._layers and self._layers[-1] == layer:
                if self.names[self._stack[0]] == "op":
                    self.inner_calls[name] += 1
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.attrs[idx] = observe(args, result)
            return result

        return traced

    # --- installation ---

    def install(self, owner: object, attr: str, name: str, observe: Callable | None = None, inner: bool = False) -> None:
        """Trace owner.attr wherever qkdpost binds it; observe(args, result)
        returns attributes kept with the span."""
        self._restores.append(patch(owner, attr, lambda fn: self.wrap(name, fn, observe, inner)))

    def uninstall(self) -> None:
        while self._restores:
            self._restores.pop()()

    # --- analysis ---

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Span duration minus the part its children cover.

        Calls nest and run on one thread, so children of a span never
        overlap and the covered part is the sum of their durations.
        """
        dur = self.durations()
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def write(self, path) -> None:
        """Columnar JSON dump of every span, written once at the end."""
        payload = {
            "name": self.names,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "inner_calls": dict(self.inner_calls),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
