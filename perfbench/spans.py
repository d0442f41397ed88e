"""In-memory spans around the benchmark's own calls into each layer.

A span records its name, layer, start, end, parent span and request id.
Spans stay in memory and are written out once, at the end of a run.
Times and parent links live in flat arrays, so recording a span
allocates no object the garbage collector has to track.  A layer's
self time is its spans' durations minus the parts their child spans
cover; :func:`layer_table` prints them as a tree with each layer's
share of the total.
"""

from __future__ import annotations

import json
import time
from array import array


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class Recorder:
    """Collects spans; a disabled recorder hands out a shared no-op span.

    ``span()`` returns the recorder itself as the context manager: spans
    nest, so the innermost open span is always the one that ends next.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.names: list[str] = []
        self.layers: list[str] = []
        self.rids: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []

    def span(self, name: str, layer: str, rid=None):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.rids[parent]
        self._stack.append(self.add(name, layer, 0.0, 0.0, rid, parent))
        return self

    def __enter__(self):
        self.starts[self._stack[-1]] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    def add(self, name: str, layer: str, start: float, end: float, rid=None,
            parent: int = -1) -> int:
        """Record a span whose times are known (e.g. measured in a child)."""
        self.names.append(name)
        self.layers.append(layer)
        self.rids.append(rid)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        out: dict[str, float] = {}
        for layer, seconds in zip(self.layers, own):
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def layer_sum(self, layer: str, name: str | None = None) -> tuple[float, int]:
        """Total duration and count of spans in ``layer`` (named ``name``)."""
        total, count = 0.0, 0
        for i, span_layer in enumerate(self.layers):
            if span_layer == layer and (name is None or self.names[i] == name):
                total += self.ends[i] - self.starts[i]
                count += 1
        return total, count

    def total(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self)):
                parent = self.parents[i]
                fh.write(json.dumps({
                    "id": i, "name": self.names[i], "layer": self.layers[i],
                    "request": self.rids[i], "start_s": self.starts[i],
                    "end_s": self.ends[i], "parent": parent if parent >= 0 else None,
                }) + "\n")


def layer_table(rec: Recorder, title: str = "Total") -> str:
    """``Total <ms>`` then one ``├─ layer <ms> (<share>)`` row per layer."""
    total = rec.total()
    selfs = sorted(rec.self_times().items(), key=lambda kv: -kv[1])
    lines = [f"{title:<32s} {total * 1e3:10.2f} ms"]
    for i, (layer, seconds) in enumerate(selfs):
        branch = "└─" if i == len(selfs) - 1 else "├─"
        share = seconds / total if total > 0 else 0.0
        lines.append(
            f"  {branch} {layer:<28s} {seconds * 1e3:10.2f} ms ({share * 100:5.1f}%)"
        )
    return "\n".join(lines)
