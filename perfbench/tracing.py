"""In-memory spans around the package's layer boundaries.

The package has no tracing of its own, so the traced run wraps, at run
time, the names through which one module calls the next (for example
``exp_btt.btt_times_btt``).  Each wrapper records a span (layer, name, start,
end, parent, counts) while a call is traced.  A wrap point that the package
no longer has is listed in ``absent`` and skipped.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    call: str
    layer: str
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every wrapped name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.call = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.call, layer, name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, call: str):
        """One span around a whole traced call; yields its index."""
        self.call = call
        idx = self._open("call", call)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, layer: str, count=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.  ``count(args,
        kwargs, result)`` returns a dict of counts added to the span."""
        original = getattr(module, attr, None)
        if original is None:
            name = f"{module.__name__}.{attr}"
            if name not in self.absent:
                self.absent.append(name)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(layer, attr)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.spans[idx].counts.update(count(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def layer_totals(self, call: str) -> dict[str, float]:
        """Per-layer self time, inclusive time per wrapped name, and summed
        counts for one traced call, keyed ``layer.self_s``,
        ``layer.name.incl_s`` and ``layer.count``."""
        child_time = collections.defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out = collections.defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span.call != call:
                continue
            dur = span.end - span.start
            out[f"{span.layer}.self_s"] += dur - child_time[idx]
            out[f"{span.layer}.{span.name}.incl_s"] += dur
            for key, value in span.counts.items():
                out[f"{span.layer}.{key}"] += value
        return dict(out)

    def dump(self) -> list[dict]:
        return [{"call": s.call, "layer": s.layer, "name": s.name,
                 "start": s.start, "end": s.end, "parent": s.parent,
                 "counts": s.counts} for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported package."""
    from btt_expm import (block_linalg, cli, error_analysis, exp_btt,
                          exp_circulant, io, model_gen, structured_mul)

    for name in ("exp_btt_eps", "exp_btt_eps_averaged", "exp_btt_taylor",
                 "select_epsilon", "select_embedding_K"):
        tracer.wrap(exp_btt, name, "exp_btt")
    tracer.wrap(exp_btt, "exp_btt_embedding", "exp_btt",
                lambda a, k, r: {"K": r.method_used.K})
    tracer.wrap(exp_btt, "repeated_squaring", "exp_btt",
                lambda a, k, r: {"squarings": a[1] if len(a) > 1 else k["p"]})
    tracer.wrap(exp_btt, "exp_circulant", "exp_circulant")
    tracer.wrap(exp_btt, "exp_eps_circulant", "exp_circulant")
    tracer.wrap(exp_btt, "btt_times_btt", "structured_mul",
                lambda a, k, r: {"products": 1})
    tracer.wrap(exp_circulant, "_expm_stack", "dense_expm",
                lambda a, k, r: {"blocks": a[0].shape[0]})

    def points(a, k, r):
        n, m, _ = a[0].shape
        return {"calls": 1, "points": n * m * m}

    for module in (exp_circulant, structured_mul):
        tracer.wrap(module, "_transform_stack", "fft_transforms", points)
        tracer.wrap(module, "get_plan", "fft_transforms")

    for name in ("phi_bound", "chi_bound", "eps_roundoff_bound",
                 "circulant_roundoff_bound", "eps_approx_bound",
                 "embedding_bound_fK", "embedding_size_g"):
        tracer.wrap(error_analysis, name, "error_analysis")

    tracer.wrap(io, "parse_block_vector", "io")
    tracer.wrap(io, "format_block_vector", "io")
    tracer.wrap(cli, "format_block_vector", "io")
    for module in (block_linalg, model_gen, cli):
        tracer.wrap(module, "validate_subgenerator", "block_linalg")
    tracer.wrap(model_gen, "random_subgenerator", "model_gen")
    tracer.wrap(cli, "main", "cli")
