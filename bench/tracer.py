"""Per-layer spans recorded by wrapping halfmed's public functions.

A function is wrapped at every module that holds a reference to it: the
package namespace, the module that defines it, and each module that imported
it.  A call made through ``halfmed.regions.witness_cut`` is therefore a span
of ``depth.witness_cut`` whose call site is ``regions``.  Spans nest through
a stack; a span's self time is its duration minus the durations of the
wrapped spans it directly contains.

Only the traced worker imports this module, so the timing runs never pay for
it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# The layers of halfmed and the public functions whose spans make up each
# layer's self time.  ``experiments`` and ``cli`` call these same functions.
TRACED = {
    "geometry": ("hull_halfspaces", "affine_dimension"),
    "polytope": ("intersect_halfspaces", "barycenter"),
    "depth": (
        "tukey_depth",
        "depth_count",
        "witness_cut",
        "directional_quantile",
        "optimal_direction_cone",
    ),
    "regions": ("median_region", "depth_region", "enumerate_irrotatable"),
    "breakdown": (
        "lower_bound",
        "upper_bound",
        "projected_lambda",
        "build_attack",
        "verify_attack",
    ),
    "distributions": ("sample",),
}

_SITES = ("halfmed",) + tuple(f"halfmed.{m}" for m in TRACED)


def _depth_class(ds) -> str:
    if ds.dim == 2:
        return f"2d_bits{ds.metadata.get('precision_bits')}"
    return f"{ds.dim}d"


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span accounting for the wrapped functions; install with ``with``."""

    def __init__(self, traced: dict[str, tuple[str, ...]] = TRACED) -> None:
        self.traced = traced
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # calls per (call-site module, function name)
        self.edges: Counter = Counter()
        # summed size and result counters per function
        self.counts: Counter = Counter()
        self.depth_ms: dict[str, list[float]] = defaultdict(list)
        self.top_s = 0.0  # time inside outermost spans
        # time inside the outermost span of each layer: its self time plus
        # that of every wrapped call it made into other layers
        self.layer_s: Counter = Counter()
        self._open: Counter = Counter()  # open spans per layer
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod_name, names in self.traced.items():
            mod = importlib.import_module(f"halfmed.{mod_name}")
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{name}")
                else:
                    originals[id(fn)] = (f"{mod_name}.{name}", fn)
        for site_name in _SITES:
            site = importlib.import_module(site_name)
            site_label = site_name.rpartition(".")[2]
            for attr, value in list(vars(site).items()):
                hit = originals.get(id(value))
                if hit is None:
                    continue
                label, fn = hit
                self._saved.append((site, attr, value))
                setattr(site, attr, self._wrap(label, site_label, fn))

    def uninstall(self) -> None:
        while self._saved:
            site, attr, value = self._saved.pop()
            setattr(site, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, label: str, site: str, fn):
        stats = self.stats[label]
        stack = self._stack
        note = _NOTES.get(label)
        layer = label.partition(".")[0]
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            open_spans[layer] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
                open_spans[layer] -= 1
                if not open_spans[layer]:
                    self.layer_s[layer] += dt
                self.edges[site, label] += 1
            if note is not None:
                note(self, args, out, dt)
            return out

        span.__wrapped_label__ = label
        return span

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Forget spans recorded so far (the wrappers stay installed)."""
        self.stats.clear()
        self.edges.clear()
        self.counts.clear()
        self.depth_ms.clear()
        self.layer_s.clear()
        self.top_s = 0.0

    def snapshot(self) -> dict:
        return {
            "stats": {
                k: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for k, s in self.stats.items()
            },
            "edges": [[site, label, n] for (site, label), n in sorted(self.edges.items())],
            "counts": dict(self.counts),
            "depth_p50_ms": {
                k: statistics.median(v) for k, v in sorted(self.depth_ms.items())
            },
            "top_s": self.top_s,
            "layer_s": dict(self.layer_s),
            "missing": self.missing,
        }


def _note_tukey_depth(tr: Tracer, args, out, dt: float) -> None:
    tr.depth_ms[_depth_class(args[1])].append(dt * 1e3)


def _note_intersect(tr: Tracer, args, out, dt: float) -> None:
    tr.counts["polytope.intersect_halfspaces.halfspaces_in"] += len(args[0])
    tr.counts["polytope.intersect_halfspaces.vertices_out"] += len(out.vertices)


def _note_enumerate(tr: Tracer, args, out, dt: float) -> None:
    tr.counts["regions.enumerate_irrotatable.certificates"] += len(out)


def _note_depth_region(tr: Tracer, args, out, dt: float) -> None:
    tr.counts["regions.depth_region.empty"] += int(out.polytope.empty)


_NOTES = {
    "depth.tukey_depth": _note_tukey_depth,
    "polytope.intersect_halfspaces": _note_intersect,
    "regions.enumerate_irrotatable": _note_enumerate,
    "regions.depth_region": _note_depth_region,
}
