"""Spans around eigenband's public functions, recorded from outside the program.

install() replaces each traced function, in every eigenband module that binds
it, with a wrapper that records one span: name, phase, parent span, start,
end and a work count. Spans stay in memory; per_layer() reduces them to the
per-layer metrics and dump() writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# mode_matrix calls on fewer rows than this are refinement stencils
STENCIL_ROWS = 64


def _shape(args, kwargs, out):
    return out.shape


def _points(args, kwargs, out):
    return getattr(out, "size", 1)


def _insertions(args, kwargs, out):
    return max(n for _, n in out.entries)


def _grid_points(args, kwargs, out):
    return out.grid_points


# span name -> (module, attribute path, work count taken from the call)
TARGETS = {
    "specfun.legendre_weighted_sum": ("eigenband.specfun", "legendre_weighted_sum", _points),
    "basis.mode_matrix": ("eigenband.basis", "mode_matrix", _shape),
    "basis.gradient_matrix": ("eigenband.basis", "gradient_matrix", None),
    "manifold.exp_map": ("eigenband.manifold", "exp_map", None),
    "spectrum.enumerate_band": ("eigenband.spectrum", "enumerate_band", None),
    "embed.CanonicalDistance.rows": ("eigenband.embed", "CanonicalDistance.rows", None),
    "embed.band_kernel": ("eigenband.embed", "band_kernel", None),
    "embed.diameter_estimate": ("eigenband.embed", "diameter_estimate", None),
    "embed.lipschitz_scan": ("eigenband.embed", "lipschitz_scan", None),
    "embed.distance_profile": ("eigenband.embed", "distance_profile", None),
    "embed.pullback_metric": ("eigenband.embed", "pullback_metric", None),
    "entropy.covering_curve": ("eigenband.entropy", "covering_curve", _insertions),
    "waves.expected_sup": ("eigenband.waves", "expected_sup", _grid_points),
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("specfun.legendre_calls", "count"), ("specfun.legendre_s", "s"),
    ("specfun.legendre_points", "count"),
    ("basis.grid_calls", "count"), ("basis.grid_s", "s"), ("basis.grid_entries", "count"),
    ("basis.stencil_calls", "count"), ("basis.stencil_s", "s"),
    ("basis.gradient_calls", "count"), ("basis.gradient_s", "s"),
    ("manifold.exp_map_calls", "count"), ("manifold.exp_map_s", "s"),
    ("spectrum.enumerate_s", "s"),
    ("embed.rows_calls", "count"), ("embed.rows_s", "s"),
    ("embed.kernel_calls", "count"), ("embed.kernel_s", "s"),
    ("embed.diameter_s", "s"), ("embed.lipschitz_s", "s"), ("embed.profile_s", "s"),
    ("embed.pullback_s", "s"),
    ("entropy.covering_s", "s"), ("entropy.self_s", "s"), ("entropy.insertions", "count"),
    ("waves.sup_s", "s"), ("waves.self_s", "s"),
    ("waves.first_call_s", "s"), ("waves.repeat_call_s", "s"),
    ("waves.grid_points", "count"), ("waves.matrix_bytes", "B-computed"),
    ("trace.study_s", "s"),
)


class Tracer:
    def __init__(self):
        # each span: [name, phase, parent index or -1, start, end, work]
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.phase, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0, 1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "eigenband" or n.startswith("eigenband.")]
        for name, (mod_name, path, work) in TARGETS.items():
            owner = sys.modules[mod_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, work)
            if cls:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def per_layer(self, op_times: dict, round_times: list) -> dict:
        """Per-layer metrics: set-up spans plus the median over rounds."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[2] >= 0:
                child_time[s[2]] = child_time.get(s[2], 0.0) + s[4] - s[3]
        phases = ["setup"] + list(range(len(round_times)))
        per_phase = {p: {n: 0.0 for n, _ in PER_LAYER} for p in phases}
        for i, (name, phase, parent, t0, t1, work) in enumerate(self.spans):
            if phase not in per_phase:
                continue
            m = per_phase[phase]
            dur = t1 - t0
            self_s = dur - child_time.get(i, 0.0)
            if name == "specfun.legendre_weighted_sum":
                _add(m, "specfun.legendre", dur)
                m["specfun.legendre_points"] += work
            elif name == "basis.mode_matrix":
                rows, cols = work
                if rows < STENCIL_ROWS:
                    _add(m, "basis.stencil", dur)
                else:
                    _add(m, "basis.grid", dur)
                    m["basis.grid_entries"] += rows * cols
                    if parent >= 0 and self.spans[parent][0] == "waves.expected_sup":
                        m["waves.matrix_bytes"] += 8 * rows * cols
            elif name == "basis.gradient_matrix":
                _add(m, "basis.gradient", dur)
            elif name == "manifold.exp_map":
                _add(m, "manifold.exp_map", dur)
            elif name == "spectrum.enumerate_band":
                m["spectrum.enumerate_s"] += dur
            elif name == "embed.CanonicalDistance.rows":
                _add(m, "embed.rows", dur)
            elif name == "embed.band_kernel":
                _add(m, "embed.kernel", dur)
            elif name in _SCAN_METRICS:
                m[_SCAN_METRICS[name]] += dur
            elif name == "entropy.covering_curve":
                m["entropy.covering_s"] += dur
                m["entropy.self_s"] += self_s
                m["entropy.insertions"] += work
            elif name == "waves.expected_sup":
                m["waves.sup_s"] += dur
                m["waves.self_s"] += self_s
                m["waves.grid_points"] += work
        out = {}
        for n, unit in PER_LAYER:
            rounds = [per_phase[p][n] for p in phases[1:]]
            out[n] = (per_phase["setup"][n] + statistics.median(rounds), unit)
        for key, label in (("waves.first_call_s", ".first"), ("waves.repeat_call_s", ".repeat")):
            times = [statistics.median(v) for k, v in op_times.items() if k.endswith(label)]
            out[key] = (sum(times), "s")
        out["trace.study_s"] = (statistics.median(round_times), "s")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "phase", "parent", "start", "end", "work"],
                       "spans": self.spans}, fh)


_SCAN_METRICS = {
    "embed.diameter_estimate": "embed.diameter_s",
    "embed.lipschitz_scan": "embed.lipschitz_s",
    "embed.distance_profile": "embed.profile_s",
    "embed.pullback_metric": "embed.pullback_s",
}


def _add(m: dict, prefix: str, dur: float):
    m[prefix + "_calls"] += 1
    m[prefix + "_s"] += dur
