"""In-memory span tracer that wraps gausscurv's public functions from outside.

A span records (name, start, end, parent span).  Spans and counts stay in
memory while the command runs; ``Tracer.dump`` writes the spans out at the
end and ``Tracer.summary`` derives calls, self time and inclusive time per
name.  A span's self time is its duration minus the durations of its direct
children; spans nest strictly because trials run serially.

Counts are taken at the same boundaries:

* ``weights.integrate_radial.integrand_evals`` wraps the integrand argument,
  ``.batch_points`` sums ``len(upper)``;
* ``body.volume_match.vol_evals`` counts radial integrations inside
  ``volume_match`` spans;
* ``cli.generate.attempts`` counts ``PolarCurve`` constructions inside the
  curve generators, ``cli.generate.accepted`` their normal returns;
* ``sphere.build_quadrature.nodes`` sums the sizes of rules the cache built;
* ``experiments.threshold_scan.measurements`` counts second-variation
  measurements inside scans;
* ``<layer>.errors`` counts exceptions leaving a layer's outermost span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import design

_GENERATORS = ("cli.generate_convex_polar", "cli.generate_star_polar")


class Tracer:
    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.counts = Counter()
        self.caches = {}
        self._stack = []
        self._open = Counter()

    def wrap(self, name, fn, pre=None, post=None):
        """Return ``fn`` wrapped in a span; ``pre`` may rewrite the arguments."""
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            sid = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.name.append(name)
            self.parent.append(parent)
            self.end.append(0.0)
            self._stack.append(sid)
            self._open[name] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or not self.name[parent].startswith(layer + "."):
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self.end[sid] = clock()
                self._stack.pop()
                self._open[name] -= 1
            if post is not None:
                post(result)
            return result

        return traced

    def is_open(self, name) -> bool:
        return self._open[name] > 0

    def summary(self) -> dict:
        """Calls, self and inclusive seconds per span name, plus the counts."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = Counter()
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        durations = defaultdict(list)
        for i, name in enumerate(self.name):
            calls[name] += 1
            self_s[name] += dur[i] - covered[i]
            incl_s[name] += dur[i]
            if name == "experiments.measure_second_variation":
                durations[name].append(dur[i])
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "durations_s": dict(durations),
            "counts": {
                **self.counts,
                **{name: fn.cache_info().misses for name, fn in self.caches.items()},
            },
        }

    def dump(self, path) -> None:
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        spans = [
            [index[n], s, e, p] for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


def install() -> Tracer:
    """Wrap every function in ``design.TRACED`` in the loaded gausscurv modules.

    A module attribute is replaced in every gausscurv module that holds the
    same object, so ``from .weights import integrate_radial`` call sites are
    traced too.  A class is traced through its ``__init__``.
    """
    tracer = Tracer()
    modules = {m: sys.modules[f"gausscurv.{m}"] for m in design.LAYERS}
    sphere = modules["sphere"]
    build_quadrature = sphere.build_quadrature
    counts = tracer.counts

    def radial_pre(args, kwargs):
        fn = args[0] if args else kwargs.pop("fn")
        upper = args[1] if len(args) > 1 else kwargs["upper"]
        counts["weights.integrate_radial.batch_points"] += int(np.size(upper))
        if tracer.is_open("body.volume_match"):
            counts["body.volume_match.vol_evals"] += 1

        def counted(t):
            counts["weights.integrate_radial.integrand_evals"] += 1
            return fn(t)

        return (counted, *args[1:]), kwargs

    def curve_pre(args, kwargs):
        if any(tracer.is_open(g) for g in _GENERATORS):
            counts["cli.generate.attempts"] += 1
        return args, kwargs

    def generated(_curve):
        counts["cli.generate.accepted"] += 1

    tracer.caches["sphere.build_quadrature.misses"] = build_quadrature
    if hasattr(getattr(sphere, "_basis", None), "cache_info"):
        tracer.caches["sphere.basis.misses"] = sphere._basis
    misses = [build_quadrature.cache_info().misses]

    def quadrature_built(rule):
        now = build_quadrature.cache_info().misses
        if now > misses[0]:
            counts["sphere.build_quadrature.nodes"] += rule.size
        misses[0] = now

    def measurement_pre(args, kwargs):
        if tracer.is_open("experiments.threshold_scan"):
            counts["experiments.threshold_scan.measurements"] += 1
        return args, kwargs

    hooks = {
        "weights.integrate_radial": (radial_pre, None),
        "plane.PolarCurve": (curve_pre, None),
        "cli.generate_convex_polar": (None, generated),
        "cli.generate_star_polar": (None, generated),
        "sphere.build_quadrature": (None, quadrature_built),
        "experiments.measure_second_variation": (measurement_pre, None),
    }
    loaded = [m for k, m in sys.modules.items() if k == "gausscurv" or k.startswith("gausscurv.")]
    for qual in design.TRACED:
        module, attr = qual.split(".")
        target = getattr(modules[module], attr)
        pre, post = hooks.get(qual, (None, None))
        if isinstance(target, type):
            target.__init__ = tracer.wrap(qual, target.__init__, pre, post)
            continue
        wrapped = tracer.wrap(qual, target, pre, post)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapped)
    return tracer

