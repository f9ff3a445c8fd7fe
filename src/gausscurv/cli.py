"""Command-line front end: seeded shape generation, batch runs, reports.

Every command writes a JSON report; scan-style commands additionally write a
CSV table with columns ``r, predicted, measured, relative_error``.  Reports
are byte-reproducible for a fixed configuration apart from the wall-time
field.  Exit statuses: 0 all checks passed, 1 some check failed, 2 usage
error, 3 bad configuration value, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import locale  # noqa: F401  argparse's gettext loads it on the first parse; load it with the package
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it with the package, not inside a run

from . import body as bd
from . import experiments as ex
from . import plane, sphere
from .errors import ConfigError, GausscurvError
from .weights import _recurrence_check, make_gaussian_weight, make_weight, radial_moments

__all__ = [
    "RunConfig",
    "RunReport",
    "parse_config",
    "generate_convex_polar",
    "generate_star_polar",
    "run",
    "main",
    "weight_preset",
    "WEIGHT_PRESETS",
]

COMMANDS = (
    "verify2d",
    "bounds2d",
    "stability2d",
    "counterexample",
    "second-variation",
    "threshold-scan",
    "calibration",
    "moments",
)


def weight_preset(name: str):
    if name == "gaussian":
        return make_gaussian_weight()
    if name == "inverse-quadratic":
        return make_weight(lambda r: 1.0 / (1.0 + r * r), lambda r: -2.0 * r / (1.0 + r * r) ** 2)
    if name == "exponential":
        return make_weight(lambda r: np.exp(-r), lambda r: -np.exp(-r))
    raise ConfigError(f"unknown weight preset {name!r}")


WEIGHT_PRESETS = ("gaussian", "inverse-quadratic", "exponential")
# stability2d holds two curves' grids per h at once, about 360 MB of peak RSS at this bound.
H_MAX = 4096


@dataclass
class RunConfig:
    command: str
    seed: int = 42
    trials: int = 1000
    n: int = 3
    r: float | None = None
    k: int = 2
    epsilon: float = 1e-3
    amplitude: float = 0.1
    weight: str = field(default="gaussian", metadata={"help": ", ".join(WEIGHT_PRESETS) + ", or all"})
    slack: float = 1e-8
    cap_height: float = 40.0
    r_min: float = 0.01
    r_max: float = 0.25
    points: int = 100
    h_min: int = 4
    h_max: int = 64
    output: str = ""

    def validate(self) -> "RunConfig":
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        for name, value in self.__dict__.items():
            # NaN passes checks such as `self.r <= 0` below.
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name.replace('_', '-')} must be finite, got {value}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 2 <= self.n <= sphere.MAX_DIMENSION:
            raise ConfigError(f"dimension must be in 2..{sphere.MAX_DIMENSION}")
        if self.command in ("second-variation", "threshold-scan", "calibration") and self.n < 3:
            raise ConfigError("this command needs dimension at least 3")
        if self.r is not None and self.r <= 0:
            raise ConfigError("radius must be positive")
        # Mode k needs a sphere quadrature of degree 4k, and quadrature degrees stop at MAX_DEGREE.
        if not 2 <= self.k <= sphere.MAX_DEGREE // 4 or self.k % 2:
            raise ConfigError(f"{self.command}: mode must be even and in 2..{sphere.MAX_DEGREE // 4}")
        if not ex.EPSILON_FLOOR <= self.epsilon <= ex.EPSILON_CAP:
            raise ConfigError("epsilon out of the supported range")
        if not 0.0 < self.amplitude <= 0.3:
            raise ConfigError("amplitude must lie in (0, 0.3]")
        if self.weight != "all" and self.weight not in WEIGHT_PRESETS:
            raise ConfigError(f"weight must be one of {WEIGHT_PRESETS} or 'all'")
        if self.slack <= 0:
            raise ConfigError("slack must be positive")
        if self.cap_height <= 0:
            raise ConfigError("cap height must be positive")
        if not 0 < self.r_min < self.r_max:
            raise ConfigError("need 0 < r-min < r-max")
        if self.points < 1:
            raise ConfigError("points must be at least 1")
        if not 2 <= self.h_min < self.h_max:
            raise ConfigError("need 2 <= h-min < h-max: the h = 1 bump r(1 + cos 2 theta) touches the origin")
        if self.h_max > H_MAX:
            raise ConfigError(
                f"h-max must be at most {H_MAX}: stability2d holds every member's grids in memory at once, "
                "about 360 MB at the bound"
            )
        if not self.output:
            self.output = f"report-{self.command}"
        return self

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


@dataclass
class RunReport:
    config: dict
    entries: list
    summary: dict
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return self.summary.get("passed") == self.summary.get("total")

    def to_dict(self) -> dict:
        return dict(vars(self))


def _trial_streams(seed: int, trials):
    """One Philox, a generator on it, and the state of each trial's own stream, keyed by ``(seed, trial)``,
    before its first draw: setting ``bits.state`` re-keys the Philox without a SeedSequence build."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bits.state
    states = [{**fresh, "state": {**fresh["state"], "key": np.array([seed, t], dtype=np.uint64)}} for t in trials]
    return bits, np.random.Generator(bits), states


def _sample_polar(seed, amplitude, trials, decay, accept, kind) -> plane.CurveStack:
    """Rejection-sample the curves of ``trials`` as one :class:`plane.CurveStack`, round by round.

    A candidate is ``2 degree`` uniform draws in [-1, 1] from its trial's stream, cosine then sine
    coefficients, scaled by ``amplitude / k^decay``.  One Philox is re-keyed to each pending
    trial's stream (:func:`_trial_streams`): a fresh state, or the state saved after the trial's
    last candidate, so a trial that fails ``accept`` redraws where it left off and a row is the
    curve its trial gets alone.  A trial's 1000th rejection raises ``GausscurvError``.
    """
    if not 0.0 < amplitude <= 0.3:
        raise ValueError("amplitude must lie in (0, 0.3]")
    bits, generator, states = _trial_streams(seed, trials)
    # A row holds the cosine coefficients of degrees 0..D, the first 1, then the sine coefficients.
    cut = _POLAR_DEGREE + 1
    decayed = amplitude / np.arange(1.0, cut) ** decay
    scale = np.concatenate([[1.0], decayed, decayed])
    coeffs = np.ones((len(states), scale.size))
    pending = np.arange(len(states))
    for _ in range(1000):
        for row in pending.tolist():
            bits.state = states[row]
            coeffs[row, 1:] = generator.uniform(-1.0, 1.0, 2 * _POLAR_DEGREE)
            states[row] = bits.state
        coeffs[pending] *= scale
        rows = coeffs[pending]
        candidates = plane.CurveStack(rows[:, :cut], rows[:, cut:])
        pending = pending[~accept(candidates)]
        if not pending.size:  # without redraws, the first round is the chunk
            if len(candidates.rho) == len(states):
                return candidates
            return plane.CurveStack(coeffs[:, :cut], coeffs[:, cut:])
    raise GausscurvError(f"{kind} curve generator exceeded 1000 rejections")


# Degree of the random planar curves; coefficient decay, test on every grid node (each implies a
# positive radius) and name of each planar generator.
_POLAR_DEGREE = 12
_CONVEX = (3.0, lambda stack: stack.convex, "convex")
_STAR = (2.0, lambda stack: np.min(stack.rho, axis=-1) >= plane.ORIGIN_CLEARANCE, "star-shaped")


def generate_convex_polar(seed: int, amplitude: float, trial: int = 0) -> plane.PolarCurve:
    """Deterministic random convex curve near the unit circle, drawn as a chunk of one.

    Coefficients decay like 1/k^3 and candidates are rejection-sampled on the
    convexity certificate at every grid node.  Over seeds 1-5 and 1000
    trials each, no candidate is rejected at amplitudes 0.1 and 0.2, and 54
    are at 0.3.

    Raises
    ------
    GausscurvError
        After 1000 consecutive rejections.
    """
    return plane.PolarCurve.from_row(_sample_polar(seed, amplitude, range(trial, trial + 1), *_CONVEX), 0)


def generate_star_polar(seed: int, amplitude: float, trial: int = 0) -> plane.PolarCurve:
    """Deterministic random star-shaped (possibly non-convex) curve, drawn as a chunk of one.

    Coefficients decay like 1/k^2, slowly enough that higher amplitudes
    routinely produce non-convex boundaries; only the origin's clearance is enforced.
    """
    return plane.PolarCurve.from_row(_sample_polar(seed, amplitude, range(trial, trial + 1), *_STAR), 0)


_REPORT_FIELDS = ("lhs", "rhs", "margin", "quad_error", "passed")


def _report_rows(rep: plane.InequalityReport) -> list[dict]:
    """The JSON entries of a report, one per row: one for a body's report, one per curve for a stack's."""
    if isinstance(rep.lhs, float):
        return [{name: getattr(rep, name) for name in _REPORT_FIELDS}]
    columns = [np.atleast_1d(getattr(rep, name)).tolist() for name in _REPORT_FIELDS]
    return [dict(zip(_REPORT_FIELDS, row)) for row in zip(*columns)]


def _map_trials(fn, count: int, seed: int | None = None, start: int = 0):
    """Run trials ``start .. count - 1`` serially in index order; failures carry the trial's stream key."""
    entries = []
    for i in range(start, count):
        try:
            entries.append(fn(i))
        except (GausscurvError, ValueError) as exc:
            raise type(exc)(f"trial {i} (seed {seed}): {exc}") from exc
    return entries


# Trials checked per stack; larger stacks cost memory and save little more time.
_CHUNK = 32
# Fewest chunks to a part: a fork, its copy-on-write faults and its pickled results cost a few light
# chunks (verify2d at 128 trials on 2-CPU x86_64: 10.1 ms in one part, 12.4 ms in two).
_PART_CHUNKS = 4
# SIGKILL, 9 on every POSIX system; the signal module would add 2 ms to the import of the package.
_SIGKILL = 9


def _cpu_count() -> int:
    """The number of CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _run_range(fn, seed, start: int, stop: int) -> list:
    """Run ``fn`` on the chunks of trials ``start .. stop - 1`` serially, in index order.

    ``start`` is a multiple of ``_CHUNK``.  A chunk that raises is run again one
    trial at a time through :func:`_map_trials`, so an error names the first
    failing trial in index order.
    """
    results = []
    for first in range(start, stop, _CHUNK):
        last = min(first + _CHUNK, stop)
        try:
            results.extend(fn(range(first, last)))
        except (GausscurvError, ValueError):
            results.extend(_map_trials(lambda i: fn(range(i, i + 1))[0], last, seed, first))
    return results


def _work(fn, start: int, stop: int, fd: int) -> None:
    """A worker's part: run the chunks of trials ``start .. stop - 1`` until one raises or warns,
    then pickle ``(the trial it stopped at, the results before it)`` to the pipe ``fd``."""
    done, results = start, []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for first in range(start, stop, _CHUNK):
                results.extend(fn(range(first, min(first + _CHUNK, stop))))
                done = min(first + _CHUNK, stop)
    except Exception:
        pass  # the parent runs the rest of the part, and raises or warns as a serial run would
    with os.fdopen(fd, "wb") as fh:
        pickle.dump((done, results), fh, pickle.HIGHEST_PROTOCOL)


def _fork_part(fn, start: int, stop: int, workers: list):
    """Fork a worker for the part ``start .. stop - 1``: its pid and the read end of its pipe, or
    ``(None, None)`` where no pipe or process is to be had.  The worker never returns: it closes
    the pipes of the ``workers`` before it and ends in ``os._exit``, so it flushes no parent stdio."""
    try:
        read, write = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None, None
    if pid == 0:
        try:
            os.close(read)
            for _, pipe, _, _ in workers:
                if pipe is not None:
                    pipe.close()
            _work(fn, start, stop, write)
        finally:
            os._exit(0)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _map_chunks(fn, count: int, seed: int | None = None):
    """Run ``fn(trials)`` on consecutive ranges of ``_CHUNK`` trials; return the results in index order.

    ``fn`` returns one result per trial of its range.  The chunks are split
    into contiguous parts of at least ``_PART_CHUNKS`` chunks, one part per
    CPU at most.  The parent forks a worker for every part but the first,
    runs the first itself (:func:`_run_range`), and then reads the workers'
    results in order.  Where a worker stopped early (a chunk raised or
    warned), died, or left an unreadable pipe, the parent runs the rest of
    its part itself.  So the results, errors, warnings and
    :func:`_map_trials` calls are a serial run's, whatever the CPU count.
    Every worker is killed and reaped before this returns or raises.
    """
    chunks = -(-count // _CHUNK)
    parts = max(1, min(_cpu_count(), chunks // _PART_CHUNKS))
    bounds = [min(count, _CHUNK * (chunks * i // parts)) for i in range(parts + 1)]
    workers = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            workers.append((*_fork_part(fn, start, stop, workers), start, stop))
        results = _run_range(fn, seed, 0, bounds[1])
        for _, pipe, start, stop in workers:
            try:
                done, part = pickle.load(pipe)
            except Exception:  # no pipe, or a worker that died before its results were whole
                done, part = start, []
            results.extend(part)
            results.extend(_run_range(fn, seed, done, stop))
        return results
    finally:
        for pid, pipe, _, _ in workers:
            if pid is not None:
                pipe.close()
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)


def _weights_for(config: RunConfig):
    names = WEIGHT_PRESETS if config.weight == "all" else (config.weight,)
    return [(name, weight_preset(name)) for name in names]


def _run_planar_batch(config: RunConfig, generator, check):
    """Shared trial loop of verify2d and bounds2d.

    A chunk of trials is drawn by :func:`_sample_polar` (``generator`` is
    ``_CONVEX`` or ``_STAR``) and every weight checks that one stack.
    ``check(stack, wp)`` returns the weight's report entry for each curve
    and the margin columns that must clear ``-slack``.
    """
    pairs = _weights_for(config)

    def chunk(trials: range) -> list:
        stack = _sample_polar(config.seed, config.amplitude, trials, *generator)
        entries = [{"trial": trial, "weights": {}} for trial in trials]
        margins = []
        for name, wp in pairs:
            values, columns = check(stack, wp)
            for entry, value in zip(entries, values):
                entry["weights"][name] = value
            margins.extend(columns)
        margins = np.array(margins)
        for entry, ok in zip(entries, np.all(margins >= -config.slack, axis=0).tolist()):
            entry["passed"] = ok
        return list(zip(entries, np.min(margins, axis=0).tolist()))

    results = _map_chunks(chunk, config.trials, config.seed)
    worst = min(margin for _, margin in results)
    return [entry for entry, _ in results], {"worst_margin": worst}, None


def _run_verify2d(config: RunConfig):
    def check(stack, wp):
        two = plane.verify_two_sided(stack, wp)
        rows = zip(_report_rows(two.lower), _report_rows(two.upper))
        return [{"lower": lower, "upper": upper} for lower, upper in rows], (two.lower.margin, two.upper.margin)

    return _run_planar_batch(config, _CONVEX, check)


def _run_bounds2d(config: RunConfig):
    def check(stack, wp):
        rep = plane.boundary_inverse_weight(stack, wp)
        return _report_rows(rep), (rep.margin,)

    return _run_planar_batch(config, _STAR, check)


def _stability_families(h_values, r: float):
    """Ellipse and Fourier-bump families shrinking onto the disk of radius ``r``."""
    ellipses = [plane.PolarCurve.ellipse(r * (1.0 + 1.0 / h), r) for h in h_values]
    bumps = [plane.PolarCurve(np.array([r, 0.0, r / h]), np.zeros(2)) for h in h_values]
    return {"ellipse": ellipses, "fourier-bump": bumps}


def _run_stability2d(config: RunConfig):
    wp = weight_preset(config.weight if config.weight != "all" else "gaussian")
    r = config.r if config.r is not None else 1.0
    h_values = list(range(config.h_min, config.h_max + 1))
    entries = []
    for name, family in _stability_families(h_values, r).items():
        ratios = plane.stability_ratio(family, wp, r)
        tail = ratios[len(ratios) // 2 :]
        if min(tail) <= 0.0:
            raise GausscurvError(f"{name} energy gaps vanish at r = {r:g}: the weight underflows")
        bounded = max(tail) <= 10.0 * min(tail) and all(math.isfinite(x) for x in ratios)
        entries.append(
            {
                "family": name,
                "h": h_values,
                # Members outside the convex hypothesis, measured by the sampled Hausdorff distance.
                "nonconvex_h": [h for h, curve in zip(h_values, family) if not curve.is_convex()],
                "ratios": ratios,
                "tail_spread": max(tail) / min(tail),
                "passed": bounded,
            }
        )
    return entries, {"max_relative_error": max(e["tail_spread"] for e in entries)}, None


def _run_counterexample(config: RunConfig):
    if config.r is not None:
        r_values = [config.r]
    else:
        # Python floats: with numpy radii a failed check is a numpy bool, which json cannot write.
        r_values = np.linspace(config.r_min, config.r_max, config.points).tolist()
    entries = []
    rows = []
    for r in r_values:
        gap = ex.counterexample_gap(r)
        s = ex.matched_cylinder_radius(r)
        spec = ex.CylinderSpec(s=s, half_height=config.cap_height)
        capped = ex.capped_cylinder(spec)
        r_prime = ex.capped_matched_radius(spec)
        capped_gap = capped.energy - bd.ball_energy(3, r_prime)
        ok = gap > 1.0 and capped_gap > 0.0
        entries.append(
            {
                "r": float(r),
                "s": s,
                "gap": gap,
                "capped_volume": capped.volume,
                "capped_energy": capped.energy,
                "capped_matched_radius": r_prime,
                "capped_gap": capped_gap,
                "passed": ok,
            }
        )
        rows.append(
            {
                "r": float(r),
                "predicted": 1.0,
                "measured": gap,
                "relative_error": abs(gap - 1.0),
            }
        )
    return entries, {"worst_margin": min(e["gap"] - 1.0 for e in entries)}, rows


def _run_second_variation(config: RunConfig):
    r = config.r if config.r is not None else 1.0
    rep = ex.measure_second_variation(config.n, r, config.k, config.epsilon)
    entries = [
        {
            "n": rep.n,
            "r": rep.r,
            "k": rep.k,
            "epsilon": rep.epsilon,
            "measured_gap": rep.measured_gap,
            "predicted_quadratic": rep.predicted_quadratic,
            "relative_error": rep.relative_error,
            "measured_coefficient": rep.measured_coefficient,
            "raw_gaps": list(rep.raw_gaps),
            "passed": rep.relative_error <= 0.05,
        }
    ]
    rows = [
        {
            "r": rep.r,
            "predicted": rep.predicted_quadratic,
            "measured": rep.measured_gap,
            "relative_error": rep.relative_error,
        }
    ]
    return entries, {"max_relative_error": rep.relative_error}, rows


def _run_threshold_scan(config: RunConfig):
    measured = ex.threshold_scan(config.n, config.k)
    algebraic = ex.algebraic_threshold(config.n, config.k)
    stated = ex.statement_threshold(config.n)
    err = abs(measured - algebraic)
    entries = [
        {
            "n": config.n,
            "k": config.k,
            "measured_r_squared": measured,
            "algebraic_r_squared": algebraic,
            "statement_candidate_r_squared": stated,
            "abs_error": err,
            "passed": err <= 1e-3,
        }
    ]
    rows = [
        {
            "r": math.sqrt(measured),
            "predicted": algebraic,
            "measured": measured,
            "relative_error": err / max(algebraic, 1e-300),
        }
    ]
    return entries, {"max_relative_error": err}, rows


def _sample_even(seed: int, trials, n: int, amplitude: float, degree: int = 6) -> np.ndarray:
    """The perturbation coefficients of :func:`random_even_body` for ``trials``, one row per trial.

    From each trial's stream (:func:`_trial_streams`), the slots of the even degrees k = 2, 4, ...
    get standard normal draws over k^3 in basis order, and the row is scaled to the norm ``amplitude``.
    """
    bits, generator, states = _trial_streams(seed, trials)
    k = sphere._degree_index(n, degree)
    even = (k >= 2) & (k % 2 == 0)
    cubes = k[even] ** 3
    rows = np.zeros((len(states), k.size))
    for row, state in zip(rows, states):
        bits.state = state
        row[even] = generator.normal(size=cubes.size) / cubes
        row *= amplitude / np.linalg.norm(row)
    return rows


def random_even_body(seed: int, trial: int, n: int, radius: float, amplitude: float, degree: int = 6) -> bd.RadialGraph:
    """Seeded even (origin-symmetric) perturbation of the ball of given radius, drawn as a chunk of
    one by :func:`_sample_even`; raises ``ValueError`` as :class:`body.RadialGraph` does."""
    coeffs = _sample_even(seed, range(trial, trial + 1), n, amplitude, degree)[0]
    return bd.RadialGraph(n, radius, sphere.HarmonicField(n=n, degree=degree, coeffs=coeffs))


def _run_calibration(config: RunConfig):
    r = config.r if config.r is not None else 3.0
    amp = min(config.epsilon * 10.0, 1e-2)

    def entry(trial: int, res: ex.CalibrationResult) -> dict:
        ok = (
            res.hypothesis_ok
            and res.ineq1.margin >= -config.slack
            and res.ineq3.margin >= -config.slack
        )
        return {
            "trial": trial,
            "hypothesis_ok": res.hypothesis_ok,
            "gate_curvature": res.gate_curvature,
            "gate_inscribed_stated": res.gate_inscribed_stated,
            "gate_inscribed_used": res.gate_inscribed_used,
            "volume": res.volume,
            "matched_radius": res.matched_radius,
            "ineq1": _report_rows(res.ineq1)[0],
            "ineq3": _report_rows(res.ineq3)[0],
            "passed": ok,
        }

    def chunk(trials: range) -> list:
        # Each body's curvature bound M is its largest mean curvature over the nodes.
        stack = bd.BodyStack(config.n, r, _sample_even(config.seed, trials, config.n, amp))
        return [entry(trial, res) for trial, res in zip(trials, ex.calibration_check_many(stack))]

    entries = _map_chunks(chunk, config.trials, config.seed)
    margins = [e[k]["margin"] for e in entries for k in ("ineq1", "ineq3")]
    return entries, {"worst_margin": min(margins)}, None


def _run_moments(config: RunConfig):
    dims = [config.n] if config.n != 3 or config.r is not None else list(range(2, 9))
    radii = [config.r] if config.r is not None else [0.1, 0.5, 1.0, 2.0, 4.0]
    entries = []
    for n in dims:
        for r in radii:
            m = radial_moments(n, r)
            res_b, res_c, held = _recurrence_check(n, r, m.a_n, m.b_n, m.c_n)
            entries.append(
                {
                    "n": n,
                    "r": r,
                    "a_n": m.a_n,
                    "b_n": m.b_n,
                    "c_n": m.c_n,
                    "residual_b": res_b,
                    "residual_c": res_c,
                    "passed": held,
                }
            )
    return entries, {"worst_margin": -max(max(e["residual_b"], e["residual_c"]) for e in entries)}, None


_RUNNERS = {
    "verify2d": _run_verify2d,
    "bounds2d": _run_bounds2d,
    "stability2d": _run_stability2d,
    "counterexample": _run_counterexample,
    "second-variation": _run_second_variation,
    "threshold-scan": _run_threshold_scan,
    "calibration": _run_calibration,
    "moments": _run_moments,
}


def _write_report(fh, report: dict) -> None:
    """Write ``report`` as JSON: one line per top-level key, one line per entry.

    Every value is one ``json.dumps`` call with sorted keys, which runs the C
    encoder (``json.dump`` to a file and any ``indent`` run the pure-Python
    one); entries are written one at a time, so the text of the whole report
    is never held at once.  ``wall_time_s`` thus sits on its own line.
    """
    fh.write("{")
    for i, key in enumerate(sorted(report)):
        fh.write(("\n" if i == 0 else ",\n") + json.dumps(key) + ": ")
        if key == "entries" and report[key]:
            for j, entry in enumerate(report[key]):
                fh.write(("[\n" if j == 0 else ",\n") + json.dumps(entry, sort_keys=True))
            fh.write("\n]")
        else:
            fh.write(json.dumps(report[key], sort_keys=True))
    fh.write("\n}\n")


def run(config: RunConfig) -> RunReport:
    """Execute one command, write the JSON (and CSV) outputs, return the report.

    A runner returns ``(entries, extra_summary, rows)``; the pass count
    comes from the entries, and a CSV is written exactly when there are rows.
    """
    config.validate()
    # The objects alive now, the package's and numpy's among them, outlive the run.  Frozen, they
    # are not scanned again by a full collection during it; unfreezing hands them back.
    gc.freeze()
    try:
        start = time.perf_counter()
        entries, extra, rows = _RUNNERS[config.command](config)
        summary = {
            "passed": sum(e["passed"] for e in entries),
            "total": len(entries),
            "worst_margin": None,
            "max_relative_error": None,
            **extra,
        }
        report = RunReport(
            config=config.to_dict(),
            entries=entries,
            summary=summary,
            wall_time_s=time.perf_counter() - start,
        )
        with open(config.output + ".json", "w") as fh:
            _write_report(fh, report.to_dict())
        if rows:
            with open(config.output + ".csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=["r", "predicted", "measured", "relative_error"])
                writer.writeheader()
                writer.writerows(rows)
        return report
    finally:
        gc.unfreeze()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausscurv",
        description="Verify weighted curvature-energy inequalities and ball stability thresholds.",
    )
    parser.add_argument("--config", help="key = value file supplying any flag, including the command")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        for f in fields(RunConfig)[1:]:
            kind = float if f.name == "r" else type(f.default)
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, type=kind, default=f.default, help=f.metadata.get("help"))
    return parser


def _argv_from_file(path: str) -> list:
    argv = []
    command = None
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line is not 'key = value': {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key == "command":
                    command = value
                else:
                    argv.extend([f"--{key.replace('_', '-')}", value])
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if command is None:
        raise ConfigError("config file must set 'command'")
    return [command] + argv


def parse_config(argv) -> RunConfig:
    """Parse flags or a config file into a validated :class:`RunConfig`.

    Raises
    ------
    ConfigError
        For malformed config files or out-of-range values.
    SystemExit
        With status 2, for unknown flags or commands (argparse usage errors).
    """
    argv = list(argv)
    if argv[:1] == ["--config"]:
        if len(argv) < 2:
            raise ConfigError("--config needs a file path")
        argv = _argv_from_file(argv[1]) + argv[2:]
    # argparse takes "-1e-3" or "-inf" after a flag (or its prefix) for another flag;
    # "--r=-1e-3" is unambiguous.
    flags = ["--" + f.name.replace("_", "-") for f in fields(RunConfig)[1:]]
    joined = []
    for token in argv:
        prev = joined[-1] if joined else ""
        if len(prev) > 2 and "=" not in prev and any(f.startswith(prev) for f in flags):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    parser = _build_parser()
    ns = parser.parse_args(joined)
    if ns.command is None:
        parser.error("a command is required")
    kwargs = {k: v for k, v in vars(ns).items() if k != "config" and v is not None}
    return RunConfig(**kwargs).validate()


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"gausscurv: configuration error: {exc}", file=sys.stderr)
        return 3
    try:
        report = run(config)
    except ValueError as exc:
        # A flag that passed validation can still leave a library function's domain.
        print(f"gausscurv: configuration error: {config.command}: {exc}", file=sys.stderr)
        return 3
    except GausscurvError as exc:
        print(f"gausscurv: numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # The only files a run opens are its reports, named by --output.
        print(f"gausscurv: configuration error: cannot write report: {exc}", file=sys.stderr)
        return 3
    summary = report.summary
    print(
        f"{config.command}: {summary['passed']}/{summary['total']} passed "
        f"in {report.wall_time_s:.2f}s -> {config.output}.json"
    )
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
