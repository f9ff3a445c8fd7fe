"""gausscurv benchmark: end-to-end and per-layer metrics on three workloads.

Usage (from anywhere; it measures the checkout it lives in)::

    python3 bench/run.py --workload planar-batch --seed 1 --seconds 45 --trace 0

The workloads are defined in ``design.py``.  One process drives the load: it
starts each CLI command in a fresh interpreter (``child.py``), one at a time,
and repeats the workload's command list in rounds for as long as another
round is expected to end within ``--seconds``.  Every report is checked
(``TRIAL_CHECKS``, ``SCAN_CHECKS``), and every report of a later round must
match the first round's byte for byte, apart from ``wall_time_s``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
round and then traced rounds (at least two), prints the per-layer metrics,
and requires every count to repeat exactly between traced rounds.  Both
modes write ``result.json`` (with the environment) and the trace mode also
``layers.md`` into ``.bench_run/<workload>-seed<N>-trace<T>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
when every check held, 1 when one did not, and 2 when the package cannot be
found next to the benchmark; nothing is printed to standard output then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import design

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within 180 s; no round starts that could cross this.
HARD_LIMIT_S = 165.0
# The child's exit status when the package cannot be imported from ROOT/src.
SETUP_FAILED = 2
SLACK = 1e-8
PLANAR_WEIGHTS = {"gaussian", "inverse-quadratic", "exponential"}
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("trials_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)
COUNT_SUFFIXES = (
    ".calls", ".misses", ".nodes", "integrand_evals", "vol_evals", "measurements", "attempts", ".errors",
)


class SetupError(RuntimeError):
    """The package under test could not be started at all."""


# --- correctness checks --------------------------------------------------
# The closed forms are restated from the paper rather than imported, so a
# defect in the library's own copy cannot pass its own check.


def algebraic_threshold(n: int, k: int) -> float:
    """Squared radius where the quadratic gap of even mode k changes sign."""
    lam = k * (k + n - 2)
    return (n - 2) - (n - 1) * (n - 2) / lam


def quadratic_coefficient(n: int, r: float, k: int) -> float:
    """Quadratic energy gap per squared amplitude of volume-matched mode k."""
    lam = k * (k + n - 2)
    return r ** (n - 2) * math.exp(-0.5 * r * r) * ((n - 2 - r * r) * lam - (n - 1) * (n - 2))


def _holds(rep: dict) -> bool:
    return rep["rhs"] - rep["lhs"] >= -SLACK


def _verify2d_ok(entry: dict) -> bool:
    weights = entry["weights"]
    return set(weights) == PLANAR_WEIGHTS and all(
        _holds(w[side]) for w in weights.values() for side in ("lower", "upper")
    )


def _bounds2d_ok(entry: dict) -> bool:
    weights = entry["weights"]
    return set(weights) == PLANAR_WEIGHTS and all(_holds(w) for w in weights.values())


def _calibration_ok(entry: dict) -> bool:
    return entry["hypothesis_ok"] is True and _holds(entry["ineq1"]) and _holds(entry["ineq3"])


def _bounded(ratios: list) -> bool:
    tail = ratios[len(ratios) // 2 :]
    return all(math.isfinite(x) for x in ratios) and 0.0 < min(tail) and max(tail) <= 10.0 * min(tail)


def _stability_ok(report: dict) -> bool:
    families = {e["family"]: e["ratios"] for e in report["entries"]}
    return set(families) == {"ellipse", "fourier-bump"} and all(map(_bounded, families.values()))


def _threshold_ok(report: dict) -> bool:
    cfg, (entry,) = report["config"], report["entries"]
    return abs(entry["measured_r_squared"] - algebraic_threshold(cfg["n"], cfg["k"])) <= 1e-3


def _second_variation_ok(report: dict) -> bool:
    cfg, (entry,) = report["config"], report["entries"]
    predicted = quadratic_coefficient(cfg["n"], cfg["r"], cfg["k"]) * cfg["epsilon"] ** 2
    return abs(entry["measured_gap"] - predicted) <= 0.05 * abs(predicted)


# Batch commands: one operation per trial, and the trial's entry must say
# "passed" and satisfy the predicate.  Scan commands: one operation each.
TRIAL_CHECKS = {"verify2d": _verify2d_ok, "bounds2d": _bounds2d_ok, "calibration": _calibration_ok}
SCAN_CHECKS = {
    "stability2d": _stability_ok,
    "threshold-scan": _threshold_ok,
    "second-variation": _second_variation_ok,
}


def check(report: dict) -> tuple:
    """Return (attempted, failed, trials completed) for one command's report."""
    command = report["config"]["command"]
    if command in TRIAL_CHECKS:
        ok = TRIAL_CHECKS[command]
        trials = report["config"]["trials"]
        entries = report["entries"]
        good = sum(
            1 for i, e in enumerate(entries) if e["trial"] == i and e["passed"] is True and ok(e)
        )
        return trials, trials - good, len(entries)
    return 1, 0 if SCAN_CHECKS[command](report) else 1, 0


# --- running -------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GAUSSCURV_THREADS", None)
    return env


def _stable_bytes(path: Path) -> bytes:
    return re.sub(rb'"wall_time_s": [^,\n}]*', b'"wall_time_s": _', path.read_bytes())


class Bench:
    def __init__(self, name: str, seed: int, rundir: Path, start: float):
        self.workload = design.WORKLOADS[name]
        self.seed = seed
        self.rundir = rundir
        self.start = start
        self.environ = _child_env()
        self.first_reports = {}
        self.first_counts = None
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.setups = []
        self.versions = None
        self.peak_rss_kb = {}

    def _child(self, cmd, out: Path, traced: bool, index: int):
        record = self.rundir / f"record-{cmd.label}.json"
        record.unlink(missing_ok=True)
        spec = {
            "trace": int(traced),
            "record": str(record),
            "spans": str(self.rundir / f"spans-r{index}-{cmd.label}.json"),
            "argv": [*cmd.cli_argv(self.seed), "--output", str(out)],
        }
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.start))
        spec["t0"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                env=self.environ,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode == SETUP_FAILED:
            raise SetupError(proc.stderr.strip())
        if proc.returncode != 0 or not record.is_file():
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return json.loads(record.read_text()), None

    def round(self, index: int, traced: bool) -> dict:
        stats = {"traced": traced, "wall_s": 0.0, "wall_ref": 0.0, "batch_wall_s": 0.0, "batch_wall_ref": 0.0,
                 "trials": 0, "ops": 0, "report_bytes": 0, "commands": {}, "trace": None}
        for cmd in self.workload.commands:
            out = self.rundir / cmd.label
            outputs = [Path(f"{out}.json"), Path(f"{out}.csv")]
            for path in outputs:
                path.unlink(missing_ok=True)
            rec, error = self._child(cmd, out, traced, index)
            if rec is not None and rec["error"] is not None:
                error = rec["error"]
            attempted, failed, trials = 1, 1, 0
            if error is None:
                try:
                    attempted, failed, trials = check(json.loads(outputs[0].read_text()))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable report: {exc!r}"
                self._compare(cmd.label, outputs)
            if error is not None:
                self.problems.append(f"round {index} {cmd.label}: {error}")
            self.attempted += attempted
            self.failed += failed
            if rec is None:
                continue
            self.setups.append(rec["setup_s"])
            self.versions = rec["env"]
            self.peak_rss_kb[cmd.label] = max(self.peak_rss_kb.get(cmd.label, 0), rec["peak_rss_kb"])
            stats["wall_s"] += rec["wall_s"]
            stats["wall_ref"] += rec["wall_s"] / rec["ref_s"]
            stats["report_bytes"] += sum(p.stat().st_size for p in outputs if p.is_file())
            if cmd.batch:
                stats["batch_wall_s"] += rec["wall_s"]
                stats["batch_wall_ref"] += rec["wall_s"] / rec["ref_s"]
                stats["trials"] += trials
            stats["ops"] += attempted - failed
            stats["commands"][cmd.label] = {"wall_s": rec["wall_s"], "ref_s": rec["ref_s"],
                                            "setup_s": rec["setup_s"], "peak_rss_kb": rec["peak_rss_kb"],
                                            "failed": failed}
            if traced:
                stats["trace"] = _merge(stats["trace"], rec["trace"])
                stats["commands"][cmd.label]["self_s"] = rec["trace"]["self_s"]
        if stats["trace"] is not None:
            self._compare_counts(index, stats["trace"])
        return stats

    def _compare(self, label: str, outputs: list) -> None:
        current = tuple(_stable_bytes(p) if p.is_file() else None for p in outputs)
        first = self.first_reports.setdefault(label, current)
        if current != first:
            self.problems.append(f"DETERMINISM: reports of {label} differ between rounds")

    def _compare_counts(self, index: int, trace: dict) -> None:
        counts = _count_metrics(trace)
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            diff = sorted(k for k in counts.keys() | self.first_counts.keys()
                          if counts.get(k) != self.first_counts.get(k))
            self.problems.append(f"DETERMINISM: counts differ in traced round {index}: {diff}")


def _merge(acc, summary: dict) -> dict:
    if acc is None:
        acc = {"calls": {}, "self_s": {}, "incl_s": {}, "durations_s": {}, "counts": {}}
    for key in ("calls", "self_s", "incl_s", "counts"):
        for name, value in summary[key].items():
            acc[key][name] = acc[key].get(name, 0) + value
    for name, values in summary["durations_s"].items():
        acc["durations_s"].setdefault(name, []).extend(values)
    return acc


def _count_metrics(trace: dict) -> dict:
    flat = {f"{k}.calls": v for k, v in trace["calls"].items()}
    flat.update(trace["counts"])
    return {k: v for k, v in flat.items() if k.endswith(COUNT_SUFFIXES)}


def _plan(traced: bool):
    """Round kinds: untraced only, or untraced, traced, traced, then alternating."""
    if not traced:
        while True:
            yield False
    yield False
    yield True
    while True:
        yield True
        yield False


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _quantile(values: list, q: int) -> float:
    """The q-th percentile, q in 1..99, exclusive method; 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _rates(bench: Bench, plain: list, time_key: str) -> list:
    """Per-round trials of the batch commands per unit of their time.

    A workload without batch commands counts each command as one operation.
    """
    if any(c.batch for c in bench.workload.commands):
        return [r["trials"] / r["batch_" + time_key] for r in plain if r["batch_" + time_key] > 0]
    return [r["ops"] / r[time_key] for r in plain if r[time_key] > 0]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, rounds: list) -> tuple:
    """The end-to-end metrics, and the same times in seconds for the record.

    Each command's ``cli.run`` time is divided by the reference time measured
    around it in the same process, so ``wall_ref`` and ``trials_per_ref`` do
    not move with the speed of a shared machine; the seconds are kept too.
    """
    plain = [r for r in rounds if not r["traced"]]
    values = {
        "setup_s": _median(bench.setups),
        "wall_ref": _median(r["wall_ref"] for r in plain),
        "trials_per_ref": _median(_rates(bench, plain, "wall_ref")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ops_ok_frac": (bench.attempted - bench.failed) / max(bench.attempted, 1),
    }
    seconds = {
        "wall_s": _median(r["wall_s"] for r in plain),
        "trials_per_s": _median(_rates(bench, plain, "wall_s")),
        "ref_s": _median(c["ref_s"] for r in plain for c in r["commands"].values()),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, seconds


def per_layer(rounds: list) -> dict:
    traced = [r for r in rounds if r["trace"] is not None]
    plain = [r for r in rounds if not r["traced"]]
    traces = [r["trace"] for r in traced]
    first = traces[0]
    counts = first["counts"]
    values = {}
    for name in design.TRACED:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        values[f"{name}.self_s"] = statistics.median(t["self_s"].get(name, 0.0) for t in traces)
    attempts = counts.get("cli.generate.attempts", 0)
    scans = first["calls"].get("experiments.threshold_scan", 0)
    measured = [d for t in traces for d in t["durations_s"].get("experiments.measure_second_variation", [])]
    untraced_wall = statistics.median(r["wall_ref"] for r in plain)
    values.update({
        "weights.integrate_radial.integrand_evals": counts.get("weights.integrate_radial.integrand_evals", 0),
        "weights.integrate_radial.batch_points": counts.get("weights.integrate_radial.batch_points", 0),
        "cli.generate.attempts": attempts,
        "cli.generate.accept_ratio": counts.get("cli.generate.accepted", 0) / attempts if attempts else 0.0,
        "cli.report_bytes": statistics.median(r["report_bytes"] for r in traced),
        "sphere.build_quadrature.misses": counts.get("sphere.build_quadrature.misses", 0),
        "sphere.build_quadrature.nodes": counts.get("sphere.build_quadrature.nodes", 0),
        "sphere.basis.misses": counts.get("sphere.basis.misses", 0),
        "body.volume_match.vol_evals": counts.get("body.volume_match.vol_evals", 0),
        "experiments.measure_second_variation.p50_ms": 1e3 * _quantile(measured, 50),
        "experiments.measure_second_variation.p90_ms": 1e3 * _quantile(measured, 90),
        "experiments.threshold_scan.bisection_steps":
            counts.get("experiments.threshold_scan.measurements", 0) / scans if scans else 0,
        "trace.overhead_frac": statistics.median(r["wall_ref"] for r in traced) / untraced_wall - 1.0,
    })
    for layer in design.LAYERS:
        values[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in design.layer_metrics()}


def layer_table(workload: str, env: dict, rounds: list, metrics: dict) -> str:
    """Markdown table of self time, share of traced wall_s and inclusive time."""
    traced = [r for r in rounds if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in traced)

    def med(key, name):
        return statistics.median(r["trace"][key].get(name, 0.0) for r in traced)

    lines = [
        f"# Per-layer baseline: {workload}",
        "",
        "Environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
        "",
        f"Traced rounds: {len(traced)}; median traced wall_s = {wall:.4f} s; "
        f"trace.overhead_frac = {metrics['trace.overhead_frac']['value']:.4f}.",
        "",
        "| span | calls | self s | self share of wall_s | inclusive s |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for name in sorted(design.TRACED, key=lambda n: -med("self_s", n)):
        calls = metrics[f"{name}.calls"]["value"]
        if calls:
            self_s = med("self_s", name)
            lines.append(f"| {name} | {calls} | {self_s:.4f} | {self_s / wall:.1%} | {med('incl_s', name):.4f} |")
    lines += ["", "| command | wall s | largest self times |", "| --- | ---: | --- |"]
    for label in traced[0]["commands"]:
        per = [r["commands"][label] for r in traced]
        cmd_wall = statistics.median(c["wall_s"] for c in per)
        spans = {n: statistics.median(c["self_s"].get(n, 0.0) for c in per) for n in per[0]["self_s"]}
        top = sorted(spans, key=lambda n: -spans[n])[:3]
        lines.append(f"| {label} | {cmd_wall:.4f} | " + ", ".join(f"{n} {spans[n] / cmd_wall:.0%}" for n in top) + " |")
    lines += ["", "| layer | self s | self share of wall_s |", "| --- | ---: | ---: |"]
    for layer in design.LAYERS:
        self_s = sum(med("self_s", n) for n in design.TRACED if n.startswith(layer + "."))
        lines.append(f"| {layer} | {self_s:.4f} | {self_s / wall:.1%} |")
    lines += ["", "| metric | value | unit |", "| --- | ---: | --- |"]
    for name, unit, _ in design.layer_metrics():
        if not name.endswith((".calls", ".self_s")):
            lines.append(f"| {name} | {metrics[name]['value']:.6g} | {unit} |")
    lines += ["", "| layer metrics | should move |", "| --- | --- |"]
    lines += [f"| {what} | {where} |" for what, where in design.MOVES]
    lines += ["", "| configuration left out | reason |", "| --- | --- |"]
    lines += [f"| {what} | {why} |" for what, why in design.LEFT_OUT.items()]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(design.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not (ROOT / "src" / "gausscurv" / "cli.py").is_file():
        print(f"benchmark: no gausscurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rundir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    bench = Bench(args.workload, args.seed, rundir, start)
    rounds = []
    longest = {}
    try:
        for index, traced in enumerate(_plan(bool(args.trace))):
            elapsed = time.monotonic() - start
            estimate = longest.get(traced, 1.5 * max(longest.values(), default=0.0))
            need_more = not rounds or (args.trace and sum(r["traced"] for r in rounds) < 2)
            if not need_more and elapsed + estimate > args.seconds:
                break
            if rounds and elapsed + estimate > HARD_LIMIT_S:
                break
            t = time.monotonic()
            rounds.append(bench.round(index, traced))
            longest[traced] = max(longest.get(traced, 0.0), time.monotonic() - t)
            r = rounds[-1]
            print(f"round {index} {'traced' if traced else 'untraced'}: wall_s={r['wall_s']:.4f} "
                  f"ops={r['ops']}", flush=True)
    except SetupError as exc:
        print(f"benchmark: cannot start gausscurv: {exc}", file=sys.stderr)
        return 2

    traced_rounds = sum(r["trace"] is not None for r in rounds)
    if args.trace and traced_rounds < 2:
        bench.problems.append("DETERMINISM: fewer than two traced rounds completed")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **(bench.versions or {}),
    }
    print("env: " + json.dumps(env), flush=True)
    seconds = {}
    if not args.trace:
        metrics, seconds = end_to_end(bench, rounds)
        print("seconds: " + json.dumps(seconds), flush=True)
    else:
        metrics = per_layer(rounds) if traced_rounds >= 2 else {}
    correct = bench.failed == 0 and not bench.problems
    for problem in bench.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    record = {"env": env, "rounds": rounds, "peak_rss_kb": bench.peak_rss_kb, "setups_s": bench.setups,
              "seconds": seconds, "problems": bench.problems, "result": result}
    (rundir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace and correct:
        (rundir / "layers.md").write_text(layer_table(args.workload, env, rounds, metrics))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
