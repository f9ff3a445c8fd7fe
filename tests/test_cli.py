import gc
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from gausscurv import cli, plane, sphere
from gausscurv.errors import ConfigError, GausscurvError


# ---------------------------------------------------------------------------
# configuration parsing


def test_parse_defaults():
    cfg = cli.parse_config(["verify2d", "--seed", "7", "--trials", "100"])
    assert cfg.command == "verify2d"
    assert cfg.seed == 7 and cfg.trials == 100
    assert cfg.n == 3 and cfg.amplitude == 0.1
    assert cfg.output == "report-verify2d"


def test_parse_threshold_scan():
    cfg = cli.parse_config(["threshold-scan", "--n", "3", "--k", "2"])
    assert cfg.command == "threshold-scan"
    assert (cfg.n, cfg.k) == (3, 2)


def test_dimension_floor_rejected():
    with pytest.raises(ConfigError):
        cli.parse_config(["verify2d", "--n", "1"])
    assert cli.main(["verify2d", "--n", "1"]) == 3


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_parser_defaults_are_runconfig_defaults(command):
    assert cli.parse_config([command]) == cli.RunConfig(command).validate()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["frobnicate"])
    assert exc.value.code == 2


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# demo configuration\n"
        "command = moments\n"
        "n = 4\n"
        "r = 1.5\n"
        f"output = {tmp_path/'mom'}\n"
    )
    cfg = cli.parse_config(["--config", str(path)])
    assert cfg.command == "moments"
    assert cfg.n == 4 and cfg.r == 1.5


def test_config_file_requires_command(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 3\n")
    with pytest.raises(ConfigError):
        cli.parse_config(["--config", str(path)])


def test_config_file_that_is_not_text_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe\x00command = moments\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        cli.parse_config(["--config", str(path)])
    assert cli.main(["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gausscurv: configuration error: cannot read config file: ")
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# random shape generators


def test_generator_determinism():
    a = cli.generate_convex_polar(99, 0.1, trial=5)
    b = cli.generate_convex_polar(99, 0.1, trial=5)
    np.testing.assert_array_equal(a.cos_coeffs, b.cos_coeffs)
    np.testing.assert_array_equal(a.sin_coeffs, b.sin_coeffs)
    c = cli.generate_convex_polar(99, 0.1, trial=6)
    assert not np.array_equal(a.cos_coeffs, c.cos_coeffs)


def test_generator_near_circle_at_tiny_amplitude():
    curve = cli.generate_convex_polar(1, 1e-4, trial=0)
    assert np.max(np.abs(curve.rho - 1.0)) < 1e-3


def test_generator_convexity_sweep():
    for seed in range(1, 101):
        assert cli.generate_convex_polar(seed, 0.1).is_convex()


def test_generator_acceptance_rate():
    # Raw candidates at amplitude 0.1 should pass the certificate over half
    # the time; measured through the same coefficient stream.
    accepted = 0
    total = 200
    for trial in range(total):
        rng = helpers.trial_rng(123, trial)
        cos_c, sin_c = helpers.random_polar_coeffs(rng, 0.1, 12, 3.0)
        if plane.PolarCurve(cos_c, sin_c).is_convex():
            accepted += 1
    assert accepted / total >= 0.5


def test_star_generator_allows_nonconvex():
    found_nonconvex = False
    for trial in range(50):
        curve = cli.generate_star_polar(5, 0.3, trial)
        assert curve.min_radius > 0.0
        found_nonconvex = found_nonconvex or not curve.is_convex()
    assert found_nonconvex


# The three public generators, each giving the coefficients it drew.
_GENERATORS = [
    lambda seed, trial: cli.generate_convex_polar(seed, 0.1, trial).sin_coeffs,
    lambda seed, trial: cli.generate_star_polar(seed, 0.1, trial).sin_coeffs,
    lambda seed, trial: cli.random_even_body(seed, trial, 3, 3.0, 0.01).coeffs,
]


@pytest.mark.parametrize("generate", _GENERATORS, ids=["convex", "star", "even-body"])
@pytest.mark.parametrize("bad", [1.5, True, -1, -3, 2**64, "1", None])
def test_generators_take_only_integer_seeds_and_trials_of_64_bits(generate, bad):
    # A float or bool seed used to draw seed 1's stream, and a negative or 65-bit key raised OverflowError.
    with pytest.raises(ValueError, match=r"integers in \[0, 2\^64\)"):
        generate(bad, 0)
    with pytest.raises(ValueError, match=r"integers in \[0, 2\^64\)"):
        generate(1, bad)


@pytest.mark.parametrize("generate", _GENERATORS, ids=["convex", "star", "even-body"])
def test_generators_take_every_integer_key_of_64_bits(generate):
    top = 2**64 - 1
    assert np.all(np.isfinite(generate(top, top)))
    np.testing.assert_array_equal(generate(np.uint64(top), np.int64(3)), generate(top, 3))


def _redraws(seed, amplitude, trial, decay, curve):
    """How many candidates the oracle's stream rejects before it reaches ``curve``'s coefficients."""
    rng = helpers.trial_rng(seed, trial)
    for count in range(1000):
        cos_c, sin_c = helpers.random_polar_coeffs(rng, amplitude, 12, decay)
        if np.array_equal(cos_c, curve.cos_coeffs) and np.array_equal(sin_c, curve.sin_coeffs):
            return count
    raise AssertionError("the curve is not on its trial's stream")


@pytest.mark.parametrize(
    "params, single",
    [(cli._CONVEX, cli.generate_convex_polar), (cli._STAR, cli.generate_star_polar)],
    ids=["convex", "star"],
)
def test_stacked_sampler_equals_per_trial_stream(params, single):
    # At amplitude 0.3, convex seed 2 trials 15, 34 and 51, seed 3 trial 0 and seed 4 trial 14
    # redraw once; every other convex trial here, and every star-shaped one, is accepted at once.
    redrawn = 0
    for seed in range(1, 6):
        for amplitude in (0.1, 0.2, 0.3):
            for start in (0, 32):
                trials = range(start, start + 32)
                stack = cli._sample_polar(seed, amplitude, trials, *params)
                for row, trial in enumerate(trials):
                    curve = single(seed, amplitude, trial)
                    for name in ("cos_coeffs", "sin_coeffs", "rho", "drho", "ddrho"):
                        np.testing.assert_array_equal(getattr(stack, name)[row], getattr(curve, name))
                    redrawn += _redraws(seed, amplitude, trial, params[0], curve)
    assert redrawn == (5 if params is cli._CONVEX else 0)


def test_stacked_sampler_resumes_a_trial_stream_after_two_redraws():
    # Convex seed 2, trial 385 at amplitude 0.3 takes its third candidate; its neighbours take their first.
    trials = range(384, 387)
    stack = cli._sample_polar(2, 0.3, trials, *cli._CONVEX)
    for row, trial in enumerate(trials):
        curve = cli.generate_convex_polar(2, 0.3, trial)
        np.testing.assert_array_equal(stack.cos_coeffs[row], curve.cos_coeffs)
        np.testing.assert_array_equal(stack.sin_coeffs[row], curve.sin_coeffs)
        assert _redraws(2, 0.3, trial, 3.0, curve) == (2 if trial == 385 else 0)


@pytest.mark.parametrize("single", [cli.generate_convex_polar, cli.generate_star_polar], ids=["convex", "star"])
def test_generated_curve_equals_the_curve_of_its_coefficients(single):
    # The generators hand back their sampled row; it matches a curve synthesised afresh, bit for bit.
    for seed, amplitude, trial in [(1, 0.1, 0), (3, 0.2, 7), (2, 0.3, 15), (2, 0.3, 385), (5, 0.3, 40)]:
        curve = single(seed, amplitude, trial)
        fresh = plane.PolarCurve(curve.cos_coeffs, curve.sin_coeffs)
        assert type(curve) is plane.PolarCurve
        assert (curve.degree, curve.grid_size, curve.rule_step) == (fresh.degree, fresh.grid_size, fresh.rule_step)
        for name in ("cos_coeffs", "sin_coeffs", "spectrum", "rho", "drho", "ddrho", "theta"):
            np.testing.assert_array_equal(getattr(curve, name), getattr(fresh, name))
            assert not getattr(curve, name).flags.writeable, name
        assert curve.is_convex() == fresh.is_convex()


def test_curve_from_a_stack_row_keeps_the_radius_gate():
    stack = plane.CurveStack([[1.0, 0.5], [0.2, 1.0]], [[0.0], [0.0]])
    assert plane.PolarCurve.from_row(stack, 0).min_radius == pytest.approx(0.5)
    with pytest.raises(ValueError, match="radius must be positive"):
        plane.PolarCurve.from_row(stack, 1)


# ---------------------------------------------------------------------------
# run + report plumbing


def test_run_counterexample_single_radius(tmp_path):
    out = tmp_path / "ce"
    rc = cli.main(["counterexample", "--r", "0.1", "--output", str(out)])
    assert rc == 0
    data = json.loads((tmp_path / "ce.json").read_text())
    assert data["summary"]["passed"] == data["summary"]["total"] == 1
    assert data["entries"][0]["gap"] > 1.0
    csv_text = (tmp_path / "ce.csv").read_text().splitlines()
    assert csv_text[0] == "r,predicted,measured,relative_error"
    assert len(csv_text) == 2


@pytest.mark.parametrize("cap_height", ["5000", "1e5"])
def test_counterexample_at_large_cap_heights(tmp_path, cap_height):
    # The capped volume is the closed form, the ball's own Gaussian volume here.
    from gausscurv import body, experiments

    rc = cli.main(["counterexample", "--r", "0.1", "--cap-height", cap_height, "--output", str(tmp_path / "ce")])
    assert rc == 0
    (entry,) = json.loads((tmp_path / "ce.json").read_text())["entries"]
    assert entry["capped_volume"] == experiments.cylinder_volume(entry["s"])
    assert entry["capped_volume"] == pytest.approx(body.ball_gaussian_volume(3, 0.1), rel=1e-14)
    assert entry["passed"]


def test_counterexample_scan_reports_failing_radius(tmp_path):
    # r = 1 lies past the counterexample's range, so its check fails and is reported.
    rc = cli.main(["counterexample", "--points", "2", "--r-max", "1", "--output", str(tmp_path / "ce")])
    assert rc == 1
    data = json.loads((tmp_path / "ce.json").read_text())
    assert [e["passed"] for e in data["entries"]] == [True, False]


def test_run_verify2d_small_batch(tmp_path):
    cfg = cli.parse_config(
        ["verify2d", "--trials", "25", "--seed", "42", "--output", str(tmp_path / "v")]
    )
    report = cli.run(cfg)
    assert report.all_passed
    assert report.summary["total"] == 25
    assert report.summary["worst_margin"] > -1e-8


def test_run_moments_residuals(tmp_path):
    cfg = cli.parse_config(["moments", "--n", "3", "--r", "1", "--output", str(tmp_path / "m")])
    report = cli.run(cfg)
    assert report.all_passed
    assert all(e["residual_b"] < 1e-10 and e["residual_c"] < 1e-10 for e in report.entries)


@pytest.mark.parametrize("r", ["1e5", "1e30"])
def test_moments_at_large_radius_report(tmp_path, capsys, r):
    # Adaptive quadrature misses the peak at 1e5, and r^12 overflows a float at 1e30.
    assert cli.main(["moments", "--n", "8", "--r", r, "--output", str(tmp_path / "m")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (entry,) = json.loads((tmp_path / "m.json").read_text())["entries"]
    assert entry["passed"] and 0.0 < entry["b_n"] < entry["a_n"]


def test_moments_at_tiny_radius_report(tmp_path, capsys):
    # r^4 underflows at 1e-100; the moments are compared with their r -> 0 limits.
    assert cli.main(["moments", "--n", "8", "--r", "1e-100", "--output", str(tmp_path / "m")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (entry,) = json.loads((tmp_path / "m.json").read_text())["entries"]
    assert entry["passed"] and (entry["a_n"], entry["b_n"], entry["c_n"]) == (1 / 8, 1 / 10, 1 / 12)


def test_threshold_scan_high_mode_command(tmp_path):
    assert cli.main(["threshold-scan", "--n", "8", "--k", "16", "--output", str(tmp_path / "ts")]) == 0
    (entry,) = json.loads((tmp_path / "ts.json").read_text())["entries"]
    assert entry["abs_error"] <= 1e-10


def test_report_determinism(tmp_path):
    # Identical configuration: byte-identical JSON apart from the wall time.
    args = ["bounds2d", "--trials", "10", "--seed", "3", "--output", str(tmp_path / "a")]
    cli.run(cli.parse_config(args))
    first = (tmp_path / "a.json").read_text()
    cli.run(cli.parse_config(args))
    second = (tmp_path / "a.json").read_text()

    def strip(text):
        return "\n".join(ln for ln in text.splitlines() if '"wall_time_s"' not in ln)

    assert strip(first) == strip(second)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.json")))
def test_report_matches_golden(tmp_path, name):
    # Each committed report, run again from its own configuration, matches under the tolerance contract.
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    argv = [golden["config"]["command"], "--output", str(tmp_path / name)]
    for key, value in golden["config"].items():
        if key not in ("command", "output") and value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    summary = golden["summary"]
    assert cli.main(argv) == (0 if summary["passed"] == summary["total"] else 1)
    text = (tmp_path / f"{name}.json").read_text()
    problems = helpers.reports_match(golden, json.loads(text))
    assert not problems, problems[:5]
    # Each entry line is the C encoder's text of its own entry.
    lines = text.splitlines()
    entries = lines[lines.index('"entries": [') + 1 : lines.index("],")]
    assert len(entries) == summary["total"]
    for line in entries:
        line = line.removesuffix(",")
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_reports_match_holds_its_bounds():
    golden = json.loads((GOLDEN / "calibration-n3.json").read_text())
    assert helpers.reports_match(golden, golden) == []
    ineq = golden["entries"][3]["ineq1"]
    bound = helpers.REPORT_RTOL * (abs(ineq["lhs"]) + abs(ineq["rhs"]))

    def moved(**changes):
        report = json.loads(json.dumps(golden))
        report["entries"][3]["ineq1"].update(changes)
        return helpers.reports_match(golden, report)

    assert moved(margin=ineq["margin"] + 0.5 * bound) == []
    assert moved(margin=ineq["margin"] + 2.0 * bound) != []
    assert moved(lhs=ineq["lhs"] * (1.0 + 0.5 * helpers.REPORT_RTOL)) == []
    assert moved(lhs=ineq["lhs"] * (1.0 + 2.0 * helpers.REPORT_RTOL)) != []
    assert moved(quad_error=ineq["quad_error"] + 0.5 * helpers.REPORT_ERROR_ATOL) == []
    assert moved(passed=not ineq["passed"]) != []
    assert moved(extra=1.0) != []


def test_a_body_report_and_a_stack_of_one_give_the_same_line():
    scalar = plane._report(0.5, 0.7, 1e-9)
    column = plane._report(np.array([0.5]), np.array([0.7]), np.array([1e-9]))
    (body,) = cli._encode_columns(cli._report_columns(scalar))
    assert body == cli._encode_columns(cli._report_columns(column))[0]
    assert type(body[1]) is bool


# Leaf values with every text the C encoder writes: signed zeros, the smallest subnormal, values near
# the largest float (their sum overflows), reprs of 17 digits, non-finite floats, bools, None, ints
# past 64 bits, strings with quotes, escapes, format characters and non-ASCII text, and lists (one
# holding a dict whose keys are out of order).
_LEAVES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2,
    1.0 / 3.0, 2.0**0.5, 1e-7, 1e16, 123456789.12345679,
    math.nan, math.inf, -math.inf, True, False, None, 0, -7, 2**80, -(2**63),
    'say "hi"', "naïve ∑ \\ \n\t %s %(x)s {0} {", "", "\x00\u2028",
    [1.5, None, "x"], [], [True, [2**70, -0.0]], [{"z": 1.5, "a": [None]}],
]
# Keys in the same vein: quotes, format characters, non-ASCII text and the empty key.
_KEYS = ["lhs", "rhs", 'a"b', "%s", "%%", "{0}", "{", "é", "∑", "", "trial", "z%d", "\\"]


def _random_columns(rng, rows: int, depth: int = 0) -> dict:
    """Nested columns of ``rows`` rows: each leaf all floats drawn over the whole exponent range, all
    drawn from :data:`_LEAVES`, or all of one kind of Python scalar."""
    columns = {}
    for key in rng.choice(_KEYS, size=rng.integers(1, 5), replace=False).tolist():
        if depth < 2 and rng.random() < 0.3:
            columns[key] = _random_columns(rng, rows, depth + 1)
            continue
        kind = rng.integers(5)
        if kind == 0:
            bits = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
            column = bits.view(np.float64).tolist()
        elif kind == 1:
            column = (rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows)).tolist()
        elif kind == 2:
            column = rng.integers(2, size=rows).astype(bool).tolist()
        elif kind == 3:
            digits, shifts = rng.integers(-9, 9, size=rows).tolist(), rng.integers(0, 90, size=rows).tolist()
            column = [digit * 2**shift for digit, shift in zip(digits, shifts)]
        else:
            column = [_LEAVES[i] for i in rng.integers(len(_LEAVES), size=rows)]
        columns[key] = column
    return columns


def _row(columns: dict, i: int) -> dict:
    return {key: _row(value, i) if isinstance(value, dict) else value[i] for key, value in columns.items()}


@pytest.mark.parametrize("seed", range(40))
def test_encoded_columns_are_the_c_encoders_lines(seed):
    # Oracle: json.dumps of each row as a nested dict, with sorted keys.
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 8))
    columns = _random_columns(rng, rows)
    columns["passed"] = rng.integers(2, size=rows).astype(bool).tolist()
    margins = rng.standard_normal(rows).tolist() if seed % 2 else None
    encoded = cli._encode_columns(columns, margins)
    oracle = [json.dumps(_row(columns, i), sort_keys=True) for i in range(rows)]
    assert [line for line, _, _ in encoded] == oracle
    assert [passed for _, passed, _ in encoded] == columns["passed"]
    assert [margin for _, _, margin in encoded] == (margins or [None] * rows)


def test_encoded_columns_write_every_special_leaf():
    # Each special leaf in a one-row column of its own; then all of them, all the floats, and bools
    # mixed with ints, as one column each.
    columns = {f"k{i}": [leaf] for i, leaf in enumerate(_LEAVES)}
    ((line, _, _),) = cli._encode_columns({**columns, "passed": [True]})
    assert line == json.dumps({**_row(columns, 0), "passed": True}, sort_keys=True)
    for column in (_LEAVES, [leaf for leaf in _LEAVES if type(leaf) is float], [True, 0, False, 2**80, -1]):
        lines = [line for line, _, _ in cli._encode_columns({"v": column, "passed": [True] * len(column)})]
        assert lines == [json.dumps({"passed": True, "v": leaf}, sort_keys=True) for leaf in column]


def _bit_equal(a, b):
    """Equal values of equal types; floats compared by their bits."""
    if type(a) is not type(b):
        return isinstance(a, float) and isinstance(b, float) and a.hex() == b.hex()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_bit_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_bit_equal, a, b))
    return a.hex() == b.hex() if isinstance(a, float) else a == b


@pytest.mark.parametrize("argv", [
    ["verify2d", "--trials", "7", "--weight", "all"],
    ["stability2d"],
    ["moments"],
    ["threshold-scan", "--n", "3", "--k", "2"],
])
def test_report_layout(tmp_path, argv):
    report = cli.run(cli.parse_config(argv + ["--output", str(tmp_path / "a")]))
    text = (tmp_path / "a.json").read_text()
    assert _bit_equal(json.loads(text), report.to_dict())
    # One line per top-level key, the entries one per line between brackets.
    lines = text.splitlines()
    count = len(report.entries)
    assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
    assert lines[1].startswith('"config": {') and lines[2] == '"entries": ['
    assert len(lines) == count + 7 and lines[count + 3] == "],"
    for line, entry in zip(lines[3 : count + 3], report.entries):
        assert _bit_equal(json.loads(line.removesuffix(",")), entry)
    assert lines[count + 4].startswith('"summary": {')
    assert lines[count + 5] == f'"wall_time_s": {report.wall_time_s!r}'


def test_exit_status_on_failing_check(tmp_path, monkeypatch):
    # A runner whose one entry fails.
    monkeypatch.setattr(
        cli,
        "_RUNNERS",
        dict(cli._RUNNERS, verify2d=lambda cfg: (cli._encode_columns({"passed": [False]}, [-1.0]), {}, None)),
    )
    rc = cli.main(["verify2d", "--trials", "1", "--output", str(tmp_path / "f")])
    assert rc == 1


def test_exit_status_on_numerical_failure(tmp_path, monkeypatch):
    from gausscurv.errors import QuadratureError

    def boom(cfg):
        raise QuadratureError("trial 7 (seed 42): synthetic blow-up")

    monkeypatch.setattr(cli, "_RUNNERS", dict(cli._RUNNERS, moments=boom))
    rc = cli.main(["moments", "--output", str(tmp_path / "x")])
    assert rc == 4


def test_failing_trial_is_identified(monkeypatch):
    from gausscurv.errors import QuadratureError

    def one(trial):
        if trial == 3:
            raise QuadratureError("synthetic failure")
        return {"trial": trial}

    with pytest.raises(QuadratureError, match=r"trial 3 \(seed 42\)"):
        cli._map_trials(one, 8, seed=42)


def _patched_sampler(monkeypatch, faults):
    """Make the chunk sampler give trial ``t`` the curve ``faults[t]()``, or raise from it."""
    real = cli._sample_polar

    def sample(seed, amplitude, trials, *args):
        stack = real(seed, amplitude, trials, *args)
        rows = zip(trials, stack.cos_coeffs, stack.sin_coeffs)
        return helpers.stack([faults[t]() if t in faults else plane.PolarCurve(c, s) for t, c, s in rows])

    monkeypatch.setattr(cli, "_sample_polar", sample)


def _generator_failure():
    raise GausscurvError("convex curve generator exceeded 1000 rejections")


def _nonconvex_curve():
    return plane.PolarCurve.from_function(lambda t: 1.0 + 0.2 * np.cos(8 * t))


def _verify2d_failure(tmp_path, capsys):
    argv = ["verify2d", "--trials", "100", "--weight", "all", "--output", str(tmp_path / "v")]
    assert cli.main(argv) == 4
    return capsys.readouterr().err


def test_generator_failure_names_its_trial(tmp_path, capsys, monkeypatch):
    _patched_sampler(monkeypatch, {37: _generator_failure})
    assert "trial 37 (seed 42): convex curve generator" in _verify2d_failure(tmp_path, capsys)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({40: _nonconvex_curve, 41: _generator_failure}, "trial 40 (seed 42): two-sided bound needs a convex"),
        ({40: _generator_failure, 41: _nonconvex_curve}, "trial 40 (seed 42): convex curve generator"),
    ],
)
def test_first_failing_trial_of_a_chunk_is_named(tmp_path, capsys, monkeypatch, faults, message):
    _patched_sampler(monkeypatch, faults)
    assert message in _verify2d_failure(tmp_path, capsys)


def test_unattainable_matched_area_in_a_chunk_is_configuration_error(tmp_path, capsys, monkeypatch):
    # A circle of radius 1e4 has more inverse-quadratic area than any disk of radius <= 1e3.
    _patched_sampler(monkeypatch, {40: lambda: plane.PolarCurve.circle(1e4)})
    argv = ["bounds2d", "--trials", "100", "--weight", "inverse-quadratic", "--output", str(tmp_path / "b")]
    assert cli.main(argv) == 3
    assert "attainable range" in capsys.readouterr().err


def test_chunked_batch_equals_trials_run_one_at_a_time(tmp_path, monkeypatch):
    # At amplitude 0.3, seed 42 redraws the convex curve of trial 18.
    for command, amplitude in (("bounds2d", "0.2"), ("verify2d", "0.3")):
        args = [command, "--trials", "40", "--weight", "all", "--amplitude", amplitude]
        monkeypatch.setattr(cli, "_CHUNK", 32)
        chunked = cli.run(cli.parse_config(args + ["--output", str(tmp_path / "a")]))
        monkeypatch.setattr(cli, "_CHUNK", 1)
        single = cli.run(cli.parse_config(args + ["--output", str(tmp_path / "b")]))
        assert chunked.entries == single.entries and chunked.summary == single.summary


def _calibration_entries(tmp_path, trials, name):
    argv = ["calibration", "--trials", str(trials), "--seed", "5", "--output", str(tmp_path / name)]
    assert cli.main(argv) == 0
    return json.loads((tmp_path / f"{name}.json").read_text())["entries"]


def test_calibration_entries_do_not_depend_on_the_chunk(tmp_path):
    # Trial 32 opens a partial chunk of one in the first run and a full chunk in the second.
    short = _calibration_entries(tmp_path, 33, "short")
    long = _calibration_entries(tmp_path, 64, "long")
    assert [json.dumps(e, sort_keys=True) for e in short] == [json.dumps(e, sort_keys=True) for e in long[:33]]


def _replacing_rows(monkeypatch, rows):
    """Patch the calibration sampler so that each trial in ``rows`` draws the row given for it."""
    real = cli._sample_even

    def sample(seed, trials, n, amplitude, degree=6):
        drawn = real(seed, trials, n, amplitude, degree)
        for row, trial in zip(drawn, trials):
            if trial in rows:
                row[:] = rows[trial]
        return drawn

    monkeypatch.setattr(cli, "_sample_even", sample)


def test_calibration_failure_names_its_trial(tmp_path, capsys, monkeypatch):
    _replacing_rows(monkeypatch, {40: sphere.HarmonicField.single_mode(3, 4, 0.5, degree=6).coeffs})
    argv = ["calibration", "--trials", "100", "--seed", "8", "--output", str(tmp_path / "c")]
    assert cli.main(argv) == 4
    assert "trial 40 (seed 8): calibration inequalities need a convex body" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3, 4])
def test_calibration_radius_gate_names_the_first_failing_trial(tmp_path, capsys, monkeypatch, n):
    # A row whose mean coefficient makes u = -2, so h = -r at every node, for trials 37 and 50 of one chunk.
    dent = np.zeros(sphere.basis_size(n, 6))
    dent[0] = -2.0 * math.sqrt(sphere.sphere_area(n))
    _replacing_rows(monkeypatch, {37: dent, 50: dent})
    calls = []
    real_map_trials = cli._map_trials
    monkeypatch.setattr(cli, "_map_trials", lambda *args: calls.append(args[1:]) or real_map_trials(*args))
    argv = ["calibration", "--n", str(n), "--r", "4", "--trials", "64", "--seed", "8", "--output", str(tmp_path / "c")]
    assert cli.main(argv) == 3
    assert "trial 37 (seed 8): boundary radius must stay positive at every node" in capsys.readouterr().err
    assert calls == [(64, 8, 32)]  # the chunk of trials 32..63 fell back to one trial at a time


def test_value_error_in_a_trial_names_its_trial(tmp_path, capsys):
    # The ball of radius 1e3 holds all the Gaussian volume in floating point, so no ball matches it.
    argv = ["calibration", "--trials", "2", "--r", "1e3", "--output", str(tmp_path / "c")]
    assert cli.main(argv) == 3
    assert "trial 0 (seed 42): target Gaussian volume must lie in (0, 1)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# batches split into parts on forked workers


@pytest.fixture
def parts(monkeypatch):
    """Set the number of CPUs a batch sees (a part may hold a single chunk), record the workers
    forked, and check after the test that none of them is left."""
    forked = []
    real_fork_part = cli._fork_part

    def fork_part(*args):
        pid, pipe = real_fork_part(*args)
        forked.append(pid)
        return pid, pipe

    def use(count):
        monkeypatch.setattr(cli, "_cpu_count", lambda: count)
        forked.clear()

    monkeypatch.setattr(cli, "_PART_CHUNKS", 1)
    monkeypatch.setattr(cli, "_fork_part", fork_part)
    use.forked = forked
    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report_text(tmp_path, argv):
    """Exit status and JSON text of a run, without its wall time."""
    rc = cli.main(argv + ["--output", str(tmp_path / "r")])
    text = (tmp_path / "r.json").read_text()
    return rc, "\n".join(line for line in text.splitlines() if '"wall_time_s"' not in line)


BATCHES = [
    ["verify2d", "--weight", "all", "--amplitude", "0.3", "--seed", "7"],
    ["bounds2d", "--weight", "all", "--amplitude", "0.3", "--seed", "5"],
    ["calibration", "--seed", "2"],
]


@pytest.mark.parametrize("trials", [1, 33, 300, 1000])
@pytest.mark.parametrize("argv", BATCHES, ids=lambda argv: argv[0])
def test_reports_do_not_depend_on_the_cpu_count(tmp_path, parts, argv, trials):
    argv = argv + ["--trials", str(trials)]
    parts(1)
    serial = _report_text(tmp_path, argv)
    assert parts.forked == []
    for count in (2, 3, 5):
        parts(count)
        assert _report_text(tmp_path, argv) == serial, count
        chunks = -(-trials // cli._CHUNK)
        assert len(parts.forked) == min(count, chunks) - 1 and None not in parts.forked


@pytest.mark.parametrize("argv", [BATCHES[0], BATCHES[2]], ids=lambda argv: argv[0])
def test_the_parent_encodes_only_its_own_part(tmp_path, monkeypatch, parts, argv):
    # 300 trials in 3 parts: the parent encodes the rows of trials 0..95; the workers' rows land in
    # their own copies.
    rows = []
    real_encode = cli._encode_columns

    def encode(*args):
        encoded = real_encode(*args)
        rows.extend(encoded)
        return encoded

    monkeypatch.setattr(cli, "_encode_columns", encode)
    monkeypatch.setattr(cli.RunReport, "entries", property(lambda report: pytest.fail("the report was decoded")))
    parts(3)
    assert cli.main(argv + ["--trials", "300", "--output", str(tmp_path / "r")]) == 0
    assert len(rows) == 96 and len(parts.forked) == 2


@pytest.mark.parametrize("argv", BATCHES, ids=lambda argv: argv[0])
def test_entries_of_a_forked_batch_are_those_of_its_report(tmp_path, parts, argv):
    parts(3)
    report = cli.run(cli.parse_config(argv + ["--trials", "300", "--output", str(tmp_path / "r")]))
    assert len(parts.forked) == 2
    assert _bit_equal(report.entries, json.loads((tmp_path / "r.json").read_text())["entries"])


def test_parts_are_whole_chunks_and_need_enough_of_them(monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 8)
    starts = []
    monkeypatch.setattr(cli, "_fork_part", lambda fn, start, stop, workers: starts.append((start, stop)) or (None, None))
    assert cli._map_chunks(lambda trials: list(trials), 1000) == list(range(1000))
    # 32 chunks of 32 trials (the last of 8), at least 4 to a part: 8 parts, the parent's first.
    assert starts == [(128 * i, min(128 * (i + 1), 1000)) for i in range(1, 8)]
    starts.clear()
    assert cli._map_chunks(lambda trials: list(trials), 127) == list(range(127))
    assert starts == []


def test_cpu_count_is_one_where_affinity_is_unknown(monkeypatch):
    assert cli._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._cpu_count() == 1


@pytest.mark.parametrize("count", [2, 3, 5])
@pytest.mark.parametrize("n", [3, 4])
def test_failing_trial_in_a_worker_part_is_named_by_the_parent(tmp_path, capsys, monkeypatch, parts, n, count):
    # As test_calibration_radius_gate_names_the_first_failing_trial: trials 37 and 50 fail, in the
    # second part at every count, and the parent reruns that part from its first chunk.
    parts(count)
    dent = np.zeros(sphere.basis_size(n, 6))
    dent[0] = -2.0 * math.sqrt(sphere.sphere_area(n))
    _replacing_rows(monkeypatch, {37: dent, 50: dent})
    calls = []
    real_map_trials = cli._map_trials
    monkeypatch.setattr(cli, "_map_trials", lambda *args: calls.append(args[1:]) or real_map_trials(*args))
    argv = ["calibration", "--n", str(n), "--r", "4", "--trials", "64", "--seed", "8", "--output", str(tmp_path / "c")]
    assert cli.main(argv) == 3
    assert "trial 37 (seed 8): boundary radius must stay positive at every node" in capsys.readouterr().err
    assert calls == [(64, 8, 32)] and len(parts.forked) == 1


@pytest.mark.parametrize("count", [2, 5])
def test_numerical_failure_in_a_worker_part_is_named_by_the_parent(tmp_path, capsys, monkeypatch, parts, count):
    parts(count)
    _replacing_rows(monkeypatch, {40: sphere.HarmonicField.single_mode(3, 4, 0.5, degree=6).coeffs})
    argv = ["calibration", "--trials", "100", "--seed", "8", "--output", str(tmp_path / "c")]
    assert cli.main(argv) == 4
    assert "trial 40 (seed 8): calibration inequalities need a convex body" in capsys.readouterr().err
    assert len(parts.forked) == min(count, 4) - 1


def _in_workers(monkeypatch, action):
    """Make the planar sampler call ``action()`` in a forked worker on the chunk of trial 150."""
    parent = os.getpid()
    real = cli._sample_polar

    def sample(seed, amplitude, trials, *args):
        if 150 in trials and os.getpid() != parent:
            action()
        return real(seed, amplitude, trials, *args)

    monkeypatch.setattr(cli, "_sample_polar", sample)


def _worker_writes_garbage(fn, start, stop, fd):
    with os.fdopen(fd, "wb") as fh:
        fh.write(b"\x80\x05not a pickle")


def _no_fork():
    raise OSError("no process to spare")


# 300 trials in 3 parts: trials 0..95 in the parent, 96..191 and 192..299 in two workers.
FAULTS = {
    "exit": lambda monkeypatch: _in_workers(monkeypatch, lambda: os._exit(1)),
    "error": lambda monkeypatch: _in_workers(monkeypatch, lambda: 1 / 0),
    "garbage": lambda monkeypatch: monkeypatch.setattr(cli, "_work", _worker_writes_garbage),
    "no-fork": lambda monkeypatch: monkeypatch.setattr(os, "fork", _no_fork),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_worker_faults_leave_the_serial_report(tmp_path, capsys, monkeypatch, parts, fault):
    argv = ["bounds2d", "--weight", "all", "--amplitude", "0.3", "--trials", "300", "--seed", "5"]
    parts(1)
    serial = _report_text(tmp_path, argv)
    capsys.readouterr()
    parts(3)
    FAULTS[fault](monkeypatch)
    assert _report_text(tmp_path, argv) == serial
    assert capsys.readouterr().err == ""
    assert len(parts.forked) == 2


def test_a_warning_in_a_worker_part_is_the_parents(tmp_path, monkeypatch, parts):
    # The chunk of trial 150 warns in every process: a worker stops there, and the parent warns once.
    real = cli._sample_polar

    def sample(seed, amplitude, trials, *args):
        if 150 in trials:
            warnings.warn("synthetic warning", UserWarning)
        return real(seed, amplitude, trials, *args)

    monkeypatch.setattr(cli, "_sample_polar", sample)
    argv = ["verify2d", "--weight", "all", "--trials", "300", "--seed", "5"]
    runs = []
    for count in (1, 3):
        parts(count)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append((_report_text(tmp_path, argv), [(str(w.message), w.category, w.lineno) for w in caught]))
    assert runs[0] == runs[1] and len(runs[0][1]) == 1


def test_workers_are_killed_when_the_parent_part_raises(tmp_path, monkeypatch, parts):
    parent = os.getpid()
    real = cli._sample_polar

    def sample(seed, amplitude, trials, *args):
        if os.getpid() != parent:
            time.sleep(60)  # workers still busy when the parent gives up
        elif 0 in trials:
            raise KeyboardInterrupt
        return real(seed, amplitude, trials, *args)

    monkeypatch.setattr(cli, "_sample_polar", sample)
    parts(3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify2d", "--trials", "300", "--output", str(tmp_path / "v")])
    assert time.perf_counter() - start < 30 and len(parts.forked) == 2


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_restores_the_collector(tmp_path, monkeypatch, enabled):
    from gausscurv.errors import QuadratureError

    frozen_inside = []

    def boom(cfg):
        frozen_inside.append(gc.get_freeze_count())
        raise QuadratureError("synthetic blow-up")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert gc.get_freeze_count() == 0
        cli.run(cli.parse_config(["moments", "--n", "2", "--r", "1", "--output", str(tmp_path / "m")]))
        assert gc.get_freeze_count() == 0 and gc.isenabled() is enabled
        monkeypatch.setattr(cli, "_RUNNERS", dict(cli._RUNNERS, moments=boom))
        with pytest.raises(QuadratureError):
            cli.run(cli.parse_config(["moments", "--output", str(tmp_path / "x")]))
        assert gc.get_freeze_count() == 0 and gc.isenabled() is enabled
        assert frozen_inside[0] > 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_stability_command(tmp_path):
    cfg = cli.parse_config(
        ["stability2d", "--h-min", "4", "--h-max", "16", "--output", str(tmp_path / "st")]
    )
    report = cli.run(cfg)
    assert report.all_passed
    assert {e["family"] for e in report.entries} == {"ellipse", "fourier-bump"}
    # The per-family h and ratios live in the JSON entries; no CSV is written.
    assert not (tmp_path / "st.csv").exists()


def test_stability_command_honours_radius(tmp_path):
    families = cli._stability_families(list(range(4, 65)), 2.0)
    for family in families.values():
        assert family[-1].max_radius == pytest.approx(2.0, abs=0.05)
    cfg = cli.parse_config(["stability2d", "--r", "2", "--output", str(tmp_path / "st")])
    report = cli.run(cfg)
    for entry in report.entries:
        tail = entry["ratios"][len(entry["ratios"]) // 2 :]
        assert min(tail) > 0.0 and max(tail) <= 10.0 * min(tail)
    assert report.all_passed


@pytest.mark.parametrize("h_min, bumps", [(4, [4]), (2, [2, 3, 4])])
def test_stability_report_names_nonconvex_members(tmp_path, h_min, bumps):
    cfg = cli.parse_config(
        ["stability2d", "--h-min", str(h_min), "--h-max", "16", "--output", str(tmp_path / "st")]
    )
    nonconvex = {e["family"]: e["nonconvex_h"] for e in cli.run(cfg).entries}
    assert nonconvex == {"ellipse": [], "fourier-bump": bumps}


@pytest.mark.parametrize("bounds", [["--h-min", "1"], ["--h-min", "0"], ["--h-min", "8", "--h-max", "8"]])
def test_stability_h_range_is_configuration_error(tmp_path, capsys, bounds):
    # The h = 1 bump r(1 + cos 2 theta) touches the origin, so the range starts at 2.
    assert cli.main(["stability2d", *bounds, "--output", str(tmp_path / "st")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gausscurv: configuration error: need 2 <= h-min < h-max")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "st.json").exists()


def test_stability_h_max_bound_is_configuration_error(tmp_path, capsys):
    # Every member's grids are held at once, so the range is capped before memory runs out.
    assert cli.main(["stability2d", "--h-max", str(cli.H_MAX + 1), "--output", str(tmp_path / "st")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"gausscurv: configuration error: h-max must be at most {cli.H_MAX}")
    assert "memory" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "st.json").exists()


def test_counterexample_points_bound_is_configuration_error(tmp_path, capsys, monkeypatch):
    # Each point is evaluated in turn.  A run at the bound takes about 16 s, so there the runner records
    # the points it was handed; one point more never reaches it.
    handed = []

    def record(config):
        handed.append(config.points)
        return cli._encode_columns({"passed": [True]}, [0.0]), {}, None

    monkeypatch.setattr(cli, "_RUNNERS", dict(cli._RUNNERS, counterexample=record))
    out = tmp_path / "ce"
    assert cli.main(["counterexample", "--points", str(cli.POINTS_MAX), "--output", str(out)]) == 0
    assert handed == [cli.POINTS_MAX] and (tmp_path / "ce.json").exists()
    capsys.readouterr()
    out = tmp_path / "ce-over"
    assert cli.main(["counterexample", "--points", str(cli.POINTS_MAX + 1), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"gausscurv: configuration error: points must be in 1..{cli.POINTS_MAX}")
    assert len(err.strip().splitlines()) == 1
    assert handed == [cli.POINTS_MAX] and not (tmp_path / "ce-over.json").exists()


def test_stability_underflowing_weight_is_numerical_failure(tmp_path, capsys):
    assert cli.main(["stability2d", "--r", "50", "--output", str(tmp_path / "st")]) == 4
    assert "Traceback" not in capsys.readouterr().err


def test_second_variation_command(tmp_path):
    cfg = cli.parse_config(
        ["second-variation", "--n", "3", "--r", "1", "--k", "2", "--output", str(tmp_path / "sv")]
    )
    report = cli.run(cfg)
    assert report.all_passed
    assert report.entries[0]["relative_error"] < 0.05


@pytest.mark.parametrize("n", [6, 7, 8])
def test_second_variation_command_high_dimensions(tmp_path, n):
    assert cli.main(["second-variation", "--n", str(n), "--output", str(tmp_path / "sv")]) == 0


def test_unwritable_output_is_configuration_error(tmp_path, capsys):
    rc = cli.main(["moments", "--output", str(tmp_path / "missing" / "x")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--r", "10"],
        ["counterexample", "--r", "0.1", "--cap-height", "0.001"],
        ["second-variation", "--n", "3", "--k", "80"],
        ["calibration", "--n", "6", "--r", "80", "--trials", "1"],
    ],
)
def test_flags_outside_library_domain_are_configuration_errors(tmp_path, capsys, argv):
    # Each value passes validation but leaves the domain of a library function.
    assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"gausscurv: configuration error: {argv[0]}: ")
    assert len(err.strip().splitlines()) == 1


def test_counterexample_at_an_overflowing_radius_is_one_error_line(tmp_path, capsys):
    # r^2 overflows in the ball's volume, which is then exactly 1: no cylinder matches it, and no
    # RuntimeWarning comes before the error.
    assert cli.main(["counterexample", "--r", "1e300", "--output", str(tmp_path / "ce")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gausscurv: configuration error: counterexample: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--r", "nan"],
        ["verify2d", "--slack", "nan"],
        ["calibration", "--r", "inf"],
        ["counterexample", "--r", "nan"],
        ["counterexample", "--cap-height", "nan"],
    ],
)
def test_non_finite_flags_are_configuration_errors(tmp_path, capsys, argv):
    assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gausscurv: configuration error: ")
    assert "must be finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--r", "-1e-3"],
        ["moments", "--r", "-inf"],
        ["moments", "--r", "-1"],
        ["moments", "--r=-1e-3"],
        ["verify2d", "--slack", "-1e-9"],
        ["verify2d", "--sla", "-1e-9"],
    ],
)
def test_negative_flags_are_configuration_errors_however_written(tmp_path, capsys, argv):
    # argparse alone reads "-1e-3" and "-inf" as flags, a usage error (exit 2).
    assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gausscurv: configuration error: ")
    assert len(err.strip().splitlines()) == 1


def test_negative_value_in_config_file_is_configuration_error(tmp_path, capsys):
    path = tmp_path / "neg.cfg"
    path.write_text(f"command = moments\nr = -1e-3\noutput = {tmp_path / 'x'}\n")
    assert cli.main(["--config", str(path)]) == 3
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["second-variation", "--k", "18"],
        ["second-variation", "--n", "4", "--k", "64"],
        ["second-variation", "--k", "66"],
        ["threshold-scan", "--k", "70"],
    ],
)
def test_mode_above_quadrature_limit_is_configuration_error(tmp_path, capsys, argv):
    # Mode k needs sphere quadratures of degree 4k, which stop at sphere.MAX_DEGREE.
    assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert f"mode must be even and in 2..{sphere.MAX_DEGREE // 4}" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("n", range(3, 9))
def test_largest_mode_runs_in_every_dimension(tmp_path, n):
    k = str(sphere.MAX_DEGREE // 4)
    assert cli.main(["second-variation", "--n", str(n), "--k", k, "--output", str(tmp_path / "sv")]) == 0


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _either_sign(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


# Flags that bound the run time are always given; the rest may be left at their defaults.
_BOUNDED_FLAGS = {
    "--trials": st.integers(1, 3),
    "--points": st.integers(1, 5),
    "--h-max": st.integers(5, 30),
}
_FREE_FLAGS = {
    "--n": st.integers(1, 9),
    "--r": _either_sign(1e-3, 100.0) | _NON_FINITE,
    "--k": st.sampled_from([1, 2, 3, 4, 8, 40, 80]),
    "--epsilon": st.floats(1e-4, 2e-2),
    "--amplitude": st.floats(1e-3, 0.35),
    "--weight": st.sampled_from(cli.WEIGHT_PRESETS + ("all",)),
    "--cap-height": _either_sign(1e-3, 100.0) | _NON_FINITE,
    "--slack": _either_sign(1e-12, 1e-2) | _NON_FINITE,
    "--r-min": st.floats(1e-3, 0.3),
    "--r-max": st.floats(0.2, 1.0),
}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(cli.COMMANDS),
    flags=st.fixed_dictionaries(_BOUNDED_FLAGS, optional=_FREE_FLAGS),
)
def test_random_configs_exit_cleanly(tmp_path, capsys, command, flags):
    argv = [command, "--output", str(tmp_path / "fuzz")]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    assert cli.main(argv) in (0, 1, 3, 4)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) <= 1


def test_weight_presets_admissible():
    for name in cli.WEIGHT_PRESETS:
        wp = cli.weight_preset(name)
        r = np.array([0.5, 1.0, 2.0])
        assert np.all(wp.f(r) > 0.0)
        assert np.all(wp.df(r) <= 0.0)
    with pytest.raises(ConfigError):
        cli.weight_preset("lorentzian")


def test_benchmark_traced_names_resolve(monkeypatch):
    # The benchmark's span tracer looks up every traced name with getattr.
    path = Path(__file__).resolve().parents[1] / "bench" / "design.py"
    spec = importlib.util.spec_from_file_location("bench_design", path)
    design = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, design)
    spec.loader.exec_module(design)
    assert design.TRACED
    for qual in design.TRACED:
        module, attr = qual.split(".")
        assert callable(getattr(importlib.import_module(f"gausscurv.{module}"), attr, None)), qual


# ---------------------------------------------------------------------------
# import footprint


_IMPORT_FOOTPRINT = """
import json, sys
from gausscurv import cli
loaded = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps({"at_import": sorted(loaded), "at_run": sorted(set(sys.modules) - loaded)}))
"""


def test_cli_loads_no_scipy(tmp_path):
    # A fresh interpreter: the test session itself has loaded scipy, its oracles' library.
    argvs = [
        ["threshold-scan", "--n", "3", "--k", "2", "--output", str(tmp_path / "ts")],
        ["calibration", "--n", "3", "--trials", "4", "--output", str(tmp_path / "cal")],
        ["stability2d", "--h-max", "8", "--output", str(tmp_path / "st")],
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {"PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_FOOTPRINT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    modules = json.loads(out.splitlines()[-1])
    assert [m for m in modules["at_import"] if m == "scipy" or m.startswith("scipy.")] == []
    assert modules["at_run"] == []
