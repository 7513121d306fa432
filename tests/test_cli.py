import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import misti
from misti.cli import COMMANDS, RunConfig, _fmt, _write_rows, build_parser, main, parse_config_lines


def run(args):
    return main(list(args))


def test_simulate_writes_requested_rows(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(
        [
            "simulate", "--process", "branching-nb", "--alpha", "2", "--p", "0.5",
            "--rho", "0.5", "--steps", "1000", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 1001
    t, x = lines[1].split(",")
    assert t == "0" and int(x) >= 0


def test_simulate_deterministic_under_seed(tmp_path):
    args = [
        "simulate", "--process", "thinning", "--law", "nb", "--theta", "1",
        "--p", "0.5", "--rho", "0.5", "--steps", "200", "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_zero_steps_is_config_error(tmp_path, capsys):
    # simulate_chain refuses the empty path; the CLI writes nothing first
    out = tmp_path / "x.csv"
    code = run(
        [
            "simulate", "--process", "branching-poisson", "--theta", "1",
            "--rho", "0.5", "--steps", "0", "--out", str(out),
        ]
    )
    assert code == 2
    assert "at least one step" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_missing_parameter_is_config_error(tmp_path):
    code = run(
        ["simulate", "--process", "branching-nb", "--alpha", "2", "--steps", "5",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "process, params, flag, value",
    [
        ("branching-nb", ["--alpha", "2", "--p", "0.5", "--rho", "0.5", "--steps", "5"], "x0", "3"),
        ("iid", ["--law", "poisson", "--theta", "1", "--steps", "5"], "horizon", "10"),
        ("random-measure", ["--law", "poisson", "--theta", "1", "--rho", "0.5"], "horizon", "10"),
        ("ct-poisson-bd", ["--theta", "1", "--lambda", "1", "--horizon", "5"], "steps", "5"),
        ("ct-nb-bd", ["--alpha", "1", "--p", "0.5", "--lambda", "1", "--horizon", "5"], "times", "0,1"),
        ("ct-nb-bd", ["--alpha", "1", "--p", "0.5", "--lambda", "1", "--horizon", "5"], "t0", "3"),
        ("iid", ["--law", "poisson", "--theta", "1", "--steps", "5"], "times", "5,9"),
        ("thinning", ["--law", "poisson", "--theta", "1", "--rho", "0.5", "--steps", "5"], "times", "5,9"),
        # settings of another family, or of a law the process was not given
        ("branching-nb", ["--alpha", "2", "--p", ".5", "--rho", ".5", "--steps", "3"], "theta", "9"),
        ("branching-nb", ["--alpha", "2", "--p", ".5", "--rho", ".5", "--steps", "3"], "law", "nb"),
        ("branching-nb", ["--alpha", "2", "--p", ".5", "--rho", ".5", "--steps", "3"], "lambda", "4"),
        ("branching-poisson", ["--theta", "1", "--rho", "0.5", "--steps", "5"], "alpha", "2"),
        ("thinning", ["--law", "poisson", "--theta", "1", "--rho", "0.5", "--steps", "5"], "p", "0.5"),
        ("iid", ["--law", "nb", "--theta", "1", "--p", "0.5", "--steps", "5"], "rho", "0.5"),
        ("ct-poisson-bd", ["--theta", "1", "--lambda", "1", "--horizon", "5"], "p", "0.5"),
        ("ct-nb-bd", ["--alpha", "1", "--p", "0.5", "--lambda", "1", "--horizon", "5"], "rho", "0.5"),
        # explicit times replace the ticks
        ("random-measure", ["--law", "poisson", "--theta", "1", "--rho", ".5", "--times", "4,7"], "steps", "9"),
        ("random-measure", ["--law", "poisson", "--theta", "1", "--rho", ".5", "--times", "4,7"], "t0", "100"),
    ],
)
def test_simulate_rejects_settings_it_would_ignore(tmp_path, capsys, process, params, flag, value):
    out = tmp_path / "x.csv"
    argv = ["simulate", "--process", process, *params, f"--{flag}", value, "--out", str(out)]
    assert run(argv) == 2
    want = f"--{flag} does not apply to --process {process}"
    assert want in capsys.readouterr().err
    assert not out.exists()
    # from a config file too
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{'lam' if flag == 'lambda' else flag} = {value}\n")
    assert run([*argv[:-4], "--config", str(cfg_path), "--out", str(out)]) == 2
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_simulate_accepts_the_default_t0_and_a_ct_start(tmp_path):
    out = tmp_path / "x.csv"
    ct = ["simulate", "--process", "ct-poisson-bd", "--theta", "1", "--lambda", "1", "--horizon", "5"]
    assert run([*ct, "--t0", "0", "--x0", "4", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,4"


def test_simulate_continuous_time_change_points(tmp_path):
    out = tmp_path / "path.csv"
    code = run(
        [
            "simulate", "--process", "ct-nb-bd", "--alpha", "1", "--p", "0.5",
            "--lambda", "0.7", "--horizon", "50", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,state"
    times = [float(l.split(",")[0]) for l in lines[1:]]
    states = [int(l.split(",")[1]) for l in lines[1:]]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(abs(a - b) == 1 for a, b in zip(states, states[1:]))


@pytest.mark.parametrize(
    "process, params, mean, sd",
    [
        ("ct-poisson-bd", ["--theta", "400"], 400.0, 20.0),
        ("ct-nb-bd", ["--alpha", "400", "--p", "0.5"], 400.0, 800.0**0.5),
    ],
)
def test_simulate_continuous_time_start_is_stationary(tmp_path, process, params, mean, sd):
    # the default start is a draw from the stationary law, which has most of
    # its mass above 200 here; no fixed lattice bound may cut it
    for seed in range(5):
        out = tmp_path / f"path{seed}.csv"
        argv = ["simulate", "--process", process, *params, "--lambda", "1",
                "--horizon", "0.001", "--seed", str(seed), "--out", str(out)]
        assert run(argv) == 0
        first = int(out.read_text().splitlines()[1].split(",")[1])
        assert abs(first - mean) <= 5 * sd


def test_simulate_random_measure_times(tmp_path):
    out = tmp_path / "rm.csv"
    code = run(
        [
            "simulate", "--process", "random-measure", "--law", "poisson",
            "--theta", "1", "--rho", "0.5", "--times", "0,2,5", "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "2", "5"]


def test_simulate_random_measure_10000_steps_in_seconds(tmp_path):
    # NB(2, 1/2) marginal: mean 2, variance 4; autocorrelation rho^|h|
    out = tmp_path / "rm.csv"
    start = time.perf_counter()
    code = run(
        [
            "simulate", "--process", "random-measure", "--law", "nb", "--theta", "2",
            "--p", "0.5", "--rho", "0.6", "--steps", "10000", "--seed", "5",
            "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x" and len(lines) == 10001
    x = np.array([int(line.split(",")[1]) for line in lines[1:]], dtype=float)
    n, rho = x.size, 0.6
    centred = x - x.mean()
    r1 = float(centred[:-1] @ centred[1:]) / float(centred @ centred)
    # the benchmark's path gate: 5 standard errors, twice Bartlett's for r1
    assert abs(x.mean() - 2.0) <= 5 * math.sqrt(4.0 / n * (1 + rho) / (1 - rho))
    assert abs(r1 - rho) <= 5 * 2 * math.sqrt((1 - rho**2) / n)


def test_simulate_random_measure_at_a_large_t0_shifts_only_the_times(tmp_path):
    # the law and the draw stream depend on the lags only, so the states at
    # t0 = 10**16 (where float64 cannot tell t from t + 1) equal those at t0 = 0
    rows = {}
    for t0 in (0, 10**16):
        out = tmp_path / f"rm{t0}.csv"
        code = run(
            [
                "simulate", "--process", "random-measure", "--law", "nb", "--theta", "2",
                "--p", "0.5", "--rho", "0.6", "--steps", "2000", "--t0", str(t0),
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        rows[t0] = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [t for t, _ in rows[10**16]] == [str(10**16 + k) for k in range(2000)]
    assert [x for _, x in rows[10**16]] == [x for _, x in rows[0]]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_write_rows_matches_the_row_by_row_writer(tmp_path, monkeypatch, fmt):
    # int, str and float columns in chunks of 7 rows, so 20 rows end on a
    # short chunk; reference: one _fmt-formatted line (or JSON object) per row
    monkeypatch.setattr(misti.cli, "_ROW_CHUNK", 7)
    floats = [0.1, 1e-300, 5e-324, 2.0**53, float("nan"), float("inf"), -0.0, 1 / 3]
    header = ("k", "label", "value")
    for n in (0, 1, 7, 20):
        columns = (
            np.arange(n) * 10**12 - 3,
            np.array([f"s{i}%" for i in range(n)], dtype=str),
            np.resize(np.array(floats), n),
        )
        out = tmp_path / f"rows{n}.{fmt}"
        _write_rows(RunConfig(command="simulate", out=str(out), format=fmt), header, columns)
        rows = list(zip(*(column.tolist() for column in columns)))
        if fmt == "csv":
            want = "k,label,value\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
        else:
            want = "".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows)
        assert out.read_text() == want


# sha256 prefixes of stdout, recorded with the row-by-row CSV writer that
# formatted each cell with _fmt; a change to a sampler's random stream, or to
# the order of the sums of a table, must re-record its rows
STDOUT_DIGESTS = {
    "simulate --process thinning --law nb --theta 1 --p 0.5 --rho 0.5 --seed 11": "d389927423062268",
    "simulate --process thinning --law nb --theta 1 --p 0.5 --rho 0.5 --seed 12": "650de5912123852d",
    "simulate --process random-measure --law nb --theta 2 --p 0.5 --rho 0.6 --seed 11": "18f8b48be1dff6d8",
    "simulate --process random-measure --law nb --theta 2 --p 0.5 --rho 0.6 --seed 12": "892fad93543475c9",
    "simulate --process branching-poisson --theta 2 --rho 0.5 --seed 11": "7292b0db5d4cf037",
    "simulate --process branching-poisson --theta 2 --rho 0.5 --seed 12": "d8cb2c90a8d6253a",
    "simulate --process branching-nb --alpha 2 --p 0.5 --rho 0.6 --seed 11": "02cb0d78c74a699d",
    "simulate --process branching-nb --alpha 2 --p 0.5 --rho 0.6 --seed 12": "a3fd6bf6c19332d3",
    "simulate --process iid --law poisson --theta 2 --seed 11": "14111641238b7870",
    "simulate --process iid --law poisson --theta 2 --seed 12": "b79e2797417135b7",
    "simulate --process constant --law nb --theta 1 --p 0.5 --seed 11": "db566f84fc877b99",
    "simulate --process constant --law nb --theta 1 --p 0.5 --seed 12": "901d6bc9ff2519c5",
    "table --theta-grid 0.5,1,2 --p-grid 0.3,0.5,0.7 --rho-grid 0.2,0.5,0.8": "8c510e909a788e71",
    "table --format jsonl": "13706617f161a220",
    "classify --r0 0.5 --r1 0.4 --r2 0.08 --theta1 0.4": "a2dba65d640a230c",
    "classify --r0 0.5 --r1 0.4 --r2 0.08 --theta1 0.4 --format csv": "2b22b2c62dc092c3",
    "classify --r0 0.3 --r1 0.7 --r2 0 --theta1 1.1": "fb14d5c1b2e360bb",
    "classify --r0 0 --r1 1 --r2 0 --theta1 1.5": "125317d4cd9919da",
    "classify --r0 1 --r1 0 --r2 0 --theta1 1.5": "1c27b47d19719cd8",
    "verify --suite theorem2": "e5848dc1cf0acd08",
    "verify --suite theorem2 --format csv": "d9b08691060714e3",
    "verify --suite theorem3": "109228f4ba0b31a4",
    "verify --suite theorem3 --format csv": "d07ba95b51939bdf",
    "verify --suite poisson-coincidence": "2741bb0d78740c68",
    "verify --suite poisson-coincidence --format csv": "9cb70185a38a8d1a",
}


@pytest.mark.parametrize("argv", STDOUT_DIGESTS)
def test_stdout_bytes_are_unchanged(capsys, argv):
    steps = ["--steps", "2000"] if argv.startswith("simulate") else []
    assert run([*argv.split(), *steps]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest[:16] == STDOUT_DIGESTS[argv]


# the same for the runs that take no --steps: event paths up to a horizon,
# and the random measure at explicit times
UNSTEPPED_DIGESTS = {
    "simulate --process ct-nb-bd --alpha 1 --p 0.5 --lambda 0.7 --horizon 50 --seed 3": "6f3a8fe246249713",
    "simulate --process ct-poisson-bd --theta 2 --lambda 0.7 --horizon 50 --seed 3": "a4f8dd923ee42754",
    "simulate --process random-measure --law poisson --theta 1 --rho 0.5 --times 0,2,5 --seed 9": "343b10e479ffc178",
    "simulate --process random-measure --law nb --theta 2 --p 0.5 --rho 0.6 --times 0,2,5 --seed 9": "3a0afbf769c31fec",
}


@pytest.mark.parametrize("argv", UNSTEPPED_DIGESTS)
def test_unstepped_stdout_bytes_are_unchanged(capsys, argv):
    assert run(argv.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest[:16] == UNSTEPPED_DIGESTS[argv]


def test_table_grid_point(tmp_path):
    out = tmp_path / "table.csv"
    code = run(
        ["table", "--theta-grid", "1", "--p-grid", "0.5", "--rho-grid", "0.5",
         "--out", str(out)]
    )
    assert code == 0
    header, row = out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["thinning_closed"]) == pytest.approx(0.0703125, abs=1e-12)
    assert float(cols["rm_closed"]) == pytest.approx(0.078125, abs=1e-12)
    assert float(cols["thinning_dev"]) < 1e-9
    assert float(cols["rm_dev"]) < 1e-9


def test_table_small_rho_approaches_independence(tmp_path):
    # at rho -> 0 both conditional probabilities reduce to P[X=0]^2 = p^(2 theta)
    out = tmp_path / "table.csv"
    assert run(
        ["table", "--theta-grid", "1", "--p-grid", "0.5", "--rho-grid", "1e-9",
         "--out", str(out)]
    ) == 0
    row = out.read_text().splitlines()[1].split(",")
    want = 0.5**2
    assert float(row[3]) == pytest.approx(want, abs=1e-6)
    assert float(row[6]) == pytest.approx(want, abs=1e-6)


def test_table_joint_small_limit_is_one(tmp_path):
    # with both theta -> 0 and rho -> 0 the conditional probabilities approach 1
    out = tmp_path / "table.csv"
    assert run(
        ["table", "--theta-grid", "1e-8", "--p-grid", "0.5", "--rho-grid", "1e-8",
         "--out", str(out)]
    ) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1.0, abs=1e-6)
    assert float(row[6]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("suite", ["theorem2", "theorem3", "poisson-coincidence"])
def test_verify_suites_match_expected_polarity(tmp_path, suite):
    out = tmp_path / "reports.jsonl"
    code = run(
        ["verify", "--suite", suite, "--theta", "1", "--p", "0.5", "--rho", "0.5",
         "--out", str(out)]
    )
    assert code == 0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert reports and all(r["matched"] for r in reports)
    if suite == "theorem2":
        byname = {r["name"]: r for r in reports}
        assert byname["mvid-thinning-nb"]["pass"] is False
        assert byname["mvid-branching-nb"]["pass"] is True
    if suite == "theorem3":
        byname = {r["name"]: r for r in reports}
        assert byname["markov-rm-nb"]["pass"] is False
        assert byname["markov-rm-poisson"]["pass"] is True


SUITE_ROWS = {
    "theorem2": [("mvid-thinning-nb", False), ("mvid-branching-nb", True), ("mvid-branching-poisson", True)],
    "theorem3": [("markov-rm-nb", False), ("markov-rm-poisson", True), ("markov-thinning-nb", True)],
    "poisson-coincidence": [
        ("tables-coincide-poisson", True),
        ("markov-rm-poisson", True),
        ("mvid-rm-poisson", True),
    ],
}


@pytest.mark.parametrize("suite", list(SUITE_ROWS))
def test_verify_suite_rows(tmp_path, suite):
    assert tuple(misti.cli.SUITES) == tuple(SUITE_ROWS)
    out = tmp_path / "reports.csv"
    assert run(["verify", "--suite", suite, "--format", "csv", "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["name", "violation", "witness", "tolerance", "pass", "expected_pass", "matched"]
    assert [(row[0], row[5] == "True") for row in rows] == SUITE_ROWS[suite]


def test_verify_theorem2_at_degree_12(tmp_path):
    out = tmp_path / "reports.jsonl"
    code = run(["verify", "--suite", "theorem2", "--k", "16", "--degree", "12", "--out", str(out)])
    assert code == 0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(reports) == 3 and all(r["matched"] for r in reports)
    # in every suite the passing checks name no witness and the failing ones do
    for suite in ("theorem3", "poisson-coincidence"):
        assert run(["verify", "--suite", suite, "--k", "16", "--degree", "12", "--out", str(out)]) == 0
        reports += [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["witness"] is None for r in reports] == [r["pass"] for r in reports]


def test_verify_degree_above_lattice_bound_is_config_error(capsys):
    # every suite refuses log-pgf coefficients that depend on missing entries
    for suite in ("theorem2", "poisson-coincidence"):
        assert run(["verify", "--suite", suite, "--k", "6", "--degree", "9"]) == 2
        assert "degree bound 9 exceeds lattice bound 6" in capsys.readouterr().err


def test_verify_polarity_mismatch_exits_one(tmp_path):
    # a nearly-degenerate thinning chain has no detectable divisibility
    # violation, so the expected-failure check lands on the wrong side
    out = tmp_path / "reports.jsonl"
    code = run(["verify", "--suite", "theorem2", "--theta", "1e-9", "--out", str(out)])
    assert code == 1
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    byname = {r["name"]: r for r in reports}
    assert byname["mvid-thinning-nb"]["pass"] is True
    assert byname["mvid-thinning-nb"]["matched"] is False


def test_verify_csv_format(tmp_path):
    out = tmp_path / "reports.csv"
    code = run(["verify", "--suite", "poisson-coincidence", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,violation,witness")
    assert len(lines) == 4


def test_classify_output(tmp_path):
    out = tmp_path / "family.json"
    code = run(
        ["classify", "--r0", "0.5", "--r1", "0.4", "--r2", "0.08", "--theta1", "0.4",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["family"] == "branching-nb"
    assert payload["alpha"] == pytest.approx(1.0)
    assert payload["rho"] == pytest.approx(0.625)


def test_classify_csv_format(tmp_path):
    out = tmp_path / "family.csv"
    code = run(
        ["classify", "--r0", "0.6", "--r1", "0.4", "--r2", "0", "--theta1", "1.5",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines == ["family,theta,rho", "branching-poisson,1.5,0.40000000000000002"]


def test_classify_infeasible_is_config_error():
    assert run(["classify", "--r0", "0.5", "--r1", "0.25", "--r2", "0.125", "--theta1", "1"]) == 2



def test_classify_nan_is_config_error():
    assert run(["classify", "--r0", "nan", "--r1", "0.5", "--r2", "0", "--theta1", "1"]) == 2


def test_classify_at_r0_one_is_config_error(capsys):
    # q = (1 - r0 - r1) / (r0 (1 - r0)) would divide by zero here
    assert run(["classify", "--r0", "1", "--r1", "1e-12", "--r2", "0.5", "--theta1", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["1000", "1e300"])
def test_table_refuses_rho_past_one_before_its_closed_form(capsys, rho):
    # p ** (theta (1 - rho)) overflows at such rho; the spec refuses it first
    assert run(["table", "--rho-grid", rho]) == 2
    assert "rho must lie strictly in (0,1)" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# experiment record\n"
        "process = branching-nb\n"
        "alpha = 2\n"
        "p = 0.5\n"
        "rho = 0.5\n"
        "steps = 50\n"
        "seed = 7\n"
    )
    dumped = tmp_path / "resolved.cfg"
    out = tmp_path / "t.csv"
    code = run(
        ["simulate", "--config", str(cfg_path), "--seed", "9", "--out", str(out),
         "--dump-config", str(dumped)]
    )
    assert code == 0
    resolved = RunConfig(**parse_config_lines(dumped.read_text()))
    # CLI flags overrode the file; the dump reparses to the identical config
    assert resolved == RunConfig(
        command="simulate", process="branching-nb", alpha=2.0, p=0.5, rho=0.5,
        steps=50, seed=9, out=str(out),
    )
    assert RunConfig(**parse_config_lines(resolved.dump())) == resolved


def test_config_cli_flags_override_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("process = branching-poisson\ntheta = 1\nrho = 0.5\nsteps = 10\nseed = 3\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert run(["simulate", "--config", str(cfg_path), "--steps", "20", "--out", str(b)]) == 0
    assert len(a.read_text().splitlines()) == 11
    assert len(b.read_text().splitlines()) == 21


def test_config_supplies_verify_suite(tmp_path):
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text("suite = poisson-coincidence\nformat = csv\n")
    out = tmp_path / "reports.csv"
    assert run(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,violation,witness")
    assert len(lines) == 4


def test_config_supplies_classify_inputs(tmp_path):
    cfg_path = tmp_path / "classify.cfg"
    cfg_path.write_text("r0 = 0.5\nr1 = 0.4\nr2 = 0.08\ntheta1 = 0.4\n")
    out = tmp_path / "family.json"
    assert run(["classify", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["family"] == "branching-nb"
    assert payload["alpha"] == pytest.approx(1.0)
    assert payload["rho"] == pytest.approx(0.625)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate", "--steps", "5"], "process"),
        (["verify", "--theta", "1"], "suite"),
        (["classify", "--r0", "0.5", "--r1", "0.4", "--r2", "0.08"], "theta1"),
    ],
    ids=["simulate", "verify", "classify"],
)
def test_missing_required_setting_is_config_error(argv, name, capsys):
    assert run(argv) == 2
    assert f"--{name} is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, name",
    [
        ("simulate", "process = brownian\nsteps = 5\n", "process"),
        ("verify", "suite = theorem9\n", "suite"),
        ("simulate", "process = iid\nlaw = gamma\ntheta = 1\nsteps = 5\n", "law"),
        ("table", "format = xml\n", "format"),
    ],
    ids=["process", "suite", "law", "format"],
)
def test_config_value_outside_choices_rejected(tmp_path, capsys, command, text, name):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out.txt"
    assert run([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"--{name} must be one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("# a comment\nprocess thinning\n", "config line 2 is not `key = value`: 'process thinning'"),
        ("proces = thinning\n", "unknown config key 'proces' on line 1"),
    ],
    ids=["no-equals-sign", "unknown-key"],
)
def test_config_lines_that_are_not_settings_are_refused(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config_lines(text)


@pytest.mark.parametrize(
    "argv, key, value, expected",
    [
        (
            ["simulate", "--process", "random-measure", "--law", "poisson", "--theta", "1", "--rho", "0.5"],
            "times",
            "0,1.5",
            "comma-separated integers",
        ),
        (["table"], "theta_grid", "1,x", "comma-separated numbers"),
        (["table"], "rho_grid", "0.5,", "comma-separated numbers"),
        (["simulate", "--process", "thinning", "--law", "poisson", "--rho", "0.5"], "steps", "x", "an integer"),
        (["simulate", "--process", "thinning", "--law", "poisson", "--rho", "0.5"], "theta", "1e", "a number"),
    ],
    ids=["times", "theta-grid", "rho-grid", "steps", "theta"],
)
def test_a_malformed_list_names_what_it_expects(tmp_path, capsys, argv, key, value, expected):
    # as a flag, argparse names the flag; from a config file, main names its line and key
    out = tmp_path / "out.txt"
    assert run([*argv, "--" + key.replace("_", "-"), value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument --{key.replace('_', '-')}: expected {expected}, got {value!r}" in err
    assert "_arg" not in err
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{key} = {value}\n")
    assert run([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config line 1: {key}: expected {expected}, got {value!r}\n"
    assert not out.exists()


def test_config_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("proces = thinning\n")
    code = run(["simulate", "--config", str(cfg_path), "--process", "iid", "--law",
                "poisson", "--theta", "1", "--steps", "5"])
    assert code == 2


# a complete invocation of each command
COMMAND_ARGV = {
    "simulate": ["simulate", "--process", "branching-nb", "--alpha", "2", "--p", "0.5", "--rho", "0.5", "--steps", "5"],
    "table": ["table", "--theta-grid", "1", "--p-grid", "0.5", "--rho-grid", "0.5"],
    "verify": ["verify", "--suite", "poisson-coincidence", "--theta", "1.5", "--k", "10", "--degree", "6"],
    "classify": ["classify", "--r0", "0.5", "--r1", "0.4", "--r2", "0.08", "--theta1", "0.4"],
}


@pytest.mark.parametrize(
    "command, key, flag, value",
    [
        ("table", "theta", "--theta", "2"),
        ("table", "k", "--k", "30"),
        ("table", "degree", "--degree", "4"),
        ("verify", "alpha", "--alpha", "7"),
        ("verify", "theta_grid", "--theta-grid", "1,2"),
        ("classify", "theta", "--theta", "2"),
        ("classify", "k", "--k", "30"),
        ("simulate", "degree", "--degree", "4"),
    ],
)
def test_commands_refuse_settings_they_do_not_read(tmp_path, capsys, command, key, flag, value):
    # from a config file alone, and as a flag, which the subcommand does not define
    out = tmp_path / "out.txt"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{key} = {value}\n")
    for extra in (["--config", str(cfg_path)], [flag, value]):
        assert run([*COMMAND_ARGV[command], *extra, "--out", str(out)]) == 2
        assert f"{flag} does not apply to {command}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_commands_refuse_a_config_for_another_command(tmp_path, capsys, command):
    other = next(c for c in COMMAND_ARGV if c != command)
    out = tmp_path / "out.txt"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"command = {other}\n")
    assert run([*COMMAND_ARGV[command], "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"config is for {other}, not {command}" in capsys.readouterr().err
    assert not out.exists()


def test_a_process_with_a_marginal_requires_its_law(capsys):
    # without --law the law's settings are not refused: the missing law is named
    argv = ["simulate", "--process", "thinning", "--theta", "1", "--p", "0.5", "--rho", "0.5", "--steps", "5"]
    assert run(argv) == 2
    assert "--law is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_every_command_takes_a_seed(tmp_path, command):
    assert run([*COMMAND_ARGV[command], "--seed", "5", "--out", str(tmp_path / "out.txt")]) == 0


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_dump_config_rereads_for_every_command(tmp_path, command):
    out, first, second = tmp_path / "out.txt", tmp_path / "first.cfg", tmp_path / "second.cfg"
    assert run([*COMMAND_ARGV[command], "--out", str(out), "--dump-config", str(first)]) == 0
    resolved = RunConfig(**parse_config_lines(first.read_text()))
    assert resolved.command == command and resolved.out == str(out)
    assert run([command, "--config", str(first), "--dump-config", str(second)]) == 0
    assert RunConfig(**parse_config_lines(second.read_text())) == resolved


def test_every_setting_is_declared_on_its_field():
    for f in dataclasses.fields(RunConfig)[1:]:
        assert callable(f.metadata["parse"]), f.name
        assert f.metadata["commands"] and set(f.metadata["commands"]) <= set(COMMANDS), f.name


def test_every_spec_and_law_field_is_a_simulate_setting():
    # simulate builds each process and law from its dataclass fields, so a
    # field with no setting would fail a user's run, not this test
    classes = [cls for cls, _ in misti.cli.PROCESSES.values()] + list(misti.cli.LAWS.values())
    fields = {field.name for cls in classes for field in dataclasses.fields(cls)}
    settings = {f.name: f for f in dataclasses.fields(RunConfig)}
    for name in fields:
        assert name in settings and "simulate" in settings[name].metadata["commands"], name
    # the axis settings too, and together they are every setting simulate reads
    axes = {name for _, axis in misti.cli.PROCESSES.values() for name in axis}
    assert {"law", "theta", "rho", "alpha", "p", "lam"} <= fields
    simulate = {name for name, f in settings.items() if "simulate" in f.metadata.get("commands", ())}
    assert simulate - fields - axes == {"process", "seed", "out", "format"}


def test_each_subcommand_defines_the_flags_of_its_settings_alone():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMANDS)
    for command, parser in subparsers.choices.items():
        dests = {action.dest for action in parser._actions} - {"help", "config", "dump_config"}
        assert dests == {f.name for f in dataclasses.fields(RunConfig) if command in f.metadata.get("commands", ())}


def test_verify_refuses_a_lattice_with_no_middle_row_to_check(capsys):
    # at theta = 60 every value up to k = 12 has mass below 1e-12: the Markov
    # check has nothing to compare, and says so rather than pass
    assert run(["verify", "--suite", "theorem3", "--theta", "60", "--k", "12"]) == 2
    assert "k = 12" in capsys.readouterr().err


def test_unknown_flag_exits_two():
    assert run(["simulate", "--nonsense"]) == 2


def test_cli_import_leaves_heavy_modules_unloaded():
    # every CLI call pays for what `import misti.cli` loads; scipy and mpmath
    # are only test dependencies, and decimal is loaded only by
    # extended-precision checks
    src = str(Path(misti.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def probe(code):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.strip()

    heavy = "[m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath', 'decimal', '_decimal')]"
    for module in ("misti", "misti.cli"):
        assert probe(f"import sys, {module}; print({heavy})") == "[]", module
    # an extended check runs on decimal alone: with mpmath made unimportable
    # it still runs, and it leaves mpmath unloaded
    extended = (
        "import sys; sys.modules['mpmath'] = None; import misti; "
        "j3 = misti.chain_joint_pmf(misti.BranchingNB(2.0, 0.5, 0.6), (0, 1, 2), 10); "
        "report = misti.check_mvid(j3, 8, precision='extended'); "
        "print(report.passed, 'decimal' in sys.modules, sys.modules['mpmath'])"
    )
    assert probe(extended) == "True True None"


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly():
    # `misti simulate ... | head -2`: the reader closes the pipe after two
    # lines, and the run exits 141 (128 + SIGPIPE) with nothing on stderr
    src = str(Path(misti.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    argv = ["simulate", "--process", "iid", "--law", "poisson", "--theta", "2", "--steps", "200000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "misti.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head[0] == b"t,x\n" and head[1].startswith(b"0,")
    assert stderr == b""
