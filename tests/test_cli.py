"""End-to-end checks of the command line tool: JSON output against the
schemas, exit codes, determinism, and CSV side channel."""
import csv
import json
import pathlib
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from asymtail import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "schemas"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "asymtail.cli", *args],
        capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def load_validator(name):
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        res = Resource.from_contents(json.loads(path.read_text()))
        registry = res @ registry
        registry = registry.with_resource(res.id() or path.name, res)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft202012Validator(schema, registry=registry)


class TestThresholdsCommand:
    def test_single_p_json(self):
        proc = run_cli("thresholds", "--p", "0.1")
        body = json.loads(proc.stdout)
        load_validator("thresholds.schema.json").validate(body)
        assert body["manifest"]["tool"] == "asymtail"
        assert body["manifest"]["command"] == "thresholds"
        row = body["rows"][0]
        assert row["p"] == 0.1
        assert row["m_star"] == pytest.approx(1.75, rel=1e-12)

    def test_grid_and_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_cli("thresholds", "--p-grid", "0.05:0.45:9",
                       "--out", str(out))
        body = json.loads(proc.stdout)
        assert len(body["rows"]) == 9
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert "m_star" in rows[0]

    def test_tiny_p(self):
        # below p ~ 1.5e-28 k_tilde's root lies past the old bracket top 60
        proc = run_cli("thresholds", "--p", "1e-30")
        body = json.loads(proc.stdout)
        load_validator("thresholds.schema.json").validate(body)
        row = body["rows"][0]
        assert 1.0 <= row["m_exp"] <= row["m_exp_up"] <= row["m_star"]
        assert row["m_st_low"] <= row["m_st_high"] * (1.0 + 1e-15)

    def test_subnormal_p_is_an_input_error(self):
        proc = run_cli("thresholds", "--p", "5e-324", check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[0].startswith("error: m_one requires p")

    def test_wall_time_on_stderr(self):
        proc = run_cli("thresholds", "--p", "0.3")
        assert "wall time" in proc.stderr

    def test_measured_timings_within_wall_time(self):
        proc = run_cli("bound", "--p", "0.7", "--n", "10", "--s-m", "1", "--x", "3")
        timings = json.loads(proc.stdout)["manifest"]["timings"]
        assert set(timings) == {"import_s", "command_s"}
        assert timings["import_s"] > 0.0 and timings["command_s"] > 0.0
        wall = float(proc.stderr.split("wall time")[1].split()[0])
        # the stderr figure is rounded to the millisecond
        assert timings["import_s"] + timings["command_s"] <= wall + 5e-4


class TestBoundCommand:
    def test_fair_coin_top(self):
        proc = run_cli("bound", "--p", "0.5", "--m", "1.0", "--n", "4",
                       "--s-m", "1.0", "--x", "4.0")
        body = json.loads(proc.stdout)
        load_validator("bound_report.schema.json").validate(body)
        row = body["rows"][0]
        assert row["minimum"] == pytest.approx(0.0625, rel=1e-9)
        assert row["hoeffding"] == pytest.approx(0.0625, rel=1e-12)

    def test_coeffs_route(self):
        proc = run_cli("bound", "--p", "0.3", "--m", "1.2",
                       "--coeffs", "1.0,1.5,2.0", "--x-grid", "0.5:3.0:4")
        body = json.loads(proc.stdout)
        assert len(body["rows"]) == 4
        for row in body["rows"]:
            assert 0.0 <= row["minimum"] <= 1.0

    def test_usage_error_exit_2(self):
        proc = run_cli("bound", "--p", "0.3", "--m", "1.0", "--x", "1.0",
                       check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestMajorantCommand:
    def test_carrier_hull_json(self):
        proc = run_cli("majorant", "--p", "0.5", "--n", "4", "--s-m", "1.0",
                       "--kind", "lc", "--eval", "0.0,2.0,4.0")
        body = json.loads(proc.stdout)
        load_validator("majorant.schema.json").validate(body)
        maj = body["majorant"]
        assert maj["kind"] == "lc"
        assert maj["step"] == pytest.approx(2.0, rel=1e-12)
        # the point hull touches the exact tail at every lattice point,
        # in particular p^n at the top
        assert body["eval"][-1]["value"] == pytest.approx(
            0.0625, rel=1e-9)

    def test_dist_file_route(self, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"atoms": [
            {"v": 0.0, "p": 0.5}, {"v": 1.0, "p": 0.25}, {"v": 3.0, "p": 0.25},
        ]}))
        proc = run_cli("majorant", "--dist-file", str(f), "--kind", "linlc",
                       "--eval", "1.0,2.0")
        body = json.loads(proc.stdout)
        vals = [e["value"] for e in body["eval"]]
        assert vals[0] == pytest.approx(0.25 ** (1 / 3), rel=1e-10)
        assert vals[1] == pytest.approx(0.25 ** (2 / 3), rel=1e-10)

    def test_holey_lattice_law_in_process(self, tmp_path, capsys):
        # a lattice law whose hull construction once leaked a bare
        # ValueError (traceback, exit 1)
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"atoms": [
            {"v": -3.0, "p": 0.1929934671960955},
            {"v": -0.9000000000000004, "p": 0.1799434383177208},
            {"v": 3.3, "p": 0.0473321531463145},
            {"v": 10.299999999999999, "p": 0.4437393880349943},
            {"v": 11.0, "p": 0.046189761591674844},
            {"v": 12.399999999999999, "p": 0.08980179171320006},
        ]}))
        assert cli.main(["majorant", "--dist-file", str(f), "--kind", "linlc"]) == 0
        body = json.loads(capsys.readouterr().out)
        load_validator("majorant.schema.json").validate(body)
        assert body["majorant"]["kind"] == "linlc"

    def test_non_lattice_linlc_is_config_error(self, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"atoms": [
            {"v": 0.0, "p": 0.5}, {"v": 1.0, "p": 0.25},
            {"v": 2.0 ** 0.5, "p": 0.25},
        ]}))
        proc = run_cli("majorant", "--dist-file", str(f), "--kind", "linlc",
                       check=False)
        assert proc.returncode == 2


class TestVerifyCommand:
    def test_exactness_suite_passes(self):
        proc = run_cli("verify", "--suite", "exactness")
        body = json.loads(proc.stdout)
        load_validator("verify_report.schema.json").validate(body)
        assert body["all_passed"] is True
        assert proc.returncode == 0

    def test_delta_suite_passes(self):
        proc = run_cli("verify", "--suite", "delta")
        assert json.loads(proc.stdout)["all_passed"] is True


class TestSelfnormCommand:
    ARGS = ("selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "6",
            "--paths", "20000", "--seed", "5")

    def test_runs_and_validates(self, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_cli(*self.ARGS, "--out", str(out))
        body = json.loads(proc.stdout)
        load_validator("selfnorm_report.schema.json").validate(body)
        assert body["all_ok"] is True
        # 20000 paths fit one default block, which runs on one thread
        assert (body["seed"], body["blocks"], body["workers"]) == (5, 1, 1)
        assert all(r["margin"] == r["bound"] - r["cp_lower"] for r in body["rows"])
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["margin"]) for r in rows] == [r["margin"] for r in body["rows"]]

    def test_deterministic_stdout(self):
        # everything but the measured timings repeats exactly
        a, b = (json.loads(run_cli(*self.ARGS).stdout) for _ in range(2))
        for body in (a, b):
            del body["manifest"]["timings"]
        assert a == b

    def test_bad_config_exit_2(self):
        # asym3 at p=0.4 violates the asymmetry cap for vym
        proc = run_cli("selfnorm", "--kind", "vym", "--preset", "asym3",
                       "--n", "4", "--m", "2.0", "--p", "0.4",
                       "--paths", "1000", check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") or "error:" in proc.stderr


class TestOutputHygiene:
    def test_stdout_is_pure_json(self):
        proc = run_cli("thresholds", "--p", "0.2")
        json.loads(proc.stdout)  # no banner, no trailing junk

    def test_reader_closing_stdout_early_is_quiet(self):
        # a 3 MB hull, far past the pipe buffer, so the write must fail
        proc = subprocess.Popen(
            [sys.executable, "-m", "asymtail.cli", "majorant", "--p", "0.3",
             "--n", "3000", "--s-m", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head.startswith(b"{")
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert err.startswith("wall time")

    def test_version_flag(self):
        proc = run_cli("--version")
        assert "asymtail" in proc.stdout

    def test_no_args_usage_error(self):
        proc = run_cli(check=False)
        assert proc.returncode == 2


class TestBadInputExit2:
    """Bad input exits 2 with an `error:` line, never 1 (check failed).
    These run in-process through cli.main to skip interpreter start-up."""

    @pytest.mark.parametrize("argv", [
        ["thresholds", "--p-grid", "0.1:0.2"],
        ["thresholds", "--p-grid", "a:0.2:5"],
        ["bound", "--p", "0.3", "--n", "4", "--s-m", "1", "--x-grid", "1:2"],
    ])
    def test_malformed_grid(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and "lo:hi:count" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["majorant", "--dist-file", "missing.json"],
        ["selfnorm", "--kind", "vym", "--base-file", "missing.json",
         "--n", "4", "--p", "0.3"],
    ])
    def test_missing_file(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: cannot read missing.json: ")
        assert len(err) == 2 and err[1].startswith("wall time")

    @pytest.mark.parametrize("argv", [
        ["bound", "--p", "0.3", "--n", "10", "--s-m", "1", "--x", "nan"],
        ["bound", "--p", "0.3", "--n", "10", "--s-m", "1", "--x", "inf"],
        ["bound", "--p", "0.3", "--n", "10", "--s-m", "1", "--m", "0.5", "--x", "1"],
        ["selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "3", "--paths", "0"],
    ])
    def test_out_of_domain_value(self, argv, capsys):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert err[0].startswith("error: ")
        assert len(err) == 2 and err[1].startswith("wall time")
