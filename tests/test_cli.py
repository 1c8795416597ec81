"""End-to-end checks of the command line tool: JSON output against the
schemas, exit codes, determinism, and CSV side channel."""
import contextlib
import csv
import functools
import io
import json
import pathlib
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from asymtail import cli
from asymtail.thresholds import m_star

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


@functools.lru_cache(maxsize=None)
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

    def test_out_of_memory_exit_2(self):
        # the carrier's atoms above the float range, about 37.6 standard
        # deviations each side of the mode (1.2e9 atoms at n = 10^15 and
        # p = 1/2), would not fit in a 1.5 GiB address space: the window's
        # size is refused before any of it is built
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "asymtail.cli", "bound", "--p", "0.5",
             "--n", "1000000000000000", "--s-m", "1", "--x", "1"],
            capture_output=True, text=True, preexec_fn=cap_address_space)
        assert proc.returncode == 2
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert err[0].startswith("error: the sum of n=1000000000000000 draws at p=0.5")
        assert "1.19e+09 atoms" in err[0]
        assert len(err) == 2 and err[1].startswith("wall time")

    def test_memory_error_is_one_error_line_exit_2(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "combined_bound_grid", exhausted)
        argv = ["bound", "--p", "0.5", "--n", "10", "--s-m", "1", "--x", "1"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert err[0] == "error: out of memory"
        assert len(err) == 2 and err[1].startswith("wall time")

    def test_large_n_builds_only_the_mass_window(self):
        # the binomial carrier is built where its masses do not underflow,
        # about 5e5 of the 2e8 + 1 atoms, so it fits the benchmark's cap
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "asymtail.cli", "bound", "--p", "0.3",
             "--m", repr(m_star(0.3)), "--n", "200000000", "--s-m", "1", "--x", "1"],
            capture_output=True, text=True, preexec_fn=cap_address_space)
        assert proc.returncode == 0, proc.stderr
        body = json.loads(proc.stdout)
        load_validator("bound_report.schema.json").validate(body)
        row = body["rows"][0]
        assert row["n"] == 200_000_000 and 0.0 < row["minimum"] <= 1.0

    # m_star(p) grows like 1/(2 sqrt p), so at small p the powers c^{2m}
    # of s_m = (mean c^{2m})^{1/(2m)} overflow (3^1002) or underflow
    # ((1e-5)^101); s_m is exact to 40 digits
    @pytest.mark.parametrize("argv,s_m", [
        (["bound", "--p", "1e-6", "--m", "501", "--coeffs", "1,3", "--x", "1"],
         2.99792542668017901),
        (["bound", "--p", "1e-4", "--m", "50.5", "--coeffs", "1e-5,2e-5", "--x", "0.00005"],
         1.98632130431650682e-5),
    ], ids=["overflow", "underflow"])
    def test_s_m_at_large_m(self, argv, s_m, capsys):
        assert cli.main(argv) == 0
        out = capsys.readouterr()
        body = json.loads(out.out)
        load_validator("bound_report.schema.json").validate(body)
        assert body["rows"][0]["s_m"] == pytest.approx(s_m, rel=1e-15, abs=0.0)
        err = out.err.splitlines()
        assert len(err) == 1 and err[0].startswith("wall time")


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

    def test_lc_in_the_top_atoms_band_is_not_below_the_tail(self):
        # 5e-12 above the top atom 5 sqrt(7/3) of p = 0.3, n = 5, inside its
        # band, lc is evaluated at the atom; it once extrapolated its last
        # segment to 0.0024299999999858645, below the tail p^5 there
        proc = run_cli("majorant", "--p", "0.3", "--n", "5", "--kind", "lc",
                       "--eval", "7.637626158264734")
        value = json.loads(proc.stdout)["eval"][0]["value"]
        assert value >= 0.0024300000000000007 * (1.0 - 1e-13)

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
        assert [r["bound_name"] for r in body["rows"]] == ["normal"] * len(body["rows"])
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["margin"]) for r in rows] == [r["margin"] for r in body["rows"]]
        assert [r["bound_name"] for r in rows] == ["normal"] * len(rows)

    def test_deterministic_stdout(self):
        # everything but the measured timings and path rate repeats exactly
        a, b = (json.loads(run_cli(*self.ARGS).stdout) for _ in range(2))
        for body in (a, b):
            del body["manifest"]["timings"]
            assert body.pop("paths_per_s") > 0.0
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
        ["bound", "--p", "0.3", "--n", "4", "--coeffs", "1,a", "--x", "1"],
        ["majorant", "--p", "0.3", "--n", "4", "--eval", "0,x"],
    ])
    def test_malformed_number_list(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and "comma-separated numbers" in err
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
        ["selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "3", "--x", "nan"],
        ["selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "3", "--x", "inf"],
        ["majorant", "--p", "0.3", "--n", "5", "--eval", "nan"],
        ["bound", "--p", "0.3", "--n", "3", "--s-m", "1", "--x-grid", "0:1:0"],
        ["bound", "--p", "0.3", "--m", "inf", "--coeffs", "1,2", "--x", "1"],
        ["selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "4", "--m", "nan",
         "--paths", "1000"],
        ["selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "4", "--p", "0.3",
         "--paths", "1000"],
        ["selfnorm", "--kind", "vym", "--preset", "asym3", "--n", "4", "--p", "0.25",
         "--m", "inf", "--paths", "1000"],
        ["thresholds", "--p-grid", "0.1:0.2:0"],
    ])
    def test_out_of_domain_value(self, argv, capsys):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert err[0].startswith("error: ")
        assert len(err) == 2 and err[1].startswith("wall time")

    @pytest.mark.parametrize("argv", [
        ["selfnorm", "--preset", "asym3", "--kind", "vw", "--n", "4", "--paths", "1000",
         "--seed", "-1"],
        ["verify", "--suite", "supermartingale", "--seed", "-5"],
        ["verify", "--suite", "enumeration", "--seed", "-1"],
        ["verify", "--suite", "delta", "--seed", "-3"],
        ["verify", "--suite", "schur", "--seed", "-3"],
        ["verify", "--suite", "exactness", "--seed", "-3"],
    ], ids=["selfnorm", "supermartingale", "enumeration", "delta", "schur", "exactness"])
    def test_negative_seed(self, argv, capsys):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert err[0] == f"error: seed must be a nonnegative integer, got {argv[-1]}"
        assert len(err) == 2 and err[1].startswith("wall time")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_selfnorm_needs_a_term(self, n, capsys):
        argv = ["selfnorm", "--preset", "asym3", "--kind", "vw", "--n", n, "--paths", "1000"]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert err[0] == f"error: n must be >= 1, got {n}"
        assert len(err) == 2 and err[1].startswith("wall time")

    def test_s_m_that_merges_the_carrier(self, capsys):
        argv = ["bound", "--p", "0.5", "--n", "10", "--s-m", "4e-13", "--x", "1e-12"]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert err[0].startswith("error: s_m = 4e-13 ") and "merge tolerance" in err[0]
        assert len(err) == 2 and err[1].startswith("wall time")

    def test_coefficients_with_an_s_m(self, capsys):
        # the coefficients' s_m was taken and the given one dropped
        argv = ["bound", "--p", "0.3", "--m", "2", "--coeffs", "1,2", "--s-m", "5", "--x", "1"]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert err[0] == "error: give coeffs or s_m, not both"
        assert len(err) == 2 and err[1].startswith("wall time")

    def test_overflowing_masses_print_one_error_line(self, tmp_path):
        # a fresh interpreter, so numpy's RuntimeWarning would reach stderr
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"atoms": [{"v": 0, "p": 1e308}, {"v": 1, "p": 1e308}]}))
        proc = run_cli("majorant", "--dist-file", str(law), check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        err = proc.stderr.splitlines()
        assert err[0] == "error: total mass inf is not 1 within 1e-12"
        assert len(err) == 2 and err[1].startswith("wall time")

    @pytest.mark.parametrize("threads", ["abc", "0", "2.5"])
    def test_malformed_thread_count(self, threads, monkeypatch, capsys):
        monkeypatch.setenv("ASYMTAIL_THREADS", threads)
        argv = ["selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "4",
                "--paths", "1000"]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert err[0] == ("error: ASYMTAIL_THREADS must be a positive integer, "
                          f"got {threads!r}")
        assert len(err) == 2 and err[1].startswith("wall time")


# ---------------------------------------------------------------------------
# the CLI contract over generated argument vectors
# ---------------------------------------------------------------------------

def _keeps_the_contract(argv, schema, may_fail=False):
    """Exit 2 with only the error and wall-time lines, or exit 0 (or, if
    `may_fail`, exit 1: a failed check) with JSON that `schema` accepts
    and only the wall-time line; the body, or None on exit 2.
    In-process, so a numpy RuntimeWarning fails the test (pyproject
    makes it an error); capsys is per test function, so the streams are
    redirected here."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, lines = out.getvalue(), err.getvalue().splitlines()
    if code == 2:
        assert out == ""
        assert len(lines) == 2 and lines[0].startswith("error: "), lines
        assert lines[1].startswith("wall time")
        return None
    assert code in ((0, 1) if may_fail else (0,))
    assert len(lines) == 1 and lines[0].startswith("wall time"), lines
    body = json.loads(out)
    load_validator(schema).validate(body)
    return body


def _p_values():
    return hst.one_of(hst.sampled_from([1e-9, 1.0 - 1e-9]), hst.floats(1e-9, 1.0 - 1e-9))


def _scales(lo, hi):
    """Floats in [lo, hi], or in [lo, the largest float], where scaled
    atoms and their gaps pass the float range."""
    return hst.one_of(hst.floats(lo, hi), hst.floats(lo, sys.float_info.max))


@hst.composite
def _bound_argv(draw):
    """`bound` at p in (0, 1) with both ends' 1e-9, m in [1, 1e4], x in
    [-5, 1e6] or in [-1e300, 1e300], and up to 60 coefficients (each 0 or
    in [1e-8, 1e300] or up to the largest float) or n <= 300 with s_m in
    [1e-6, 1e300] or up to the largest float; x is its own token, so a
    negative one must not read as an option."""
    argv = ["bound", "--p", repr(draw(_p_values())), "--m", repr(draw(hst.floats(1.0, 1e4)))]
    if draw(hst.booleans()):
        coeffs = draw(hst.lists(hst.one_of(hst.just(0.0), _scales(1e-8, 1e300)),
                                min_size=1, max_size=60))
        argv += ["--coeffs", ",".join(map(repr, coeffs))]
    else:
        argv += ["--n", str(draw(hst.integers(1, 300))),
                 "--s-m", repr(draw(_scales(1e-6, 1e300)))]
    x = draw(hst.one_of(hst.floats(-5.0, 1e6), hst.floats(-1e300, 1e300)))
    return argv + ["--x", repr(x)]


@settings(max_examples=300, deadline=None)
@given(argv=_bound_argv())
# the carriers' top atoms pass the float range: one error line, no warning
@example(argv=["bound", "--p", "0.3", "--m", "2.0", "--coeffs", "1e308,1e308", "--x", "1.0"])
@example(argv=["bound", "--p", "0.3", "--m", "2.0", "--n", "2", "--s-m", "1e308",
               "--x", "1.0"])
def test_bound_keeps_the_cli_contract(argv):
    """The contract, with no null s_m, m or member in a row."""
    body = _keeps_the_contract(argv, "bound_report.schema.json")
    for row in body["rows"] if body else []:
        for name in ("s_m", "m", "b_opt", "lc", "lin_lc", "hoeffding", "minimum"):
            assert row[name] is not None, name


@settings(max_examples=200, deadline=None)
@given(ps=hst.lists(hst.one_of(hst.sampled_from([5e-324, 1e-300, 1.0 - 1e-16]),
                               hst.floats(-0.5, 1.5)), min_size=1, max_size=3))
def test_thresholds_keeps_the_cli_contract(ps):
    """`thresholds` at the smallest subnormal p, at 1e-300, at the largest
    p below 1, and at random p in and out of (0, 1), each its own token."""
    argv = ["thresholds"]
    for p in ps:
        argv += ["--p", repr(p)]
    body = _keeps_the_contract(argv, "thresholds.schema.json")
    if body:
        assert [row["p"] for row in body["rows"]] == ps


@hst.composite
def _majorant_argv(draw):
    """`majorant` of either kind on the carrier at p in (0, 1) with both
    ends' 1e-9, n <= 3000 and s_m in [1e-6, 1e6] or up to the largest
    float, with an --eval list that may hold negative entries, passed as
    its own token.  --refine is
    at most 8 (below 2 an error): the knots it samples per lattice step
    only add to the output, which at the default 64 and n = 3000 is 9 MB
    and takes 5 s to validate."""
    argv = ["majorant", "--kind", draw(hst.sampled_from(["lc", "linlc"])),
            "--p", repr(draw(_p_values())), "--n", str(draw(hst.integers(1, 3000))),
            "--s-m", repr(draw(_scales(1e-6, 1e6))),
            "--refine", str(draw(hst.integers(-1, 8)))]
    xs = draw(hst.lists(hst.floats(-1e4, 1e4), min_size=1, max_size=5))
    return argv + ["--eval", ",".join(map(repr, xs))]


@settings(max_examples=200, deadline=None)
@given(argv=_majorant_argv())
# linlc's first vertex is its first arc, two flat cells above support_min:
# -124 lies between them, where the value must stay at 1
@example(argv=["majorant", "--kind", "linlc", "--p", "0.999999999", "--n", "2",
               "--s-m", "0.00390625", "--refine", "2", "--eval", "-124.0"])
# the carrier's one gap passes the float range: a law with no lattice
@example(argv=["majorant", "--kind", "lc", "--p", "0.3", "--n", "1", "--s-m", "1e308",
               "--refine", "2", "--eval", "1.0"])
def test_majorant_keeps_the_cli_contract(argv):
    """The contract, with a value at every --eval point and a finite log
    tail at every hull vertex but the last, where the tail is 0."""
    body = _keeps_the_contract(argv, "majorant.schema.json")
    if body:
        assert all(v["logq"] is not None for v in body["majorant"]["hull"][:-1])
        assert len(body["eval"]) == len(argv[-1].split(","))


# each example runs a whole suite (all five for "all", 0.1 s in-process)
@settings(max_examples=24, deadline=None)
@given(suite=hst.sampled_from(["delta", "enumeration", "schur", "exactness",
                                "supermartingale", "all"]),
       seed=hst.one_of(hst.integers(max_value=-1), hst.just(0), hst.integers(0, 2**64),
                       hst.just(2**64 + 1)))
@example(suite="delta", seed=-3)
@example(suite="schur", seed=7)
@example(suite="exactness", seed=2**64)
@example(suite="enumeration", seed=0)
@example(suite="supermartingale", seed=7)
@example(suite="all", seed=2**64 + 1)
def test_verify_keeps_the_cli_contract(suite, seed):
    """`verify` of each suite at a negative seed, 0, seeds up to 2^64 and
    one above: exit 2 exactly for a negative seed; otherwise a report
    that carries the seed only for the suites that draw from it."""
    body = _keeps_the_contract(["verify", "--suite", suite, "--seed", str(seed)],
                               "verify_report.schema.json", may_fail=True)
    assert (body is None) == (seed < 0)
    if body:
        assert body["suite"] == suite
        seeded = suite in ("enumeration", "supermartingale", "all")
        assert body.get("seed") == (seed if seeded else None), body.keys()


# laws for --base-file: the presets' shapes, a law that is not zero-mean,
# one that is not symmetric, a point mass, and files that are no law
_BASE_FILES = {
    "symm3": json.dumps({"atoms": [{"v": -1.5, "p": 0.3}, {"v": 0.0, "p": 0.4},
                                   {"v": 1.5, "p": 0.3}]}),
    "asym2": json.dumps({"atoms": [{"v": -0.25, "p": 0.8}, {"v": 1.0, "p": 0.2}]}),
    "shifted": json.dumps({"atoms": [{"v": 0.0, "p": 0.5}, {"v": 1.0, "p": 0.5}]}),
    "point": json.dumps({"atoms": [{"v": 0.0, "p": 1.0}]}),
    "short": json.dumps({"atoms": [{"v": -1.0, "p": 0.5}, {"v": 1.0, "p": 0.25}]}),
    "no_atoms": json.dumps({"atoms": []}),
    "not_json": "atoms: -1, 1",
    "not_a_law": json.dumps([1, 2, 3]),
    "bad_value": json.dumps({"atoms": [{"v": "a", "p": 1.0}]}),
}


@hst.composite
def _selfnorm_argv(draw):
    """`selfnorm` of each kind on a preset or a --base-file law, with n up
    to 3000, --paths up to 2000 and an optional --x list whose entries
    may be negative, each its own token.  p, m, --paths and --seed mostly
    suit the kind (vym: p in (0, 1/2] and m at least m_star(p); vsymm and
    vhatsymm: p in [sqrt(2) - 1, 1] and no m; vw: neither), and one draw
    in eight takes any of them from outside that: p absent, 0, above 1
    or below sqrt(2) - 1, m below 1, --paths below 1, a negative seed."""
    kind = draw(hst.sampled_from(["vw", "vym", "vsymm", "vhatsymm"]))
    argv = ["selfnorm", "--kind", kind]
    if draw(hst.booleans()):
        argv += ["--preset", draw(hst.sampled_from(["asym3", "symm5"]))]
    else:
        argv += ["--base-file", draw(hst.sampled_from(sorted(_BASE_FILES)))]
    wild = draw(hst.integers(0, 7)) == 0
    if wild:
        p = draw(hst.one_of(hst.none(), hst.sampled_from([0.0, 1e-9, 0.4, 1.0, 1.5]),
                            hst.floats(0.0, 1.0)))
        m = draw(hst.one_of(hst.none(), hst.floats(0.5, 4.0)))
    elif kind == "vym":
        p = draw(hst.one_of(hst.just(0.5), hst.floats(1e-3, 0.5)))
        m = m_star(p) * draw(hst.sampled_from([1.0, 1.5]))
    else:
        p = None if kind == "vw" else draw(
            hst.one_of(hst.sampled_from([0.4142135623730951, 1.0]), hst.floats(0.4143, 1.0)))
        m = None
    if p is not None:
        argv += ["--p", repr(p)]
    if m is not None:
        argv += ["--m", repr(m)]
    paths = draw(hst.integers(-1, 2000)) if wild else draw(hst.integers(1, 2000))
    seed = draw(hst.integers(-1, 2**32)) if wild else draw(hst.integers(0, 2**32))
    argv += ["--n", str(draw(hst.one_of(hst.integers(1, 12), hst.integers(1, 3000)))),
             "--paths", str(paths), "--seed", str(seed)]
    for x in draw(hst.lists(hst.floats(-10.0, 10.0), max_size=3)):
        argv += ["--x", repr(x)]
    return argv


@settings(max_examples=120, deadline=None)
@given(argv=_selfnorm_argv())
@example(argv=["selfnorm", "--kind", "vsymm", "--preset", "symm5", "--p", "0.999999",
               "--n", "3000", "--paths", "50", "--seed", "1"])
@example(argv=["selfnorm", "--kind", "vhatsymm", "--base-file", "symm3", "--p", "1.0",
               "--n", "2999", "--paths", "20", "--seed", "0", "--x", "-1.0"])
# each of these raised past the CLI: a file that is not JSON, an atom
# value that is not a number, and vym at p = 0 (q / p)
@example(argv=["selfnorm", "--kind", "vw", "--base-file", "not_json", "--n", "4",
               "--paths", "10", "--seed", "0"])
@example(argv=["selfnorm", "--kind", "vw", "--base-file", "bad_value", "--n", "4",
               "--paths", "10", "--seed", "0"])
@example(argv=["selfnorm", "--kind", "vym", "--base-file", "asym2", "--p", "0.0",
               "--n", "1", "--paths", "1", "--seed", "0"])
def test_selfnorm_keeps_the_cli_contract(argv, tmp_path_factory):
    """The contract, with exit 1 allowed for a check that fails, one row
    per --x (six by default), and the report's kind, n and seed as given."""
    argv = list(argv)
    if "--base-file" in argv:
        i = argv.index("--base-file") + 1
        path = tmp_path_factory.getbasetemp() / f"base_{argv[i]}.json"
        path.write_text(_BASE_FILES[argv[i]])
        argv[i] = str(path)
    body = _keeps_the_contract(argv, "selfnorm_report.schema.json", may_fail=True)
    if body:
        assert len(body["rows"]) == (argv.count("--x") or 6)
        assert body["kind"] == argv[argv.index("--kind") + 1]
        assert body["n"] == int(argv[argv.index("--n") + 1])
        assert body["seed"] == int(argv[argv.index("--seed") + 1])
