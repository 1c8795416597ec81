"""Tests for scripts/bench_record.py: the claim rule it records per
workload and metric, the minor page faults it records per run, the
compiled checkouts its children run in, and the interleaved run of both
checkouts in one process."""
import io
import json
import os
import pathlib
import resource
import runpy
import subprocess
import sys
import tarfile
import types

import pytest

import asymtail

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_record():
    return runpy.run_path(str(SCRIPTS / "bench_record.py"))


# what the record's main stores per workload in place of an interleaved
# run, where its checkouts are fakes with no perfbench to load
INTERLEAVED = {"head_over_base": {"median": 1.0, "q1": 1.0, "q3": 1.0},
               "fingerprints_match": True}


def no_interleaved_runs(main, monkeypatch):
    monkeypatch.setitem(main.__globals__, "interleaved_runs", lambda checkouts, wl: INTERLEAVED)


BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # q3 - q1 = 1.75


@pytest.mark.parametrize("head,better,met", [
    # better in every pair by 5, far past the spread
    ([b + 5.0 for b in BASE], "higher", True),
    # the same runs, for a metric where lower is better
    ([b + 5.0 for b in BASE], "lower", False),
    ([b - 5.0 for b in BASE], "lower", True),
    # better in 9 of 10 pairs (one tie) and past the spread
    ([b + 5.0 for b in BASE[:9]] + [BASE[9]], "higher", True),
    # better in 8 of 10 pairs: too few, however large the gain
    ([b + 50.0 for b in BASE[:8]] + BASE[8:], "higher", False),
    # better in every pair, but the medians differ by 1.5 < q3 - q1
    ([b + 1.5 for b in BASE], "higher", False),
])
def test_claim_rule(bench_record, head, better, met):
    assert bench_record["claim_rule_met"](BASE, head, better) is met


def test_record_keeps_each_runs_minor_faults(bench_record, tmp_path, monkeypatch):
    # fake checkouts and perfbench children: a child of the head checkout
    # takes 100 faults per seed, one of the base 1000 more; the traced
    # runs take 7, which the record must not count
    spec = {"run_seconds": 1, "workloads": [{"name": "wl"}],
            "end_to_end": [{"name": "work_per_s", "better": "higher"}]}
    sides = {}
    for side in ("base", "head"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        (sides[side] / "BENCHMARK.json").write_text(json.dumps(spec))
    faults = [0]

    def fake_run(cmd, cwd, **kwargs):
        seed, trace = int(cmd[cmd.index("--seed") + 1]), int(cmd[cmd.index("--trace") + 1])
        faults[0] += 7 if trace else 100 * seed + (1000 if cwd == sides["base"] else 0)
        result = {"metrics": {"work_per_s": {"value": float(seed)}}, "correct": True}
        out = f'provenance {{"digest": "d{seed}"}}\n' + json.dumps(result) + "\n"
        return types.SimpleNamespace(returncode=0, stdout=out, stderr="")

    main = bench_record["main"]
    monkeypatch.setitem(main.__globals__, "export", lambda rev: (rev, sides[rev]))
    no_interleaved_runs(main, monkeypatch)
    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(resource, "getrusage",
                        lambda who: types.SimpleNamespace(ru_minflt=faults[0]))
    out = tmp_path / "BENCH.json"
    assert main(["--base", "base", "--head", "head", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["wl"]
    seeds = bench_record["SEEDS"]
    assert entry["minor_faults"]["head"]["values"] == [100 * s for s in seeds]
    assert entry["minor_faults"]["base"]["values"] == [100 * s + 1000 for s in seeds]
    assert entry["minor_faults"]["head"]["median"] == 550.0
    assert entry["digests_match"]
    assert entry["interleaved"] == INTERLEAVED


def test_record_controls_each_claim_and_compares_three_traced_runs(bench_record, tmp_path,
                                                                    monkeypatch):
    # fake checkouts and perfbench children for two workloads:
    # - "gain": the head checkout is 50 faster at every seed, so the
    #   base-against-base control shows nothing and the claim is shown;
    # - "drift": each pair's run in the head's slot is 50 faster, whatever
    #   the checkout, so the control meets the rule too: unresolved.
    # The traced runs give layer.a ranges that do not overlap, layer.b
    # ranges that do, and layer.c ranges that do not overlap because the
    # run in the head's slot is faster whatever the checkout, so that its
    # control's ranges do not overlap either.
    spec = {"run_seconds": 1, "workloads": [{"name": "gain"}, {"name": "drift"}],
            "end_to_end": [{"name": "work_per_s", "better": "higher"},
                           {"name": "setup_s", "better": "lower"}]}
    sides = {}
    for side in ("base", "head"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        (sides[side] / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = {"untraced": 0, "traced": []}
    # the slots of the four traced runs at each seed: pair, then control,
    # reversed at every other seed
    slots = [label for label, _ in bench_record["TRACED_SLOTS"]]

    def fake_run(cmd, cwd, **kwargs):
        wl = cmd[cmd.index("--workload") + 1]
        seed, trace = int(cmd[cmd.index("--seed") + 1]), int(cmd[cmd.index("--trace") + 1])
        head = cwd == sides["head"]
        if trace:
            k = sum(c[0] == wl for c in calls["traced"])
            slot = (slots if (k // 4) % 2 == 0 else slots[::-1])[k % 4]
            calls["traced"].append((wl, seed, "head" if head else "base"))
            metrics = {"layer.a.busy_s": 1.0 + 0.1 * seed - (0.5 if head else 0.0),
                       "layer.b.busy_s": 1.0 + 0.1 * seed - (0.05 if head else 0.0),
                       "layer.c.busy_s": 1.0 + 0.1 * seed - (0.5 if slot.endswith("head")
                                                             else 0.0)}
        else:
            # pairs alternate which side runs first, so the head's slot
            # is the second run of an even pair and the first of an odd one
            k = calls["untraced"]
            calls["untraced"] += 1
            head_slot = (k % 2 == 1) == ((k // 2) % 2 == 0)
            faster = head if wl == "gain" else head_slot
            metrics = {"work_per_s": 100.0 + seed + (50.0 if faster else 0.0), "setup_s": 0.5}
        result = {"metrics": {k: {"value": v} for k, v in metrics.items()}, "correct": True}
        out = f'provenance {{"digest": "d{seed}"}}\n' + json.dumps(result) + "\n"
        return types.SimpleNamespace(returncode=0, stdout=out, stderr="")

    main = bench_record["main"]
    monkeypatch.setitem(main.__globals__, "export", lambda rev: (rev, sides[rev]))
    no_interleaved_runs(main, monkeypatch)
    monkeypatch.setattr(subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert main(["--base", "base", "--head", "head", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    pairs = len(bench_record["SEEDS"])
    # two workloads of ten pairs, and one control of ten pairs each
    assert calls["untraced"] == 2 * 2 * 2 * pairs
    assert record["wall_s"] >= 0.0
    for wl, verdict in (("gain", "shown"), ("drift", "unresolved")):
        e2e = record["workloads"][wl]["end_to_end"]
        work = e2e["work_per_s"]
        assert (work["head_better_pairs"], work["claim_rule_met"]) == (pairs, True)
        assert (work["claim"], work["loss"]) == (verdict, "not met")
        assert work["control"]["pairs"] == pairs
        # setup_s ties in every pair: no claim, so no control
        assert e2e["setup_s"]["claim"] == "not met" and "control" not in e2e["setup_s"]
    control = record["workloads"]["gain"]["end_to_end"]["work_per_s"]["control"]
    assert (control["head_better_pairs"], control["claim_rule_met"]) == (0, False)
    assert record["workloads"]["drift"]["end_to_end"]["work_per_s"]["control"][
        "head_better_pairs"] == pairs
    # three traced runs per side and three per side of the base-against-
    # base control, at seeds 1-3, the order reversed at every other seed
    assert calls["traced"][:12] == [
        ("gain", 1, "base"), ("gain", 1, "head"), ("gain", 1, "base"), ("gain", 1, "base"),
        ("gain", 2, "base"), ("gain", 2, "base"), ("gain", 2, "head"), ("gain", 2, "base"),
        ("gain", 3, "base"), ("gain", 3, "head"), ("gain", 3, "base"), ("gain", 3, "base")]
    traced = record["workloads"]["gain"]["traced"]
    a = traced["layer.a.busy_s"]
    assert a["base"]["values"] == pytest.approx([1.1, 1.2, 1.3])
    assert (a["head"]["median"], a["head"]["min"], a["head"]["max"]) == pytest.approx(
        (0.7, 0.6, 0.8))
    assert a["control"]["base"]["values"] == a["control"]["head"]["values"] == a["base"]["values"]
    assert (a["apart"], a["control"]["apart"], a["changed"]) == (True, False, True)
    b = traced["layer.b.busy_s"]
    assert (b["apart"], b["control"]["apart"], b["changed"]) == (False, False, False)
    # apart, but as far apart in the control: drift, not a change
    c = traced["layer.c.busy_s"]
    assert c["control"]["head"]["values"] == pytest.approx([0.6, 0.7, 0.8])
    assert (c["apart"], c["control"]["apart"], c["changed"]) == (True, True, False)


def test_record_controls_each_loss(bench_record, tmp_path, monkeypatch, capsys):
    # fake checkouts and perfbench children for two workloads:
    # - "loss": the head checkout is 50 slower at every seed, so the
    #   base-against-base control shows nothing and the loss is shown;
    # - "slot": each pair's run in the head's slot is 50 slower, whatever
    #   the checkout, so the control meets the loss rule too: unresolved.
    spec = {"run_seconds": 1, "workloads": [{"name": "loss"}, {"name": "slot"}],
            "end_to_end": [{"name": "work_per_s", "better": "higher"},
                           {"name": "setup_s", "better": "lower"}]}
    sides = {}
    for side in ("base", "head"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        (sides[side] / "BENCHMARK.json").write_text(json.dumps(spec))
    untraced = [0]

    def fake_run(cmd, cwd, **kwargs):
        wl = cmd[cmd.index("--workload") + 1]
        seed, trace = int(cmd[cmd.index("--seed") + 1]), int(cmd[cmd.index("--trace") + 1])
        metrics = {"layer.a.busy_s": 1.0}
        if not trace:
            # pairs alternate which side runs first (see the claim test)
            k = untraced[0]
            untraced[0] += 1
            head_slot = (k % 2 == 1) == ((k // 2) % 2 == 0)
            slower = cwd == sides["head"] if wl == "loss" else head_slot
            metrics = {"work_per_s": 100.0 + seed - (50.0 if slower else 0.0), "setup_s": 0.5}
        result = {"metrics": {k: {"value": v} for k, v in metrics.items()}, "correct": True}
        out = f'provenance {{"digest": "d{seed}"}}\n' + json.dumps(result) + "\n"
        return types.SimpleNamespace(returncode=0, stdout=out, stderr="")

    main = bench_record["main"]
    monkeypatch.setitem(main.__globals__, "export", lambda rev: (rev, sides[rev]))
    no_interleaved_runs(main, monkeypatch)
    monkeypatch.setattr(subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert main(["--base", "base", "--head", "head", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    pairs = len(bench_record["SEEDS"])
    # two workloads of ten pairs, and one control of ten pairs each
    assert untraced[0] == 2 * 2 * 2 * pairs
    printed = capsys.readouterr().out
    for wl, verdict in (("loss", "shown"), ("slot", "unresolved")):
        e2e = record["workloads"][wl]["end_to_end"]
        work = e2e["work_per_s"]
        assert (work["head_better_pairs"], work["claim_rule_met"]) == (0, False)
        assert work["loss_rule_met"] and work["control"]["pairs"] == pairs
        assert (work["claim"], work["loss"]) == ("not met", verdict)
        assert f"claim not met, loss {verdict}" in printed
        # setup_s ties in every pair: no rule met, so no control
        assert e2e["setup_s"]["loss"] == "not met" and "control" not in e2e["setup_s"]
    assert not record["workloads"]["loss"]["end_to_end"]["work_per_s"]["control"][
        "loss_rule_met"]
    assert record["workloads"]["slot"]["end_to_end"]["work_per_s"]["control"][
        "loss_rule_met"]


@pytest.mark.parametrize("a,b,apart", [
    ((1.0, 2.0), (2.5, 3.0), True),
    ((2.5, 3.0), (1.0, 2.0), True),
    ((1.0, 2.0), (2.0, 3.0), False),   # touching ranges overlap
    ((1.0, 3.0), (1.5, 2.0), False),
])
def test_ranges_apart(bench_record, a, b, apart):
    spread = bench_record["spread"]
    assert bench_record["ranges_apart"](spread(list(a)), spread(list(b))) is apart
    assert bench_record["ranges_apart"](spread(list(a)), None) is False


@pytest.mark.parametrize("pair,control,changed", [
    # three-point ranges apart by drift: the control's ranges overlap, but
    # its medians moved 0.04 and the pair's only 0.03, so no change
    (((1.00, 1.01, 1.02), (1.03, 1.04, 1.05)), ((1.00, 1.02, 1.05), (1.04, 1.06, 1.06)),
     False),
    # the same pair against a control whose medians moved 0.01: a change
    (((1.00, 1.01, 1.02), (1.03, 1.04, 1.05)), ((1.00, 1.02, 1.05), (1.01, 1.03, 1.04)),
     True),
    # medians far apart, but the ranges overlap: no change
    (((1.0, 1.1, 2.0), (1.5, 2.1, 2.2)), ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)), False),
    # the control's ranges apart: drift, whatever the medians
    (((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)), ((1.0, 1.0, 1.0), (1.1, 1.1, 1.1)), False),
])
def test_traced_change_reads_medians_against_the_control(bench_record, pair, control,
                                                          changed):
    spread = bench_record["spread"]
    sp = {label: spread(list(v)) for label, v in zip(
        ("base", "head", "control_base", "control_head"), pair + control)}
    out = bench_record["traced_change"](sp)
    assert out["changed"] is changed
    assert out["gap"] == pytest.approx(abs(sp["head"]["median"] - sp["base"]["median"]))
    assert out["control"]["gap"] == pytest.approx(
        abs(sp["control_head"]["median"] - sp["control_base"]["median"]))


def test_export_compiles_the_checkout_once(bench_record, tmp_path, monkeypatch):
    # a fake commit of one module, archived as `git archive` would: the
    # checkout holds its compiled file before any child runs
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("X = 1\n")
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tf:
        tf.add(tree / "perfbench", arcname="perfbench")
    real_run = subprocess.run
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd[:3])
        if cmd[:2] == ["git", "archive"]:
            return types.SimpleNamespace(returncode=0, stdout=buf.getvalue())
        return real_run(cmd, **kwargs)

    export = bench_record["export"]
    monkeypatch.setitem(export.__globals__, "git", lambda *args: "c0ffee")
    monkeypatch.setitem(export.__globals__, "BUILD", tmp_path / "build")
    monkeypatch.setattr(subprocess, "run", fake_run)
    commit, dest = export("HEAD")
    assert (commit, dest) == ("c0ffee", tmp_path / "build" / "c0ffee")
    assert list((dest / "perfbench" / "__pycache__").glob("run.*.pyc"))
    assert calls == [["git", "archive", "c0ffee"], [sys.executable, "-m", "compileall"]]


def test_children_run_without_the_bytecode_switch(bench_record, tmp_path, monkeypatch):
    # the children may write and read compiled files; the record keeps
    # the switch as the caller had it
    spec = {"run_seconds": 1, "workloads": [{"name": "wl"}],
            "end_to_end": [{"name": "work_per_s", "better": "higher"}]}
    sides = {}
    for side in ("base", "head"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        (sides[side] / "BENCHMARK.json").write_text(json.dumps(spec))
    envs = []

    def fake_run(cmd, cwd, env, **kwargs):
        envs.append(env)
        result = {"metrics": {"work_per_s": {"value": 1.0}}, "correct": True}
        out = 'provenance {"digest": "d"}\n' + json.dumps(result) + "\n"
        return types.SimpleNamespace(returncode=0, stdout=out, stderr="")

    main = bench_record["main"]
    monkeypatch.setitem(main.__globals__, "export", lambda rev: (rev, sides[rev]))
    no_interleaved_runs(main, monkeypatch)
    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    out = tmp_path / "BENCH.json"
    assert main(["--base", "base", "--head", "head", "--out", str(out)]) == 0
    assert envs and all("PYTHONDONTWRITEBYTECODE" not in e and "PYTHONPATH" not in e
                        for e in envs)
    assert json.loads(out.read_text())["machine"]["PYTHONDONTWRITEBYTECODE"] == "1"


TOY_WORKLOADS = """\
from dataclasses import dataclass

from asymtail import work


@dataclass
class Outcome:
    units: int
    wrong: str | None = None
    fingerprint: str = ""


class Doubling:
    def __init__(self, seed):
        self.seed = seed

    def warmup(self):
        return [0]

    def block(self, b):
        return [100 * self.seed + 10 * b + i for i in range(2)]

    def run(self, op):
        return work.double(op)

    def check(self, op, res):
        return Outcome(1, None if res == 2 * op else "wrong", repr(res))


WORKLOADS = {"doubling": Doubling}
"""

# the operation imports the module that sets its cost while it runs, so
# each side must find its own checkout's module then
TOY_WORK = """\
import time


def double(x):
    from . import speed
    time.sleep(speed.DELAY)
    return 2 * x + speed.OFFSET
"""


def toy_repository(root: pathlib.Path) -> pathlib.Path:
    """A git repository of three commits of a toy package and benchmark:
    an operation that takes 10 ms, then 5 ms, then 5 ms with a wrong
    answer."""
    (root / "src" / "asymtail").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "src" / "asymtail" / "__init__.py").write_text("")
    (root / "src" / "asymtail" / "work.py").write_text(TOY_WORK)
    (root / "perfbench" / "workloads.py").write_text(TOY_WORKLOADS)
    (root / "perfbench" / "run.py").write_text("")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=toy", "-c", "user.email=toy@example.com",
                        *args], cwd=root, check=True, capture_output=True)
    git("init", "-q")
    for delay, offset in ((0.010, 0), (0.005, 0), (0.005, 1)):
        (root / "src" / "asymtail" / "speed.py").write_text(f"DELAY = {delay}\nOFFSET = {offset}\n")
        git("add", "-A")
        git("commit", "-q", "-m", f"delay {delay}, offset {offset}")
    return root


def test_interleaved_runs_load_both_checkouts_in_one_process(bench_record, tmp_path,
                                                             monkeypatch):
    root = toy_repository(tmp_path / "repo")
    export = bench_record["export"]
    monkeypatch.setitem(export.__globals__, "ROOT", root)
    monkeypatch.setitem(export.__globals__, "BUILD", tmp_path / "build")
    checkouts = {rev: export(rev)[1] for rev in ("HEAD~2", "HEAD~1", "HEAD")}
    limit = resource.getrlimit(resource.RLIMIT_AS)
    threads = os.environ.get("ASYMTAIL_THREADS")
    interleaved_runs = bench_record["interleaved_runs"]
    faster = interleaved_runs({"base": checkouts["HEAD~2"], "head": checkouts["HEAD~1"]},
                              "doubling")
    rounds, blocks = bench_record["INTERLEAVED_ROUNDS"], bench_record["INTERLEAVED_BLOCKS"]
    assert (faster["seed"], faster["blocks"], faster["rounds"]) == (1, blocks, rounds)
    assert len(faster["head_over_base"]["values"]) == rounds * len(blocks)
    # each block runs two 5 ms operations against two of 10 ms
    assert 0.3 < faster["head_over_base"]["median"] < 0.8
    assert faster["operations"] == 2 * len(blocks)
    assert faster["fingerprints_match"]
    wrong = interleaved_runs({"base": checkouts["HEAD~2"], "head": checkouts["HEAD"]},
                             "doubling")
    assert not wrong["fingerprints_match"]
    # the caller's modules, address-space limit and thread count are back
    assert sys.modules["asymtail"] is asymtail
    assert "workloads" not in sys.modules
    assert resource.getrlimit(resource.RLIMIT_AS) == limit
    assert os.environ.get("ASYMTAIL_THREADS") == threads
