"""Record a before/after benchmark pair in a BENCH_<k>.json file.

    python3 scripts/bench_record.py --base HEAD~1 --head HEAD --out BENCH_16.json

Exports both commits with `git archive` under .bench_build/record/<commit>/,
compiles each checkout's Python files once with compileall, and runs each
one's own, unchanged perfbench/run.py there, with neither PYTHONPATH nor
PYTHONDONTWRITEBYTECODE in its environment: its cold-start and RSS child
processes then read the compiled files, so setup_s and peak_rss_mb do not
grow with the length of the source (the variable's value in the calling
environment is recorded under `machine`):

- for every workload in the head's BENCHMARK.json and every seed 1-10,
  one pair of --trace 0 runs of BENCHMARK.json's run_seconds each, the
  side that runs first alternating from seed to seed;
- for every workload where the head meets the claim rule on some
  metric, in either direction, a control: ten more pairs in the same
  protocol, the base against itself;
- then, per workload, three --trace 1 runs of 4 s per side, at seeds
  1-3, and a base-against-base control of three more per side, the pair
  and the control interleaved at each seed (see traced_runs);
- and last, per workload, an interleaved run in this process with both
  checkouts loaded under separate module tables: blocks 0-7 of seed 1,
  base and head alternating block by block, three rounds (see
  interleaved_runs).  Both sides then see the same phases of the
  machine's speed, which separate processes minutes apart do not.

The record holds, per workload and side, the median and quartiles of
each end-to-end metric over the seeds, how many pairs the head won on
it and whether the claim rule is met (claim_rule_met: the head better
in at least nine tenths of the pairs, ties counting for neither, and its
median better than the base's by more than the base's quartile spread
q3 - q1), and whether it meets the rule in the losing direction
(loss_rule_met: the head worse in nine tenths of the pairs, its median
worse by more than that spread).  A metric that meets either rule
carries its control, with the control's own head_better_pairs,
claim_rule_met and loss_rule_met.  Its `claim` reads "shown" only when
the control does not meet the claim rule as well: otherwise drift alone
could have met it, and the claim is "unresolved".  Its `loss` reads
"shown" or "unresolved" by the loss rule in the same way.  A metric
that does not meet a rule reads "not met" for it.
The record also holds each run's output digest (and whether the two
sides' agree at every seed), the quartiles of each side's minor page
faults per run (information only: no claim rule reads them), and per
traced per-layer metric each side's median, range and values, the
control's, `apart` where the two sides' ranges do not overlap, and
`changed` only where they are apart, the control's are not, and the
base-to-head median gap exceeds the control's own (see traced_change);
and under `interleaved`, the median and quartiles of the per-block ratio of
the head's operation time to the base's, and whether every operation's
fingerprint matched (information only: no claim rule reads it); and
the machine (nproc, CPU model, Python, numpy and scipy versions, and
PYTHONDONTWRITEBYTECODE as the caller had it), both commit ids and the
record's wall time.  The runs go one at a time, so
the record costs about 2 x workloads x 10 x (run_seconds + 5 s of cold
starts), and as much again for each workload that claims, plus 12
traced runs and 48 timed blocks per workload.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "record"
RUN_TIMEOUT_S = 1800
SEEDS = list(range(1, 11))
TRACE_SEEDS = [1, 2, 3]
TRACE_SECONDS = 4
INTERLEAVED_SEED = 1
INTERLEAVED_BLOCKS = list(range(8))
INTERLEAVED_ROUNDS = 3
# the top-level modules a checkout brings: its package and perfbench's
CHECKOUT_MODULES = ("asymtail", "workloads", "oracle", "tracer")
# perfbench/run.py's address-space cap, held while the interleaved runs go
MEM_CAP = 2 << 30


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


# kept out of the children's environment: PYTHONPATH would mix in other
# sources, and PYTHONDONTWRITEBYTECODE would have every cold start compile
# what compileall compiled once
CHILD_ENV_DROP = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")


def export(rev: str) -> tuple[str, Path]:
    """The commit id of rev and a checkout of it under BUILD, with its
    Python files compiled (compileall skips those already compiled)."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = BUILD / commit
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True,
                   capture_output=True)
    return commit, dest


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its result line, plus the provenance line's
    digest and the minor page faults of the run and the processes it
    waited for."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line[len("provenance "):]) for line in lines
                if line.startswith("provenance "))
    out = json.loads(lines[-1])
    out["digest"] = prov["digest"]
    out["minor_faults"] = faults
    return out


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def head_better_pairs(base: list[float], head: list[float], better: str) -> int:
    """The pairs base[i], head[i] where the head is better; ties count
    for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def claim_rule_met(base: list[float], head: list[float], better: str) -> bool:
    """Whether a gain may be claimed from paired runs: the head is better
    in at least nine tenths of the pairs, and the medians differ in the
    head's favour by more than the base's quartile spread q3 - q1."""
    q = quartiles(base)
    gain = quartiles(head)["median"] - q["median"]
    if better != "higher":
        gain = -gain
    return (10 * head_better_pairs(base, head, better) >= 9 * len(base)
            and gain > q["q3"] - q["q1"])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def paired_runs(checkouts: dict[str, Path], wl: str, seconds: int, label: str) -> dict:
    """The --trace 0 runs of one workload at every seed, per side, with
    the side that runs first alternating from seed to seed."""
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for i, seed in enumerate(SEEDS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run(checkouts[side], wl, seed, seconds, 0))
            print(f"{wl} {label}seed {seed} {side}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[side][-1]["metrics"].items()),
                flush=True)
    return runs


WORSE = {"higher": "lower", "lower": "higher"}


def compare(runs: dict, name: str, direction: str) -> dict:
    vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
    return {"better": direction, "base": quartiles(vals["base"]),
            "head": quartiles(vals["head"]),
            "head_better_pairs": head_better_pairs(vals["base"], vals["head"], direction),
            "pairs": len(SEEDS),
            "claim_rule_met": claim_rule_met(vals["base"], vals["head"], direction),
            "loss_rule_met": claim_rule_met(vals["base"], vals["head"], WORSE[direction])}


def verdict(metric: dict, rule: str) -> str:
    """"shown" where the head meets `rule` (claim_rule_met or
    loss_rule_met) and its base-against-base control does not,
    "unresolved" where both do, else "not met"."""
    if not metric[rule]:
        return "not met"
    return "unresolved" if metric["control"][rule] else "shown"


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def ranges_apart(a: dict | None, b: dict | None) -> bool:
    """Whether two spreads exist and their [min, max] ranges do not overlap."""
    return bool(a and b and (a["max"] < b["min"] or a["min"] > b["max"]))


# the traced runs at one seed: the pair, then the base-against-base
# control, each side a (label, checkout side) pair
TRACED_SLOTS = (("base", "base"), ("head", "head"),
                ("control_base", "base"), ("control_head", "base"))


def traced_runs(checkouts: dict[str, Path], wl: str) -> dict:
    """Per traced metric, each side's spread over TRACE_SEEDS and that of
    a base-against-base control, and whether the change shows in it.

    At each seed the four runs go pair first, then control, and at every
    other seed in reverse, so that the sides take turns in each slot.  A
    metric is `changed` only where the head's range is apart from the
    base's, the control's two ranges overlap, and the medians moved
    further than the control's (traced_change): ranges apart in the
    control, or a median gap no larger than its, mean the runs drift that
    far with no change at all."""
    runs: dict[str, list[dict]] = {label: [] for label, _ in TRACED_SLOTS}
    for i, seed in enumerate(TRACE_SEEDS):
        for label, side in (TRACED_SLOTS if i % 2 == 0 else TRACED_SLOTS[::-1]):
            runs[label].append(run(checkouts[side], wl, seed, TRACE_SECONDS, 1)["metrics"])
            print(f"{wl} traced seed {seed} {label}: done", flush=True)
    out = {}
    for name in dict.fromkeys(k for label in runs for r in runs[label] for k in r):
        values = {label: [r[name]["value"] for r in runs[label] if name in r] for label in runs}
        out[name] = traced_change({label: spread(v) if v else None
                                   for label, v in values.items()})
    return out


def median_gap(a: dict | None, b: dict | None) -> float | None:
    """|median b - median a| where both spreads exist."""
    return abs(b["median"] - a["median"]) if a and b else None


def traced_change(sp: dict) -> dict:
    """One traced metric from its spreads per TRACED_SLOTS label: the
    pair's, the control's, whether each pair of ranges is apart, each
    base-to-head median gap, and `changed`: the head's range apart from
    the base's, the control's ranges not apart, and the pair's median gap
    larger than the control's.  Three-point ranges can fall apart by
    drift alone; a change must also move the medians further than the
    same drift moved the control's."""
    control = {"base": sp["control_base"], "head": sp["control_head"]}
    control["apart"] = ranges_apart(control["base"], control["head"])
    control["gap"] = median_gap(control["base"], control["head"])
    apart = ranges_apart(sp["base"], sp["head"])
    gap = median_gap(sp["base"], sp["head"])
    changed = apart and not control["apart"] and (control["gap"] is None or gap > control["gap"])
    return {"base": sp["base"], "head": sp["head"], "apart": apart, "gap": gap,
            "control": control, "changed": changed}


def _pop_checkout_modules() -> dict:
    """Take the modules of CHECKOUT_MODULES out of sys.modules."""
    names = [n for n in sys.modules if n.partition(".")[0] in CHECKOUT_MODULES]
    return {n: sys.modules.pop(n) for n in names}


def load_modules(checkout: Path) -> dict:
    """A module table of the checkout's own: its asymtail and perfbench
    modules, imported from it and kept out of sys.modules."""
    outside = _pop_checkout_modules()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    try:
        importlib.import_module("workloads")
    finally:
        del sys.path[:2]
        table = _pop_checkout_modules()
        sys.modules.update(outside)
    return table


@contextlib.contextmanager
def modules(table: dict):
    """sys.modules with a checkout's table in it, so that what its code
    imports while it runs is its own; modules imported then join it."""
    outside = _pop_checkout_modules()
    sys.modules.update(table)
    try:
        yield
    finally:
        table.update(_pop_checkout_modules())
        sys.modules.update(outside)


def timed_block(wl, ops: list, fingerprints: list | None) -> float:
    """The operation time of one block, as perfbench/run.py's Tally counts
    it; with a list, each operation's fingerprint (or the type of what it
    raised) is appended to it, outside the timing."""
    total = 0.0
    for op in ops:
        err = res = None
        t0 = time.perf_counter()
        try:
            res = wl.run(op)
        except Exception as exc:  # counted, as the benchmark counts it
            err = exc
        total += time.perf_counter() - t0
        if fingerprints is not None:
            if err is not None:
                fingerprints.append(f"error:{type(err).__name__}")
            else:
                out = wl.check(op, res)
                fingerprints.append(f"{out.wrong}:{out.fingerprint}")
    return total


def interleaved_runs(checkouts: dict[str, Path], wl: str) -> dict:
    """The head's operation time over the base's, block by block, with
    both checkouts loaded in this process under separate module tables.

    Blocks INTERLEAVED_BLOCKS of seed INTERLEAVED_SEED, after each side's
    warm-up, run base and head in turn, the side that goes first
    alternating from block to block and from round to round, for
    INTERLEAVED_ROUNDS rounds, under perfbench/run.py's thread count and
    address-space cap.  The fingerprints of the first round's operations
    are compared."""
    tables = {side: load_modules(path) for side, path in checkouts.items()}
    threads = os.environ.get("ASYMTAIL_THREADS")
    os.environ["ASYMTAIL_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    cap = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (min(v for v in (*cap, MEM_CAP)
                                                if v != resource.RLIM_INFINITY), cap[1]))
    try:
        work = {}
        for side, table in tables.items():
            with modules(table):
                w = table["workloads"].WORKLOADS[wl](INTERLEAVED_SEED)
                for op in w.warmup():
                    w.run(op)
                work[side] = (w, [w.block(b) for b in INTERLEAVED_BLOCKS])
        ratios = []
        prints: dict[str, list] = {side: [] for side in tables}
        for rnd in range(INTERLEAVED_ROUNDS):
            for i in range(len(INTERLEAVED_BLOCKS)):
                t = {}
                for side in (("base", "head") if (i + rnd) % 2 == 0 else ("head", "base")):
                    w, blocks = work[side]
                    with modules(tables[side]):
                        t[side] = timed_block(w, blocks[i], prints[side] if rnd == 0 else None)
                ratios.append(t["head"] / t["base"])
            print(f"{wl} interleaved round {rnd + 1}: done", flush=True)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, cap)
        if threads is None:
            os.environ.pop("ASYMTAIL_THREADS")
        else:
            os.environ["ASYMTAIL_THREADS"] = threads
    return {"seed": INTERLEAVED_SEED, "blocks": INTERLEAVED_BLOCKS,
            "rounds": INTERLEAVED_ROUNDS, "head_over_base": quartiles(ratios),
            "operations": len(prints["base"]),
            "fingerprints_match": prints["base"] == prints["head"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="the commit before the change")
    ap.add_argument("--head", default="HEAD", help="the commit with the change")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()

    sides = dict(zip(("base", "head"), (export(args.base), export(args.head))))
    checkouts = {side: path for side, (_, path) in sides.items()}
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = {
        "command": " ".join([Path(sys.argv[0]).name, *(argv or sys.argv[1:])]),
        "commits": {side: commit for side, (commit, _) in sides.items()},
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
                    "python": platform.python_version(), "numpy": version("numpy"),
                    "scipy": version("scipy"),
                    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "seeds": SEEDS, "seconds": seconds, "trace_seeds": TRACE_SEEDS,
        "trace_seconds": TRACE_SECONDS,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        runs = paired_runs(checkouts, wl, seconds, "")
        entry = {"end_to_end": {name: compare(runs, name, direction)
                                for name, direction in better.items()},
                 "digests": {side: [r["digest"] for r in runs[side]] for side in runs},
                 "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
                 "minor_faults": {side: quartiles([r["minor_faults"] for r in runs[side]])
                                  for side in runs}}
        entry["digests_match"] = entry["digests"]["base"] == entry["digests"]["head"]
        claiming = [name for name, m in entry["end_to_end"].items()
                    if m["claim_rule_met"] or m["loss_rule_met"]]
        if claiming:
            control = paired_runs({"base": checkouts["base"], "head": checkouts["base"]},
                                  wl, seconds, "control ")
            for name in claiming:
                entry["end_to_end"][name]["control"] = compare(control, name, better[name])
        for m in entry["end_to_end"].values():
            m["claim"] = verdict(m, "claim_rule_met")
            m["loss"] = verdict(m, "loss_rule_met")
        entry["traced"] = traced_runs(checkouts, wl)
        entry["interleaved"] = interleaved_runs(checkouts, wl)
        record["workloads"][wl] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")   # partial results survive
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record["wall_s"] = round(time.monotonic() - started, 1)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for wl, entry in record["workloads"].items():
        for name, m in entry["end_to_end"].items():
            control = (f", control {m['control']['head_better_pairs']}/{m['pairs']}"
                       if "control" in m else "")
            loss = f", loss {m['loss']}" if m["loss"] != "not met" else ""
            print(f"{wl:<12} {name:<12} base {m['base']['median']:<12.5g} "
                  f"head {m['head']['median']:<12.5g} head better in "
                  f"{m['head_better_pairs']}/{m['pairs']} pairs{control}, "
                  f"claim {m['claim']}{loss}")
        changed = [name for name, t in entry["traced"].items() if t["changed"]]
        drift = [name for name, t in entry["traced"].items() if t["apart"] and not t["changed"]]
        print(f"{wl:<12} digests {'identical' if entry['digests_match'] else 'DIFFER'}, "
              f"minor faults per run base {entry['minor_faults']['base']['median']:.0f} "
              f"head {entry['minor_faults']['head']['median']:.0f}, traced layers changed: "
              f"{', '.join(changed) or 'none'}; apart but also apart in the control: "
              f"{', '.join(drift) or 'none'}")
        inter = entry["interleaved"]["head_over_base"]
        print(f"{wl:<12} interleaved head/base time {inter['median']:.3f} "
              f"(q1 {inter['q1']:.3f}, q3 {inter['q3']:.3f}), fingerprints "
              f"{'identical' if entry['interleaved']['fingerprints_match'] else 'DIFFER'}")
    print(f"record took {record['wall_s']:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
