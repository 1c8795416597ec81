"""Record a before/after benchmark pair in a BENCH_<k>.json file.

    python3 scripts/bench_record.py --base HEAD~1 --head HEAD --out BENCH_16.json

Exports both commits with `git archive` under .bench_build/record/<commit>/
and runs each one's own, unchanged perfbench/run.py there:

- for every workload in the head's BENCHMARK.json and every seed 1-10,
  one pair of --trace 0 runs of BENCHMARK.json's run_seconds each, the
  side that runs first alternating from seed to seed;
- then, per workload, one --trace 1 run of 4 s per side, at seed 1.

The record holds, per workload and side, the median and quartiles of
each end-to-end metric over the seeds, how many pairs the head won on
it, each run's output digest (and whether the two sides' agree at every
seed), and the traced per-layer metrics; and the machine (nproc, CPU
model, Python, numpy and scipy versions) and both commit ids.  The runs
go one at a time, so the record costs about 2 x workloads x 10 x
(run_seconds + 5 s of cold starts).
"""
from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
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
TRACE_SECONDS = 4


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str) -> tuple[str, Path]:
    """The commit id of rev and a checkout of it under BUILD."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = BUILD / commit
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit, dest


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its result line, plus the provenance line's digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line[len("provenance "):]) for line in lines
                if line.startswith("provenance "))
    out = json.loads(lines[-1])
    out["digest"] = prov["digest"]
    return out


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="the commit before the change")
    ap.add_argument("--head", default="HEAD", help="the commit with the change")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = dict(zip(("base", "head"), (export(args.base), export(args.head))))
    spec = json.loads((sides["head"][1] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = {
        "command": " ".join([Path(sys.argv[0]).name, *(argv or sys.argv[1:])]),
        "commits": {side: commit for side, (commit, _) in sides.items()},
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
                    "python": platform.python_version(), "numpy": version("numpy"),
                    "scipy": version("scipy")},
        "seeds": SEEDS, "seconds": seconds, "trace_seconds": TRACE_SECONDS,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for i, seed in enumerate(SEEDS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run(sides[side][1], wl, seed, seconds, 0))
                print(f"{wl} seed {seed} {side}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[side][-1]["metrics"].items()),
                    flush=True)
        entry = {"end_to_end": {}, "digests": {}, "correct": {}}
        for name, direction in better.items():
            vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            sign = 1.0 if direction == "higher" else -1.0
            entry["end_to_end"][name] = {
                "better": direction, "base": quartiles(vals["base"]),
                "head": quartiles(vals["head"]),
                "head_better_pairs": sum(sign * (h - b) > 0
                                         for b, h in zip(vals["base"], vals["head"])),
                "pairs": len(SEEDS)}
        for side in runs:
            entry["digests"][side] = [r["digest"] for r in runs[side]]
            entry["correct"][side] = all(r["correct"] for r in runs[side])
        entry["digests_match"] = entry["digests"]["base"] == entry["digests"]["head"]
        entry["traced"] = {}
        for side in ("base", "head"):
            traced = run(sides[side][1], wl, SEEDS[0], TRACE_SECONDS, 1)
            entry["traced"][side] = {k: v["value"] for k, v in traced["metrics"].items()}
            print(f"{wl} traced {side}: done", flush=True)
        record["workloads"][wl] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")   # partial results survive
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for wl, entry in record["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{wl:<12} {name:<12} base {m['base']['median']:<12.5g} "
                  f"head {m['head']['median']:<12.5g} head better in "
                  f"{m['head_better_pairs']}/{m['pairs']} pairs")
        print(f"{wl:<12} digests {'identical' if entry['digests_match'] else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
