"""Command line front end.

Subcommands mirror the library layers: `thresholds` tabulates the
moment-index boundaries, `bound` evaluates the tail bound family,
`majorant` builds log-concave tail hulls, `verify` runs the empirical
check suites, and `selfnorm` runs the self-normalized Monte Carlo
checks.  Results go to stdout as JSON (or to a CSV file with --out);
timing goes to stderr so stdout stays machine-readable.  Exit status is
0 on success, 1 when a verification check fails, 2 on usage errors and
on running out of memory; a reader closing stdout early (`| head`) does
not change it.

Times are measured, never estimated.  The manifest's `timings` holds
`import_s`, from the first line of the package's `__init__` to the end
of this module's import, and `command_s`, from the start of `main` to
the JSON output.  The stderr "wall time" is `import_s` plus the time
since `main` started, so a one-command process reports its time since
the package began to load.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import _IMPORT_START, __version__
from .bounds import BoundError, combined_bound_grid
from .dist import DistError, FiniteDist, from_pairs
from .majorant import MajorantError, lc_majorant, lin_lc_majorant
from .selfnorm import SelfNormConfig, SelfNormError, selfnorm_bound_check
from .thresholds import ThresholdError, threshold_table
from .verifier import McConfig, VerifyError, run_suite

_ERRORS = (BoundError, DistError, MajorantError, SelfNormError,
           ThresholdError, VerifyError)

_PRESETS = {
    # zero-mean three-point law with component asymmetries 1 and 3
    "asym3": [(-1.0, 2 / 3), (1.0, 1 / 6), (3.0, 1 / 6)],
    # symmetric five-point law with half the mass at zero
    "symm5": [(-2.0, 0.1), (-1.0, 0.15), (0.0, 0.5), (1.0, 0.15), (2.0, 0.1)],
}


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(args, body: dict, csv_rows: list[dict] | None) -> None:
    timings = {"import_s": _IMPORT_S, "command_s": time.perf_counter() - args.started}
    body = {"manifest": {"tool": "asymtail", "version": __version__,
                         "command": args.command, "timings": timings}, **body}
    try:
        print(json.dumps(_jsonable(body), indent=2, allow_nan=False))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): drop the rest of the
        # output, here and at exit, and finish the command as usual
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if getattr(args, "out", None) and csv_rows:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(csv_rows[0].keys()))
            writer.writeheader()
            for row in csv_rows:
                writer.writerow({k: _jsonable(v) for k, v in row.items()})


def _parse_grid(text: str) -> np.ndarray:
    """argparse type for lo:hi:count grids."""
    try:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:count, got {text!r}") from None


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _read_dist(path: str) -> FiniteDist:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DistError(f"cannot read {path}: {exc.strerror or exc}") from None
    return FiniteDist.from_json(text)


def _load_base(args) -> FiniteDist:
    if getattr(args, "preset", None):
        return from_pairs(_PRESETS[args.preset])
    if getattr(args, "base_file", None):
        return _read_dist(args.base_file)
    raise SelfNormError("need --preset or --base-file")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_thresholds(args) -> int:
    if args.p is not None:
        ps = args.p
    elif args.p_grid is not None:
        ps = list(args.p_grid)
    else:
        ps = list(np.linspace(0.02, 0.5, 25))
    rows = threshold_table(ps)
    _emit(args, {"rows": rows}, rows)
    return 0


def _cmd_bound(args) -> int:
    if args.x is not None:
        xs = args.x
    elif args.x_grid is not None:
        xs = list(args.x_grid)
    else:
        raise BoundError("need --x or --x-grid")
    coeffs = _floats(args.coeffs) if args.coeffs else None
    reports = combined_bound_grid(args.p, args.m, xs, n=args.n,
                                  coeffs=coeffs, s_m=args.s_m)
    rows = [dataclasses.asdict(r) for r in reports]
    csv_rows = [{k: r[k] for k in ("x", "b_opt", "lc", "lin_lc", "hoeffding",
                                   "normal_dom", "minimum", "argmin",
                                   "below_threshold")} for r in rows]
    _emit(args, {"rows": rows}, csv_rows)
    return 0


def _cmd_majorant(args) -> int:
    if args.dist_file:
        d = _read_dist(args.dist_file)
    elif args.p is not None and args.n is not None:
        from .bounds import carrier_sum
        d = carrier_sum(args.p, args.n, args.s_m)
    else:
        raise MajorantError("need --dist-file, or --p with --n")
    maj = (lc_majorant(d) if args.kind == "lc"
           else lin_lc_majorant(d, refine=args.refine))
    body = {"majorant": maj.to_obj()}
    csv_rows = [{"hull_x": v["x"], "hull_logq": v["logq"]}
                for v in body["majorant"]["hull"]]
    if args.eval is not None:
        xs = _floats(args.eval)
        vals = [float(v) for v in np.atleast_1d(maj.value(np.asarray(xs)))]
        body["eval"] = [{"x": x, "value": v} for x, v in zip(xs, vals)]
    _emit(args, body, csv_rows)
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    ok = all(r.passed for r in results)
    body = {
        "suite": args.suite,
        "seed": args.seed,
        "all_passed": ok,
        "results": [dataclasses.asdict(r) for r in results],
    }
    csv_rows = [{"name": r.name, "passed": r.passed, "metric": r.metric,
                 "threshold": r.threshold} for r in results]
    _emit(args, body, csv_rows)
    return 0 if ok else 1


def _cmd_selfnorm(args) -> int:
    base = _load_base(args)
    cfg = SelfNormConfig(base=base, n=args.n, kind=args.kind, m=args.m,
                         p=args.p,
                         x_grid=tuple(args.x) if args.x else None)
    mc = McConfig(seed=args.seed, n_paths=args.paths)
    rep = selfnorm_bound_check(cfg, mc)
    body = {
        "kind": args.kind,
        "n": args.n,
        "m": args.m,
        "p": args.p,
        "n_paths": rep.n_paths,
        "seed": rep.seed,
        "blocks": rep.blocks,
        "workers": rep.workers,
        "paths_per_s": rep.paths_per_s,
        "all_ok": rep.all_ok,
        "rows": [dataclasses.asdict(r) for r in rep.rows],
    }
    csv_rows = [dataclasses.asdict(r) for r in rep.rows]
    _emit(args, body, csv_rows)
    return 0 if rep.all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asymtail",
        description="tail bounds for sums of asymmetric bounded variables, "
                    "with empirical verification")
    ap.add_argument("--version", action="version",
                    version=f"asymtail {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("thresholds", help="moment-index threshold table")
    t.add_argument("--p", type=float, action="append",
                   help="asymmetry parameter (repeatable)")
    t.add_argument("--p-grid", type=_parse_grid, help="lo:hi:count")
    t.add_argument("--out", help="also write rows to this CSV file")
    t.set_defaults(func=_cmd_thresholds)

    b = sub.add_parser("bound", help="evaluate the tail bound family")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--m", type=float, default=1.0)
    b.add_argument("--n", type=int)
    b.add_argument("--coeffs", help="comma-separated coefficients")
    b.add_argument("--s-m", type=float, default=None, dest="s_m")
    b.add_argument("--x", type=float, action="append")
    b.add_argument("--x-grid", type=_parse_grid, help="lo:hi:count")
    b.add_argument("--out", help="also write rows to this CSV file")
    b.set_defaults(func=_cmd_bound)

    mj = sub.add_parser("majorant", help="log-concave tail hulls")
    mj.add_argument("--dist-file", help="path to a law in JSON form")
    mj.add_argument("--p", type=float)
    mj.add_argument("--n", type=int)
    mj.add_argument("--s-m", type=float, default=1.0, dest="s_m")
    mj.add_argument("--kind", choices=("lc", "linlc"), default="lc")
    mj.add_argument("--refine", type=int, default=64)
    mj.add_argument("--eval", help="comma-separated points to evaluate")
    mj.add_argument("--out", help="also write hull vertices to this CSV file")
    mj.set_defaults(func=_cmd_majorant)

    v = sub.add_parser("verify", help="run empirical check suites")
    v.add_argument("--suite", default="all",
                   choices=("delta", "enumeration", "schur", "exactness",
                            "supermartingale", "all"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", help="also write results to this CSV file")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("selfnorm", help="self-normalized Monte Carlo checks")
    s.add_argument("--kind", required=True,
                   choices=("vw", "vym", "vsymm", "vhatsymm"))
    s.add_argument("--preset", choices=tuple(_PRESETS))
    s.add_argument("--base-file", help="path to a law in JSON form")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=float, default=1.0)
    s.add_argument("--p", type=float)
    s.add_argument("--paths", type=int, default=200_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--x", type=float, action="append")
    s.add_argument("--out", help="also write rows to this CSV file")
    s.set_defaults(func=_cmd_selfnorm)
    return ap


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = build_parser()
    args = ap.parse_args(argv)
    args.started = t0
    try:
        code = args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        code = 2
    finally:
        dt = _IMPORT_S + (time.perf_counter() - t0)
        print(f"wall time {dt:.3f} s", file=sys.stderr)
    return code


# taken once, as the last statement of this module's import
_IMPORT_S = time.perf_counter() - _IMPORT_START

if __name__ == "__main__":
    sys.exit(main())
