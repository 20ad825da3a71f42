"""Benchmark of the check -> conjugate -> derivatives pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
Each round is one fresh process running one `nonautolin` command at the
program's defaults, except that numpy's BLAS pool and the program's probe
pool are pinned to one thread (see README.md for why).  Rounds repeat until
the next one would end after S seconds (at least one round).  After the
timed rounds every report is checked row by row, and the first one against
computations made apart from the program (see oracles.py).

--trace 0 prints the end-to-end metrics: the medians over the rounds of
setup_s, wall_s, cpu_s and peak_rss_mb (setup_s also takes one extra
set-up-only process per round).  --trace 1 alternates an untraced and a
traced round and prints the per-layer counts (which must repeat exactly), the
median self times, and the tracing overhead.  The last stdout line is the
JSON result.  Exit code 2 means the program could not be run or measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT = 150.0
# One BLAS thread, and one probe-pool worker: with the default two workers
# the wall time of ex1_report spread by 25% over ten seeds (README.md).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NL_THREADS": "1"}

# Each workload spends most of its time in a different layer; see README.md.
WORKLOADS = {
    "ex1_report": ["report", "--system", "ex1", "--gamma-scale", "0.5"],
    "end_cfg_derivatives": ["derivatives", "--system", "end_cfg", "--gamma-scale", "0.9"],
    "ex2_certify": ["check", "--system", "ex2", "--gamma-scale", "0.9",
                    "--n-min", "-100", "--n-max", "100", "--window", "200"],
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def execute(mode: str, trace: bool, argv: list, spans_path: Path) -> dict:
    """Run one child process; returns its result with setup_s measured from spawn."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "child.py"), mode, "1" if trace else "0",
           str(spans_path), "--", *argv]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT} s: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {cmd}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["setup_end"] - t0
    return res


def run_rounds(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Timed rounds until the next would overrun `seconds`; returns
    (round results, set-up samples, report paths)."""
    base = WORKLOADS[name] + ["--seed", str(seed)]
    spans_path = work / "spans.npz"
    execute("setup", False, base, spans_path)  # fills __pycache__, untimed
    rounds, setups, reports = [], [], []
    start = time.monotonic()
    longest = 0.0

    def run(kind: str, trace: bool) -> None:
        out = work / f"round-{len(reports)}-{kind}"
        report = out / "report.json" if base[0] == "report" else out.with_suffix(".json")
        argv = base + ["--out", str(out if base[0] == "report" else report)]
        res = execute("run", trace, argv, spans_path)
        rounds.append((kind, res))
        reports.append(report)
        setups.append(res["setup_s"])

    while True:
        r0 = time.monotonic()
        if trace:
            run("untraced", False)
            run("traced", True)
        else:
            setups.append(execute("setup", False, base, spans_path)["setup_s"])
            run("untraced", False)
        longest = max(longest, time.monotonic() - r0)
        if time.monotonic() - start + longest > seconds:
            return rounds, setups, reports


def check_outputs(name: str, seed: int, reports: list) -> list:
    import numpy as np

    import oracles

    checks = []
    loaded = [json.loads(p.read_text()) for p in reports]
    for rep in loaded:
        checks += oracles.row_checks(rep)
    rng = np.random.default_rng(seed)
    oracle = {"ex1_report": oracles.oracle_ex1, "end_cfg_derivatives": oracles.oracle_end_cfg,
              "ex2_certify": oracles.oracle_ex2}[name]
    checks += oracle(loaded[0], rng)
    for key, value in oracles.accuracy(loaded[0]).items():
        print(f"accuracy {key} = {value:.3e}")
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "nonautolin" / "cli.py").is_file():
        print(f"no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(PINNED_ENV)

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rounds, setups, reports = run_rounds(args.workload, args.seed, args.seconds,
                                             bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for kind, res in rounds:
        print(f"round {kind}: setup {res['setup_s']:.3f} s  wall {res['wall_s']:.3f} s  "
              f"cpu {res['cpu_s']:.3f} s  rss {res['peak_rss_mb']:.1f} MB  {res['verdict']}")

    checks = check_outputs(args.workload, args.seed, reports)
    failed = [c for c in checks if not c[1]]
    for c in failed[:20]:
        print(f"FAILED {c[0]}: {c[2]}")
    correct = not failed

    if args.trace:
        traced = [res for kind, res in rounds if kind == "traced"]
        untraced = [res for kind, res in rounds if kind == "untraced"]
        if any(r["counts"] != traced[0]["counts"] for r in traced):
            print("FAILED traced counts differ between rounds")
            correct = False
        metrics = {k: {"value": v, "unit": "count"} for k, v in traced[0]["counts"].items()}
        for k in traced[0]["times"]:
            metrics[k] = {"value": statistics.median(r["times"][k] for r in traced), "unit": "s"}
        walls = [statistics.median(r["wall_s"] for r in rs) for rs in (traced, untraced)]
        metrics["trace.overhead_pct"] = {"value": 100.0 * (walls[0] / walls[1] - 1.0),
                                         "unit": "%"}
        print(f"wall_s: traced {walls[0]:.3f} s, untraced {walls[1]:.3f} s")
    else:
        values = {k: statistics.median(res[k] for _, res in rounds) for k in END_TO_END}
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for k, m in metrics.items():
        print(f"{k} = {m['value']} {m['unit']}")
    print(f"attempted {len(checks)} failed {len(failed)} over {len(reports)} reports")
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
