"""Record the benchmark's reference data in perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/record.py outputs --seeds 16
        Runs every op of benchmark seeds 0..15 once through the tracing
        launcher and stores, per op seed, the SHA-256 digests of its
        deterministic output files and its realized sizes, together with
        the workload flags, the per-op timeouts and the run environment.

    python3 perfbench/record.py spread --runs 10 --first-seed 1 --seconds 25
        Runs run.py --runs times per workload, each with another seed, and
        stores the median, the quartiles and the quartile spread (as a
        share of the median) of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import run


def environment() -> dict:
    def output(argv):
        return subprocess.run(argv, capture_output=True, text=True, env=run.ENV).stdout.strip()

    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    return {
        "git_sha": output(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": output([run.PYTHON, "-c", "import numpy; print(numpy.__version__)"]),
    }


def record_outputs(baseline: dict, seeds: int) -> None:
    work = os.path.abspath(os.path.join(".perfbench_work", f"record-{os.getpid()}"))
    os.makedirs(work)
    try:
        _record_ops(baseline, seeds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _record_ops(baseline: dict, seeds: int, work: str) -> None:
    python_start_s = run.median_start([run.PYTHON, "-c", "pass"], work)
    baseline["environment"] = environment()
    for w in run.WORKLOADS.values():
        ops = {}
        seeded = bool(w.digested)  # ramsey takes no seed: one op covers every seed
        for seed in range(seeds if seeded else 1):
            for op_seed in range(seed * w.ops_per_pass, (seed + 1) * w.ops_per_pass):
                op = run.run_op(w, op_seed, work, None, True, python_start_s)
                if op.error:
                    sys.exit(f"{w.name} op seed {op_seed}: {op.error}")
                m = op.layers
                ops[str(op_seed)] = {
                    "wall_s": round(op.wall_s, 3),
                    "sizes": {
                        "e_H": m["construct.sample_hypergraph.edges"],
                        "deleted": m["construct.clean.deleted"],
                        "cliques": m["hypergraph.enumerate_cliques.cliques"],
                        "cross_ratio": (m["_conformality_covers"] / m["_conformality_cliques"]
                                        if m["_conformality_cliques"] else 0.0),
                        "search_nodes": m["arrows.search_nodes"],
                    },
                    "digests": op.digests,
                }
                print(w.name, op_seed, ops[str(op_seed)]["wall_s"], ops[str(op_seed)]["sizes"])
        baseline["workloads"][w.name] = {
            "argv": w.argv("S"), "ops_per_pass": w.ops_per_pass,
            "op_seeds": "seed * ops_per_pass + j for j < ops_per_pass",
            "timeout_s": w.timeout_s, "ops": ops,
        }


def record_spread(baseline: dict, runs: int, first_seed: int, seconds: int, names: list[str]) -> None:
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [run.PYTHON, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                sys.exit(f"{name} seed {seed}: run failed\n{proc.stdout}")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                               "seeds": [first_seed, first_seed + runs - 1], "values": vals}
            print(f"{name:22s} {metric:14s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:.4f}  values {' '.join(f'{v:.4g}' for v in vals)}")
        baseline.setdefault("baseline", {})[name] = summary
        baseline["baseline_seconds"] = seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    out = sub.add_parser("outputs")
    out.add_argument("--seeds", type=int, default=16)
    spread = sub.add_parser("spread")
    spread.add_argument("--runs", type=int, default=10)
    spread.add_argument("--first-seed", type=int, default=1)
    spread.add_argument("--seconds", type=int, required=True)
    spread.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    baseline = run.load_baseline()
    baseline.setdefault("workloads", {})
    if args.what == "outputs":
        record_outputs(baseline, args.seeds)
    else:
        record_spread(baseline, args.runs, args.first_seed, args.seconds,
                      args.workload or list(run.WORKLOADS))
    with open(os.path.join(run.HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
