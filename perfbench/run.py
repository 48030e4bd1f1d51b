"""Benchmark of the ramseykit command-line interface.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; the package is imported from ./src.
Each operation is one fresh `python3 -m ramseykit.cli` process, run one
at a time from this single parent (a closed loop with one client).  A
pass is the workload's fixed list of operations; passes repeat while the
next one is expected to end within --seconds (at least one always runs),
and every pass must reproduce the first pass's output files byte for
byte.  Every output is checked by check.py, which does not import
ramseykit, and outputs of the recorded default seeds must match the
SHA-256 digests in baseline.json.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones:
each pass is then run once plainly and once through launch.py, which
times every public function of the six modules from outside.  The last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import check

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
ENV = dict(os.environ, PYTHONPATH=SRC)
PYTHON = sys.executable
# fresh interpreters timed for setup_s and proc.python_start_s
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]  # op seed -> CLI arguments
    check: Callable[[int, str], None]  # op seed, stdout; raises check.Rejected
    digested: tuple[str, ...]  # output files that must repeat byte for byte
    written: tuple[str, ...]  # files written through ramseykit.fileio
    ops_per_pass: int
    timeout_s: float  # per op, several times its baseline
    fires: tuple[str, ...]  # per-layer metrics that must be nonzero when traced


WITNESS_FIRES = (
    "construct.sample_hypergraph.self_s", "construct.sample_hypergraph.edges",
    "construct.conformality_violations.self_s", "construct.clean.reverify_s",
    "construct.linearity_violations.self_s", "construct.lift_coloring.self_s",
    "hypergraph.enumerate_cliques.self_s", "hypergraph.enumerate_cliques.in_clean_s",
    "hypergraph.enumerate_cliques.in_verify_s", "hypergraph.enumerate_cliques.cliques",
    "hypergraph.primal_r_graph.self_s", "hypergraph.EdgeColoring.self_s",
    "arrows.arrows_decision.self_s", "arrows.search_nodes", "arrows.nodes_per_s",
    "arrows.verify_good_coloring.self_s", "fileio.write_hypergraph.self_s",
    "fileio.write_coloring.self_s", "fileio.bytes_written", "cli.self_s",
)


def witness(name, n, s, r, targets, p, ops_per_pass, timeout_s):
    def argv(seed):
        return ["witness", "--n", str(n), "--s", str(s), "--r", str(r),
                "--targets", ",".join(map(str, targets)), "--p", p,
                "--seed", str(seed), "--out", "w"]

    return Workload(
        name, argv, lambda seed, _out: check.check_witness("w", n, s, r, targets, seed),
        ("w.h0.uhg", "w.uhg", "w.json"), ("w.h0.uhg", "w.uhg", "w.col"),
        ops_per_pass, timeout_s, WITNESS_FIRES,
    )


def _experiment_argv(seed):
    return ["experiment", "--n", "1000", "--s", "5", "--r", "2", "--t", "3",
            "--p", "n^-3.2", "--trials", "2", "--seed", str(seed),
            "--csv", "e.csv", "--json", "e.json"]


WORKLOADS = {w.name: w for w in (
    witness("witness_r2_sparse", 10000, 5, 2, (3, 3), "n^-3.7", 2, 30.0),
    Workload(
        "experiment_r2_dense", _experiment_argv,
        lambda seed, _out: check.check_experiment("e.csv", "e.json", 1000, 5, 2, 3, 2, seed),
        ("e.csv", "e.json"), (), 1, 60.0,
        ("construct.sample_hypergraph.self_s", "construct.sample_hypergraph.edges",
         "construct.conformality_violations.self_s", "construct.conformality.cross_ratio",
         "construct.clean.reverify_s", "construct.linearity_violations.self_s",
         "construct.violations.overlap", "construct.violations.cover", "construct.clean.deleted",
         "hypergraph.enumerate_cliques.self_s", "hypergraph.enumerate_cliques.in_clean_s",
         "hypergraph.enumerate_cliques.cliques", "hypergraph.primal_r_graph.self_s",
         "covers.enumerate_minimal_nontrivial_covers.self_s",
         "covers.enumerate_minimal_nontrivial_covers.calls",
         "covers.enumerate_minimal_nontrivial_covers.families", "covers.hit_ratio", "cli.self_s"),
    ),
    Workload(
        "ramsey_r2", lambda _seed: ["ramsey", "--targets", "3,4", "--r", "2", "--nmax", "9"],
        lambda _seed, out: check.check_ramsey(out, 9), (), (), 1, 75.0,
        ("arrows.arrows_decision.self_s", "arrows.search_nodes", "arrows.nodes_per_s", "cli.self_s"),
    ),
    witness("witness_r3", 500, 8, 3, (4, 5), "n^-5.3", 2, 20.0),
)}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class Op:
    seed: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    error: str | None
    digests: dict
    layers: dict | None = None  # per-layer metrics of a traced op


def _digests(files):
    out = {}
    for path in files:
        with open(path, "rb") as fh:
            out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


def spawn(argv: list[str], cwd: str, timeout_s: float) -> tuple[float, float, float, int | None, str]:
    """Run argv to completion; (wall s, cpu s, max RSS MiB, exit code or None on timeout, stdout)."""
    out_path = os.path.join(cwd, ".stdout")
    with open(out_path, "wb") as out, open(os.path.join(cwd, ".stderr"), "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out, stderr=err)
        timed_out = []

        def on_alarm(_sig, _frame):
            timed_out.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted by SIGTERM or ^C: end the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    rc = None if timed_out else proc.returncode
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, rc, stdout


def median_start(argv: list[str], cwd: str) -> float:
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, _cpu, _rss, rc, _out = spawn(argv, cwd, 30.0)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {rc}")
        walls.append(wall)
    return statistics.median(walls)


def run_op(w: Workload, seed: int, work: str, expected: dict | None, traced: bool,
           python_start_s: float = 0.0) -> Op:
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    prefix = ([PYTHON, os.path.join(HERE, "launch.py"), "spans.json"] if traced
              else [PYTHON, "-m", "ramseykit.cli"])
    wall, cpu, rss, rc, stdout = spawn(prefix + w.argv(seed), work, w.timeout_s)
    op = Op(seed, wall, cpu, rss, None, {})
    prev = os.getcwd()
    os.chdir(work)
    try:
        if rc != 0:
            with open(".stderr", errors="replace") as fh:
                last = (fh.read().strip().splitlines() or [""])[-1]
            raise check.Rejected("timed out" if rc is None else f"exit code {rc}: {last}")
        w.check(seed, stdout)
        op.digests = _digests(w.digested)
        if expected is not None and op.digests != expected:
            raise check.Rejected("output files differ from the recorded or first-pass digests")
        if traced:
            with open("spans.json") as fh:
                trace = json.load(fh)
            op.layers = layer_metrics(trace["spans"])
            op.layers["fileio.bytes_written"] = sum(os.path.getsize(f) for f in w.written)
            residual = wall - python_start_s - trace["import_s"] - sum(
                end - start for _n, start, end, parent, _c in trace["spans"] if parent == -1)
            if abs(residual) > max(0.25, 0.1 * wall):
                raise check.Rejected(f"spans leave {residual:.3f} s of the {wall:.3f} s op unaccounted")
    except check.Rejected as exc:
        op.error = str(exc)
    finally:
        os.chdir(prev)
    return op


_S, _N = "s", "count"
PER_LAYER = {
    "construct.sample_hypergraph.self_s": _S, "construct.sample_hypergraph.edges": _N,
    "construct.conformality_violations.self_s": _S, "construct.conformality.cross_ratio": "ratio",
    "construct.clean.reverify_s": _S, "construct.linearity_violations.self_s": _S,
    "construct.lift_coloring.self_s": _S, "construct.violations.overlap": _N,
    "construct.violations.cover": _N, "construct.clean.deleted": _N,
    "hypergraph.enumerate_cliques.self_s": _S, "hypergraph.enumerate_cliques.in_clean_s": _S,
    "hypergraph.enumerate_cliques.in_verify_s": _S, "hypergraph.enumerate_cliques.cliques": _N,
    "hypergraph.primal_r_graph.self_s": _S, "hypergraph.EdgeColoring.self_s": _S,
    "covers.enumerate_minimal_nontrivial_covers.self_s": _S,
    "covers.enumerate_minimal_nontrivial_covers.calls": _N,
    "covers.enumerate_minimal_nontrivial_covers.families": _N, "covers.hit_ratio": "ratio",
    "arrows.arrows_decision.self_s": _S, "arrows.search_nodes": _N, "arrows.nodes_per_s": "1/s",
    "arrows.verify_good_coloring.self_s": _S, "fileio.write_hypergraph.self_s": _S,
    "fileio.write_coloring.self_s": _S, "fileio.bytes_written": "bytes", "cli.self_s": _S,
    "proc.cpu_s": _S, "proc.python_start_s": _S, "trace.overhead_frac": "ratio",
}
RATIOS = {  # ratio metric: (numerator, denominator), both summed over a pass
    "construct.conformality.cross_ratio": ("_conformality_covers", "_conformality_cliques"),
    "covers.hit_ratio": ("_covers_hits", "covers.enumerate_minimal_nontrivial_covers.calls"),
    "arrows.nodes_per_s": ("arrows.search_nodes", "arrows.arrows_decision.self_s"),
}


def layer_metrics(spans: list) -> dict:
    """Additive per-layer sums of one traced op (ratios are formed per pass)."""
    names = [s[0] for s in spans]
    self_s = [end - start for _n, start, end, _p, _c in spans]
    for _n, start, end, parent, _c in spans:
        if parent >= 0:
            self_s[parent] -= end - start

    def ancestors(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
            yield names[i]

    m = {k: 0 if u == "count" else 0.0 for k, u in PER_LAYER.items()}
    m.update(_conformality_covers=0, _conformality_cliques=0, _covers_hits=0)
    for i, (name, start, end, parent, count) in enumerate(spans):
        layer_self = f"{name}.self_s"
        if layer_self in m:
            m[layer_self] += self_s[i]
        if name.startswith("cli."):
            m["cli.self_s"] += self_s[i]
        parent_name = names[parent] if parent >= 0 else None
        if name == "construct.sample_hypergraph":
            m["construct.sample_hypergraph.edges"] += count
        elif name == "construct.clean":
            m["construct.clean.deleted"] += count
        elif name in ("construct.is_r_linear", "construct.is_conformal") and parent_name == "construct.clean":
            m["construct.clean.reverify_s"] += end - start
        elif name == "construct.linearity_violations" and parent_name == "construct.clean":
            m["construct.violations.overlap"] += count
        elif name == "construct.conformality_violations" and parent_name == "construct.clean":
            m["construct.violations.cover"] += count
        elif name == "hypergraph.enumerate_cliques":
            m["hypergraph.enumerate_cliques.cliques"] += count
            if parent_name == "construct.conformality_violations":
                m["_conformality_cliques"] += count
            callers = set(ancestors(i))
            if "construct.clean" in callers:
                m["hypergraph.enumerate_cliques.in_clean_s"] += self_s[i]
            elif "arrows.verify_good_coloring" in callers:
                m["hypergraph.enumerate_cliques.in_verify_s"] += self_s[i]
        elif name == "covers.enumerate_minimal_nontrivial_covers":
            m["covers.enumerate_minimal_nontrivial_covers.calls"] += 1
            m["covers.enumerate_minimal_nontrivial_covers.families"] += count
            m["_covers_hits"] += count > 0
            if parent_name == "construct.conformality_violations":
                m["_conformality_covers"] += 1
        elif name == "arrows.arrows_decision":
            m["arrows.search_nodes"] += count
    return m


def summarize_layers(passes: list[list[Op]], plain: list[list[Op]], python_start_s: float) -> dict:
    per_pass = []
    for traced_ops, plain_ops in zip(passes, plain):
        total = {k: sum(op.layers[k] for op in traced_ops) for k in traced_ops[0].layers}
        for metric, (num, den) in RATIOS.items():
            total[metric] = total[num] / total[den] if total[den] else 0.0
        total["proc.cpu_s"] = sum(op.cpu_s for op in plain_ops)
        total["proc.python_start_s"] = python_start_s
        total["trace.overhead_frac"] = (sum(op.wall_s for op in traced_ops)
                                        / sum(op.wall_s for op in plain_ops) - 1)
        per_pass.append(total)
    return {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Measure one workload; returns the result object printed as JSON."""
    seeds = [seed * w.ops_per_pass + j for j in range(w.ops_per_pass)]
    recorded = load_baseline()["workloads"].get(w.name, {}).get("ops", {})
    first: dict[int, dict] = {s: recorded.get(str(s), {}).get("digests") for s in seeds}
    spawn([PYTHON, "-c", "import ramseykit.cli"], work, 60.0)  # fill the bytecode cache
    if trace:
        python_start_s = median_start([PYTHON, "-c", "pass"], work)
    else:
        setup_s = median_start([PYTHON, "-c", "import ramseykit.cli"], work)

    def run_pass(traced: bool) -> list[Op]:
        ops = []
        for s in seeds:
            ops.append(run_op(w, s, work, first[s], traced, python_start_s if traced else 0.0))
            if ops[-1].error is None and first[s] is None:
                first[s] = ops[-1].digests
        return ops

    passes: list[list[Op]] = []
    plain: list[list[Op]] = []
    started = perf_counter()
    elapsed = last_pass = 0.0
    # start another pass only if it should end within --seconds, judged by the last one
    while not passes or elapsed + last_pass <= seconds:
        if trace:
            plain.append(run_pass(False))
        passes.append(run_pass(trace))
        last_pass = perf_counter() - started - elapsed
        elapsed += last_pass
    ops = [op for p in passes + plain for op in p]
    errors = [f"op seed {op.seed}: {op.error}" for op in ops if op.error]
    if trace and not errors:
        metrics = summarize_layers(passes, plain, python_start_s)
        errors += [f"traced pass: {m} did not fire" for m in w.fires if not metrics[m] > 0]
    elif trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
    else:
        metrics = {
            "wall_s": statistics.median(sum(op.wall_s for op in p) for p in passes),
            "setup_s": setup_s,
            "peak_rss_mib": statistics.median(max(op.rss_mib for op in p) for p in passes),
        }
    units = PER_LAYER if trace else END_TO_END
    failed = sum(op.error is not None for op in ops)
    print(f"{w.name}: op seeds {seeds}; {len(passes)} passes of "
          f"{' + '.join(f'{op.wall_s:.3f}' for op in passes[0])} s, pass walls "
          f"{[round(sum(op.wall_s for op in p), 3) for p in passes]}")
    for m, v in metrics.items():
        print(f"  {m:55s} {v:14.6g} {units[m]}")
    print(f"  {'fail_frac':55s} {failed / len(ops):14.6g} ratio ({failed} of {len(ops)} ops)")
    for e in errors:
        print(f"  FAILED {e}")
    return {
        "correct": not errors, "attempted": len(ops), "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def load_baseline() -> dict:
    with open(os.path.join(HERE, "baseline.json")) as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "ramseykit", "cli.py")):
        print("no ./src/ramseykit: run from the root of a ramseykit checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    work = os.path.abspath(os.path.join(".perfbench_work", str(os.getpid())))
    os.makedirs(work)
    try:
        missed = check.self_test(work)
        if missed:
            print(f"checker self-test failed on: {', '.join(missed)}", file=sys.stderr)
            return 1
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), work)
                   for n in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
