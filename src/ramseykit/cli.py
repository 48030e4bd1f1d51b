"""Command-line front end.

Verbs: density, construct, witness, arrow, ramsey, experiment.  Every
randomized verb requires an explicit --seed; given a full flag set the
output (stdout and files) is byte-identical across runs.

Exit codes: 0 success or "arrows", 1 "not_arrows", 2 inconclusive
(budget exhausted or undecided within bounds), 3 internal contradiction,
64 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple
from fractions import Fraction

from .arrows import (
    NoGoodColoringError,
    RamseyUndecidedError,
    SearchBudgetExceeded,
    TargetList,
    arrows_decision,
    base_coloring_search,
    export_cnf,
    ramsey_number,
    verify_good_coloring,
)
from .construct import (
    clean,
    lift_coloring,
    parse_probability,
    run_trials,
    sample_hypergraph,
)
from .covers import _check_srt, expected_cover_bound
from .fileio import read_hypergraph, write_coloring, write_hypergraph
from .hypergraph import InternalContradictionError, clique_density, max_r_density_with_witness

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_NOT_ARROWS = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONTRADICTION = 3
EXIT_USAGE = 64

# s-auto gives up unless the Ramsey number of the targets falls out of a
# small search; beyond this the caller must pass --s explicitly.
S_AUTO_MAX_VERTICES = 16
S_AUTO_MAX_NODES = 200_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise ValueError(message)


def _parse_targets(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse target list {text!r}, expected e.g. 3,3") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _report(args, payload: dict, text: str, json_path: str | None = None,
            code: int = EXIT_OK) -> int:
    """The one exit of every verb's report: the JSON form of `payload`
    goes to `json_path` when given, then the JSON or `text` to stdout as
    --format says; returns the verb's exit code."""
    report = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if json_path is not None:
        _write_text(json_path, report)
    sys.stdout.write(report if args.format == "json" else text)
    return code


def _params(n, s, r, t, p) -> dict:
    """The parameter block that every sampling report opens with."""
    return {"n": n, "s": s, "r": r, "t": t, "p": str(p)}


def _cmd_density(args) -> int:
    if args.clique is not None:
        parts = _parse_targets(args.clique)
        if len(parts) != 2:
            raise ValueError(f"--clique expects 't,r', got {args.clique!r}")
        t, r = parts
        value = clique_density(t, r)
        witness = tuple(range(1, t + 1))
        source = f"clique({t},{r})"
    else:
        F = read_hypergraph(args.file)
        value, witness = max_r_density_with_witness(F)
        source = args.file
    payload = {
        "kind": "density",
        "source": source,
        "density": str(value),
        "witness": list(witness) if witness is not None else None,
    }
    text = f"{value}\n"
    if witness is not None:
        text += f"witness: {' '.join(map(str, witness))}\n"
    return _report(args, payload, text)


def _cmd_construct(args) -> int:
    p = parse_probability(args.p, args.n)
    _check_srt(args.s, args.r, args.t)
    H = sample_hypergraph(args.n, args.s, p, args.seed)
    report = clean(H, args.r, args.t)
    deleted_fraction = Fraction(len(report.deleted), H.num_edges or 1)
    uhg_path = f"{args.out}.uhg"
    write_hypergraph(report.result, uhg_path)
    payload = {
        "kind": "construct",
        **_params(args.n, args.s, args.r, args.t, p),
        "seed": args.seed,
        "input_edges": H.num_edges,
        "num_linearity_violations": report.num_linearity_violations,
        "num_cover_violations": report.num_cover_violations,
        "linearity_violations": [
            [list(a), list(b)] for a, b in report.linearity_violations
        ],
        "cover_violations": [
            {"target": list(fam.target), "members": [list(m) for m in fam.members]}
            for fam in report.cover_violations
        ],
        "deleted": [list(e) for e in report.deleted],
        "result_edges": report.result.num_edges,
        "deleted_fraction": str(deleted_fraction),
        "result_file": uhg_path,
    }
    text = (
        f"sampled {H.num_edges} edges, deleted {len(report.deleted)} "
        f"({report.num_linearity_violations} overlap pairs, "
        f"{report.num_cover_violations} cover violations), "
        f"deleted fraction {deleted_fraction}\n"
        f"result: {report.result.num_edges} edges -> {uhg_path}\n"
    )
    return _report(args, payload, text, json_path=f"{args.out}.json")


def _cmd_witness(args) -> int:
    p = parse_probability(args.p, args.n)
    targets = TargetList(args.r, _parse_targets(args.targets))
    if args.s is not None:
        s = args.s
    else:
        try:
            s = ramsey_number(
                targets, S_AUTO_MAX_VERTICES, max_nodes=S_AUTO_MAX_NODES
            ) - 1
        except (SearchBudgetExceeded, RamseyUndecidedError) as exc:
            raise RamseyUndecidedError(
                "--s-auto could not decide the targets' Ramsey number within "
                f"the default budget ({exc}); pass --s explicitly"
            ) from exc
    t = min(targets.sizes)
    _check_srt(s, args.r, t)
    # sample first: its input checks are cheap, the base search is not
    H = sample_hypergraph(args.n, s, p, args.seed)
    base = base_coloring_search(s, targets, max_nodes=args.max_nodes,
                                max_seconds=args.max_seconds)
    report = clean(H, args.r, t)
    lifted = lift_coloring(report.result, args.r, base)
    primal = lifted.host
    check = verify_good_coloring(primal, lifted, targets)
    if not check:
        raise InternalContradictionError(
            f"lifted coloring has a monochromatic clique {check.vertices} "
            f"in color {check.color}; the cleaning step must be wrong"
        )
    uhg_path = f"{args.out}.uhg"
    col_path = f"{args.out}.col"
    h0_path = f"{args.out}.h0.uhg"
    write_hypergraph(primal, uhg_path)
    write_coloring(lifted, col_path)
    write_hypergraph(report.result, h0_path)
    payload = {
        "kind": "witness",
        **_params(args.n, s, args.r, t, p),
        "targets": list(targets.sizes),
        "seed": args.seed,
        "input_edges": H.num_edges,
        "deleted": len(report.deleted),
        "h0_edges": report.result.num_edges,
        "primal_edges": primal.num_edges,
        "verified": True,
        "files": {"primal": uhg_path, "coloring": col_path, "h0": h0_path},
    }
    text = (
        f"s={s}: certified good {targets.num_colors}-coloring of the "
        f"primal graph ({primal.num_edges} edges) -> {uhg_path}, {col_path}\n"
    )
    return _report(args, payload, text, json_path=f"{args.out}.json")


def _cmd_arrow(args) -> int:
    G = read_hypergraph(args.file)
    targets = TargetList(G.k, _parse_targets(args.targets))
    if args.cnf is not None:
        _write_text(args.cnf, export_cnf(G, targets))
    if args.skip_decision:
        if args.cnf is None:
            raise ValueError("--skip-decision without --cnf does nothing")
        print(f"wrote {args.cnf}; decision skipped")
        return EXIT_OK
    result = arrows_decision(
        G, targets, max_nodes=args.max_nodes, max_seconds=args.max_seconds
    )
    witness_path = None
    if result.verdict == "not_arrows" and args.witness_out is not None:
        write_coloring(result.witness, args.witness_out)
        witness_path = args.witness_out
    payload = {
        "kind": "arrow",
        "file": args.file,
        "n": G.n,
        "r": G.k,
        "targets": list(targets.sizes),
        "verdict": result.verdict,
        "exhausted": result.exhausted,
        "nodes_explored": result.nodes_explored,
        "witness_file": witness_path,
        "cnf_file": args.cnf,
    }
    text = f"{result.verdict} (nodes explored: {result.nodes_explored})\n"
    code = EXIT_OK if result.verdict == "arrows" else EXIT_NOT_ARROWS
    return _report(args, payload, text, code=code)


def _cmd_ramsey(args) -> int:
    targets = TargetList(args.r, _parse_targets(args.targets))
    value = ramsey_number(
        targets, args.nmax, max_nodes=args.max_nodes, max_seconds=args.max_seconds
    )
    payload = {
        "kind": "ramsey",
        "r": args.r,
        "targets": list(targets.sizes),
        "n_max": args.nmax,
        "value": value,
    }
    return _report(args, payload, f"{value}\n")


def _cmd_experiment(args) -> int:
    p = parse_probability(args.p, args.n)
    _check_srt(args.s, args.r, args.t)
    stats = run_trials(args.n, args.s, args.r, args.t, p, args.trials, args.seed)
    payload = {
        "kind": "experiment",
        **_params(args.n, args.s, args.r, args.t, p),
        "trials": stats.trials,
        "master_seed": args.seed,
        "mean_edges": stats.mean_edges,
        "mean_cover_violations": stats.mean_cover_violations,
        "mean_linearity_violations": stats.mean_linearity_violations,
        "mean_deleted": stats.mean_deleted,
        "mean_deleted_fraction": stats.mean_deleted_fraction,
        "violation_edge_ratio": stats.violation_edge_ratio,
    }
    text = (
        f"{stats.trials} trials: mean edges {stats.mean_edges:.3f}, "
        f"mean deleted {stats.mean_deleted:.3f}, "
        f"violation/edge ratio {stats.violation_edge_ratio:.6f}\n"
    )
    if args.lemma42:
        bound = expected_cover_bound(args.n, args.s, args.r, args.t, p)
        payload["cover_bound"] = {
            **_params(args.n, args.s, args.r, args.t, p),
            "trace_count": bound.trace_count,
            "bound": str(bound.total),
            "reference": str(bound.reference),
            "ratio": str(bound.ratio),
        }
        text += (
            f"cover-count bound {float(bound.total):.6g} vs reference "
            f"{float(bound.reference):.6g} (ratio {float(bound.ratio):.6g})\n"
        )
    if args.csv is not None:
        # every column is an integer, so no field needs CSV quoting
        rows = [("seed", "e_H", "X", "Y", "deleted", "e_H0"), *map(astuple, stats.records)]
        _write_text(args.csv, "".join(",".join(map(str, row)) + "\n" for row in rows))
    return _report(args, payload, text, json_path=args.json)


def _budget(kind, name):
    """argparse type: a `kind` refused when negative or NaN, before any work."""
    def parse(text):
        if not (value := kind(text)) >= 0:
            raise argparse.ArgumentTypeError(f"{name} must be >= 0, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="ramseykit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="verb", required=True)

    # flag groups shared by several verbs, each declared once
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="stdout report format (default: text)")
    budgets = _Parser(add_help=False)
    budgets.add_argument("--max-nodes", type=_budget(int, "max_nodes"), default=None,
                         help="node budget for the search (default: unlimited)")
    budgets.add_argument("--max-seconds", type=_budget(float, "max_seconds"), default=None,
                         help="time budget in seconds (default: unlimited)")
    targets = _Parser(add_help=False)
    targets.add_argument("--targets", required=True, help="comma list, e.g. 3,3")
    sampling = _Parser(add_help=False)
    sampling.add_argument("--p", required=True, help="decimal, a/b, or n^x")
    sampling.add_argument("--seed", type=int, required=True)
    nsrt = _Parser(add_help=False)
    nsrt.add_argument("--n", type=int, required=True)
    nsrt.add_argument("--s", type=int, required=True)
    nsrt.add_argument("--r", type=int, required=True)
    nsrt.add_argument("--t", type=int, required=True)

    d = subs.add_parser("density", parents=[fmt], help="maximum r-density of a hypergraph")
    source = d.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", default=None, help=".uhg input file")
    source.add_argument("--clique", metavar="T,R", default=None,
                        help="density of the complete R-graph on T vertices")
    d.set_defaults(handler=_cmd_density)

    c = subs.add_parser(
        "construct", parents=[nsrt, sampling, fmt],
        help="sample H(n,s,p), delete bad configurations, write the survivor",
    )
    c.add_argument("--out", required=True, help="output prefix (.json/.uhg)")
    c.set_defaults(handler=_cmd_construct)

    w = subs.add_parser(
        "witness", parents=[targets, sampling, budgets, fmt],
        help="build a primal graph with a certified good coloring",
    )
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--r", type=int, required=True)
    group = w.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", type=int, default=None,
                       help="edge size of the sampled hypergraph")
    group.add_argument("--s-auto", action="store_true",
                       help="set s to the targets' Ramsey number minus one "
                            "(only for cheaply decidable targets)")
    w.add_argument("--out", required=True,
                   help="output prefix (.json/.uhg/.col/.h0.uhg)")
    w.set_defaults(handler=_cmd_witness)

    a = subs.add_parser("arrow", parents=[targets, budgets, fmt],
                        help="decide arrowing, optionally export CNF")
    a.add_argument("file", help=".uhg input file")
    a.add_argument("--cnf", default=None, help="write a DIMACS CNF here")
    a.add_argument("--skip-decision", action="store_true",
                   help="only export the CNF, do not run the search")
    a.add_argument("--witness-out", default=None,
                   help="write the good coloring here when not arrowing")
    a.set_defaults(handler=_cmd_arrow)

    rm = subs.add_parser("ramsey", parents=[targets, budgets, fmt],
                         help="least n with K_n arrowing the targets")
    rm.add_argument("--r", type=int, required=True)
    rm.add_argument("--nmax", type=int, required=True)
    rm.set_defaults(handler=_cmd_ramsey)

    e = subs.add_parser(
        "experiment", parents=[nsrt, sampling, fmt],
        help="repeated sample-and-clean trials with statistics",
    )
    e.add_argument("--trials", type=int, required=True)
    e.add_argument("--csv", default=None, help="write per-trial rows here")
    e.add_argument("--json", default=None, help="write the JSON summary here")
    e.add_argument("--lemma42", action="store_true",
                   help="also evaluate the exact cover-count bound")
    e.set_defaults(handler=_cmd_experiment)

    return parser


# exception -> (stderr prefix, exit code); usage errors, FormatError and
# NotLinearError are ValueErrors.  Anything else propagates.
_ERRORS = {
    SearchBudgetExceeded: ("inconclusive", EXIT_INCONCLUSIVE),
    RamseyUndecidedError: ("inconclusive", EXIT_INCONCLUSIVE),
    InternalContradictionError: ("internal contradiction", EXIT_CONTRADICTION),
    NoGoodColoringError: ("error", EXIT_USAGE),
    ValueError: ("error", EXIT_USAGE),
    OSError: ("error", EXIT_USAGE),
}


def main(argv=None) -> int:
    # numpy serves only the sampler's RNG and the CLI never calls BLAS, so
    # OpenBLAS need not start its worker threads when numpy is imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except tuple(_ERRORS) as exc:
        prefix, code = next(v for t, v in _ERRORS.items() if isinstance(exc, t))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
