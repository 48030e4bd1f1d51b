"""Independent checker for the outputs of the ramseykit CLI.

Nothing here imports ramseykit: the file formats are parsed afresh, the
good-coloring property is re-checked by a plain clique search over each
color class, and the experiment summary is recomputed from its CSV.
Every check raises ``Rejected`` with a message naming the file and the
offending object; ``self_test`` feeds the checker corrupted outputs and
confirms each one is rejected.

Run ``python3 perfbench/check.py --self-test`` to run the self-test alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile


class Rejected(Exception):
    """An output failed an independent check."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise Rejected(f"{path}: cannot read ({exc.strerror})") from None


def _records(path: str, magic: str, fields: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Header ints and body lines (as int tuples) of a .uhg/.col file."""
    lines = [
        (no, ln.split())
        for no, ln in enumerate(_read(path).split("\n"), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or lines[0][1][0] != magic or len(lines[0][1]) != fields:
        raise Rejected(f"{path}: missing or malformed '{magic}' header")
    try:
        header = [int(tok) for tok in lines[0][1][1:]]
        body = [(no, tuple(int(tok) for tok in toks)) for no, toks in lines[1:]]
    except ValueError:
        raise Rejected(f"{path}: non-integer token") from None
    n, k = header[0], header[1]
    rows = []
    for no, row in body:
        edge = row[:k]
        if len(edge) != k or any(not 1 <= v <= n for v in edge) or list(edge) != sorted(set(edge)):
            raise Rejected(f"{path}:{no}: not {k} strictly ascending vertices in 1..{n}")
        rows.append(row)
    return header, rows


def parse_uhg(path: str) -> tuple[int, int, set[tuple[int, ...]]]:
    (n, k), rows = _records(path, "uhg", 3)
    edges = set(rows)
    if len(edges) != len(rows) or any(len(e) != k for e in rows):
        raise Rejected(f"{path}: duplicate edge or wrong arity")
    return n, k, edges


def parse_col(path: str) -> tuple[int, int, int, dict[tuple[int, ...], int]]:
    (n, k, colors), rows = _records(path, "col", 4)
    assignment = {}
    for row in rows:
        if len(row) != k + 1 or not 1 <= row[k] <= colors:
            raise Rejected(f"{path}: line {row} is not k vertices and a color in 1..{colors}")
        if row[:k] in assignment:
            raise Rejected(f"{path}: edge {row[:k]} colored twice")
        assignment[row[:k]] = row[k]
    return n, k, colors, assignment


def find_clique(edges: set[tuple[int, ...]], r: int, t: int) -> tuple[int, ...] | None:
    """A t-set all of whose r-subsets lie in `edges`, or None.

    Plain extension search: a clique's sorted vertices start with one of
    its edges, and a vertex w extends a clique exactly when w completes
    an edge with every (r-1)-subset of it.
    """
    link: dict[tuple[int, ...], set[int]] = {}
    for e in edges:
        for i in range(r):
            link.setdefault(e[:i] + e[i + 1 :], set()).add(e[i])

    def common(vertices, fixed):
        out = None
        for sub in itertools.combinations(vertices, r - 1):
            if fixed is not None and fixed not in sub:
                continue
            nxt = link.get(sub, set())
            out = set(nxt) if out is None else out & nxt
        return out

    def extend(clique, cands):
        if len(clique) == t:
            return clique
        for w in sorted(cands):
            if w > clique[-1]:
                grown = clique + (w,)
                found = extend(grown, cands & common(grown, w))
                if found:
                    return found
        return None

    for e in sorted(edges):
        found = extend(e, common(e, None)) if t > r else e
        if found:
            return found
    return None


def check_witness(prefix: str, n: int, s: int, r: int, targets: tuple[int, ...], seed: int) -> None:
    """Check the four files a `witness` run writes under `prefix`.

    The survivor `.h0.uhg` must be r-linear, the primal `.uhg` exactly
    its r-shadow, the `.col` a total coloring of the primal graph with
    no color class holding its target clique, and the JSON consistent
    with all three.
    """
    h0_path, uhg_path, col_path, json_path = (
        f"{prefix}.h0.uhg", f"{prefix}.uhg", f"{prefix}.col", f"{prefix}.json"
    )
    n0, k0, h0 = parse_uhg(h0_path)
    if (n0, k0) != (n, s):
        raise Rejected(f"{h0_path}: header (n={n0}, k={k0}) != ({n}, {s})")
    owner: dict[tuple[int, ...], tuple[int, ...]] = {}
    for A in sorted(h0):
        for B in itertools.combinations(A, r):
            if B in owner:
                raise Rejected(f"{h0_path}: edges {owner[B]} and {A} share {r} vertices")
            owner[B] = A
    n1, k1, primal = parse_uhg(uhg_path)
    if (n1, k1) != (n, r) or primal != owner.keys():
        raise Rejected(f"{uhg_path}: not the {r}-shadow of {h0_path}")
    n2, k2, colors, assignment = parse_col(col_path)
    if (n2, k2, colors) != (n, r, len(targets)) or assignment.keys() != primal:
        raise Rejected(f"{col_path}: does not color the edges of {uhg_path} with {len(targets)} colors")
    for color, size in enumerate(targets, start=1):
        cls = {e for e, c in assignment.items() if c == color}
        hit = find_clique(cls, r, size)
        if hit:
            raise Rejected(f"{col_path}: monochromatic {size}-clique {hit} in color {color}")
    try:
        report = json.loads(_read(json_path))
    except json.JSONDecodeError:
        raise Rejected(f"{json_path}: not JSON") from None
    expect = {
        "kind": "witness", "n": n, "s": s, "r": r, "t": min(targets),
        "targets": list(targets), "seed": seed, "verified": True,
        "h0_edges": len(h0), "primal_edges": len(primal),
        "files": {"primal": uhg_path, "coloring": col_path, "h0": h0_path},
    }
    bad = sorted(key for key, val in expect.items() if report.get(key) != val)
    if bad or report.get("input_edges", -1) - report.get("deleted", -1) != len(h0):
        raise Rejected(f"{json_path}: fields {bad or ['input_edges - deleted']} disagree with the files")


def _trial_seed(master: int, index: int) -> int:
    # the documented derivation: first 8 bytes of SHA-256("ramseykit:<master>:<i>")
    digest = hashlib.sha256(f"ramseykit:{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def check_experiment(csv_path: str, json_path: str, n: int, s: int, r: int, t: int,
                     trials: int, seed: int) -> None:
    """Check the experiment CSV row by row and recompute the JSON means from it."""
    rows = list(csv.reader(io.StringIO(_read(csv_path))))
    if not rows or rows[0] != ["seed", "e_H", "X", "Y", "deleted", "e_H0"]:
        raise Rejected(f"{csv_path}: header is not seed,e_H,X,Y,deleted,e_H0")
    try:
        recs = [tuple(int(v) for v in row) for row in rows[1:]]
    except ValueError:
        raise Rejected(f"{csv_path}: non-integer field") from None
    if len(recs) != trials or any(len(rec) != 6 for rec in recs):
        raise Rejected(f"{csv_path}: expected {trials} rows of 6 fields")
    for i, (tseed, e_h, x, y, deleted, e_h0) in enumerate(recs):
        where = f"{csv_path}:{i + 2}"
        if tseed != _trial_seed(seed, i):
            raise Rejected(f"{where}: trial seed {tseed} is not derived from master seed {seed}")
        if min(x, y) < 0 or not 0 <= deleted <= min(e_h, x + y):
            raise Rejected(f"{where}: counts out of range")
        if e_h0 != e_h - deleted:
            raise Rejected(f"{where}: e_H0={e_h0} but e_H - deleted = {e_h - deleted}")
    try:
        report = json.loads(_read(json_path))
    except json.JSONDecodeError:
        raise Rejected(f"{json_path}: not JSON") from None
    cols = list(zip(*recs))
    mean = {name: math.fsum(cols[j]) / trials for name, j in
            (("mean_edges", 1), ("mean_cover_violations", 2),
             ("mean_linearity_violations", 3), ("mean_deleted", 4))}
    mean["mean_deleted_fraction"] = math.fsum(d / e if e else 0.0 for _, e, _, _, d, _ in recs) / trials
    mean["violation_edge_ratio"] = (
        (mean["mean_cover_violations"] + mean["mean_linearity_violations"]) / mean["mean_edges"]
        if mean["mean_edges"] else 0.0
    )
    fixed = {"kind": "experiment", "n": n, "s": s, "r": r, "t": t, "trials": trials, "master_seed": seed}
    bad = [key for key, val in fixed.items() if report.get(key) != val]
    bad += [key for key, val in mean.items()
            if not isinstance(report.get(key), (int, float))
            or not math.isclose(report[key], val, rel_tol=1e-12, abs_tol=1e-12)]
    if bad:
        raise Rejected(f"{json_path}: {sorted(bad)} disagree with {csv_path}")


def check_ramsey(stdout: str, expected: int) -> None:
    if stdout.strip() != str(expected):
        raise Rejected(f"ramsey printed {stdout.strip()!r}, expected {expected}")


def _rejection(check, *args) -> str:
    """The reason `check` rejects its input, or "" when it accepts it."""
    try:
        check(*args)
    except Rejected as exc:
        return str(exc)
    return ""


def self_test(workdir: str = ".") -> list[str]:
    """Feed the checker three corrupted outputs; return the ones it accepted.

    The corruptions: a `.col` with one color flipped so a monochromatic
    triangle appears, a `.h0.uhg` with two edges sharing r vertices, and
    a CSV row with a wrong e_H0; each must be rejected for that reason.
    The uncorrupted outputs are checked too, so a checker that rejects
    everything fails.
    """
    missed = []
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=workdir) as tmp:
        w = os.path.join(tmp, "w")
        # two disjoint 5-sets, each colored as the pentagon/pentagram split of K_5
        h0 = [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10)]
        primal = sorted(B for A in h0 for B in itertools.combinations(A, 2))
        color = {B: 1 if (B[1] - B[0]) % 5 in (1, 4) else 2 for B in primal}

        def write_witness(h0_edges, colors):
            shadow = sorted({B for A in h0_edges for B in itertools.combinations(A, 2)})
            files = {
                ".h0.uhg": ["uhg 10 5"] + [" ".join(map(str, A)) for A in h0_edges],
                ".uhg": ["uhg 10 2"] + [" ".join(map(str, B)) for B in shadow],
                ".col": ["col 10 2 2"] + [f"{B[0]} {B[1]} {colors.get(B, 1)}" for B in shadow],
            }
            for ext, lines in files.items():
                with open(w + ext, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
            with open(w + ".json", "w") as fh:
                json.dump({"kind": "witness", "n": 10, "s": 5, "r": 2, "t": 3, "targets": [3, 3],
                           "seed": 7, "verified": True, "input_edges": len(h0_edges), "deleted": 0,
                           "h0_edges": len(h0_edges), "primal_edges": len(shadow),
                           "files": {"primal": w + ".uhg", "coloring": w + ".col", "h0": w + ".h0.uhg"}}, fh)

        witness = (check_witness, w, 10, 5, 2, (3, 3), 7)
        write_witness(h0, color)
        if _rejection(*witness):
            missed.append("valid witness (rejected)")
        write_witness(h0, {**color, (1, 3): 1})  # 1-2, 2-3 are color 1 already
        if "monochromatic 3-clique (1, 2, 3)" not in _rejection(*witness):
            missed.append("flipped color")
        write_witness(h0 + [(1, 2, 6, 7, 8)], color)  # shares {1,2} with the first edge
        if "share 2 vertices" not in _rejection(*witness):
            missed.append("non-linear h0")

        csv_path, json_path = os.path.join(tmp, "e.csv"), os.path.join(tmp, "e.json")
        seeds = [_trial_seed(3, i) for i in range(2)]

        def write_experiment(last_e_h0):
            with open(csv_path, "w") as fh:
                fh.write(f"seed,e_H,X,Y,deleted,e_H0\n{seeds[0]},10,2,1,3,7\n{seeds[1]},20,0,0,0,{last_e_h0}\n")
            with open(json_path, "w") as fh:
                json.dump({"kind": "experiment", "n": 9, "s": 5, "r": 2, "t": 3, "trials": 2,
                           "master_seed": 3, "mean_edges": 15.0, "mean_cover_violations": 1.0,
                           "mean_linearity_violations": 0.5, "mean_deleted": 1.5,
                           "mean_deleted_fraction": 0.15, "violation_edge_ratio": 0.1}, fh)

        experiment = (check_experiment, csv_path, json_path, 9, 5, 2, 3, 2, 3)
        write_experiment(20)
        if _rejection(*experiment):
            missed.append("valid experiment (rejected)")
        write_experiment(19)
        if "e_H0=19" not in _rejection(*experiment):
            missed.append("wrong e_H0")
    return missed


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        sys.exit("usage: python3 perfbench/check.py --self-test")
    missed = self_test()
    print("self-test:", "ok" if not missed else "FAILED on " + ", ".join(missed))
    sys.exit(1 if missed else 0)
