"""Byte-identity of CLI outputs against recorded SHA-256 digests.

Each case runs one verb through ``cli.main`` in an empty directory with
a fixed seed and hashes its standard output and every file it writes;
it also checks the exit code and the prefix of standard error.  Every
verb is pinned in text and in ``--format json``, and every JSON report
(stdout or file) is validated against the shipped schema.  The
digests were recorded before the sampler, clique enumeration and
conformality scan were rewritten for speed, and the later cases before
the report and exit-code paths of the CLI were merged, so a rewrite
that changes a single output byte fails here.  The standard output of
``arrow_k5``, ``arrow_k6`` and their ``--format json`` twins was
re-recorded once, when ``arrow`` began to break symmetry (row-lex) on
complete graphs as ``ramsey`` and ``witness`` do: their
``nodes_explored`` fell from 71 to 49 and from 1,974 to 152, with the
same verdicts and the same K_5 witness.  Colorings (``.col``)
are left out: the witness base coloring and the arrow witness are
whichever good coloring the arrowing search meets first, and a change
to the search order may pick another one.

C(200, 5) and C(60, 5) exceed the sampler's dense limit of 2^20
candidates, so those cases draw edges by rank and go through
``_unrank_subset``; C(30, 4) stays below it and takes the per-candidate
Bernoulli path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from importlib import resources

import jsonschema
import pytest

from ramseykit.cli import main


def _complete_graph(n: int) -> str:
    pairs = itertools.combinations(range(1, n + 1), 2)
    return f"uhg {n} 2\n" + "".join(f"{a} {b}\n" for a, b in pairs)


# written into the working directory before every case
INPUTS = {
    "k4.uhg": _complete_graph(4),
    "k5.uhg": _complete_graph(5),
    "k6.uhg": _complete_graph(6),
    "edgeless.uhg": "uhg 6 2\n",
}

_CONSTRUCT_DENSE = ["construct", "--n", "30", "--s", "4", "--r", "2", "--t", "3",
                    "--p", "1/1200", "--seed", "1", "--out", "c"]
_WITNESS_R2 = ["witness", "--n", "200", "--s", "5", "--r", "2", "--targets", "3,3",
               "--p", "n^-3.2", "--seed", "11", "--out", "w"]
_WITNESS_AUTO = ["witness", "--n", "100", "--r", "2", "--targets", "3,3", "--s-auto",
                 "--p", "n^-4", "--seed", "5", "--out", "w"]
_ARROW_K5 = ["arrow", "k5.uhg", "--targets", "3,3", "--witness-out", "k5.col",
             "--cnf", "k5.cnf"]
_RAMSEY = ["ramsey", "--targets", "3,3", "--r", "2", "--nmax", "7"]
_EXPERIMENT = ["experiment", "--n", "200", "--s", "5", "--r", "2", "--t", "3",
               "--p", "n^-3.2", "--trials", "4", "--seed", "5",
               "--csv", "e.csv", "--json", "e.json"]
_LEMMA42 = ["experiment", "--n", "200", "--s", "4", "--r", "2", "--t", "3",
            "--p", "n^-2.75", "--trials", "3", "--seed", "11", "--lemma42",
            "--json", "e.json"]
_JSON = ["--format", "json"]

# name -> (argv, files to digest, exit code, standard-error prefix)
CASES = {
    "construct_r2_unrank": (
        ["construct", "--n", "200", "--s", "5", "--r", "2", "--t", "3",
         "--p", "n^-3.2", "--seed", "7", "--out", "c"],
        ("c.uhg", "c.json"), 0, "",
    ),
    "construct_r3_unrank": (
        ["construct", "--n", "60", "--s", "5", "--r", "3", "--t", "4",
         "--p", "n^-2.6", "--seed", "3", "--out", "c"],
        ("c.uhg", "c.json"), 0, "",
    ),
    "construct_r2_dense": (_CONSTRUCT_DENSE, ("c.uhg", "c.json"), 0, ""),
    "construct_r2_dense_json": (_CONSTRUCT_DENSE + _JSON, ("c.uhg", "c.json"), 0, ""),
    "witness_r2": (_WITNESS_R2, ("w.uhg", "w.h0.uhg", "w.json"), 0, ""),
    "witness_r2_json": (_WITNESS_R2 + _JSON, ("w.uhg", "w.h0.uhg", "w.json"), 0, ""),
    "witness_r3": (
        ["witness", "--n", "60", "--s", "5", "--r", "3", "--targets", "4,4",
         "--p", "n^-2.6", "--seed", "4", "--out", "w"],
        ("w.uhg", "w.h0.uhg", "w.json"), 0, "",
    ),
    "witness_s_auto": (_WITNESS_AUTO, ("w.uhg", "w.h0.uhg", "w.json"), 0, ""),
    "experiment_r2": (_EXPERIMENT, ("e.csv", "e.json"), 0, ""),
    "experiment_r2_json": (_EXPERIMENT + _JSON, ("e.csv", "e.json"), 0, ""),
    "experiment_lemma42": (_LEMMA42, ("e.json",), 0, ""),
    "experiment_lemma42_json": (_LEMMA42 + _JSON, ("e.json",), 0, ""),
    "density_clique": (["density", "--clique", "4,2"], (), 0, ""),
    "density_clique_json": (["density", "--clique", "4,2"] + _JSON, (), 0, ""),
    "density_k4": (["density", "k4.uhg"], (), 0, ""),
    "density_k4_json": (["density", "k4.uhg"] + _JSON, (), 0, ""),
    "density_edgeless": (["density", "edgeless.uhg"], (), 0, ""),
    "density_edgeless_json": (["density", "edgeless.uhg"] + _JSON, (), 0, ""),
    "arrow_k5": (_ARROW_K5, ("k5.cnf",), 1, ""),
    "arrow_k5_json": (_ARROW_K5 + _JSON, ("k5.cnf",), 1, ""),
    "arrow_k6": (["arrow", "k6.uhg", "--targets", "3,3"], (), 0, ""),
    "arrow_k6_json": (["arrow", "k6.uhg", "--targets", "3,3"] + _JSON, (), 0, ""),
    "arrow_k5_skip_decision": (
        ["arrow", "k5.uhg", "--targets", "3,3", "--cnf", "k5.cnf", "--skip-decision"],
        ("k5.cnf",), 0, "",
    ),
    "ramsey_33": (_RAMSEY, (), 0, ""),
    "ramsey_33_json": (_RAMSEY + _JSON, (), 0, ""),
    "usage_error": (["ramsey", "--targets", "3,3", "--nmax", "7"], (), 64, "error"),
    "budget_overrun": (
        ["arrow", "k6.uhg", "--targets", "3,3", "--max-nodes", "4"], (), 2, "inconclusive",
    ),
}

GOLDEN = {
    "arrow_k5": {
        "k5.cnf": "08681260feb293e2dfc58900d03d536cffacc335ec938d193d6d7b1ed7baa55e",
        "stdout": "f59910e44ed072d930ec30c4afde384838dc4a8ed41ad2d6798de1ea27eafca5",
    },
    "arrow_k5_json": {
        "k5.cnf": "08681260feb293e2dfc58900d03d536cffacc335ec938d193d6d7b1ed7baa55e",
        "stdout": "f81ef89334d5af3f68dc66d6bd15325692015f6752d66a47547c3890543164ea",
    },
    "arrow_k5_skip_decision": {
        "k5.cnf": "08681260feb293e2dfc58900d03d536cffacc335ec938d193d6d7b1ed7baa55e",
        "stdout": "5dab389d3dfdb5fe7944d7e9201dc43003e7dceff1a4a2d9c116035628ae9389",
    },
    "arrow_k6": {
        "stdout": "0f88ff9716918da66562759c80ae4c75fec51b39999d3c9102739a10333581fa",
    },
    "arrow_k6_json": {
        "stdout": "a1fc1fc6dc5f4397fe4b0d09c901d739e0b8f631fab7cbd57d3074876e3c9c1d",
    },
    "budget_overrun": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "construct_r2_dense": {
        "c.json": "584e97ab502e12010cf7b211581298ab59c2322e6b05f4f3391b20f49e489b54",
        "c.uhg": "983e5fc1e7334bc6384d10213ab3af4ccb77450e2a85d83a3c6c353aed0e39aa",
        "stdout": "42502769d0aefda7e084725356fb1287dfd046b258652cf3b687013325df92ee",
    },
    "construct_r2_dense_json": {
        "c.json": "584e97ab502e12010cf7b211581298ab59c2322e6b05f4f3391b20f49e489b54",
        "c.uhg": "983e5fc1e7334bc6384d10213ab3af4ccb77450e2a85d83a3c6c353aed0e39aa",
        "stdout": "584e97ab502e12010cf7b211581298ab59c2322e6b05f4f3391b20f49e489b54",
    },
    "construct_r2_unrank": {
        "c.json": "a21efe3e57ed0e75113bf1e88222984df1e12a994753d046014804b62e2f274a",
        "c.uhg": "4cd9508f91a89f0be2d77c1e92865bdb5b684ef88cf32558b75e1662fbc41bf6",
        "stdout": "64c438b62987e0169a9e87426b45ed71fa54a5572b75cca67b2ab35246ae1abf",
    },
    "construct_r3_unrank": {
        "c.json": "f7650c0d29f1ab7e64e30865cf09377a57097c113a2e515355adb33f2547d482",
        "c.uhg": "766d542bcbd1877cf15e4c10d4690b6405e5d2f91a887cbaac616eef66241616",
        "stdout": "0f25c14a8485611afacc2f1f207c0a627d40429fb7bd0ebffacad64bb297d298",
    },
    "density_clique": {
        "stdout": "378ff909cb64ecbfadd5ca2ff38efb7b77b5176c83c362f0806dd30b533b7710",
    },
    "density_clique_json": {
        "stdout": "e300db724e9c8d39319ee154d21d6f674e68d709e94ea117f8859e8b6e648924",
    },
    "density_edgeless": {
        "stdout": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    },
    "density_edgeless_json": {
        "stdout": "64175c0d2218cf43420bd4e21a1930e09355eb7df8d4133f848e01c94e461def",
    },
    "density_k4": {
        "stdout": "378ff909cb64ecbfadd5ca2ff38efb7b77b5176c83c362f0806dd30b533b7710",
    },
    "density_k4_json": {
        "stdout": "73cc631f50514f7b1f281818d1f3da65d3402b7f9dc5abef617210e1f0e724f5",
    },
    "experiment_lemma42": {
        "e.json": "96357c0a2c0119292f5c9896fb60162d149f541ff5900e0c783ebaf39a8465c9",
        "stdout": "1f2703913068368957796b568c6905b319dfea1f7e0f1e056585d42a15758620",
    },
    "experiment_lemma42_json": {
        "e.json": "96357c0a2c0119292f5c9896fb60162d149f541ff5900e0c783ebaf39a8465c9",
        "stdout": "96357c0a2c0119292f5c9896fb60162d149f541ff5900e0c783ebaf39a8465c9",
    },
    "experiment_r2": {
        "e.csv": "b986a5df89f115e98ea1cebd04b0e917321b06613f3bdef606dd831694dddb62",
        "e.json": "4136a82bec9f55a0beda6e25b62a5bc5a93988f7fdd2959f2946c06eb11bc777",
        "stdout": "13e959533b11a1fae02943ea5e5fcf7fc1273af9382e4ca14ef836dd04e4141c",
    },
    "experiment_r2_json": {
        "e.csv": "b986a5df89f115e98ea1cebd04b0e917321b06613f3bdef606dd831694dddb62",
        "e.json": "4136a82bec9f55a0beda6e25b62a5bc5a93988f7fdd2959f2946c06eb11bc777",
        "stdout": "4136a82bec9f55a0beda6e25b62a5bc5a93988f7fdd2959f2946c06eb11bc777",
    },
    "ramsey_33": {
        "stdout": "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
    },
    "ramsey_33_json": {
        "stdout": "2e662e6bc27b7d2b04ff045ae2f08a36688996344d0d19ca2f0bbc1594c3e2d6",
    },
    "usage_error": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "witness_r2": {
        "stdout": "00f51262fd88fd6722361e463bc82e28e5217b6ee18b8e3f97214ffb9b7e4130",
        "w.h0.uhg": "f0520eff2d2495ad2c060ed702a34cd50d050111663674e254121b8f1d3b8ff8",
        "w.json": "64b0f5ed729dbdbd0e44893cd781522ee7b8bf72fdd6f5c75b7e3162cb1a6e22",
        "w.uhg": "87f69af90fe7a80fdbb4178d4fc472dbe7ceba0d83d3dd262d5edd44f00659ec",
    },
    "witness_r2_json": {
        "stdout": "64b0f5ed729dbdbd0e44893cd781522ee7b8bf72fdd6f5c75b7e3162cb1a6e22",
        "w.h0.uhg": "f0520eff2d2495ad2c060ed702a34cd50d050111663674e254121b8f1d3b8ff8",
        "w.json": "64b0f5ed729dbdbd0e44893cd781522ee7b8bf72fdd6f5c75b7e3162cb1a6e22",
        "w.uhg": "87f69af90fe7a80fdbb4178d4fc472dbe7ceba0d83d3dd262d5edd44f00659ec",
    },
    "witness_r3": {
        "stdout": "fcb1a09e5c04ce3b90c598c52d32baf20a447bf649b704ed13124789d6820fa4",
        "w.h0.uhg": "d204a63e8332ea08cb28cca55c9489640cee1ad535bb2b47b1eadc566235f859",
        "w.json": "881a12c53d4ff1c63c063ada482aa3dc655dc560cc50ee3a11fd1634b8e232aa",
        "w.uhg": "c9bfb7401d2b330490e30ee1df52001d56c0febaff04889982b97eea2e153eb3",
    },
    "witness_s_auto": {
        "stdout": "7ec3f85076361d6a16ef92deb415d5b0805df3c4efdc5a9bcdef69b0e56519d1",
        "w.h0.uhg": "8c95652a128fcf4aba2d59c3b8a3c5b1eb573a69608b5d6c55220bd389efa6fd",
        "w.json": "98e7c96a113ba489c67968bc6be1cd4c13344a4481e3c1726d4d65b0a63a076b",
        "w.uhg": "a5c44d4de972fe14f14028ecb095a480b76c5451db2c6b31b7597516f1ae90eb",
    },
}


@pytest.fixture(scope="module")
def schema():
    text = resources.files("ramseykit").joinpath("schemas/reports.schema.json").read_text()
    return json.loads(text)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, directory):
    """Run case `name` in `directory`; return (exit code, stderr, stdout,
    {file: bytes}) for the files the case digests."""
    argv, files, _, _ = CASES[name]
    for fname, text in INPUTS.items():
        (directory / fname).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, err.getvalue(), out.getvalue(), {f: (directory / f).read_bytes() for f in files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path, schema):
    argv, _, want_code, want_prefix = CASES[name]
    code, err, out, files = run_case(name, tmp_path)
    assert (code, err.partition(":")[0]) == (want_code, want_prefix)
    digests = {f: _sha(data) for f, data in files.items()}
    digests["stdout"] = _sha(out.encode())
    assert digests == GOLDEN[name]
    reports = [data for f, data in files.items() if f.endswith(".json")]
    if "json" in argv:
        reports.append(out)
    for report in reports:
        payload = json.loads(report)
        jsonschema.validate(payload, schema)
        assert payload["kind"] == argv[0]


def test_schema_is_valid_draft_2020_12(schema):
    jsonschema.Draft202012Validator.check_schema(schema)


def test_cases_emit_every_schema_kind(schema):
    """Every report kind the schema admits is emitted by some case: each
    JSON report carries its verb as `kind` (checked per case above)."""
    schema_kinds = {
        schema["$defs"][ref["$ref"].rpartition("/")[2]]["properties"]["kind"]["const"]
        for ref in schema["oneOf"]
    }
    emitted = {argv[0] for argv, _, _, _ in CASES.values() if "json" in argv}
    assert emitted == schema_kinds
