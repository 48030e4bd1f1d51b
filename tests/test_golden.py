"""Byte-identity of CLI outputs against recorded SHA-256 digests.

Each case runs one verb through ``cli.main`` in an empty directory with
a fixed seed and hashes its standard output and every file it writes.
The digests were recorded before the sampler, clique enumeration and
conformality scan were rewritten for speed, so a rewrite that changes a
single output byte fails here.  The witness ``.col`` is left out: the
base coloring is whichever good coloring the arrowing search meets
first, and a change to the search order may pick another one.

C(200, 5) and C(60, 5) exceed the sampler's dense limit of 2^20
candidates, so those cases draw edges by rank and go through
``_unrank_subset``; C(30, 4) stays below it and takes the per-candidate
Bernoulli path.
"""

from __future__ import annotations

import hashlib

import pytest

from ramseykit.cli import main

CASES = {
    "construct_r2_unrank": (
        ["construct", "--n", "200", "--s", "5", "--r", "2", "--t", "3",
         "--p", "n^-3.2", "--seed", "7", "--out", "c"],
        ("c.uhg", "c.json"),
    ),
    "construct_r3_unrank": (
        ["construct", "--n", "60", "--s", "5", "--r", "3", "--t", "4",
         "--p", "n^-2.6", "--seed", "3", "--out", "c"],
        ("c.uhg", "c.json"),
    ),
    "construct_r2_dense": (
        ["construct", "--n", "30", "--s", "4", "--r", "2", "--t", "3",
         "--p", "1/1200", "--seed", "1", "--out", "c"],
        ("c.uhg", "c.json"),
    ),
    "witness_r2": (
        ["witness", "--n", "200", "--s", "5", "--r", "2", "--targets", "3,3",
         "--p", "n^-3.2", "--seed", "11", "--out", "w"],
        ("w.uhg", "w.h0.uhg", "w.json"),
    ),
    "witness_r3": (
        ["witness", "--n", "60", "--s", "5", "--r", "3", "--targets", "4,4",
         "--p", "n^-2.6", "--seed", "4", "--out", "w"],
        ("w.uhg", "w.h0.uhg", "w.json"),
    ),
    "experiment_r2": (
        ["experiment", "--n", "200", "--s", "5", "--r", "2", "--t", "3",
         "--p", "n^-3.2", "--trials", "4", "--seed", "5",
         "--csv", "e.csv", "--json", "e.json"],
        ("e.csv", "e.json"),
    ),
}

GOLDEN = {
    "construct_r2_dense": {
        "c.json": "584e97ab502e12010cf7b211581298ab59c2322e6b05f4f3391b20f49e489b54",
        "c.uhg": "983e5fc1e7334bc6384d10213ab3af4ccb77450e2a85d83a3c6c353aed0e39aa",
        "stdout": "42502769d0aefda7e084725356fb1287dfd046b258652cf3b687013325df92ee",
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
    "experiment_r2": {
        "e.csv": "b986a5df89f115e98ea1cebd04b0e917321b06613f3bdef606dd831694dddb62",
        "e.json": "4136a82bec9f55a0beda6e25b62a5bc5a93988f7fdd2959f2946c06eb11bc777",
        "stdout": "13e959533b11a1fae02943ea5e5fcf7fc1273af9382e4ca14ef836dd04e4141c",
    },
    "witness_r2": {
        "stdout": "00f51262fd88fd6722361e463bc82e28e5217b6ee18b8e3f97214ffb9b7e4130",
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
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch, capsys):
    argv, files = CASES[name]
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    digests = {f: _sha((tmp_path / f).read_bytes()) for f in files}
    digests["stdout"] = _sha(capsys.readouterr().out.encode())
    assert digests == GOLDEN[name]
