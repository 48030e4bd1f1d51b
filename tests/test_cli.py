import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ramseykit import complete_hypergraph, read_coloring, read_hypergraph, write_hypergraph
from ramseykit.cli import build_parser, main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("ramseykit").joinpath("schemas/reports.schema.json").read_text()
    return json.loads(text)


def validate(payload, schema):
    jsonschema.validate(payload, schema)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDensityVerb:
    def test_clique_values(self, capsys):
        code, out, _ = run(capsys, "density", "--clique", "3,2")
        assert code == 0
        assert out.splitlines()[0] == "2"
        code, out, _ = run(capsys, "density", "--clique", "4,2")
        assert out.splitlines()[0] == "5/2"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.uhg"
        path.write_text("uhg 6 2\n")
        code, out, _ = run(capsys, "density", str(path))
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_file_with_witness(self, capsys, tmp_path, schema):
        path = tmp_path / "k4.uhg"
        write_hypergraph(complete_hypergraph(4, 2), path)
        code, out, _ = run(capsys, "density", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["density"] == "5/2"
        assert payload["witness"] == [1, 2, 3, 4]

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "density")
        assert code == 64
        code, _, err = run(capsys, "density", "x.uhg", "--clique", "3,2")
        assert code == 64

    @pytest.mark.parametrize("argv, message", [
        ([], "one of the arguments file --clique is required"),
        (["x.uhg", "--clique", "3,2"], "argument --clique: not allowed with argument file"),
    ], ids=["neither", "both"])
    def test_source_errors_exit_64(self, capsys, argv, message):
        code, out, err = run(capsys, "density", *argv)
        assert (code, out) == (64, "")
        assert err == f"error: {message}\n"

    def test_bad_clique_argument(self, capsys):
        code, _, _ = run(capsys, "density", "--clique", "2,2")
        assert code == 64
        code, _, err = run(capsys, "density", "--clique", "4")
        assert code == 64
        assert err == "error: --clique expects 't,r', got '4'\n"


class TestConstructVerb:
    def test_zero_probability(self, capsys, tmp_path, schema):
        out_prefix = tmp_path / "c"
        code, out, _ = run(
            capsys, "construct", "--n", "50", "--s", "4", "--r", "2", "--t", "3",
            "--p", "0", "--seed", "3", "--out", str(out_prefix), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["input_edges"] == 0
        assert payload["result_edges"] == 0
        assert read_hypergraph(f"{out_prefix}.uhg").num_edges == 0
        assert json.loads((tmp_path / "c.json").read_text()) == payload

    def test_schema_requires_the_cli_fields(self, capsys, tmp_path, schema):
        code, out, _ = run(
            capsys, "construct", "--n", "50", "--s", "4", "--r", "2", "--t", "3",
            "--p", "0", "--seed", "3", "--out", str(tmp_path / "c"), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        with pytest.raises(jsonschema.ValidationError):
            validate(dict(payload, result_file=None), schema)
        for key in ("p", "seed", "result_file"):
            with pytest.raises(jsonschema.ValidationError):
                validate({k: v for k, v in payload.items() if k != key}, schema)

    def test_usage_error_on_bad_t(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "construct", "--n", "50", "--s", "4", "--r", "3", "--t", "2",
            "--p", "0.1", "--seed", "3", "--out", str(tmp_path / "x"),
        )
        assert code == 64

    def test_missing_seed_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "construct", "--n", "50", "--s", "4", "--r", "2", "--t", "3",
            "--p", "0.1", "--out", str(tmp_path / "x"),
        )
        assert code == 64

    def test_deterministic_bytes(self, capsys, tmp_path):
        args = [
            "construct", "--n", "300", "--s", "4", "--r", "2", "--t", "3",
            "--p", "n^-3.1", "--seed", "9", "--out", str(tmp_path / "a"),
        ]
        code1, out1, _ = run(capsys, *args)
        first_uhg = (tmp_path / "a.uhg").read_bytes()
        first_json = (tmp_path / "a.json").read_bytes()
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert (tmp_path / "a.uhg").read_bytes() == first_uhg
        assert (tmp_path / "a.json").read_bytes() == first_json


class TestWitnessVerb:
    def test_auto_s_pipeline(self, capsys, tmp_path, schema):
        prefix = tmp_path / "w"
        code, out, _ = run(
            capsys, "witness", "--n", "200", "--r", "2", "--targets", "3,3",
            "--s-auto", "--p", "n^-4", "--seed", "5", "--out", str(prefix),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["s"] == 5
        assert payload["verified"] is True
        G = read_hypergraph(f"{prefix}.uhg")
        coloring = read_coloring(f"{prefix}.col", host=G)
        h0 = read_hypergraph(f"{prefix}.h0.uhg")
        assert payload["primal_edges"] == G.num_edges
        assert payload["h0_edges"] == h0.num_edges
        assert coloring.num_colors == 2

    def test_explicit_s_at_ramsey_number_fails(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "witness", "--n", "100", "--r", "2", "--targets", "3,3",
            "--s", "6", "--p", "n^-4", "--seed", "5", "--out", str(tmp_path / "w"),
        )
        assert code == 64
        assert err.startswith("error: every 2-coloring")

    def test_zero_probability_vacuous_certificate(self, capsys, tmp_path, schema):
        prefix = tmp_path / "w0"
        code, out, _ = run(
            capsys, "witness", "--n", "100", "--r", "2", "--targets", "3,3",
            "--s", "5", "--p", "0", "--seed", "5", "--out", str(prefix),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["primal_edges"] == 0

    def test_s_auto_out_of_budget_exit_2(self, capsys, tmp_path, monkeypatch):
        import ramseykit.cli as cli_module

        monkeypatch.setattr(cli_module, "S_AUTO_MAX_NODES", 1)
        code, _, err = run(
            capsys, "witness", "--n", "100", "--r", "2", "--targets", "3,3",
            "--s-auto", "--p", "n^-4", "--seed", "5", "--out", str(tmp_path / "w"),
        )
        assert code == 2
        assert err.startswith("inconclusive: --s-auto could not decide")
        assert "search budget exceeded after 2 nodes" in err
        assert list(tmp_path.iterdir()) == []


class TestCheapChecksFirst:
    """Input errors exit 64 before the sampler or the base search runs."""

    WITNESS = ["witness", "--n", "100", "--s", "13", "--r", "2", "--targets", "3,5"]

    @pytest.mark.parametrize("argv, allowed", [
        (WITNESS + ["--p", "2", "--seed", "0"], ()),
        (WITNESS + ["--p", "n^-4", "--seed", "-1"], ("sample_hypergraph",)),
        (["witness", "--n", "100", "--s", "3", "--r", "2", "--targets", "4,4",
          "--p", "n^-4", "--seed", "0"], ()),
        (["construct", "--n", "50", "--s", "4", "--r", "3", "--t", "2",
          "--p", "0.1", "--seed", "3"], ()),
        (["experiment", "--n", "50", "--s", "4", "--r", "3", "--t", "2",
          "--p", "0.1", "--trials", "1", "--seed", "3"], ()),
    ], ids=["witness_bad_p", "witness_bad_seed", "witness_t_above_s", "construct_bad_t",
            "experiment_bad_t"])
    def test_usage_error_before_expensive_work(self, capsys, tmp_path, monkeypatch,
                                               argv, allowed):
        def refuse(*_args, **_kwargs):
            raise AssertionError("expensive work ran before the input checks")

        for target in ("ramseykit.cli.base_coloring_search", "ramseykit.cli.sample_hypergraph",
                       "ramseykit.construct.sample_hypergraph"):
            if target.rsplit(".", 1)[1] not in allowed:
                monkeypatch.setattr(target, refuse)
        if argv[0] != "experiment":
            argv = argv + ["--out", str(tmp_path / "x")]
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert err.startswith("error:")

    @pytest.mark.parametrize("p, message", [
        ("n^-1/0", "cannot parse probability 'n^-1/0'"),
        ("n^(1/0)", "cannot parse probability 'n^(1/0)'"),
        ("n^(-3", "cannot parse probability 'n^(-3'"),
        ("n^-1.5/2", "cannot parse probability 'n^-1.5/2'"),
        ("n^-3.1417", "denominator above 1000; round it or write it as a/b with b <= 1000"),
    ])
    def test_malformed_power_exits_64(self, capsys, tmp_path, p, message):
        code, out, err = run(capsys, *self.WITNESS, "--p", p, "--seed", "0",
                             "--out", str(tmp_path / "x"))
        assert (code, out) == (64, "")
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("argv, message", [
        (WITNESS + ["--p", "n^-4", "--seed", "0", "--out", "x", "--max-nodes", "-1"],
         "max_nodes must be >= 0, got -1"),
        (["arrow", "one.uhg", "--targets", "3,3", "--cnf", "x.cnf", "--max-seconds", "-2"],
         "max_seconds must be >= 0, got -2.0"),
    ], ids=["witness", "arrow_cnf"])
    def test_negative_budget_before_any_work(self, capsys, tmp_path, monkeypatch,
                                             argv, message):
        def refuse(*_args, **_kwargs):
            raise AssertionError("expensive work ran before the budget check")

        for target in ("ramseykit.cli.base_coloring_search", "ramseykit.cli.sample_hypergraph",
                       "ramseykit.cli.arrows_decision"):
            monkeypatch.setattr(target, refuse)
        write_hypergraph(complete_hypergraph(3, 2), tmp_path / "one.uhg")
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert message in err
        assert [f.name for f in tmp_path.iterdir()] == ["one.uhg"]  # nothing written


    @pytest.mark.parametrize("argv", [
        ["ramsey", "--targets", "3,3", "--r", "2", "--nmax", "7"],
        WITNESS + ["--p", "n^-4", "--seed", "0", "--out", "x"],
        ["arrow", "one.uhg", "--targets", "3,3"],
    ], ids=["ramsey", "witness", "arrow"])
    def test_nan_time_budget_before_any_work(self, capsys, tmp_path, monkeypatch, argv):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a search ran with a NaN time budget")

        for target in ("base_coloring_search", "sample_hypergraph", "arrows_decision",
                       "ramsey_number"):
            monkeypatch.setattr(f"ramseykit.cli.{target}", refuse)
        write_hypergraph(complete_hypergraph(3, 2), tmp_path / "one.uhg")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--max-seconds", "nan")
        assert (code, out) == (64, "")
        assert err == "error: argument --max-seconds: max_seconds must be >= 0, got nan\n"
        assert [f.name for f in tmp_path.iterdir()] == ["one.uhg"]


class TestArrowVerb:
    def _write(self, tmp_path, n):
        path = tmp_path / f"k{n}.uhg"
        write_hypergraph(complete_hypergraph(n, 2), path)
        return str(path)

    def test_not_arrows_exit_1_with_witness(self, capsys, tmp_path, schema):
        k5 = self._write(tmp_path, 5)
        witness = str(tmp_path / "w.col")
        code, out, _ = run(
            capsys, "arrow", k5, "--targets", "3,3",
            "--witness-out", witness, "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["verdict"] == "not_arrows"
        coloring = read_coloring(witness, host=complete_hypergraph(5, 2))
        assert coloring.num_colors == 2

    def test_arrows_exit_0_and_cnf(self, capsys, tmp_path, schema):
        k6 = self._write(tmp_path, 6)
        cnf = tmp_path / "k6.cnf"
        code, out, _ = run(
            capsys, "arrow", k6, "--targets", "3,3", "--cnf", str(cnf),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["verdict"] == "arrows"
        assert payload["exhausted"] is True
        text = cnf.read_text()
        assert text.splitlines()[0].startswith("c ")
        assert "p cnf 30 70" in text

    def test_complete_host_breaks_symmetry(self, capsys, tmp_path):
        # row-lex pruning exhausts K_9 at (3,4) in 8,844 nodes; the
        # literal search needs 29,196,464
        k9 = self._write(tmp_path, 9)
        code, out, _ = run(capsys, "arrow", k9, "--targets", "3,4", "--max-nodes", "20000")
        assert code == 0
        assert out == "arrows (nodes explored: 8844)\n"

    def test_budget_exit_2(self, capsys, tmp_path):
        k6 = self._write(tmp_path, 6)
        code, _, err = run(capsys, "arrow", k6, "--targets", "3,3", "--max-nodes", "4")
        assert code == 2
        assert "inconclusive" in err

    def test_time_budget_exit_2(self, capsys, tmp_path):
        k13 = self._write(tmp_path, 13)
        code, out, err = run(capsys, "arrow", k13, "--targets", "3,5", "--max-seconds", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("inconclusive: search budget exceeded after 4096 nodes")

    def test_skip_decision(self, capsys, tmp_path):
        k6 = self._write(tmp_path, 6)
        cnf = tmp_path / "only.cnf"
        code, out, _ = run(
            capsys, "arrow", k6, "--targets", "3,3", "--cnf", str(cnf),
            "--skip-decision",
        )
        assert code == 0
        assert cnf.exists()
        assert out == f"wrote {cnf}; decision skipped\n"
        code, out, err = run(capsys, "arrow", k6, "--targets", "3,3", "--skip-decision")
        assert code == 64
        assert err == "error: --skip-decision without --cnf does nothing\n"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "arrow", str(tmp_path / "nope.uhg"), "--targets", "3,3")
        assert code == 64


class TestInternalContradictionExit:
    def test_construct_maps_contradiction_to_exit_3(self, capsys, tmp_path, monkeypatch):
        # the cleaning step can only fail on an implementation bug, so the
        # exit-code path is exercised by injecting the failure
        from ramseykit import InternalContradictionError
        import ramseykit.cli as cli_module

        def boom(H, r, t):
            raise InternalContradictionError("injected")

        monkeypatch.setattr(cli_module, "clean", boom)
        code, _, err = run(
            capsys, "construct", "--n", "30", "--s", "4", "--r", "2", "--t", "3",
            "--p", "0.01", "--seed", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 3
        assert "internal contradiction" in err

    def test_arrow_maps_bad_witness_to_exit_3(self, capsys, tmp_path, monkeypatch):
        # a search witness that fails verification is never written
        from ramseykit import arrows

        monkeypatch.setattr(
            arrows, "_search",
            lambda inst, *_args: ([1] * inst.m, inst.m),
        )
        k4 = tmp_path / "k4.uhg"
        write_hypergraph(complete_hypergraph(4, 2), k4)
        witness = tmp_path / "w.col"
        code, out, err = run(
            capsys, "arrow", str(k4), "--targets", "3,3", "--witness-out", str(witness),
        )
        assert code == 3
        assert out == ""
        assert "internal contradiction" in err
        assert not witness.exists()

    def test_witness_maps_failed_check_to_exit_3(self, capsys, tmp_path, monkeypatch):
        # a lifted coloring that fails its check is never written
        from ramseykit import ColoringCheck
        import ramseykit.cli as cli_module

        monkeypatch.setattr(cli_module, "verify_good_coloring",
                            lambda *_args: ColoringCheck(False, 2, (4, 7, 9)))
        code, out, err = run(
            capsys, "witness", "--n", "100", "--r", "2", "--targets", "3,3",
            "--s", "5", "--p", "n^-4", "--seed", "5", "--out", str(tmp_path / "w"),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("internal contradiction: lifted coloring has a "
                              "monochromatic clique (4, 7, 9) in color 2")
        assert list(tmp_path.iterdir()) == []


class TestRamseyVerb:
    def test_value(self, capsys, schema):
        code, out, _ = run(capsys, "ramsey", "--targets", "3,3", "--r", "2", "--nmax", "8")
        assert code == 0
        assert out.strip() == "6"
        code, out, _ = run(
            capsys, "ramsey", "--targets", "3,3", "--r", "2", "--nmax", "8",
            "--format", "json",
        )
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["value"] == 6

    def test_undecided_exit_2(self, capsys):
        code, _, err = run(capsys, "ramsey", "--targets", "3,3", "--r", "2", "--nmax", "5")
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-nodes", "-5", "max_nodes must be >= 0, got -5"),
        ("--max-seconds", "-1", "max_seconds must be >= 0, got -1.0"),
    ])
    def test_negative_budget_is_usage_error(self, capsys, flag, value, message):
        code, _, err = run(
            capsys, "ramsey", "--targets", "3,3", "--r", "2", "--nmax", "6", flag, value,
        )
        assert code == 64
        assert message in err

    @pytest.mark.parametrize("targets", ["", ",", "3,x"])
    def test_unparseable_targets_are_usage_errors(self, capsys, targets):
        code, out, err = run(capsys, "ramsey", "--targets", targets, "--r", "2", "--nmax", "6")
        assert code == 64
        assert out == ""
        assert "cannot parse target list" in err


class TestExperimentVerb:
    def test_zero_probability_row(self, capsys, tmp_path, schema):
        csv_path = tmp_path / "t.csv"
        code, out, _ = run(
            capsys, "experiment", "--n", "40", "--s", "4", "--r", "2", "--t", "3",
            "--p", "0", "--trials", "1", "--seed", "2", "--csv", str(csv_path),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["mean_edges"] == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "seed,e_H,X,Y,deleted,e_H0"
        assert lines[1].split(",")[1:] == ["0", "0", "0", "0", "0"]

    def test_lemma42_report(self, capsys, tmp_path, schema):
        json_path = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "experiment", "--n", "200", "--s", "4", "--r", "2", "--t", "3",
            "--p", "n^-2.75", "--trials", "3", "--seed", "11",
            "--lemma42", "--json", str(json_path), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema)
        bound = payload["cover_bound"]
        num, den = (bound["ratio"].split("/") + ["1"])[:2]
        assert int(num) * 10 < int(den)  # ratio < 1/10
        assert json.loads(json_path.read_text()) == payload

    def test_deterministic_stdout(self, capsys):
        args = [
            "experiment", "--n", "100", "--s", "4", "--r", "2", "--t", "3",
            "--p", "n^-3", "--trials", "4", "--seed", "21", "--format", "json",
        ]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestEntryPoint:
    def test_help_names_the_not_arrows_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert '1 "not_arrows"' in out
        assert "notarrows" not in out

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ramseykit.cli", "density", "--clique", "5,3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "9/2"

    def test_numpy_is_loaded_only_by_the_sampler(self):
        # numpy is most of a process's start-up time and memory
        code = (
            "import sys\n"
            "import ramseykit.cli\n"
            "assert 'numpy' not in sys.modules, 'imported by ramseykit.cli'\n"
            "ramseykit.cli.main(['ramsey', '--targets', '3,3', '--r', '2', '--nmax', '6'])\n"
            "assert 'numpy' not in sys.modules, 'imported by ramsey'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "6"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")])
    def test_openblas_threads_default_to_one(self, monkeypatch, preset, expected):
        # the handler, and so the sampler's numpy import, sees the value
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        seen = []
        monkeypatch.setattr("ramseykit.cli._cmd_density",
                            lambda _args: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")) or 0)
        assert main(["density", "--clique", "4,2"]) == 0
        assert seen == [expected]

    def test_unknown_verb_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ramseykit.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 64


def _parsed(*argv):
    ns = vars(build_parser().parse_args(list(argv)))
    ns["handler"] = ns["handler"].__name__
    return ns


class TestParser:
    """Every flag of every verb lands in the namespace its handler reads."""

    @pytest.mark.parametrize("argv, expected", [
        (["density", "g.uhg", "--format", "json"],
         {"verb": "density", "handler": "_cmd_density", "file": "g.uhg", "clique": None,
          "format": "json"}),
        (["density", "--clique", "3,2", "--format", "json"],
         {"verb": "density", "handler": "_cmd_density", "file": None, "clique": "3,2",
          "format": "json"}),
        (["construct", "--n", "50", "--s", "4", "--r", "2", "--t", "3", "--p", "0.1",
          "--seed", "3", "--out", "x", "--format", "json"],
         {"verb": "construct", "handler": "_cmd_construct", "n": 50, "s": 4, "r": 2, "t": 3,
          "p": "0.1", "seed": 3, "out": "x", "format": "json"}),
        (["witness", "--n", "100", "--r", "2", "--targets", "3,3", "--s", "5", "--p", "n^-4",
          "--seed", "0", "--out", "w", "--max-nodes", "10", "--max-seconds", "2.5",
          "--format", "json"],
         {"verb": "witness", "handler": "_cmd_witness", "n": 100, "r": 2, "targets": "3,3",
          "s": 5, "s_auto": False, "p": "n^-4", "seed": 0, "out": "w", "max_nodes": 10,
          "max_seconds": 2.5, "format": "json"}),
        (["witness", "--n", "100", "--r", "2", "--targets", "3,3", "--s-auto", "--p", "n^-4",
          "--seed", "0", "--out", "w"],
         {"verb": "witness", "handler": "_cmd_witness", "n": 100, "r": 2, "targets": "3,3",
          "s": None, "s_auto": True, "p": "n^-4", "seed": 0, "out": "w", "max_nodes": None,
          "max_seconds": None, "format": "text"}),
        (["arrow", "g.uhg", "--targets", "3,3", "--cnf", "c.cnf", "--skip-decision",
          "--witness-out", "w.col", "--max-nodes", "5", "--max-seconds", "inf",
          "--format", "json"],
         {"verb": "arrow", "handler": "_cmd_arrow", "file": "g.uhg", "targets": "3,3",
          "cnf": "c.cnf", "skip_decision": True, "witness_out": "w.col", "max_nodes": 5,
          "max_seconds": float("inf"), "format": "json"}),
        (["ramsey", "--targets", "3,3", "--r", "2", "--nmax", "7", "--max-nodes", "7",
          "--max-seconds", "1", "--format", "json"],
         {"verb": "ramsey", "handler": "_cmd_ramsey", "targets": "3,3", "r": 2, "nmax": 7,
          "max_nodes": 7, "max_seconds": 1.0, "format": "json"}),
        (["experiment", "--n", "40", "--s", "4", "--r", "2", "--t", "3", "--p", "0",
          "--trials", "2", "--seed", "1", "--csv", "a.csv", "--json", "a.json", "--lemma42",
          "--format", "json"],
         {"verb": "experiment", "handler": "_cmd_experiment", "n": 40, "s": 4, "r": 2,
          "t": 3, "p": "0", "trials": 2, "seed": 1, "csv": "a.csv", "json": "a.json",
          "lemma42": True, "format": "json"}),
    ], ids=["density_file", "density_clique", "construct", "witness", "witness_s_auto",
            "arrow", "ramsey", "experiment"])
    def test_every_flag(self, argv, expected):
        assert _parsed(*argv) == expected

    @pytest.mark.parametrize("argv, defaults", [
        (["density", "g.uhg"], {"clique": None, "format": "text"}),
        (["construct", "--n", "5", "--s", "4", "--r", "2", "--t", "3", "--p", "0",
          "--seed", "1", "--out", "x"], {"format": "text"}),
        (["witness", "--n", "5", "--r", "2", "--targets", "3,3", "--s", "5", "--p", "0",
          "--seed", "0", "--out", "w"],
         {"s_auto": False, "max_nodes": None, "max_seconds": None, "format": "text"}),
        (["arrow", "g.uhg", "--targets", "3,3"],
         {"cnf": None, "skip_decision": False, "witness_out": None, "max_nodes": None,
          "max_seconds": None, "format": "text"}),
        (["ramsey", "--targets", "3,3", "--r", "2", "--nmax", "7"],
         {"max_nodes": None, "max_seconds": None, "format": "text"}),
        (["experiment", "--n", "5", "--s", "4", "--r", "2", "--t", "3", "--p", "0",
          "--trials", "1", "--seed", "1"],
         {"csv": None, "json": None, "lemma42": False, "format": "text"}),
    ], ids=["density", "construct", "witness", "arrow", "ramsey", "experiment"])
    def test_optional_flag_defaults(self, argv, defaults):
        ns = _parsed(*argv)
        assert {key: ns[key] for key in defaults} == defaults
