"""Command-line surface: subcommands, formats, files and exit codes."""

import functools
import json
from pathlib import Path

import pytest

from infodecomp.cli import main
from infodecomp.sid import EntropyVector


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


class TestVerifyPaper:
    def test_all_checks_pass_with_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert "gap 1" in out

    def test_json_output(self, capsys):
        code, doc = run_json(capsys, "verify-paper")
        assert code == 0
        assert len(doc["checks"]) == 5
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_two_runs_print_identical_bytes(self, capsys, fmt):
        first = run(capsys, "--format", fmt, "verify-paper")
        second = run(capsys, "--format", fmt, "verify-paper")
        assert first == second


class TestEntropy:
    def test_builtin_text(self, capsys):
        code, out, _ = run(capsys, "entropy", "--builtin", "system2", "--group", "T")
        assert code == 0
        assert out.strip() == "H(T) = 2 bits"

    def test_text_and_json_agree(self, capsys):
        _, out, _ = run(capsys, "entropy", "--builtin", "system1", "--group", "T")
        _, doc = run_json(capsys, "entropy", "--builtin", "system1", "--group", "T")
        assert doc["values"]["entropy"]["bits"] == 3.0
        assert "3" in out

    def test_group_with_joined_variables(self, capsys):
        code, doc = run_json(
            capsys, "entropy", "--builtin", "system2", "--group", "S1+S2"
        )
        assert code == 0
        assert doc["values"]["entropy"]["bits"] == 2.0


class TestMutualInfo:
    def test_builtin(self, capsys):
        code, doc = run_json(
            capsys, "mutual-info", "--builtin", "system2", "--a", "S1+S2+S3", "--b", "T"
        )
        assert code == 0
        assert doc["values"]["mutual_information"]["bits"] == 2.0


class TestLattice:
    def test_n2_prints_four_antichains(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "2")
        assert code == 0
        assert "4 antichains" in out
        for node in ("{{1}{2}}", "{{1}}", "{{2}}", "{{12}}"):
            assert node in out

    def test_half_kind(self, capsys):
        code, doc = run_json(capsys, "lattice", "--n", "3", "--kind", "half")
        assert code == 0
        assert doc["values"]["node_count"] == 10

    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("lattice_n4.txt", ["lattice", "--n", "4"]),
            ("lattice_n4.json", ["--format", "json", "lattice", "--n", "4"]),
            ("lattice_n3_half.txt", ["lattice", "--n", "3", "--kind", "half"]),
        ],
    )
    def test_output_is_unchanged(self, capsys, golden, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_bad_arity_is_input_error(self, capsys):
        code, _, err = run(capsys, "lattice", "--n", "7")
        assert code == 3
        assert "error" in err


class TestRedundancy:
    def test_xor_triple(self, capsys):
        code, out, _ = run(capsys, "redundancy-gk", "--builtin", "system2")
        assert code == 0
        assert "H(Q) = 0 bits" in out
        assert "blocks: 1" in out

    def test_explicit_sources(self, capsys):
        code, doc = run_json(
            capsys,
            "redundancy-gk", "--builtin", "system2", "--sources", "S1,S2,S3",
        )
        assert code == 0
        assert doc["values"]["redundancy"]["bits"] == 0.0
        assert doc["values"]["block_masses"] == ["1/1"]


class TestDecomposeSid:
    def test_atom_table(self, capsys):
        code, doc = run_json(capsys, "decompose-sid", "--builtin", "system2")
        assert code == 0
        atoms = doc["values"]["atoms"]
        assert atoms["{{1}{23}}"]["bits"] == 1.0
        assert atoms["{{1}{2}{3}}"]["bits"] == 0.0
        assert doc["values"]["atom_total"]["bits"] == 3.0
        assert doc["values"]["matrix_rank"] == 9
        assert all(c["passed"] for c in doc["checks"])

    def test_red_override(self, capsys):
        code, doc = run_json(
            capsys,
            "decompose-sid", "--builtin", "system2", "--red", "1/2",
        )
        assert code == 0
        assert doc["values"]["redundancy"]["exact"] == "1/2"

    def test_measures_the_system_once(self, capsys, monkeypatch):
        measure = EntropyVector.from_distribution.__func__
        calls = []

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return measure(cls, *args, **kwargs)

        monkeypatch.setattr(EntropyVector, "from_distribution", classmethod(counted))
        code, out, _ = run(capsys, "decompose-sid", "--builtin", "system2")
        assert code == 0
        assert "max residual 0, matrix rank 9" in out
        assert len(calls) == 1


class TestPidDeduce:
    def test_contradiction_with_certificate(self, capsys):
        code, out, _ = run(
            capsys, "pid-deduce", "--builtin", "system2", "--certificate"
        )
        assert code == 0
        assert "status: contradiction" in out
        assert "VIOLATION, gap 1" in out
        assert "contradiction certificate:" in out

    def test_json_schema(self, capsys):
        code, doc = run_json(capsys, "pid-deduce", "--builtin", "system2")
        assert code == 0
        values = doc["values"]
        assert values["status"] == "contradiction"
        assert values["wesp"]["gap"]["bits"] == 1.0
        assert len(values["atoms"]) == 33
        assert values["constraint_counts"]["MutualSum"] == 16

    def test_singleton_anchoring(self, capsys):
        code, doc = run_json(
            capsys,
            "pid-deduce", "--builtin", "system2", "--anchoring", "singletons",
        )
        assert code == 0
        assert doc["values"]["status"] == "open"

    def test_non_convergence_is_an_input_error(self, capsys, monkeypatch):
        from infodecomp import cli, engine

        monkeypatch.setattr(
            cli, "propagate", functools.partial(engine.propagate, max_passes=1)
        )
        code, out, err = run(capsys, "pid-deduce", "--builtin", "system1")
        assert code == cli._EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ")
        assert "propagation did not converge in 1 passes" in err


class TestTheoremScan:
    def test_golden_tables(self, capsys):
        code, out, _ = run(capsys, "theorem1-scan", "--golden")
        assert code == 0
        assert "262144" in out
        assert "0 satisfy both systems" in out

    def test_deduced_tables(self, capsys):
        code, doc = run_json(capsys, "theorem1-scan")
        assert code == 0
        assert doc["values"]["subsets_checked"] == 262144
        assert doc["values"]["valid_subsets"] == []


class TestFiles:
    def test_distribution_file_round_trip(self, capsys, tmp_path, system2):
        path = tmp_path / "dist.json"
        system2.dist.dump(path)
        code, doc = run_json(
            capsys, "entropy", "--input", str(path), "--group", "T"
        )
        assert code == 0
        assert doc["values"]["entropy"]["bits"] == 2.0

    def test_circuit_file(self, capsys, tmp_path):
        circuit = {
            "free_bits": ["x1", "x2"],
            "xor_defs": {"x3": ["x1", "x2"]},
            "groupings": {"S1": ["x1"], "S2": ["x2"], "S3": ["x3"]},
            "target": ["x1", "x2", "x3"],
        }
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        code, doc = run_json(capsys, "decompose-sid", "--input", str(path))
        assert code == 0
        assert doc["values"]["atoms"]["{{3}{12}}"]["bits"] == 1.0

    def test_exported_analysis_matches_builtin(self, capsys, tmp_path, system2):
        path = tmp_path / "dist.json"
        system2.dist.dump(path)
        code, from_file = run_json(
            capsys,
            "decompose-sid", "--input", str(path), "--sources", "S1,S2,S3",
        )
        assert code == 0
        _, builtin = run_json(capsys, "decompose-sid", "--builtin", "system2")
        assert from_file["values"] == builtin["values"]

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "entropy", "--input", "/nope/missing.json", "--group", "T"
        )
        assert code == 3
        assert "error" in err

    def test_unparseable_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "entropy", "--input", str(path), "--group", "T")
        assert code == 3

    def test_wrong_schema_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"something": 1}))
        code, _, _ = run(capsys, "entropy", "--input", str(path), "--group", "T")
        assert code == 3


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_builtin(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--builtin", "system9", "--group", "T"])
        assert exc.value.code == 2

    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutual-info", "--builtin", "system2", "--a", "S1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tolerance):
        with pytest.raises(SystemExit) as exc:
            main(["decompose-sid", "--builtin", "system2", f"--tolerance={tolerance}"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_zero_tolerance_is_valid(self, capsys, tmp_path):
        # One third each on three outcomes: no mass is a power of 1/2, so the
        # entropies are floats, and H{1} + H{1,2} = H{1,2} + H{1} must still
        # pass as the identity it is.
        one_third = tmp_path / "one_third.json"
        one_third.write_text(json.dumps({
            "variables": ["A", "B", "C"],
            "alphabets": [[0, 1], [0, 1], [0, 1]],
            "pmf": [
                {"outcome": o, "p": "1/3"} for o in ([0, 0, 0], [1, 0, 1], [1, 1, 0])
            ],
        }))
        for source in (
            ["--builtin", "system2"],
            ["--input", str(one_third), "--sources", "A,B,C"],
        ):
            code, out, err = run(capsys, "decompose-sid", *source, "--tolerance", "0")
            assert (code, err) == (0, "")
            assert "sum rules: 9/9 hold" in out

    @pytest.mark.parametrize("red", ["1/0", "1e400", "abc", "nan", "inf"])
    def test_red_must_be_a_finite_rational(self, capsys, red):
        with pytest.raises(SystemExit) as exc:
            main(["decompose-sid", "--builtin", "system2", f"--red={red}"])
        assert exc.value.code == 2
        assert "--red" in capsys.readouterr().err

    def test_negative_red_is_input_error(self, capsys):
        code, _, err = run(capsys, "decompose-sid", "--builtin", "system2", "--red=-1/2")
        assert code == 3
        assert err == "error: injected redundancy -1/2 is negative\n"

    def test_pid_deduce_takes_a_tolerance(self, capsys):
        code, out, _ = run(capsys, "pid-deduce", "--builtin", "system2", "--tolerance", "0")
        assert code == 0
        assert "status: contradiction" in out

    @pytest.mark.parametrize("command", ["decompose-sid", "pid-deduce"])
    def test_both_commands_that_read_a_tolerance_check_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--builtin", "system2", "--tolerance", "-1"])
        assert exc.value.code == 2
        assert "must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify-paper", "--tolerance", "0"],
        ["--tolerance", "0", "verify-paper"],
    ])
    def test_tolerance_is_refused_where_it_is_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["mutual-info", "--builtin", "system1", "--a", "S1++S2", "--b", "T"],
        ["mutual-info", "--builtin", "system1", "--a", "S1+S2+", "--b", "T"],
        ["entropy", "--builtin", "system2", "--group", "+T"],
        ["redundancy-gk", "--builtin", "system2", "--sources", "S1,S2,S3,"],
        ["decompose-sid", "--builtin", "system2", "--sources", "S1,,S2,S3"],
        ["pid-deduce", "--builtin", "system2", "--sources", "S1,S2,S3", "--target", "T+"],
    ])
    def test_empty_piece_of_a_group_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: empty ")

    @pytest.mark.parametrize("p, kind", [(True, "bool"), (1.0, "float")])
    def test_probability_must_not_be_a_bool_or_float(self, capsys, tmp_path, p, kind):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "variables": ["X"], "alphabets": [[0]], "pmf": [{"outcome": [0], "p": p}],
        }))
        code, out, err = run(capsys, "entropy", "--input", str(path), "--group", "X")
        assert (code, out) == (3, "")
        assert err == (
            f"error: probability {p!r} is a {kind}; pass a Fraction, int or 'num/den' string\n"
        )

    def test_unknown_group_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "entropy", "--builtin", "system2", "--group", "nope"
        )
        assert code == 3
