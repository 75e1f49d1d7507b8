"""End-to-end tests of the command-line interface and its exit codes."""

import io
import json

import pytest

from kingchain import export, from_edge_list, parse_text
from kingchain.cli import main

from conftest import T4A_EDGES


@pytest.fixture
def t4a_file(tmp_path, t4a):
    path = tmp_path / "t4a.txt"
    path.write_text(export(t4a, "text"))
    return str(path)


class TestGenerate:
    def test_text_output(self, capsys):
        assert main(["generate", "--n", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        t = parse_text(out)
        assert t.n == 4

    def test_deterministic(self, capsys):
        main(["generate", "--n", "6", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "--n", "6", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_strong_flag(self, capsys):
        assert main(["generate", "--n", "5", "--seed", "2", "--strong"]) == 0
        from brute import brute_strong

        assert brute_strong(parse_text(capsys.readouterr().out))

    def test_strong_order_two_fails(self, capsys):
        assert main(["generate", "--n", "2", "--seed", "1", "--strong"]) == 1
        assert "OrderTwoImpossible" in capsys.readouterr().err


class TestChain:
    def test_worked_example(self, capsys, tmp_path, t4a_file):
        cert = tmp_path / "cert.json"
        code = main(["chain", "--input", t4a_file, "--king", "1",
                     "--certificate", str(cert)])
        assert code == 0
        out = capsys.readouterr().out
        assert "C3: 1 3 0" in out
        assert "C4: 1 2 3 0" in out
        obj = json.loads(cert.read_text())
        assert obj["king"] == 1
        assert obj["cycles"] == [[1, 3, 0], [1, 2, 3, 0]]
        assert obj["insertions"] == [{"x": 1, "y": 3, "z": 2}]

    def test_auto_king_picks_lowest(self, capsys, t4a_file):
        assert main(["chain", "--input", t4a_file, "--king", "auto"]) == 0
        assert "king=0" in capsys.readouterr().out

    def test_stdin_input(self, capsys, monkeypatch, three_cycle):
        monkeypatch.setattr("sys.stdin", io.StringIO(export(three_cycle, "text")))
        assert main(["chain", "--input", "-", "--king", "auto"]) == 0
        assert "C3: 0 1 2" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, t4a_file, capsys):
        dot = tmp_path / "t.dot"
        assert main(["chain", "--input", t4a_file, "--king", "1", "--dot", str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text().startswith("digraph")

    def test_not_strong_names_error(self, capsys, tmp_path):
        path = tmp_path / "trans.txt"
        path.write_text(export(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]), "text"))
        assert main(["chain", "--input", str(path), "--king", "auto"]) == 1
        assert "NotStrong" in capsys.readouterr().err

    def test_non_king_fails(self, capsys, t4a_file):
        assert main(["chain", "--input", t4a_file, "--king", "3"]) == 1
        assert "NotAKing" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["chain", "--input", "/nonexistent.txt", "--king", "auto"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_king_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chain", "--input", "x.txt", "--king", "emperor"])
        assert err.value.code == 2


class TestVerify:
    def test_round_trip_passes(self, capsys, tmp_path, t4a_file):
        cert = str(tmp_path / "cert.json")
        main(["chain", "--input", t4a_file, "--king", "1", "--certificate", cert])
        capsys.readouterr()
        assert main(["verify", "--certificate", cert]) == 0
        out = capsys.readouterr().out
        assert "result=pass" in out
        assert out.count("king_of_induced=ok") == 2
        assert "insertion=ok" in out

    def test_corrupted_certificate_fails(self, capsys, tmp_path, t4a_file):
        cert = tmp_path / "cert.json"
        main(["chain", "--input", t4a_file, "--king", "1", "--certificate", str(cert)])
        capsys.readouterr()
        obj = json.loads(cert.read_text())
        obj["cycles"][1] = [1, 0, 3, 2]
        cert.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(cert)]) == 1
        captured = capsys.readouterr()
        assert "result=fail" in captured.out
        assert "first_failure=" in captured.err

    def test_unreadable_certificate(self, capsys, tmp_path, t4a_file):
        path = tmp_path / "junk.json"
        path.write_text("{")
        assert main(["verify", "--certificate", str(path)]) == 1
        assert "MalformedCertificate" in capsys.readouterr().err
        cert = tmp_path / "cert.json"
        main(["chain", "--input", t4a_file, "--king", "1", "--certificate", str(cert)])
        capsys.readouterr()
        for field, value in (("king", 1.0), ("n", True)):
            obj = json.loads(cert.read_text())
            obj[field] = value
            path.write_text(json.dumps(obj))
            assert main(["verify", "--certificate", str(path)]) == 1
            assert "MalformedCertificate" in capsys.readouterr().err
        obj = json.loads(cert.read_text())
        obj["cycles"][0][1] = "3"
        path.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(path)]) == 1
        assert "MalformedCertificate" in capsys.readouterr().err


class TestExhaustive:
    def test_order_three(self, capsys):
        assert main(["exhaustive", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "tournaments=8" in out
        assert "strong=2" in out
        assert "pairs=6" in out
        assert "failures=0" in out

    def test_jobs_flag(self, capsys):
        assert main(["exhaustive", "--n", "4", "--jobs", "2"]) == 0
        assert "failures=0" in capsys.readouterr().out
        for jobs in ("0", "-1", "two"):
            with pytest.raises(SystemExit) as err:
                main(["exhaustive", "--n", "4", "--jobs", jobs])
            assert err.value.code == 2

    def test_out_of_range(self, capsys):
        assert main(["exhaustive", "--n", "9"]) == 1
        assert "OrderOutOfRange" in capsys.readouterr().err


class TestStress:
    def test_small_run(self, capsys):
        assert main(["stress", "--n", "6", "--trials", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "failures=0" in out
        assert "trials=4" in out
        for trials in ("0", "-3"):
            with pytest.raises(SystemExit) as err:
                main(["stress", "--n", "6", "--trials", trials, "--seed", "3"])
            assert err.value.code == 2


class TestKings:
    def test_lists_kings(self, capsys, t4a_file):
        assert main(["kings", "--input", t4a_file]) == 0
        assert capsys.readouterr().out == "0\n1\n2\n"

    def test_stdin(self, capsys, monkeypatch, three_cycle):
        monkeypatch.setattr("sys.stdin", io.StringIO(export(three_cycle, "text")))
        assert main(["kings", "--input", "-"]) == 0
        assert capsys.readouterr().out == "0\n1\n2\n"


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--n", "3", "--seed", "1", "--banana"])
        assert err.value.code == 2

    def test_pipeline_generate_then_chain(self, capsys, monkeypatch):
        assert main(["generate", "--n", "3", "--seed", "1", "--strong"]) == 0
        text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["chain", "--input", "-", "--king", "auto"]) == 0
        assert "C3:" in capsys.readouterr().out


def test_t4a_fixture_matches_module_constant(t4a):
    assert from_edge_list(4, T4A_EDGES) == t4a
