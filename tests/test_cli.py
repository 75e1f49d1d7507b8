"""End-to-end tests of the command-line interface and its exit codes."""

import io
import json
import random

import pytest

from kingchain import (
    build_chain,
    enumerate_all,
    export,
    from_edge_list,
    is_strong,
    kings,
    loads_certificate,
    parse_text,
    random_strong_tournament,
    verify_chain,
)
from kingchain.cli import main

from brute import brute_strong, chain_listing, near_transitive, verify_listing
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

    def test_order_too_large_for_the_generator(self, capsys):
        # From n = 65,537 on, the pair count no longer fits the random
        # generator's bit-count argument; this fails before any allocation.
        assert main(["generate", "--n", "1000000000", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_of_memory_is_an_error_line(self, capsys, monkeypatch):
        # The transpose's grid is where a large order runs out; a MemoryError
        # has no message, so the line names its class. Nothing large is made.
        def exhausted(n, bits):
            raise MemoryError()

        monkeypatch.setattr("kingchain.core._transposed_masks", exhausted)
        assert main(["generate", "--n", "30", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MemoryError\n"


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

    def test_auto_king_is_lowest_on_random_inputs(self, capsys, monkeypatch):
        # Near-transitive strong tournaments often have no king at vertex 0.
        rng = random.Random(3)
        above_zero = 0
        for n in range(3, 31):
            for _ in range(3):
                t = from_edge_list(n, near_transitive(n, 0.8, rng))
                while not brute_strong(t):
                    t = from_edge_list(n, near_transitive(n, 0.8, rng))
                monkeypatch.setattr("sys.stdin", io.StringIO(export(t, "text")))
                assert main(["chain", "--input", "-", "--king", "auto"]) == 0
                lowest = kings(t)[0]
                assert capsys.readouterr().out.splitlines()[0] == f"n={n} king={lowest}"
                above_zero += lowest > 0
        assert above_zero > 0

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

    def test_non_decimal_token_fails(self, capsys, tmp_path):
        path = tmp_path / "underscore.txt"
        path.write_text("3\n0 1\n1 2\n2 0_0\n")
        assert main(["chain", "--input", str(path), "--king", "auto"]) == 1
        assert "non-decimal" in capsys.readouterr().err

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

    def test_unspliced_cycle_fails(self, capsys, tmp_path):
        # README's example: C6 on the right vertex set, but not C5 spliced.
        text, cert = tmp_path / "t6.txt", tmp_path / "t6.json"
        main(["generate", "--n", "6", "--seed", "0", "--strong"])
        text.write_text(capsys.readouterr().out)
        main(["chain", "--input", str(text), "--king", "0", "--certificate", str(cert)])
        capsys.readouterr()
        obj = json.loads(cert.read_text())
        obj["cycles"][-1] = [0, 2, 4, 3, 5, 1]
        cert.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(cert)]) == 1
        captured = capsys.readouterr()
        assert "result=fail" in captured.out
        assert captured.err == "first_failure=C5->C6: C6 is not C5 with 4 spliced after 2\n"

    def test_unreadable_certificate(self, capsys, tmp_path, t4a_file):
        path = tmp_path / "junk.json"
        path.write_text("{")
        assert main(["verify", "--certificate", str(path)]) == 1
        assert "MalformedCertificate" in capsys.readouterr().err
        path.write_text("[" * 100000)
        assert main(["verify", "--certificate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "MalformedCertificate" in err and "Traceback" not in err
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


class TestListings:
    """`chain` and `verify` print, byte for byte, what brute.chain_listing and
    brute.verify_listing print one line at a time."""

    @staticmethod
    def round_trip(capsys, tmp_path, t, king="auto"):
        """Run `chain` and then `verify` on t, check both listings, and
        return the certificate's path."""
        text, cert = tmp_path / "t.txt", tmp_path / "cert.json"
        text.write_text(export(t, "text"))
        args = ["chain", "--input", str(text), "--king", str(king), "--certificate", str(cert)]
        assert main(args) == 0
        k = kings(t)[0] if king == "auto" else king
        assert capsys.readouterr() == (chain_listing(t, k, build_chain(t, k)), "")
        TestListings.check_verify(capsys, cert, 0)
        return cert

    @staticmethod
    def check_verify(capsys, cert, code):
        """Run `verify` on cert, check its listing, and return its stderr."""
        assert main(["verify", "--certificate", str(cert)]) == code
        report = verify_chain(*loads_certificate(cert.read_text()))
        captured = capsys.readouterr()
        assert captured == verify_listing(report)
        return captured.err

    def test_t4a_every_king(self, capsys, tmp_path, t4a):
        for k in kings(t4a):
            self.round_trip(capsys, tmp_path, t4a, k)

    def test_every_king_of_order_five(self, capsys, tmp_path):
        pairs = 0
        for t in filter(is_strong, enumerate_all(5)):
            for k in kings(t):
                self.round_trip(capsys, tmp_path, t, k)
                pairs += 1
        assert pairs == 1880

    @pytest.mark.parametrize("n", [40, 200])
    def test_random_orders(self, capsys, tmp_path, n):
        t = random_strong_tournament(n, 1)
        self.round_trip(capsys, tmp_path, t)
        self.round_trip(capsys, tmp_path, t, kings(t)[-1])

    @pytest.mark.parametrize("n", [4, 40])
    def test_failing_certificate(self, capsys, tmp_path, t4a, n):
        # C4 reversed after its king: stdout lists the failing checks, and
        # stderr is the one first_failure line.
        t = t4a if n == 4 else random_strong_tournament(n, 1)
        cert = self.round_trip(capsys, tmp_path, t)
        obj = json.loads(cert.read_text())
        obj["cycles"][1][1:] = obj["cycles"][1][:0:-1]
        cert.write_text(json.dumps(obj))
        err = self.check_verify(capsys, cert, 1)
        assert err == "first_failure=C4: not a directed cycle of the tournament\n"


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

    def test_order_too_large_for_the_generator(self, capsys):
        assert main(["stress", "--n", "1000000000", "--trials", "1", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
