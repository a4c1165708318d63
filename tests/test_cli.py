"""Command-line contract: byte-stable tables, JSON schemas, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import ordpoly
from ordpoly.cli import main

TABLE1_TEXT = """\
  j  012345678  G
  1  01234      -
  2  012 45     5
  3  0 2345     35
  4  0 23 56    6
  5  0  3456    46
  6  01 34 67   7
  7  01  4567   57
  8    2345  8  8
  9    23 56 8  68
 10     3456 8  468
 11   1234  78  78
 12   12 45 78  578
 13  0123  678  678
 14     34 678  4678
 15  012  5678  5678
 16      45678  45678
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestShell:
    def test_table1_bytes(self, capsys):
        code, out, err = run(capsys, "shell", "5", "6", "8")
        assert code == 0
        assert out == TABLE1_TEXT
        assert err == ""

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "shell", "5", "6", "8", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "j,F,G"
        assert lines[1] == "1,0 1 2 3 4,"
        assert lines[-1] == "16,4 5 6 7 8,4 5 6 7 8"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "shell", "5", "6", "8", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert [doc["d"], doc["k"], doc["n"]] == [5, 6, 8]
        assert len(doc["steps"]) == 16
        assert doc["steps"][0]["G"] == []


class TestTriangulate:
    def test_row_count(self, capsys):
        code, out, _ = run(capsys, "triangulate", "5", "6", "8")
        assert code == 0
        assert len(out.strip("\n").split("\n")) == 25

    def test_csv_header(self, capsys):
        _, out, _ = run(capsys, "triangulate", "5", "6", "8", "--format", "csv")
        assert out.startswith("j,l,T,U\n")
        assert len(out.strip().split("\n")) == 25


class TestHvector:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "hvector", "5", "6", "8", "--method", "all")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "agreement: yes"
        vectors = {line.split(None, 1)[1] for line in lines[:-1]}
        assert vectors == {"1 4 7 7 4 1"}
        assert len(lines) == 5

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "hvector", "5", "6", "8", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["h"] == [1, 4, 7, 7, 4, 1]
        assert doc["h_prime"] == [1, 4, 5, 3, 2, 1]
        assert doc["a"]["13"] == [0, 0, 0, 2, 0, 0]
        assert doc["a"]["1"] == [0, 0, 0, 0, 0, 0]
        assert len(doc["a"]) == 16

    def test_even_d_skips_closed(self, capsys):
        code, out, _ = run(capsys, "hvector", "6", "6", "9", "--method", "all")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert not any(line.startswith("closed") for line in lines)

    def test_shelling_method(self, capsys):
        code, out, _ = run(capsys, "hvector", "5", "6", "8", "--method", "shelling")
        assert code == 0
        assert out.strip().endswith("1 4 5 3 2 1")


class TestWideLabels:
    """Labels above 62 take every route, the lattice ones included."""

    def test_hvector_all(self, capsys):
        code, out, _ = run(capsys, "hvector", "5", "6", "70", "--method", "all")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "agreement: yes"
        vectors = {line.split(None, 1)[1] for line in lines[:-1]}
        assert vectors == {"1 66 131 131 66 1"}

    def test_hvector_closed_json(self, capsys):
        code, out, _ = run(
            capsys, "hvector", "5", "6", "70", "--method", "closed", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["h"] == [1, 66, 131, 131, 66, 1]

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "6", "70")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 21


class TestBijection:
    def test_six_rows(self, capsys):
        code, out, _ = run(capsys, "bijection", "7", "9", "15", "--i", "3")
        assert code == 0
        assert len(out.strip("\n").split("\n")) == 7

    def test_requires_i(self, capsys):
        code, _, err = run(capsys, "bijection", "7", "9", "15")
        assert code == 2
        assert "--i" in err

    def test_out_of_range_i(self, capsys):
        code, _, _ = run(capsys, "bijection", "7", "9", "15", "--i", "9")
        assert code == 2


class TestMultiplex:
    def test_requires_k_equal_d(self, capsys):
        code, _, _ = run(capsys, "multiplex", "5", "6", "8")
        assert code == 2

    def test_json_sections(self, capsys):
        code, out, _ = run(capsys, "multiplex", "5", "5", "8", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["facets"]) == 9
        assert len(doc["solid"]) == 4
        assert len(doc["boundary"]) == 18
        assert doc["g"] == [1, 3]


class TestVerify:
    def test_single_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "6", "7")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 21

    def test_grid_flag_rejected_elsewhere(self, capsys):
        code, _, _ = run(capsys, "shell", "5", "6", "8", "--grid")
        assert code == 2

    def test_json_single(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "6", "7", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert all(c["ok"] for c in doc["checks"])


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("hvector", "4", "5", "6"),
            ("shell", "5", "4", "6"),
            ("facets", "2", "3", "4"),
            ("shell", "5", "6", "8", "--method", "toric"),
            ("verify", "5", "6", "8", "--i", "2"),
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2


class TestFacets:
    def test_json_embeds_lattice(self, capsys):
        code, out, _ = run(capsys, "facets", "5", "6", "6", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["facets"]) == 12
        from ordpoly.lattice import lattice_from_json

        lattice = lattice_from_json(json.dumps(doc["lattice"]))
        assert lattice.f_vector()[-1] == 12


class TestOneBuildPerCall:
    def test_hvector_json_builds_one_lattice(self, capsys, monkeypatch):
        import ordpoly
        from ordpoly import lattice

        calls = []
        build = lattice.build_face_lattice

        def counted(*args):
            calls.append(args)
            return build(*args)

        for name in dir(ordpoly):
            module = getattr(ordpoly, name)
            if getattr(module, "build_face_lattice", None) is build:
                monkeypatch.setattr(module, "build_face_lattice", counted)
        code, _, _ = run(capsys, "hvector", "5", "6", "8", "--format", "json")
        assert code == 0
        assert len(calls) == 1


class TestFaceCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("facets", "5", "6", "8"),
            ("shell", "5", "6", "8"),
            ("triangulate", "5", "6", "8"),
            ("hvector", "5", "6", "8"),
            ("bijection", "7", "9", "15", "--i", "3"),
            ("multiplex", "5", "5", "8"),
            ("verify", "5", "6", "8"),
        ],
    )
    def test_bad_cap_is_a_bad_argument(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("ORDPOLY_MAX_FACES", "abc")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "ORDPOLY_MAX_FACES" in err

    def test_small_cap_fails_the_lattice_checks(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDPOLY_MAX_FACES", "100")
        code, out, _ = run(capsys, "verify", "7", "9", "12")
        assert code == 1
        assert out.count("FAIL") == 13


def test_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(ordpoly.__file__))
    probe = "import ordpoly.cli, sys; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
