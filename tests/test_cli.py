"""Command-line contract: byte-stable tables, JSON schemas, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import ordpoly
from ordpoly import verify
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


# (argv, exit code, SHA-256 of stdout): every verb in every format, the
# comma digit form that n > 9 switches to, and the output of every call
# the benchmark's `cli` workload makes.
GOLDEN = [
    ("facets 5 6 8 --format text", 0, "018b7898110bfb6a3b5c7adcb6dbfa9a89382d4374b7444df7b0e10363e85515"),
    ("facets 5 6 8 --format json", 0, "a129032fc7d0829495c8f4692732aa94ef7160d19c6653b6a0c30a93f94a5627"),
    ("facets 5 6 8 --format csv", 0, "1cd57ddc2f4e7c7d4951284d131c70741ce74b82cacee188be37dcbf5faff80a"),
    ("shell 5 6 8 --format text", 0, "9a3abd749e1984cd468a848c8d02e79940ef5489f9c206da0909bad99cbb8b76"),
    ("shell 5 6 8 --format json", 0, "0cb4bc1d2ca0a690dec531aa0887c415c45daa797165e2db21249b6daed1a9a0"),
    ("shell 5 6 8 --format csv", 0, "2281958c122608de9e4b8a54bd9fe35ac16ef42a8d5bfee48a5f66c1493b6eff"),
    ("triangulate 5 6 8 --format text", 0, "44175e76024ad376146b6e8ae450488a675f282c60fa4788543601630a999a64"),
    ("triangulate 5 6 8 --format json", 0, "88236e92eb2d863c534e89ab12f3664f5dce6f2527cd3aea2f697874d04b83c6"),
    ("triangulate 5 6 8 --format csv", 0, "b59b9a5a5876276c484795372e9e94f548bb80d24275ec6da70a12e95803f08f"),
    ("hvector 5 6 8 --format text", 0, "74b21d8cb933c62a7453f415ef41a8d23e44f18f1fe92b2342dd6512546543b6"),
    ("hvector 5 6 8 --format json", 0, "e5e27d86370acdbc6c14b16a4e47438ad21c7a6400952f632b7531de08fc92b4"),
    ("hvector 5 6 8 --format csv", 0, "a89545093d6c8949d20c139ef554f1e845029d1f2698b47f99c9175c33833dbe"),
    ("bijection 7 9 15 --i 3 --format text", 0, "e9c852c822bc9f773efd510aa4627e78f5126646662d0356e04ec7de0e63901a"),
    ("bijection 7 9 15 --i 3 --format json", 0, "13a91ac5a1ed98edbd66822c3e488ceb50b80fe0554cf1ce0aebbba3c67e7ed4"),
    ("bijection 7 9 15 --i 3 --format csv", 0, "21b8eb16ddb820e06c5e55485a680b80b0ca768c2327405ac2f4911ae42db03a"),
    ("multiplex 5 5 8 --format text", 0, "8d5a35a4389fd07c50b45a368f143b70ea041ffb4f3296af15b81ed53165f3ca"),
    ("multiplex 5 5 8 --format json", 0, "10c932ea1d6597f5e2d5414d205c8890df533e34a4982c4db772b6f88084574b"),
    ("multiplex 5 5 8 --format csv", 0, "beeb2d79b83996503651a42df7bb53c9f8c054c46e33a593b2eae22e3957a5f2"),
    ("verify 5 6 8 --format text", 0, "1d035fc4626c50e486daffaf01b7f1a1d80088ec06714a238deb3a1c96ab9297"),
    ("verify 5 6 8 --format json", 0, "44d3aa295b95755e53d96fc8f9917dab21259eea909b2a788d2e725eef7abb7a"),
    ("verify 5 6 8 --format csv", 0, "5e7d70c1d34d1ed54380cff541bbaf96cc4f47d9aeb9a7cc693ff643773bca10"),
    ("shell 7 9 15", 0, "45e4348e8d90db5002a919d9f99f607e6b2ed729fb7fd181c4e8e123b9ab540e"),
    ("triangulate 7 9 15", 0, "6f8326bfc1d85db03ee10aad5d6f94468c510ad96216e3729bed2b6b35d827ee"),
    ("hvector 7 9 20 --format json", 0, "15787e60ffbf98edce12dcb917ae3ed14d8ac565c6a3b07adc36023bb78e8aaf"),
]


# The checks that read the face lattice, in suite order.
LATTICE_CHECKS = [
    "lattice_build",
    "eulerian",
    "facet_g",
    "shelling_partition",
    "boolean_intervals",
    "four_way_h",
    "h_symmetric",
    "h_vs_h_prime",
    "h_prime_routes",
    "sum_h",
    "contributions",
    "shallow",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    ("argv", "code", "digest"),
    GOLDEN,
    ids=["_".join(argv.replace("--", "").split()) for argv, _, _ in GOLDEN],
)
def test_golden_output(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_csv_keeps_a_detail_naming_a_face_in_one_cell(self, capsys, monkeypatch):
        detail = "face (0, 1) is not covered exactly once"
        checks = [
            (name, (lambda b: detail) if name == "shelling_partition" else fn)
            for name, fn in verify._CHECKS
        ]
        monkeypatch.setattr(verify, "_CHECKS", checks)
        code, out, _ = run(capsys, "verify", "5", "6", "8", "--format", "csv")
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows] == [6] * 22
        assert ["5", "6", "8", "shelling_partition", "fail", detail] in rows


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
        from ordpoly.lattice import build_face_lattice

        lattice = build_face_lattice([tuple(f) for f in doc["facets"]], 5)
        assert doc["lattice"] == {
            "d": 5,
            "n": 6,
            "faces": [list(f) for f in lattice.faces],
            "dims": list(lattice.dims),
        }


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
        lines = out.split("\n")
        failed = [line[5:].split(":")[0] for line in lines if line.startswith("FAIL ")]
        assert failed == LATTICE_CHECKS

    @pytest.mark.parametrize(
        "argv", [("hvector", "7", "9", "12"), ("facets", "7", "9", "12", "--format", "json")]
    )
    def test_small_cap_is_not_evaluated(self, argv):
        src = os.path.dirname(os.path.dirname(ordpoly.__file__))
        env = {**os.environ, "PYTHONPATH": src, "ORDPOLY_MAX_FACES": "100"}
        proc = subprocess.run(
            [sys.executable, "-m", "ordpoly.cli", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "not evaluated: face closure exceeds the cap of 100 faces; "
            "raise ORDPOLY_MAX_FACES to allow more\n"
        )



def test_closed_pipe_exits_quietly():
    # The read end is closed before the child writes, as when `| head`
    # has already exited: no traceback, and the verdict's exit code.
    src = os.path.dirname(os.path.dirname(ordpoly.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordpoly.cli", "verify", "5", "6", "8"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""

def test_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(ordpoly.__file__))
    probe = "import ordpoly.cli, sys; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_import_skips_the_dataclasses_machinery():
    # Compared against the bare interpreter, so whatever `site` loads
    # does not count: only the modules `import ordpoly.cli` adds.
    src = os.path.dirname(os.path.dirname(ordpoly.__file__))
    probe = (
        "import sys; before = set(sys.modules); import ordpoly.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "ordpoly.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)
