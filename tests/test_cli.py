from __future__ import annotations

import json

import pytest

from conftest import DATA
from sphskel.cli import main

EX35 = str(DATA / "ex35.json")
EX32 = str(DATA / "ex32_fano.json")
EX61 = str(DATA / "ex61_fano.json")


def test_compute_p_family(capsys):
    assert main(["compute-p", "--family", "2:G2", "--mark", "1"]) == 0
    out = capsys.readouterr().out
    assert "p = 2" in out and "bound = 12" in out


def test_compute_p_fraction(capsys):
    assert main(["compute-p", "--family", "29:F4", "--mark", "4"]) == 0
    out = capsys.readouterr().out
    assert "p = 3/2" in out


def test_compute_p_file_json_deterministic(capsys):
    assert main(["compute-p", EX35, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["compute-p", EX35, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["p"] == "1" and doc["bound"] == 1 and doc["equality"]
    assert doc["certificate"] is True


def test_compute_p_invalid_exit_code(tmp_path, capsys):
    doc = json.loads((DATA / "ex35.json").read_text())
    doc["gamma"][0]["pairings"] = [1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["compute-p", str(path)]) == 2
    err = capsys.readouterr().err
    assert "violation" in err


def test_verify_tables_small(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code = main(
        [
            "verify", "tables", "--max-rank", "3",
            "--csv", str(csv_path), "--json", str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "family,params,marking,p_num,p_den,bound,match"
    report = json.loads(json_path.read_text())
    assert report["tables"] and all(r["match"] for r in report["tables"])
    assert "theta" in report["tables"][0] and "dual" in report["tables"][0]


def test_verify_all_small(capsys):
    assert main(["verify", "all", "--max-rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "tables:" in out and "equality:" in out


def test_verify_all_json_is_tables_plus_equality(capsys, tmp_path):
    docs = {}
    for what in ("all", "tables", "equality"):
        path = tmp_path / f"{what}.json"
        argv = ["verify", what, "--max-rank", "4", "--jobs", "1", "--json", str(path)]
        assert main(argv) == 0
        docs[what] = json.loads(path.read_text())
    capsys.readouterr()
    merged = {"tables": docs["tables"]["tables"], "equality": docs["equality"]["equality"]}
    assert docs["all"] == merged


def test_fano_command(capsys):
    assert main(["fano", EX32]) == 0
    out = capsys.readouterr().out
    assert "iota = 2" in out and "mukai: 2 <= 3 holds" in out
    assert main(["fano", EX61, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["supported"] == [["0", "1"], ["1", "0"]]


def test_fano_invalid_exit(tmp_path, capsys):
    doc = json.loads((DATA / "ex32_fano.json").read_text())
    doc["rho_prime"]["D1"] = [5, 5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["fano", str(path)]) == 2


def test_smoothness_command(capsys):
    assert main(["smoothness", EX35, "--divisors", "D1,D2,D4"]) == 0
    out = capsys.readouterr().out
    assert "smooth: yes" in out
    assert main(["smoothness", EX35, "--divisors", ""]) == 0
    assert "smooth: yes" in capsys.readouterr().out


def test_smoothness_unknown_divisor(capsys):
    assert main(["smoothness", EX35, "--divisors", "Dx"]) == 2


def test_compute_p_sp_out_of_range_exit_code(tmp_path, capsys):
    doc = json.loads((DATA / "ex35.json").read_text())
    doc["sp"] = [3]
    path = tmp_path / "bad_sp.json"
    path.write_text(json.dumps(doc))
    assert main(["compute-p", str(path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "invalid input"
    assert "S^p contains an unknown simple root index" in report["violations"]


@pytest.mark.parametrize("command", ["compute-p", "smoothness", "fano"])
def test_missing_file_exit_code(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.json")
    assert main([command, missing]) == 2
    assert "violation: cannot read" in capsys.readouterr().err


def test_missing_file_json_document(tmp_path, capsys):
    assert main(["compute-p", str(tmp_path / "missing.json"), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "invalid input"
    assert report["violations"][0].startswith("cannot read")


def test_catalog_list(capsys):
    assert main(["catalog-list"]) == 0
    out = capsys.readouterr().out
    assert "2:<type>" in out and "30" in out
