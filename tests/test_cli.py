from __future__ import annotations

import hashlib
import json
import shlex
from itertools import product

import pytest

from conftest import DATA
from sphskel import catalog, cli, fano, pinv, serialize, skeleton
from sphskel.cli import main
from test_fano import product_rays, projective_rays, toric

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute-p"], "compute-p needs a path or --family"),
        (["compute-p", EX35, "--mark", "2"], "compute-p --mark needs --family"),
        (
            ["compute-p", EX35, "--family", "2:A3", "--mark", "1"],
            "compute-p takes a path or --family, not both",
        ),
        (["compute-p", EX35, "--family", "2:A3"], "compute-p takes a path or --family, not both"),
    ],
)
def test_compute_p_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sphskel")
    assert captured.err.endswith(f"sphskel: error: {message}\n")


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
    assert docs["tables"].keys() == {"tables"} and docs["equality"].keys() == {"equality"}
    merged = {"tables": docs["tables"]["tables"], "equality": docs["equality"]["equality"]}
    assert docs["all"] == merged


@pytest.mark.parametrize("what", ["tables", "all"])
def test_verify_csv_alone_builds_no_json_rows(monkeypatch, capsys, tmp_path, what):
    calls = []
    for name in ("table_rows_to_json", "equality_rows_to_json"):
        monkeypatch.setattr(serialize, name, lambda rows, name=name: calls.append(name))
    path = tmp_path / "out.csv"
    assert main(["verify", what, "--max-rank", "3", "--csv", str(path)]) == 0
    capsys.readouterr()
    assert calls == []
    assert path.read_text().startswith("family,params,marking,")


@pytest.mark.parametrize("flag", ["--csv", "--json"])
@pytest.mark.parametrize(
    "where, reason",
    [
        ("missing/report", "No such file or directory"),
        ("file/report", "Not a directory"),
        ("", "Is a directory"),
    ],
)
def test_verify_report_path_that_cannot_be_written_exits_2_before_the_sweep(
    monkeypatch, capsys, tmp_path, flag, where, reason
):
    (tmp_path / "file").write_text("")
    path = tmp_path / where if where else tmp_path
    monkeypatch.setattr(catalog, "verify_catalog", lambda max_rank: pytest.fail("swept"))
    assert main(["verify", "all", "--max-rank", "2", "--csv", str(tmp_path / "ok.csv"),
                 flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"violation: cannot write {path}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_verify_reports_every_report_path_that_cannot_be_written(capsys, tmp_path):
    csv_path, json_path = tmp_path / "missing" / "r.csv", tmp_path / "missing" / "r.json"
    argv = ["verify", "all", "--max-rank", "0", "--csv", str(csv_path), "--json", str(json_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "".join(
        f"violation: cannot write {path}: No such file or directory\n"
        for path in (csv_path, json_path)
    )


@pytest.mark.parametrize("mismatch, code", [(False, 2), (True, 1)])
def test_verify_report_write_that_fails_late_still_reports_the_rest(
    monkeypatch, capsys, tmp_path, mismatch, code
):
    # A path that passes the check before the sweep but fails when written.
    monkeypatch.setattr(cli, "_writable", lambda path: True)
    if mismatch:
        sweep = catalog.verify_catalog
        monkeypatch.setattr(
            catalog,
            "verify_catalog",
            lambda max_rank: [row._replace(listed=not row.listed) for row in sweep(max_rank)],
        )
    csv_path, json_path = tmp_path / "missing" / "r.csv", tmp_path / "r.json"
    argv = ["verify", "all", "--max-rank", "2", "--csv", str(csv_path), "--json", str(json_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "tables: " in captured.out and "equality: " in captured.out
    assert ("MISMATCH" in captured.out) == mismatch
    assert captured.err == f"violation: cannot write {csv_path}: No such file or directory\n"
    assert json.loads(json_path.read_text()).keys() == {"tables", "equality"}


@pytest.mark.parametrize("what", ["tables", "equality", "all"])
@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_verify_empty_report_path_exits_2_before_the_sweep(
    monkeypatch, capsys, tmp_path, what, flag
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(catalog, "verify_catalog", lambda max_rank: pytest.fail("swept"))
    assert main(["verify", what, "--max-rank", "2", flag, ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if (what, flag) == ("equality", "--csv"):
        assert captured.err.startswith("violation: --csv writes the tables report")
    else:
        assert captured.err == "violation: cannot write : No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_equality_has_no_csv_report(capsys, tmp_path):
    path = tmp_path / "eq.csv"
    assert main(["verify", "equality", "--max-rank", "3", "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "violation: --csv writes the tables report, which verify equality does not make\n"
    )
    assert not path.exists()


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


def test_fano_validates_skeleton_once(monkeypatch, capsys):
    calls = []

    def counted(sk):
        calls.append(sk)
        return skeleton.validate(sk)

    monkeypatch.setattr(pinv, "validate", counted)
    assert main(["fano", EX32, "--json"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["p_cross_check"] is True


def test_fano_reports_skeleton_violations(tmp_path, capsys):
    doc = json.loads((DATA / "ex32_fano.json").read_text())
    doc["skeleton"]["colors"][0]["pairings"] = [5]
    aug = serialize.augmented_from_doc(doc)
    found = skeleton.validate(aug.skeleton)
    assert found
    expected = fano.validate_augmentation(aug)[0] + found
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["fano", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "".join(f"violation: {v}\n" for v in expected)
    assert json.loads(captured.out)["violations"] == expected


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit,where",
    [
        (_set(["rho_prime"], [[1, 0], [0, 1], [-1, 1], [0, -1]]), "$.rho_prime"),
        (_set(["rho_prime", "D1"], [1.5, 0]), "$.rho_prime.D1[0]"),
        (_set(["rho_prime", "D1"], [True, 0]), "$.rho_prime.D1[0]"),
        (_set(["rho_prime", "D1"], 1), "$.rho_prime.D1"),
        (_set(["sigma_in_M"], [[1.0, 1]]), "$.sigma_in_M[0][0]"),
        (_set(["m"], [1, 1, 1, 1]), "$.m"),
        (_set(["m", "D1"], 1.5), "$.m.D1"),
        (_set(["m", "D1"], 0), "$.m.D1"),
        (_set(["m", "D1"], False), "$.m.D1"),
        (_set(["lattice_rank"], -1), "$.lattice_rank"),
        (_set(["lattice_rank"], "2"), "$.lattice_rank"),
        (_set(["lattice_rank"], 2.0), "$.lattice_rank"),
        (_set(["coroot_on_M"], [[1, 1]]), "$.coroot_on_M"),
        (_set(["coroot_on_M", "1"], [1, 0.5]), "$.coroot_on_M.1[1]"),
        (_set(["coroot_on_M", "x"], [1, 1]), "$.coroot_on_M"),
        (_set(["mystery"], 1), "unknown field 'mystery'"),
        (_set(["rho_prime", "ZZ"], [1, 0]), "rho_prime: ZZ is not a divisor of the skeleton"),
        (_set(["m", "ZZ"], 1), "m: ZZ is not a divisor of the skeleton"),
        (_set(["coroot_on_M", "99"], [2, 0]), "coroot_on_M: simple root 99 exceeds the rank 1"),
        (_set(["coroot_on_M", "1"], [2]), "coroot_on_M[1] has wrong length"),
    ],
)
def test_fano_mistyped_document_exit_code(tmp_path, capsys, edit, where):
    doc = json.loads((DATA / "ex32_fano.json").read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["fano", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("violation: ") and where in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "table, bad",
    [
        ({"1": [2, 2], "01": [1, 1]}, ["01"]),
        ({"01": [1, 1], "1": [2, 2]}, ["01"]),
        ({"\u0661": [1, 1]}, ["\u0661"]),
        ({"0": [1, 1]}, ["0"]),
        ({"": [1, 1]}, [""]),
    ],
    ids=["1,01", "01,1", "arabic-indic-1", "0", "empty"],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_fano_coroot_keys_are_ascii_digits_with_no_leading_zero(
    tmp_path, capsys, table, bad, as_json
):
    doc = json.loads((DATA / "ex32_fano.json").read_text())
    doc["coroot_on_M"] = table
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["fano", str(path), *(["--json"] if as_json else [])]) == 2
    captured = capsys.readouterr()
    violation = f"$.coroot_on_M: keys {bad} are not simple root indices"
    if as_json:
        assert json.loads(captured.out) == {"error": "invalid input", "violations": [violation]}
        assert captured.err == ""
    else:
        assert (captured.out, captured.err) == ("", f"violation: {violation}\n")


def test_coroot_keys_one_to_n_load():
    doc = json.loads((DATA / "ex32_fano.json").read_text())
    doc["coroot_on_M"] = {str(a): [a, 0] for a in range(1, 13)}
    coroot = serialize.augmented_from_doc(doc).coroot_on_m
    assert coroot == {a - 1: (a, 0) for a in range(1, 13)}


def test_verify_over_no_rows_is_invalid(capsys, tmp_path):
    json_path = tmp_path / "out.json"
    assert main(["verify", "all", "--max-rank", "0", "--json", str(json_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "violation: --max-rank 0 selects no catalog marking" in captured.err
    assert not json_path.exists()


def test_smoothness_command(capsys):
    assert main(["smoothness", EX35, "--divisors", "D1,D2,D4"]) == 0
    out = capsys.readouterr().out
    assert "smooth: yes" in out
    assert main(["smoothness", EX35, "--divisors", ""]) == 0
    assert "smooth: yes" in capsys.readouterr().out


def test_smoothness_validates_before_localizing(tmp_path, capsys):
    doc = json.loads((DATA / "ex35.json").read_text())
    doc["gamma"][1]["pairings"] = []
    path = tmp_path / "short_row.json"
    path.write_text(json.dumps(doc))
    assert main(["smoothness", str(path), "--divisors", "D1,D2,D4"]) == 2
    assert capsys.readouterr().err == "violation: D4: pairing row has wrong length\n"


def test_smoothness_unknown_divisor(capsys):
    assert main(["smoothness", EX35, "--divisors", "Dx"]) == 2


def test_smoothness_reports_each_violation(tmp_path, capsys):
    doc = json.loads((DATA / "ex35.json").read_text())
    for row in doc["gamma"]:
        row["pairings"] = []
    path = tmp_path / "short_rows.json"
    path.write_text(json.dumps(doc))
    violations = ["D3: pairing row has wrong length", "D4: pairing row has wrong length"]
    assert main(["smoothness", str(path), "--divisors", "D1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"violation: {v}\n" for v in violations)
    assert main(["smoothness", str(path), "--divisors", "D1", "--json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "invalid input", "violations": violations}
    assert captured.err == ""


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
    (tmp_path / "not.json").write_text("not json")
    for name, message in (("missing.json", "cannot read"), ("not.json", "Expecting value")):
        for command in ("compute-p", "smoothness", "fano"):
            assert main([command, str(tmp_path / name), "--json"]) == 2
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            assert report["error"] == "invalid input"
            assert report["violations"][0].startswith(message)
            assert captured.err == ""
    doc = json.loads((DATA / "ex32_fano.json").read_text())
    doc["m"]["D1"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["fano", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "error": "invalid input",
        "violations": ["$.m.D1: 0 is below 1"],
    }
    assert captured.err == ""
    assert main(["fano", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "violation: $.m.D1: 0 is below 1\n"


def test_compute_p_csv(tmp_path, capsys):
    assert main(["compute-p", "--family", "29:F4", "--mark", "4", "--csv"]) == 0
    assert capsys.readouterr().out == "p_num,p_den,bound,equality\n3,2,24,no\n"
    doc = json.loads((DATA / "ex35.json").read_text())
    doc["gamma"] = []
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    assert main(["compute-p", str(path), "--csv"]) == 0
    assert capsys.readouterr().out == "p_num,p_den,bound,equality\ninf,,1,no\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute-p", EX35, "--meta"],
        ["fano", EX32, "--csv"],
        ["smoothness", EX35, "--csv"],
        ["catalog-list", "--csv"],
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_commands() -> list[str]:
    text = (DATA.parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("sphskel ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Fixture paths are relative to the repository; outputs land in tmp_path.
    commands = _readme_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for line in commands:
        argv = [
            str(DATA / arg.removeprefix("tests/data/")) if arg.startswith("tests/data/") else arg
            for arg in shlex.split(line)[1:]
        ]
        assert main(argv) == 0, line
    capsys.readouterr()


def test_catalog_list(capsys):
    assert main(["catalog-list"]) == 0
    out = capsys.readouterr().out
    assert "2:<type>" in out and "30" in out
    family15 = next(line for line in out.splitlines() if line.startswith("15:"))
    assert family15.split(None, 1)[1] == (
        "(m = 0, l >= 3) or (m = 1, l >= 2) or (m >= 2, l >= 1) or (m >= 3, l = 0)"
    )
    # generate agrees at the edge of each clause.
    edges = [(3, 0, True), (2, 0, False), (2, 1, True), (1, 1, False), (1, 2, True),
             (0, 2, False), (0, 3, True)]
    for l, m, accepted in edges:
        try:
            catalog.generate(catalog.FamilySpec("15", l=l, m=m))
        except catalog.ParameterOutOfRange:
            assert not accepted, (l, m)
        else:
            assert accepted, (l, m)


# sha256 of the stdout of `catalog-list` and `catalog-list --json`, recorded
# when cli.py still held the family table as text (aa37b78).
CATALOG_LIST_DIGESTS = {
    (): "802fe241bf383c53b7ee2c1d8d22b8ed06d1db6129a16e52f7a9cb3895393506",
    ("--json",): "f7275e892612d6051b9588e2b7299c5bc5916adafc6054623723a285725bdc02",
}


@pytest.mark.parametrize("flags", list(CATALOG_LIST_DIGESTS), ids=" ".join)
def test_catalog_list_output_unchanged(capsys, flags):
    assert main(["catalog-list", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_LIST_DIGESTS[flags]


# sha256 of the stdout of `fano --json` on toric products past the
# benchmark's cases, recorded at 65bd112, before the curve pass read the Q*
# edges from tight rows.
FANO_JSON_DIGESTS = {
    "P1^7": "8ab989c86bcda69cf803c5dfd4fbbc94ff9944c0540e74d96b6094417b3982eb",
    "P1^8": "ae12d69c437939ff28ec057c510bad53d18b6e28f710130f136bcf4c38c34c02",
    "P2^4": "e76eb7411369a1a651948ff4159c8882ecd8122d4de10c7b38d3a98f901a7af8",
}


@pytest.mark.parametrize("name", list(FANO_JSON_DIGESTS))
def test_fano_json_output_unchanged(tmp_path, capsys, name):
    factor, power = name.split("^")
    rays = product_rays(*[projective_rays(int(factor[1:]))] * int(power))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(serialize.augmented_to_doc(toric(rays))))
    assert main(["fano", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FANO_JSON_DIGESTS[name]


@pytest.mark.parametrize("fam", list(catalog.PARAMETRIC_FAMILIES))
def test_family_rule_reads_as_its_conditions(fam):
    family = catalog.PARAMETRIC_FAMILIES[fam]
    # "(m = 0, l >= 2) or ..." as a Python expression in l and m.
    text = family.conditions.replace(" = ", " == ").replace(",", " and")
    for l, m in product(range(8), repeat=2):
        assert family.rule(l, m) == eval(text, {}, {"l": l, "m": m}), (l, m)
        # The rule and the rank read only the parameters the label names.
        shifted = (l + ("l" not in family.params), m + ("m" not in family.params))
        assert family.rule(*shifted) == family.rule(l, m), (l, m)
        assert family.rank(*shifted) == family.rank(l, m), (l, m)


@pytest.mark.parametrize("spec", ["4:l=3,m=1", "5:l=2,m=3", "17:m=1,l=0"])
def test_family_parameter_the_label_does_not_name_exits_2(capsys, spec):
    # These families take only m: an l used to be read, printed in the label
    # and ignored, with exit 0.  (Every family that takes only l is 8 or 14.)
    assert main(["compute-p", "--family", spec, "--mark", "1"]) == cli.EXIT_INVALID
    message = f"family {spec.partition(':')[0]} takes no parameter l"
    assert capsys.readouterr().err == f"violation: {message}\n"
    assert main(["compute-p", "--family", spec, "--mark", "1", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["violations"] == [message]


@pytest.mark.parametrize("spec", ["8:l=1,m=-5", "8:l=2,m=3", "14:l=2,m=0", "14:l=3"])
def test_swept_m_of_the_l_only_families_is_still_read(capsys, spec):
    # all_specs sweeps m for families 8 and 14, and the benchmark references
    # pin those labels, so parse keeps the m it does not use.
    parsed = catalog.FamilySpec.parse(spec)
    assert parsed.label() == spec
    assert main(["compute-p", "--family", spec, "--mark", "1"]) == 0
    capsys.readouterr()


# Specs outside the catalog's grammar, each with its violation.  A fixed
# family takes only a bare label or its own ambient type (29, 29:F4); a
# simple type's rank is ASCII digits only, where int() would also read a
# sign, a space, an underscore or another script's digits; l and m are
# each given at most once, in ASCII digits with no leading zero.
LM_DIGITS = "takes ASCII digits with no leading zero"
REFUSED_SPECS = {
    "29:l=3,m=9": "family 29 takes no parameters, only its type F4: '29:l=3,m=9'",
    "29:E6": "family 29 takes no parameters, only its type F4: '29:E6'",
    "29:xyz": "family 29 takes no parameters, only its type F4: '29:xyz'",
    "29:m=1": "family 29 takes no parameters, only its type F4: '29:m=1'",
    "29:f4": "family 29 takes no parameters, only its type F4: '29:f4'",
    "30:F4": "family 30 takes no parameters, only its type G2: '30:F4'",
    "18:E6,l=1": "family 18 takes no parameters, only its type E6: '18:E6,l=1'",
    "2:G2,B2": "cannot parse simple type 'G2,B2'",
    "2:A+1": "cannot parse simple type 'A+1'",
    "2:A1_0": "cannot parse simple type 'A1_0'",
    "2:A\u0661": "cannot parse simple type 'A\u0661'",
    "2:A": "cannot parse simple type 'A'",
    "2:A-1": "cannot parse simple type 'A-1'",
    "2:A 3": "cannot parse simple type 'A 3'",
    "2:A\u00b2": "cannot parse simple type 'A\u00b2'",
    "3:l=1,l=2,m=1": "parameter l given twice: '3:l=1,l=2,m=1'",
    "3:l=1,m=1,m=2": "parameter m given twice: '3:l=1,m=1,m=2'",
    "8:L=1,l=1": "parameter l given twice: '8:L=1,l=1'",
    "3:l=01,m=1": f"parameter l {LM_DIGITS}: '3:l=01,m=1'",
    "3:l=+1,m=1": f"parameter l {LM_DIGITS}: '3:l=+1,m=1'",
    "3:l=1_0,m=1": f"parameter l {LM_DIGITS}: '3:l=1_0,m=1'",
    "3:l=\u0661,m=1": f"parameter l {LM_DIGITS}: '3:l=\u0661,m=1'",
    "3:l=-1,m=1": f"parameter l {LM_DIGITS}: '3:l=-1,m=1'",
    "3:l=1,m=00": f"parameter m {LM_DIGITS}: '3:l=1,m=00'",
    "5:m=+2": f"parameter m {LM_DIGITS}: '5:m=+2'",
    "8:l=01,m=1": f"parameter l {LM_DIGITS}: '8:l=01,m=1'",
}


@pytest.mark.parametrize("spec", list(REFUSED_SPECS))
def test_spec_the_catalog_does_not_define_exits_2(capsys, spec):
    message = REFUSED_SPECS[spec]
    assert main(["compute-p", "--family", spec, "--mark", "1"]) == cli.EXIT_INVALID
    assert capsys.readouterr() == ("", f"violation: {message}\n")
    assert main(["compute-p", "--family", spec, "--mark", "1", "--json"]) == cli.EXIT_INVALID
    assert json.loads(capsys.readouterr().out)["violations"] == [message]


@pytest.mark.parametrize("text", ["A+1", "A 1", "A\u0661"])
def test_document_simple_type_rank_is_ascii_digits(tmp_path, capsys, text):
    # ex35 is over A1, and int() would read each of these ranks as 1.
    doc = json.loads((DATA / "ex35.json").read_text(encoding="utf-8"))
    doc["root_system"] = [text]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["compute-p", str(path)]) == cli.EXIT_INVALID
    assert capsys.readouterr() == ("", f"violation: cannot parse simple type {text!r}\n")


def _raise_runtime_error(args):
    raise RuntimeError("unexpected\nstate")


@pytest.mark.parametrize(
    "command, argv",
    [
        ("cmd_compute_p", ["compute-p", EX35, "--json"]),
        ("cmd_fano", ["fano", EX32]),
        ("cmd_verify", ["verify", "all", "--max-rank", "2"]),
    ],
)
def test_internal_error_exit_code(monkeypatch, capsys, command, argv):
    monkeypatch.setattr(cli, command, _raise_runtime_error)
    assert main(argv) == cli.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: unexpected state\n"


def test_internal_error_deep_in_a_command(monkeypatch, capsys):
    def broken(sk):
        raise RuntimeError("solver state")

    monkeypatch.setattr(pinv, "compute_p", broken)
    assert main(["smoothness", EX35]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: solver state\n"


def _redumped(text: str) -> str:
    """The stdlib's own rendering of a report: reports hold only str, int,
    bool, None, lists and dicts, so loading and dumping again is exact."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True)


def _bad_skeleton(tmp_path):
    doc = json.loads((DATA / "ex35.json").read_text())
    doc["sp"], doc["x_\u00e9"] = "1", 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["fano", EX32, "--json"],
        ["fano", EX61, "--json"],
        ["smoothness", EX35, "--divisors", "D1,D2,D4", "--json"],
        ["compute-p", "BAD", "--json"],
    ],
    ids=["fano-ex32", "fano-ex61", "smoothness", "error-document"],
)
def test_stdout_report_is_the_stdlib_text(tmp_path, capsys, argv):
    argv = [_bad_skeleton(tmp_path) if a == "BAD" else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (2 if argv[0] == "compute-p" else 0)
    assert out == _redumped(out) + "\n"


def test_verify_report_file_is_the_stdlib_text(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "all", "--max-rank", "8", "--json", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    assert text == _redumped(text)
    assert len(json.loads(text)["tables"]) == 867


def test_a_non_report_value_is_an_internal_error_and_prints_nothing(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_report_doc", lambda report: {"p": report.p_value})
    assert main(["compute-p", "--family", "29:F4", "--mark", "4", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: TypeError: Object of type Fraction is not JSON serializable\n"
    )


def _write_toric(path, rays):
    path.write_text(json.dumps(serialize.augmented_to_doc(toric(rays))))
    return str(path)


@pytest.mark.parametrize(
    "rays",
    [projective_rays(9), product_rays(*[projective_rays(1)] * 16)],
    ids=["P^9", "(P^1)^16"],
)
def test_fano_rank_cap_after_interior_test(rays, tmp_path, capsys):
    # 0 is interior, so the document reaches the rank cap; shifted by one it
    # fails condition (2) first, which needs no cap.  (P^1)^16 has 2^16
    # facets: both answers come from one LP, not from listing them.
    rank = len(rays[0])
    assert main(["fano", _write_toric(tmp_path / "in.json", rays)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"violation: ambient dimension {rank} exceeds cap 8\n"
    shifted = _write_toric(tmp_path / "out.json", [tuple(x + 1 for x in r) for r in rays])
    assert main(["fano", shifted, "--json"]) == 2
    captured = capsys.readouterr()
    violation = "(2) 0 is not in the topological interior of Q"
    assert json.loads(captured.out) == {"error": "invalid data", "violations": [violation]}
    assert captured.err == f"violation: {violation}\n"


def test_fano_violation_text_renders_rationals(tmp_path, capsys):
    # Q* of this triangle has the vertex (-1, 2/3); vectors in violation
    # text read as p/q rationals, whatever their number type.
    path = _write_toric(tmp_path / "triangle.json", [(1, 0), (0, 1), (-1, -3)])
    assert main(["fano", path, "--json"]) == 2
    violation = "(4) supported vertex (-1, 2/3) is not a lattice point"
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "invalid data", "violations": [violation]}
    assert captured.err == f"violation: {violation}\n"


@pytest.mark.parametrize("d", [3, 4])
def test_fano_rank_criterion_comes_before_the_curve_pass(d, tmp_path, capsys, monkeypatch):
    # The cubes fail the rank criterion: exit 2, its violation on stderr and
    # an empty stdout, with no curve degree taken.  A curve pass that would
    # fail as well does not run, so the rank criterion's message is the one
    # such a document gets.
    def failing_curve_pass(fp):
        raise fano.NoSupportedVertices("no generating curves found")

    monkeypatch.setattr(fano, "curve_degrees", failing_curve_pass)
    path = _write_toric(tmp_path / "cube.json", list(product((-1, 1), repeat=d)))
    for argv in (["fano", path], ["fano", path, "--json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "violation: a supported dual face violates the rank criterion\n"
        )


@pytest.mark.parametrize("path", [EX32, EX61], ids=["ex32", "ex61"])
def test_fano_checks_the_rank_criterion_once(path, capsys, monkeypatch):
    # cmd_fano checks it before the curve pass, and mukai_check trusts the
    # curve report it is handed instead of checking again.
    calls = []
    check = fano.check_q_factorial

    def counted(fp):
        calls.append(fp)
        return check(fp)

    monkeypatch.setattr(fano, "check_q_factorial", counted)
    assert main(["fano", path, "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


_SCALED_FANO_RAYS = {
    "(P^1)^7": lambda: product_rays(*[projective_rays(1)] * 7),
    "(P^1)^8": lambda: product_rays(*[projective_rays(1)] * 8),
    "(P^2)^4": lambda: product_rays(*[projective_rays(2)] * 4),
    "P^8": lambda: projective_rays(8),
    "5-cube": lambda: list(product((-1, 1), repeat=5)),
}

# (exit code, sha256 of stdout, sha256 of stderr) of `fano` and then
# `fano --json`, recorded at commit 8014ea9.  The 5-cube stops at the rank
# criterion: exit 2, one violation line, and an empty --json stdout.
_EMPTY = hashlib.sha256(b"").hexdigest()
_SCALED_FANO_DIGESTS = {
    "(P^1)^7": (
        (0, "1ba0ecddc4cd52012233b9b0845bec6a6700443a737d0119b232722b7314fd47", _EMPTY),
        (0, "8ab989c86bcda69cf803c5dfd4fbbc94ff9944c0540e74d96b6094417b3982eb", _EMPTY),
    ),
    "(P^1)^8": (
        (0, "8e9f0ce4ffa6072c8e3b90876acd4eddddfaf0827ba72b6b432f842ffbd76c61", _EMPTY),
        (0, "ae12d69c437939ff28ec057c510bad53d18b6e28f710130f136bcf4c38c34c02", _EMPTY),
    ),
    "(P^2)^4": (
        (0, "702d83ee287100933adf8f617ae32c6e9c8a5644fb05130089ea9074042e1019", _EMPTY),
        (0, "e76eb7411369a1a651948ff4159c8882ecd8122d4de10c7b38d3a98f901a7af8", _EMPTY),
    ),
    "P^8": (
        (0, "6d5957a0c32f62e11e8c9b334350ddc664a9ea6af3f3ba4800829653c4f374e9", _EMPTY),
        (0, "c0718949cefebf6279a4e6e436777e2fe9aae86f632d2263cacb19be87ac4c75", _EMPTY),
    ),
    "5-cube": (
        (2, _EMPTY, "6b45d4018f33f0d3ddaa5a16b61dd7b7c8b0f2afbdb13f0c3e2949fe10c17daa"),
        (2, _EMPTY, "6b45d4018f33f0d3ddaa5a16b61dd7b7c8b0f2afbdb13f0c3e2949fe10c17daa"),
    ),
}


@pytest.mark.parametrize("name", list(_SCALED_FANO_RAYS))
def test_fano_scaled_outputs_are_byte_identical(name, tmp_path, capsys):
    # The scaled toric cases no benchmark workload runs.
    path = _write_toric(tmp_path / "in.json", _SCALED_FANO_RAYS[name]())
    got = []
    for argv in (["fano", path], ["fano", path, "--json"]):
        code = main(argv)
        captured = capsys.readouterr()
        got.append((code, _sha256(captured.out), _sha256(captured.err)))
    assert tuple(got) == _SCALED_FANO_DIGESTS[name]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


COMMANDS = ("compute-p", "verify", "fano", "smoothness", "catalog-list")

# Argument vectors that main parses in one pass (a command first) or two
# (anything else): help, usage errors, leftovers, "--" and valid lines.
DISPATCH_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "--json"], ["--json"],
    ["--", "catalog-list"], ["-h", "compute-p"],
    *([command, "-h"] for command in COMMANDS),
    *([command, "--help", "--bogus"] for command in COMMANDS),
    ["verify"], ["verify", "all", "--meta"], ["verify", "tables", "extra", "--x"],
    ["verify", "some"], ["compute-p", "--mark", "x"], ["compute-p", "a.json", "-h"],
    ["compute-p", "a.json", "b.json"], ["fano"], ["smoothness", "a.json", "--divisors"],
    ["compute-p", "--", "a.json"], ["compute-p", "a.json", "--", "--json"],
    ["verify", "--", "all"], ["catalog-list", "--"], ["fano", "--", "-a.json"],
    ["compute-p", "a.json", "--json"], ["compute-p", "--family", "2:G2", "--mark", "1"],
    ["compute-p", "--fam", "2:G2", "--mark=1", "--csv"],
    ["verify", "all", "--max-rank", "3", "--jobs", "2", "--json", "r.json"],
    ["fano", "a.json", "--json"], ["smoothness", "a.json", "--divisors", "D1,D2"],
    ["catalog-list", "--json"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = ("namespace", parse(argv))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_main_parses_as_the_top_level_parser(monkeypatch, capsys, argv):
    seen = []
    for command in COMMANDS:
        handler = "cmd_" + command.replace("-", "_")
        monkeypatch.setattr(cli, handler, lambda args: seen.append(args) or 0)

    def through_main(argv):
        assert main(list(argv)) == 0
        return seen.pop()

    expected = _parse_outcome(cli._parser().parse_args, argv, capsys)
    assert _parse_outcome(through_main, argv, capsys) == expected
    if expected[0][0] == "exit":
        assert expected[0][1] in (0, 2) and (expected[1] or expected[2])


def test_dispatch_table_covers_both_outcomes(capsys):
    kinds = [_parse_outcome(cli._parser().parse_args, argv, capsys)[0][0] for argv in DISPATCH_ARGVS]
    assert kinds.count("namespace") >= 8 and kinds.count("exit") >= 20


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["sphskel", "compute-p", "--family", "2:G2", "--mark", "1"])
    assert main() == 0
    assert "p = 2" in capsys.readouterr().out
    monkeypatch.setattr("sys.argv", ["sphskel", "verify", "all", "--meta"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("sphskel: error: unrecognized arguments: --meta\n")
