"""The record contract: every record type of sphskel is a NamedTuple.

A record hashes as the tuple of its fields (as a frozen dataclass did, so
set and dict orders do not move), prints as ``Name(field=value, ...)``,
refuses assignment, and the three records that validate their fields do so
on direct construction and on ``_replace``.  Importing ``sphskel.cli``
loads no ``dataclasses`` module.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from conftest import load_fixture
from sphskel import catalog, fano, geometry, lp, pinv, roots, skeleton, sphroots
from sphskel.serialize import augmented_from_doc, dumps

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (roots, sphroots, skeleton, lp, geometry, pinv, catalog, fano)


def _samples() -> list:
    """One instance of every record type, built by the pipeline."""
    spec = catalog.FamilySpec.parse("2:B2")
    sk = catalog.mark(spec, 1)
    report = pinv.compute_p(sk)
    aug = augmented_from_doc(load_fixture("ex32_fano.json"))
    fp = fano.build_fano(aug)
    return [
        sk.root_system.factors[0],
        roots.positive_roots(sk.root_system)[0],
        sk.root_system,
        sphroots.pattern(sphroots.ALPHA).slots[0],
        sphroots.pattern(sphroots.ALPHA),
        sk.sigma[0],
        sk.colors[0],
        sk.gamma[0],
        sk,
        report.problem,
        lp.solve(report.problem),
        geometry.HPolytope.build([((1, 0), -1), ((0, 1), Q(-1, 2))], 2),
        fp.q,
        report,
        spec,
        catalog._evaluate(spec, 1),
        catalog._evaluate(catalog.FamilySpec.parse("2:A2"), 1),
        catalog.PARAMETRIC_FAMILIES["3"],
        aug,
        fp,
        fano.curve_degrees(fp),
        fano.mukai_check(fp),
    ]


SAMPLES = _samples()
IDS = [type(r).__name__ for r in SAMPLES]
# One CatalogRow serves both tables; its two samples, an unlisted marking
# and a listed equality case, keep the ids of the two rows it replaced.
_ROWS = [i for i, r in enumerate(SAMPLES) if isinstance(r, catalog.CatalogRow)]
assert [SAMPLES[i].listed for i in _ROWS] == [False, True]
IDS[_ROWS[0]], IDS[_ROWS[1]] = "TableRow", "EqualityRow"


def test_samples_cover_every_record_type():
    records = {
        cls
        for mod in MODULES
        for cls in vars(mod).values()
        if isinstance(cls, type)
        and issubclass(cls, tuple)
        and cls.__module__ == mod.__name__
        and not cls.__name__.startswith("_")
    }
    assert records == {type(r) for r in SAMPLES}
    assert len(records) == 21


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_hash_is_the_field_tuple_hash(record):
    fields = tuple(getattr(record, name) for name in record._fields)
    assert tuple(record) == fields
    if isinstance(record, (fano.AugmentedData, fano.FanoPolytope)):
        # Their dict fields make them unhashable, as they were before.
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(TypeError):
            hash(fields)
    else:
        assert hash(record) == hash(fields)
        assert {record: 1}[fields] == 1


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_repr_names_the_class_and_every_field(record):
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({body})"


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_assignment_raises_attribute_error(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_a_record_renders_as_a_json_array():
    color = SAMPLES[IDS.index("Color")]
    assert dumps(color) == json.dumps(list(color), indent=2, sort_keys=True)


def test_custom_str_is_kept():
    assert str(roots.SimpleType("B", 3)) == "B3"
    assert str(roots.RootSystem.parse("A2 x G2")) == "A2xG2"
    assert str(roots.RootSystem(())) == "0"


def test_lp_problem_validates_direct_construction():
    lp.LpProblem((1, 1), ((1, 0),), (1,))
    with pytest.raises(ValueError, match="row length differs"):
        lp.LpProblem((1, 1), ((1,),), (1,))
    with pytest.raises(ValueError, match="row length differs"):
        lp.LpProblem((1, 1), (), (), ((1, 0, 0),), (1,))
    with pytest.raises(ValueError, match="count differs"):
        lp.LpProblem((1, 1), ((1, 0),), (1, 2))
    problem = lp.LpProblem((1, 1), ((1, 0),), (1,))
    with pytest.raises(ValueError, match="row length differs"):
        problem._replace(a=((1,),))


def test_hpolytope_validates_direct_construction():
    geometry.HPolytope((((1, 0), -1),), 2)
    with pytest.raises(geometry.GeometryError, match="normal length"):
        geometry.HPolytope((((1, 0, 0), -1),), 2)
    with pytest.raises(geometry.GeometryError, match="normal length"):
        geometry.HPolytope((((1, 0), -1),), 2)._replace(ambient_dim=3)


def test_simple_type_validates_replace():
    with pytest.raises(ValueError, match="invalid rank 1 for type B"):
        roots.SimpleType("B", 3)._replace(rank=1)


def test_importing_the_cli_loads_no_dataclasses():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sphskel.cli; "
        "sys.exit('dataclasses' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], timeout=60)
    assert done.returncode == 0


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "sphskel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name
