from __future__ import annotations

import json
from fractions import Fraction as Q

import pytest

from conftest import load_fixture
from sphskel.catalog import FamilySpec, mark
from sphskel.roots import SimpleType
from sphskel.serialize import (
    DocumentError,
    augmented_from_doc,
    augmented_to_doc,
    format_rational,
    load_schema,
    parse_rational,
    skeleton_from_doc,
    skeleton_to_doc,
)


def test_rational_rendering():
    assert format_rational(Q(37, 2)) == "37/2"
    assert format_rational(Q(4, 2)) == "2"
    assert format_rational(None) == "inf"
    assert parse_rational("37/2") == Q(37, 2)
    assert parse_rational("inf") is None


def test_skeleton_roundtrip_bit_exact():
    doc = load_fixture("ex35.json")
    sk = skeleton_from_doc(doc)
    assert skeleton_to_doc(sk) == doc
    again = skeleton_from_doc(skeleton_to_doc(sk))
    assert again == sk


def test_catalog_skeleton_roundtrip():
    sk = mark(FamilySpec("2", series=SimpleType("G", 2)), 1)
    doc = skeleton_to_doc(sk)
    assert skeleton_from_doc(doc) == sk


def test_unknown_field_rejected():
    doc = load_fixture("ex35.json")
    doc["extra"] = 1
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_unknown_color_field_rejected():
    doc = load_fixture("ex35.json")
    doc["colors"][0]["shadow"] = True
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_missing_field_rejected():
    doc = load_fixture("ex35.json")
    del doc["sp"]
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_bad_pattern_enum_rejected():
    doc = load_fixture("ex35.json")
    doc["sigma"][0]["pattern"] = "mystery"
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_augmented_roundtrip():
    doc = load_fixture("ex32_fano.json")
    aug = augmented_from_doc(doc)
    assert augmented_to_doc(aug) == doc


def test_augmented_unknown_field_rejected():
    doc = load_fixture("ex32_fano.json")
    doc["mystery"] = []
    with pytest.raises(DocumentError):
        augmented_from_doc(doc)


def test_schema_env_override(tmp_path, monkeypatch):
    # A permissive override schema accepts an extra top-level field.
    schema = {"type": "object"}
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema), encoding="utf-8")
    monkeypatch.setenv("SKELETON_SCHEMA_PATH", str(path))
    doc = load_fixture("ex35.json")
    doc["extra"] = 1
    sk = skeleton_from_doc(doc)
    assert len(sk.sigma) == 1


def test_schema_parsed_once_per_path(tmp_path, monkeypatch):
    monkeypatch.delenv("SKELETON_SCHEMA_PATH", raising=False)
    packaged = load_schema()
    assert load_schema() is packaged
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"type": "object"}), encoding="utf-8")
    monkeypatch.setenv("SKELETON_SCHEMA_PATH", str(path))
    assert load_schema() is load_schema() is not packaged
    monkeypatch.delenv("SKELETON_SCHEMA_PATH")
    assert load_schema() is packaged
