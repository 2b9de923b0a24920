from __future__ import annotations

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
from sphskel.skeleton import COLOR_KINDS
from sphskel.sphroots import PATTERN_KINDS


def test_rational_rendering():
    assert format_rational(Q(37, 2)) == "37/2"
    assert format_rational(Q(4, 2)) == "2"
    assert format_rational(None) == "inf"
    assert parse_rational("37/2") == Q(37, 2)
    assert parse_rational("inf") is None


def test_format_rational_reads_ints_and_fractions_alike():
    for n in range(-40, 41):
        assert format_rational(n) == format_rational(Q(n)) == str(n)


@pytest.mark.parametrize("name", ["ex32_fano.json", "ex61_fano.json"])
def test_augmented_vectors_are_ints(name):
    aug = augmented_from_doc(load_fixture(name))
    vectors = [*aug.sigma_in_m, *aug.rho_prime.values(), *aug.coroot_on_m.values()]
    assert vectors and all(type(x) is int for v in vectors for x in v)


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


def test_schema_parsed_once():
    assert load_schema() is load_schema()


def test_schema_enums_match_the_code():
    # The packaged schema keeps its own copies of these two lists.
    props = load_schema()["properties"]
    pattern = props["sigma"]["items"]["properties"]["pattern"]
    kind = props["colors"]["items"]["properties"]["kind"]
    assert pattern["enum"] == list(PATTERN_KINDS)
    assert kind["enum"] == list(COLOR_KINDS)
