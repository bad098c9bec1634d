"""Record classes: immutability, equality, and what importing the CLI loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebed
from treebed import (
    Embedding,
    Guest,
    HostTree,
    build_guest,
    build_host,
    build_report,
    cut_family,
    identity_embedding,
    inorder_labeling,
    sibling_layout_labeling,
)

SRC = Path(treebed.__file__).resolve().parents[1]

# ``dataclasses`` and the modules it imports cost about half of importing
# the package; every CLI process pays what the import path loads.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_skips_dataclasses():
    # Diff sys.modules around the import, so what site loads does not count.
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import treebed.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    added = set(json.loads(out))
    assert "treebed.cli" in added
    assert added.isdisjoint(HEAVY), sorted(added.intersection(HEAVY))


def _samples():
    guest = build_guest(3, 2)
    host = inorder_labeling(build_host(2, 2))
    return {
        "guest": guest,
        "host": host,
        "embedding": identity_embedding(guest, host),
    }


@pytest.mark.parametrize(
    "kind, name",
    [("guest", "n"), ("host", "label_of"), ("embedding", "assignment")],
)
def test_records_refuse_assignment(kind, name):
    record = _samples()[kind]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_value_records_compare_and_hash_by_value():
    pairs = [
        (build_guest(4, 2), Guest(4, 2)),
        (Embedding((2, 1, 3)), Embedding([2, 1, 3])),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and hash(a) == hash(b) and not a != b
        assert len({a, b}) == 1
    assert Guest(4, 2) != Guest(4, 3)
    assert Embedding((2, 1, 3)) != Embedding((1, 2, 3))
    # Any sequence or iterable is stored as a tuple.
    assert Embedding([2, 1]) == Embedding((2, 1)) == Embedding(iter([2, 1]))
    assert hash(Embedding([2, 1])) == hash(Embedding((2, 1)))
    listed = Embedding([2, 1])
    with pytest.raises(TypeError):
        listed.assignment[0] = 5
    assert listed.assignment == (2, 1)
    # Same field values in another class are not equal.
    assert Guest(3, 2) != Embedding((3, 2, 1))
    assert repr(Guest(4, 2)) == "Guest(n=4, p=2)"


def test_host_tree_compares_by_value():
    a, b = build_host(2, 2), build_host(2, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # Every binary host is already labeled inorder.
    assert a == inorder_labeling(b) == HostTree(2, 2, False, 0)
    assert a != HostTree(2, 2, True, 0) and a != HostTree(2, 3, False, 0)
    sibling = HostTree(2, 2, True, 1)
    assert sibling == sibling_layout_labeling(build_host(2, 2, sibling=True), 1)
    assert sibling != HostTree(2, 2, True, 0)
    assert repr(a) == "HostTree(n1=2, k=2, sibling=False, variant=0)"


def test_cached_properties_live_in_the_instance_dict():
    guest = build_guest(3, 2)
    assert "partites" not in vars(guest)
    parts = guest.partites
    assert vars(guest)["partites"] is parts
    # The cache does not enter equality or hashing.
    assert guest == Guest(3, 2) and hash(guest) == hash(Guest(3, 2))


def test_plain_records_are_named_tuples():
    guest = build_guest(3, 2)
    host = inorder_labeling(build_host(3, 1))
    report = build_report(guest, host, identity_embedding(guest, host))
    cut = cut_family(host)[0]
    assert cut._replace(i=99).i == 99 and cut.i != 99
    assert cut.multiplicity_share == 1
    assert report._replace(exhaustive_min=report.direct).consistent
    with pytest.raises(AttributeError):
        report.direct = 0
    with pytest.raises(AttributeError):
        cut.component_lo = 0
