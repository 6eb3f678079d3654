import os

import pytest

from latlab import FamilySpec, Labeling, generate, make_certificate
from latlab.cache import cache_key, load_entry, store_entry
from latlab.certificate import certificate_to_dict

C4 = generate(FamilySpec("cycle", (4,)))
C4_DOC = certificate_to_dict(make_certificate(C4, Labeling((1, 2, 3, 4), (5, 8, 6, 7)),
                                              "test"))


def test_store_then_load(tmp_path):
    store_entry(tmp_path, C4, "total", "exact", value=C4_DOC["distinct"],
                certificate_doc=C4_DOC)
    entry = load_entry(tmp_path, C4, "total")
    assert entry["status"] == "exact" and entry["value"] == C4_DOC["distinct"]
    assert [p.name for p in tmp_path.iterdir()] == [cache_key(C4, "total") + ".json"]


def test_failed_write_keeps_previous_entry(tmp_path, monkeypatch):
    store_entry(tmp_path, C4, "total", "exact", value=C4_DOC["distinct"],
                certificate_doc=C4_DOC)
    path = tmp_path / (cache_key(C4, "total") + ".json")
    before = path.read_text()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        store_entry(tmp_path, C4, "total", "exhausted", lower=2)
    monkeypatch.undo()
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left
    assert load_entry(tmp_path, C4, "total")["status"] == "exact"
