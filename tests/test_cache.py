import json
import os

import pytest

from latlab import (FamilySpec, Labeling, LatlabError, SolveBudget, generate, graph6_encode,
                    make_certificate)
from latlab.cache import CACHE_ENV_VAR, cache_key, load_entry, store_entry
from latlab.certificate import certificate_to_dict
from latlab.cli import main

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
    with pytest.raises(LatlabError, match="disk full"):
        store_entry(tmp_path, C4, "total", "exhausted", lower=2)
    monkeypatch.undo()
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left
    assert load_entry(tmp_path, C4, "total")["status"] == "exact"


def _store_cut_short(directory, g, budget):
    store_entry(directory, g, "total", "lower_upper", lower=2, upper=3,
                certificate_doc=None, budget=budget)


@pytest.mark.parametrize("stored,asked,hit", [
    ((40_000, 10_000), (40_000, 10_000), True),   # same budget
    ((40_000, 10_000), (30_000, 5_000), True),    # smaller budget
    ((40_000, 10_000), (80_000, 10_000), False),  # more nodes
    ((40_000, 10_000), (40_000, 20_000), False),  # more time
    ((40_000, 10_000), (None, 10_000), False),    # unbounded nodes
    ((None, 10_000), (10**9, 10_000), True),      # stored unbounded
])
def test_entry_cut_short_is_served_only_to_no_larger_budget(tmp_path, stored, asked, hit):
    _store_cut_short(tmp_path, C4, SolveBudget(*stored))
    entry = load_entry(tmp_path, C4, "total", SolveBudget(*asked))
    assert (entry is not None) == hit
    if not hit:  # a miss, not a fault: the entry stays until the re-solve replaces it
        assert (tmp_path / (cache_key(C4, "total") + ".json")).exists()


def test_entry_cut_short_without_stored_budget_is_a_miss(tmp_path):
    _store_cut_short(tmp_path, C4, None)
    assert load_entry(tmp_path, C4, "total", SolveBudget(max_nodes=1)) is None


def test_exact_entry_is_served_to_any_budget(tmp_path):
    store_entry(tmp_path, C4, "total", "exact", value=C4_DOC["distinct"],
                certificate_doc=C4_DOC, budget=SolveBudget(max_nodes=10))
    assert load_entry(tmp_path, C4, "total", SolveBudget(max_nodes=10**9))["status"] == "exact"


def test_atlas_retries_a_cut_short_entry_under_a_larger_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    # P4 needs 3 weights against a lower bound of 2, so no witness search
    # closes it: only the search tree proves 3, given the nodes
    source = tmp_path / "p4.g6"
    source.write_text(graph6_encode(generate(FamilySpec("path", (4,)))) + "\n")

    def atlas(max_nodes):
        assert main(["atlas", str(source), "--mode", "total", "--json",
                     "--max-nodes", str(max_nodes)]) == 0
        return json.loads(capsys.readouterr().out)

    first = atlas(100)
    assert (first["status"], first["cached"]) == ("lower_upper", False)
    assert atlas(100)["cached"] is True
    again = atlas(100_000)
    assert (again["status"], again["value"], again["cached"]) == ("exact", 3, False)
    assert atlas(100)["status"] == "exact"  # the exact entry now serves every budget
