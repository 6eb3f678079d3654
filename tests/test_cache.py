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
P4 = generate(FamilySpec("path", (4,)))
P4_DOC = certificate_to_dict(make_certificate(P4, Labeling((2, 1, 7, 5), (6, 4, 3)), "test"))
EDGE_DOC = certificate_to_dict(make_certificate(P4, Labeling(None, (1, 3, 2)), "test"))
K2 = generate(FamilySpec("path", (2,)))


def _write_old_entry(directory, g, mode, **fields):
    """An entry in the earlier format, which also stored `value`, `upper` and
    `timestamp` beside the certificate."""
    entry = {"key_graph": {"p": g.p, "edges": [list(e) for e in g.edges]}, "mode": mode,
             "budget": None, "timestamp": 1.0, **fields}
    directory.mkdir(parents=True, exist_ok=True)
    (directory / (cache_key(g, mode) + ".json")).write_text(json.dumps(entry))


def test_store_then_load(tmp_path):
    store_entry(tmp_path, C4, "total", "exact", certificate_doc=C4_DOC)
    entry = load_entry(tmp_path, C4, "total")
    assert entry == {"status": "exact", "value": 4, "lower": 4, "upper": 4}
    stored = json.loads((tmp_path / (cache_key(C4, "total") + ".json")).read_text())
    assert sorted(stored) == ["budget", "certificate", "key_graph", "lower", "mode", "status"]
    assert [p.name for p in tmp_path.iterdir()] == [cache_key(C4, "total") + ".json"]


def test_failed_write_keeps_previous_entry(tmp_path, monkeypatch):
    store_entry(tmp_path, C4, "total", "exact", certificate_doc=C4_DOC)
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
    store_entry(directory, g, "total", "lower_upper", lower=1, certificate_doc=C4_DOC,
                budget=budget)


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
    store_entry(tmp_path, C4, "total", "exact", certificate_doc=C4_DOC,
                budget=SolveBudget(max_nodes=10))
    assert load_entry(tmp_path, C4, "total", SolveBudget(max_nodes=10**9))["status"] == "exact"


def test_old_exact_entry_loads_with_the_same_answer(tmp_path):
    _write_old_entry(tmp_path, P4, "total", status="exact", value=3, lower=3, upper=3,
                     certificate=P4_DOC)
    assert load_entry(tmp_path, P4, "total") == {"status": "exact", "value": 3, "lower": 3,
                                                 "upper": 3}


def test_upper_bound_is_read_off_the_certificate(tmp_path):
    # the stored upper (1) is not read: the 3-weight witness shows only 3
    _write_old_entry(tmp_path, P4, "total", status="lower_upper", value=None, lower=2,
                     upper=1, certificate=P4_DOC)
    assert load_entry(tmp_path, P4, "total") == {"status": "lower_upper", "value": None,
                                                 "lower": 2, "upper": 3}


@pytest.mark.parametrize("status,lower,doc", [
    pytest.param("exact", 3, None, id="exact-without-certificate"),
    pytest.param("lower_upper", 2, None, id="lower_upper-without-certificate"),
    pytest.param("exhausted", 2, P4_DOC, id="exhausted-with-certificate"),
    pytest.param("infeasible", None, P4_DOC, id="infeasible-with-certificate"),
    pytest.param("lower_upper", 3, P4_DOC, id="lower-not-below-witness"),
    pytest.param("lower_upper", None, P4_DOC, id="lower-missing"),
    pytest.param("lower_upper", 1, EDGE_DOC, id="witness-of-the-other-mode"),
    pytest.param("solved", None, None, id="unknown-status"),
])
def test_entry_its_certificate_does_not_back_is_refused(tmp_path, status, lower, doc):
    store_entry(tmp_path, P4, "total", status, lower=lower, certificate_doc=doc)
    assert load_entry(tmp_path, P4, "total") is None
    assert not list(tmp_path.iterdir())  # deleted, to be solved again


@pytest.mark.parametrize("g,mode,served", [
    pytest.param(K2, "edge", True, id="K2-edge"),  # both ends of an isolated edge weigh its label
    pytest.param(K2, "total", False, id="K2-total"),  # every graph has a total labeling
    pytest.param(C4, "edge", False, id="C4-edge"),  # no isolated edge
])
def test_infeasible_entry_is_served_only_where_it_holds(tmp_path, g, mode, served):
    store_entry(tmp_path, g, mode, "infeasible")
    entry = load_entry(tmp_path, g, mode)
    assert entry == ({"status": "infeasible", "value": None, "lower": None, "upper": None}
                     if served else None)


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
