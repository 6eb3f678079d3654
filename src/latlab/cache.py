"""File-backed results cache for batch (atlas) runs.

Keyed by the exact labeled graph and mode, not by isomorphism class.  A
hit is re-verified before reuse, and its upper bound (and exact value) is
read off its certificate; entries that fail re-verification are deleted and
recomputed.  An entry that a budget cut short (`lower_upper`, `exhausted`)
is served only to a budget no larger than the one it was solved under, so a
larger budget retries it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from .budget import SolveBudget
from .errors import LatlabError
from .graph import Graph, has_isolated_edge

CACHE_ENV_VAR = "LATLAB_CACHE_DIR"


def cache_dir() -> Optional[Path]:
    path = os.environ.get(CACHE_ENV_VAR)
    return Path(path) if path else None


def cache_key(g: Graph, mode: str) -> str:
    canon = f"{mode}|p={g.p}|" + ";".join(f"{u},{v}" for u, v in g.edges)
    return hashlib.sha256(canon.encode()).hexdigest()


def _larger(new: Optional[int], old: Optional[int]) -> bool:
    """Whether limit `new` exceeds `old`, None being unbounded."""
    return old is not None and (new is None or new > old)


def load_entry(directory: Path, g: Graph, mode: str,
               budget: Optional[SolveBudget] = None) -> Optional[dict]:
    path = directory / (cache_key(g, mode) + ".json")
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        path.unlink(missing_ok=True)
        return None
    try:
        if entry.get("key_graph") != {"p": g.p, "edges": [list(e) for e in g.edges]} \
                or entry.get("mode") != mode:
            raise ValueError("key mismatch")
        status, lower, value, upper = entry["status"], entry.get("lower"), None, None
        if status in ("exact", "lower_upper"):
            from .certificate import certificate_from_dict  # not loaded without a cache
            # the reader has checked that the labels are a bijection inducing `weights`
            cert = certificate_from_dict(entry["certificate"])
            if (cert.graph, cert.labeling.mode) != (g, mode) \
                    or any(cert.weights[u] == cert.weights[v] for u, v in g.edges):
                raise ValueError("certificate failed re-verification")
            upper = cert.distinct
            if status == "exact":
                value = lower = upper
            elif not lower < upper:
                raise ValueError("lower bound not below the witness")
        elif entry.get("certificate") is not None or status not in ("infeasible", "exhausted"):
            raise ValueError(f"{status!r} entry with a certificate, or no known status")
        elif status == "infeasible" and not (mode == "edge" and has_isolated_edge(g)):
            raise ValueError("infeasible entry for a graph that has a labeling")
        if budget is not None and status in ("lower_upper", "exhausted"):
            used = entry.get("budget") or {}  # none stored: solved under no known budget
            if _larger(budget.max_nodes, used.get("max_nodes", 0)) \
                    or _larger(budget.max_millis, used.get("max_millis", 0)):
                return None  # a miss, kept on disk: the larger budget may get further
    except Exception:
        path.unlink(missing_ok=True)
        return None
    return {"status": status, "value": value, "lower": lower, "upper": upper}


def store_entry(directory: Path, g: Graph, mode: str, status: str, lower=None,
                certificate_doc=None, budget: Optional[SolveBudget] = None):
    import tempfile  # only a miss writes: a cache hit does not load it
    entry = {
        "key_graph": {"p": g.p, "edges": [list(e) for e in g.edges]},
        "mode": mode,
        "status": status,
        "lower": lower,
        "certificate": certificate_doc,
        "budget": None if budget is None else {"max_nodes": budget.max_nodes,
                                               "max_millis": budget.max_millis},
    }
    path = directory / (cache_key(g, mode) + ".json")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # renamed into place: a reader sees the old entry or the new, never a partial one
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
    except OSError as exc:
        raise LatlabError(f"cannot write cache directory {directory}: "
                          f"{exc.strerror or exc}") from exc
