"""File-backed results cache for batch (atlas) runs.

Keyed by the exact labeled graph and mode, not by isomorphism class.
A hit is re-verified before reuse; entries that fail re-verification are
deleted and recomputed.  An entry that a budget cut short (`lower_upper`,
`exhausted`) is served only to a budget no larger than the one it was
solved under, so a larger budget retries it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

from .budget import SolveBudget
from .certificate import certificate_from_dict
from .errors import LatlabError
from .graph import Graph
from .labeling import verify

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
        if entry.get("certificate") is not None:
            cert = certificate_from_dict(entry["certificate"])
            if cert.graph != g or not verify(g, cert.labeling).valid:
                raise ValueError("certificate failed re-verification")
            if entry.get("status") == "exact" and cert.distinct != entry.get("value"):
                raise ValueError("certificate does not witness the stored value")
        elif entry.get("status") == "exact":
            raise ValueError("exact entry without certificate")
        if budget is not None and entry.get("status") in ("lower_upper", "exhausted"):
            used = entry.get("budget") or {}  # none stored: solved under no known budget
            if _larger(budget.max_nodes, used.get("max_nodes", 0)) \
                    or _larger(budget.max_millis, used.get("max_millis", 0)):
                return None  # a miss, kept on disk: the larger budget may get further
    except Exception:
        path.unlink(missing_ok=True)
        return None
    return entry


def store_entry(directory: Path, g: Graph, mode: str, status: str,
                value=None, lower=None, upper=None, certificate_doc=None,
                budget: Optional[SolveBudget] = None):
    import tempfile  # only a miss writes: a cache hit does not load it
    entry = {
        "key_graph": {"p": g.p, "edges": [list(e) for e in g.edges]},
        "mode": mode,
        "status": status,
        "value": value,
        "lower": lower,
        "upper": upper,
        "certificate": certificate_doc,
        "budget": None if budget is None else {"max_nodes": budget.max_nodes,
                                               "max_millis": budget.max_millis},
        "timestamp": time.time(),
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
    return entry
