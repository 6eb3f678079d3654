"""Search budgets: the node and wall-clock limits one search runs under."""

from __future__ import annotations

from typing import Optional

from .errors import ParameterError
from .graph import Frozen


class SolveBudget(Frozen):
    __slots__ = _fields = ("max_nodes", "max_millis")

    def __init__(self, max_nodes: Optional[int] = None, max_millis: Optional[int] = None):
        if max_nodes is None and max_millis is None:
            raise ParameterError("at least one of max_nodes / max_millis must be set")
        for limit in (max_nodes, max_millis):
            if limit is not None and limit <= 0:
                raise ParameterError("budget limits must be positive")
        self._init(max_nodes, max_millis)
