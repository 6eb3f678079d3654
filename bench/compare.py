"""Flag a pair of benchmark runs whose deterministic numbers differ.

    python3 bench/compare.py first.out second.out

Each file holds the standard output of one ``bench/run.py`` run.  For two
runs of the same workload, seed and sources (``src_sha256``), the per-operation
node counts, ``solver.nodes``, ``decided_frac`` and ``bound_gap`` must repeat
exactly.  Exit status: 0 they do, 1 they differ, 2 the runs are not a pair.
"""

from __future__ import annotations

import json
import sys


def detail(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"detail"'):
                return json.loads(line)["detail"]
    raise SystemExit(f"{path}: no detail line")


def main(argv):
    a, b = detail(argv[1]), detail(argv[2])
    key = ("workload", "size")
    env = ("seed", "src_sha256")
    if any(a[k] != b[k] for k in key) or any(a["environment"][k] != b["environment"][k]
                                             for k in env):
        print("not a pair: workload, size, seed or sources differ")
        return 2
    differ = [k for k in sorted(set(a["fingerprint"]) & set(b["fingerprint"]))
              if a["fingerprint"][k] != b["fingerprint"][k]]
    if a["op_nodes"] != b["op_nodes"]:
        differ.append("op_nodes")
    for k in differ:
        print(f"FLAG {k}: {a['fingerprint'].get(k, a.get(k))} != "
              f"{b['fingerprint'].get(k, b.get(k))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
