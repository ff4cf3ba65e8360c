"""Regenerate bench/reference.json, the reference depths that every run
checks its outputs against.

Each depth comes from ``brute_depth_oracle``, which scans every subset of
the variables and uses neither the lcm lattice nor the depth squeeze. The
table covers every input graph with at most 12 variables: the 143
connected graphs with n <= 6 fed to analyze-n6. The small whiskered sides
of the 12-vertex example (3 and 6 vertices) are connected graphs with
n <= 6 too, so depth-fig12 finds them in the same table, looked up by
isomorphism class. Takes about 150 s on one core.

    python3 bench/reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from beilab import connected_graphs_upto, emit_graph6, initial_ideal  # noqa: E402
from beilab.homology import brute_depth_oracle  # noqa: E402


def main():
    depths = {emit_graph6(g): brute_depth_oracle(initial_ideal(g)).depth
              for g in connected_graphs_upto(6)}
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"oracle": "brute_depth_oracle", "depths": depths}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(depths)} reference depths written to {path}")


if __name__ == "__main__":
    main()
