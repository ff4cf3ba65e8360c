"""Run every theorem verifier over the exhaustive connected corpus.

Each verifier checks one implication on all connected graphs up to the
given order and reports instances / violations / hypothesis-relevant
cases. Expected output: zero violations everywhere; the depth-equality
survey records inequalities as findings since the formula is known not
to hold in general.

Run: python3 demos/theorem_scan.py [max_n]
(measured on a 2-core Intel Xeon: n=5 about 0.2 s, n=6 about 1 s)
"""

import sys

from beilab.corpus import connected_graphs_upto
from beilab.lab import VERIFIERS


def main(max_n=5):
    corpus = list(connected_graphs_upto(max_n))
    print(f"corpus: {len(corpus)} connected graphs, n <= {max_n}\n")
    for name, verifier in VERIFIERS.items():
        v = verifier(iter(corpus), corpus_name=f"connected<= {max_n}")
        status = "OK" if v.clean() else "VIOLATIONS"
        print(f"{name:15} {status:10} instances={v.instances:5} "
              f"violations={len(v.violations)} "
              f"hypothesis={len(v.hypothesis_relevant)} "
              f"findings={len(v.findings)}")
        for g6, detail in v.violations:
            print(f"    violation {g6}: {detail}")
        for g6, detail in v.hypothesis_relevant:
            print(f"    hypothesis-relevant {g6}: {detail}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
