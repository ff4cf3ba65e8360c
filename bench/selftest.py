"""Self-test of the benchmark's checkers.

Runs each workload's operation once, checks that its real output passes,
then corrupts the output and checks that the corruption counts as exactly
the failed operations it should, so that a check that silently passes
shows. Exits 1 if any case misbehaves.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from checkers import Expectations
from workloads import FIG_CUT_VERTICES, FIG_FINDING_AT, WORKLOADS


def _edit_lines(stdout, pick, edit, every=False):
    """Apply edit to the first JSON line pick(record) accepts, or to every
    such line; an edit returning None drops the line."""
    out, done = [], 0
    for line in stdout.splitlines():
        rec = json.loads(line)
        if (every or not done) and pick(rec):
            done += 1
            rec = edit(rec)
            if rec is None:
                continue
        out.append(json.dumps(rec, sort_keys=True))
    if not done:
        raise ValueError("no line to corrupt")
    return "\n".join(out) + "\n"


def _any(rec):
    return True


def _shift_lhs(by):
    def edit(rec):
        lhs = rec["lhs"] + by
        return dict(rec, lhs=lhs, equal=lhs == rec["rhs"])
    return edit


def cases(name):
    """(label, pick, edit, every, failed operations it must count) per
    corruption of the workload's output."""
    if name == "analyze-n6":
        return [("one flipped cm", _any,
                 lambda rec: dict(rec, cm=not rec["cm"]), False, 1),
                ("one depth off by one", _any,
                 lambda rec: dict(rec, depth=rec["depth"] + 1), False, 1),
                ("one dropped JSON line", _any, lambda rec: None, False, 1)]
    return [(f"equal: true at v = {FIG_FINDING_AT}",
             lambda rec: rec["v"] == FIG_FINDING_AT,
             lambda rec: dict(rec, equal=True), False, 1),
            ("one depth of G one too high, equal recomputed",
             lambda rec: rec["v"] != FIG_FINDING_AT, _shift_lhs(1), False, 1),
            # a shift that every record shares agrees across cut vertices
            ("every depth of G one too low, equal recomputed", _any,
             _shift_lhs(-1), True, len(FIG_CUT_VERTICES))]


def main():
    bad = 0
    for name, wl in WORKLOADS.items():
        work = os.path.join(run.ROOT, ".bench_work", f"selftest-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            run.setup(wl, work, 1, 1)
            exp = Expectations(name, work)
            child = run.run_child(wl.argv(work, run.threads_default()),
                                  work, "op")
            runs = [("clean output", child.stdout, 0)] + [
                (label, _edit_lines(child.stdout, pick, edit, every), want)
                for label, pick, edit, every, want in cases(name)]
            for label, text, want in runs:
                failed, problems = exp.check(text)
                ok = failed == want and not exp.problems and not child.status
                bad += not ok
                print(f"{'ok ' if ok else 'BAD'} {name}: {label}: "
                      f"{failed} failed (want {want})"
                      + (f"; {problems[0]}" if problems else ""))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
