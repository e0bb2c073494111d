"""Regenerate reference.json: the checked outputs of every catalog row.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the benchmark compares
later commits with what it writes.
"""

import json
import os
import sys

import sgv

from workloads import THEOREM_ARGS, reference_rows

KEYS = ("lambda1", "kbar", "mode", "hypothesis_met")


def main() -> None:
    out = {}
    for row in reference_rows():
        params = {k: v for k, v in row.items() if k not in ("id", "kind")}
        rec = sgv.check_main_theorem(sgv.make_manifold(row["kind"], **params),
                                     manifold_id=row["id"], **THEOREM_ARGS)
        out[row["id"]] = {k: getattr(rec, k) for k in KEYS}
        print(row["id"], out[row["id"]], file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
