#!/usr/bin/env python3
"""Write the reference records that default-seed cells are checked against.

    python3 bench/make_reference.py [workload ...]

Runs each cell of the default workload seed's pool once and writes its
records to bench/reference/<workload>.json. The benchmark compares every
cell it runs with the default seed against these records, field by field, to
1e-12 absolute. Regenerate them only for a change that is meant to alter the
numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def _dump(ref: dict) -> str:
    """JSON with one training record per line, so diffs stay readable."""
    cells = []
    for cell in ref["cells"]:
        runs = ",\n".join(
            f'    {json.dumps(label)}: [\n' + ",\n".join(f"      {json.dumps(row)}" for row in rows)
            + "\n    ]"
            for label, rows in cell["runs"].items())
        cells.append(f'  {{"runs": {{\n{runs}\n  }}, "extra": {json.dumps(cell["extra"])}}}')
    return (f'{{"workload_seed": {ref["workload_seed"]}, "cells": [\n'
            + ",\n".join(cells) + "\n]}\n")


def main(argv: list[str]) -> int:
    run.pin_blas_threads()
    run.import_aucmax()
    from workloads import check_cell, make_workloads

    workloads = make_workloads(os.path.join(run.OUT_DIR, "work"))
    for name in argv or run.WORKLOADS:
        workload = workloads[name]
        cells = []
        for inp in workload.build(run.DEFAULT_SEED):
            _, out = workload.execute(inp)
            problems = check_cell(out, *workload.expected(inp))
            if problems:
                print(f"{name}: cell fails its checks: {problems}", file=sys.stderr)
                return 1
            cells.append({"runs": out.runs, "extra": out.extra})
        ref = {"workload_seed": run.DEFAULT_SEED, "cells": cells}
        text = _dump(ref)
        if json.loads(text) != json.loads(json.dumps(ref)):
            raise AssertionError("reference formatting changed the records")
        path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
        os.makedirs(run.REFERENCE_DIR, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
