"""Record reference.json: the exact outputs that the benchmark's gates compare with.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are known to be right.  Every
operation with a ``summary`` runs once in this interpreter.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    run.set_environment()
    import misti
    import misti.cli
    import workloads

    reference = {}
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            if op.summary is None:
                continue
            if op.is_cli:
                output = run.run_cli_inprocess(misti.cli, op.argv)
            else:
                output = (op.call(misti, run.seeded_rng(0)),)
            summary = op.summary(*output)
            if isinstance(summary, str):
                raise SystemExit(f"{op.name}: {summary}")
            reference[op.name] = summary
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
