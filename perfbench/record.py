"""Record the expected per-instance result digests in expected.json.

    python3 perfbench/record.py

Runs every workload at both sizes once, in one process, and fails if any
instance fails its correctness gate.  Results are exact and independent
of the seed and of instance order, so the digests only change when the
program's output changes; rerun this only after checking that such a
change is intended.
"""

from __future__ import annotations

import json
import sys

from worker import EXPECTED, HERE, load_program


def main() -> int:
    load_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, result_digest

    expected = {}
    for workload in WORKLOADS.values():
        digests = expected.setdefault(workload.name, {})
        for size in ("full", "smoke"):
            for inst in workload.instances(workload.setup(size)):
                ok, result = inst.judge(inst.run())
                if not ok:
                    raise SystemExit(f"{workload.name} {inst.id}: gate failed")
                digest = result_digest(result)
                if digests.setdefault(inst.id, digest) != digest:
                    raise SystemExit(f"{inst.id}: digest depends on size")
        print(f"{workload.name}: {len(digests)} digests", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
