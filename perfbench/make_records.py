#!/usr/bin/env python3
"""Regenerate records.json: the exact outputs the benchmark compares every operation against.

    python3 perfbench/make_records.py [WORKLOAD ...]     # default: every workload

Run it only at a commit whose outputs are known to be right. It records every
input a workload can draw: the first ``instances * cycle`` operations of
workload seed 0.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    path = HERE / "records.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in names or WORKLOADS:
            cls = WORKLOADS[name]
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = cls(0, workdir)
            count = cls.instances * cls.cycle
            records[name] = {}
            for k in range(count):
                op = workload.op(k)
                _, fingerprint, problems = op.inspect(op.run())
                if problems:
                    print(f"{name} op {k} ({op.key}) fails its checks: {problems}", file=sys.stderr)
                    return 1
                records[name][op.key] = fingerprint
            print(f"{name}: recorded {count} operations")
    path.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
