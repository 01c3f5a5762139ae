"""Write golden.json: the answer of every CLI operation of every workload.

    python3 perfbench/golden.py

Run it only when a workload changes, on a commit whose answers are known
to be right, and review the difference before committing it.
"""

from __future__ import annotations

import json
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))
import rht  # noqa: E402
import rht.cli  # noqa: E402,F401

golden = {}
for w in workloads.WORKLOADS.values():
    for name, argv in w.cli:
        rc, out, _ = workloads.cli_call(rht, argv)
        golden[name] = workloads.answer(argv, rc, out)
        print(f"{name}: rc {rc}", file=sys.stderr)
workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
