"""Record how many instances each certify op checks, into certify_counts.json.

The certify workload asserts that every op checks exactly the number of
instances recorded here, so a change that silently certifies fewer instances
shows up as failed ops.  Run from the repository root, on a commit whose
output is trusted:

    python3 bench/record_counts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bellkit import cli  # noqa: E402

from workloads import ALPHA_POOL, CERTIFY_GRIDS, certify_argv, certify_key  # noqa: E402


def main() -> int:
    counts = {}
    for identity, n in CERTIFY_GRIDS:
        for alpha in (None, *ALPHA_POOL):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(certify_argv(identity, n, alpha))
            summary = json.loads(out.getvalue())["summary"]
            if status != 0 or summary["failed"] != 0:
                print(f"{identity} n={n} alpha={alpha}: status {status}", file=sys.stderr)
                return 1
            counts[certify_key(identity, n, alpha)] = summary["checked"]
    (HERE / "certify_counts.json").write_text(json.dumps(counts, indent=0) + "\n")
    print(f"recorded {len(counts)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
