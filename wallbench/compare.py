"""Compare two saved benchmark outputs metric by metric.

Usage::

    python3 wallbench/compare.py BEFORE.out AFTER.out

Each file is the stdout of one ``run.py`` invocation.  Results whose
environment stamps differ (core count, library versions, BLAS vendor
or live thread count, pinned variables) are not comparable: the script
says which fields differ and exits 2.  Otherwise it prints each
metric's before/after values and ratio.
"""

from __future__ import annotations

import json
import sys


def read(path: str) -> tuple[dict, dict]:
    """``(env stamp, result)`` from one saved run."""
    env = result = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "env" in record:
                env = record["env"]
            elif "metrics" in record:
                result = record
    if env is None or result is None:
        raise SystemExit(f"{path}: no environment stamp or result line")
    return env, result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = read(argv[0]), read(argv[1])
    if env_a != env_b:
        keys = sorted(k for k in env_a.keys() | env_b.keys()
                      if env_a.get(k) != env_b.get(k))
        print(f"refusing to compare: environment stamps differ in {keys}",
              file=sys.stderr)
        return 2
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            print(f"{name:34s} {a['value']:>14.6g} {'-':>14s}")
            continue
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(f"{name:34s} {a['value']:>14.6g} {b['value']:>14.6g} "
              f"x{ratio:.3f} {a['unit']}")
    for tag, res in (("before", res_a), ("after", res_b)):
        if not res["correct"]:
            print(f"{tag}: {res['failed']} of {res['attempted']} checks "
                  "failed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
