"""Record the expected-output digests for each workload's default seed.

    python3 perfbench/record_expected.py

Run from the root of a checkout.  Refuses to write a file for a pass with a
failed item.  Re-record only when a change is meant to alter outputs.
"""

import json
import sys
import time

import run
import workloads


def main() -> int:
    for name in workloads.WORKLOADS:
        deadline = time.monotonic() + run.DEADLINE_S
        _, report = run.launch(name, workloads.DEFAULT_SEED, "plain", deadline)
        if report["failed"]:
            print(f"{name}: {len(report['failed'])} items failed; nothing written",
                  file=sys.stderr)
            return 1
        path = run.HERE / "expected" / f"{name}.json"
        path.write_text(json.dumps({
            "seed": workloads.DEFAULT_SEED,
            "items": report["items"],
            "group": report["group"],
            "groups": report["groups"],
        }, indent=0) + "\n")
        print(f"{name}: {report['items']} items, {len(report['groups'])} digests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
