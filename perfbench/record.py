#!/usr/bin/env python3
"""Record each workload's output digest per seed in ``digests.json``.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 0-19

Record at a commit whose simulated outputs are known good.  A
speed-only change must then reproduce every recorded digest byte for
byte.  A seed that already has a different digest is an error: a change
to the model deletes the stale entries first and says why.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, __, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,5")
    args = parser.parse_args(argv)
    recorded = wl.load_digests()
    status = 0
    for name in wl.WORKLOADS:
        table = recorded.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            session = run.Session(name, wl.WORKLOADS[name], seed)
            outputs = session.child("run")["outputs"]
            problem = wl.judge(session.kind, outputs, None)
            if problem is not None:
                print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                status = 1
                continue
            digest = wl.digest(outputs)
            old = table.get(str(seed))
            if old is not None and old != digest:
                print(
                    f"{name} seed {seed}: digest {digest[:16]} differs "
                    f"from recorded {old[:16]}",
                    file=sys.stderr,
                )
                status = 1
                continue
            table[str(seed)] = digest
            print(f"{name} seed {seed}: {digest[:16]}", flush=True)
    ordered = {
        name: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
        for name, seeds in recorded.items()
    }
    wl.DIGESTS_PATH.write_text(json.dumps(ordered, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
