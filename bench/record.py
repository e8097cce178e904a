"""Record the answers that run.py checks later runs against.

    python3 bench/record.py FIRST_SEED LAST_SEED

runs one untraced pass of every workload for each seed in the range and
writes the key answer fields of every op to bench/answers.json (entries
for other seeds are kept).  Run it only on a commit whose answers are
trusted; it refuses to record an answer that the independent oracles
reject or an op that ends in anything but exit 0 or 3.
"""

from __future__ import annotations

import json
import sys

from answers import ANSWERS_PATH, EXHAUSTED, key_fields, ops_digest, oracle_problems
from probe import setup
from run import Pass
from workloads import WORKLOADS


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    book = json.loads(ANSWERS_PATH.read_text()) if ANSWERS_PATH.is_file() else {}
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            cli, ops, _ = setup(workload, seed)
            answers = []
            for op, (rc, out, err) in zip(ops, Pass(cli, ops).outcomes):
                report = json.loads(out) if rc == 0 else None
                if rc not in (0, EXHAUSTED) or oracle_problems(op, rc, report):
                    print(f"record.py: refusing {op.text[:120]}: exit {rc} {err}", file=sys.stderr)
                    return 1
                answers.append(key_fields(op, rc, report))
            book.setdefault(workload, {})[str(seed)] = {"ops": ops_digest(ops), "answers": answers}
            print(f"{workload} seed {seed}: {len(answers)} answers", flush=True)
    lines = []  # one line per seed keeps the file diffable
    for workload, seeds in book.items():
        body = ",\n".join(
            f'    "{s}": {json.dumps(seeds[s], separators=(",", ":"))}'
            for s in sorted(seeds, key=int)
        )
        lines.append(f'  "{workload}": {{\n{body}\n  }}')
    ANSWERS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
