"""Answer checks, run outside the timed region.

Three layers of checking:

* `key_fields` reduces each op's report to the fields that state its
  answer; every pass of a run must give the same fields as the first.
* `RecordedAnswers` compares those fields with the values recorded for the
  same seed at the commit that defined this benchmark (`answers.json`,
  written by `record.py`).  Ops recorded as "budget exhausted" (exit 3)
  may later finish with exit 0; their answer is then accepted only if the
  independent checks below vouch for it.
* The oracles recompute some answers with plain Python sets over the
  group's multiplication table, never through the program's bit-vector
  kernels: every `verify` suite must pass all its trials, every `diagnose`
  witness must be shattered by the translates of the set, and every
  `bogolyubov` witness must be a subgroup lying inside W(A).
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

ANSWERS_PATH = Path(__file__).with_name("answers.json")
EXHAUSTED = 3


def _flag(argv, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def key_fields(op, rc: int, report: dict | None):
    """The answer of one op as a small JSON value (`"exit 3"` when exhausted)."""
    if rc != 0:
        return f"exit {rc}"
    kind = op.kind
    if kind == "verify":
        return [report["pass"], report["trials"]]
    if kind == "diagnose":
        return [report["vc"]["vc_dim"], report["vc"]["cap_hit"]]
    if kind == "saturation":
        return [report["sizes"][k] for k in sorted(report["sizes"])]
    if kind == "bogolyubov":
        return [report["witness"]["subgroup"]["order"], report["witness"]["index"]]
    if kind == "group":
        return [report["order"], report.get("subgroup_count")]
    if kind == "bohr-search":
        witness = report["witness"]
        return [report["found"], None if witness is None else witness["bohr"]["card"]]
    if kind == "croot-sisask":
        return [report["y"]["card"], report["trace"]["degenerate"]]
    raise ValueError(f"no answer fields for {kind!r}")


def ops_digest(ops) -> str:
    h = hashlib.blake2b(digest_size=8)
    for op in ops:
        h.update(op.text.encode() + b"\n")
    return h.hexdigest()


class RecordedAnswers:
    """Answers recorded per workload and seed; absent seeds check nothing."""

    def __init__(self, workload: str, seed: int, ops):
        self.expected = None
        if ANSWERS_PATH.is_file():
            entry = json.loads(ANSWERS_PATH.read_text()).get(workload, {}).get(str(seed))
            if entry is not None:
                if entry["ops"] != ops_digest(ops):
                    raise RuntimeError(f"{ANSWERS_PATH.name}: op list for seed {seed} changed")
                self.expected = entry["answers"]

    def problems(self, index: int, op, fields, independently_checked: bool) -> list[str]:
        if self.expected is None:
            return []
        want = self.expected[index]
        if fields == want:
            return []
        if fields == f"exit {EXHAUSTED}" and not isinstance(want, str):
            return []  # a lost answer; counted as unverified, not as wrong
        if want == f"exit {EXHAUSTED}" and not isinstance(fields, str) and independently_checked:
            return []  # a budget-bound op now answers, and the oracle agrees
        return [f"{op.text[:120]}: answer {fields} != recorded {want}"]


# --- independent oracles -----------------------------------------------------


class Table:
    """A group as a plain list-of-lists multiplication table."""

    def __init__(self, spec: str):
        from ablab.groups import build_group, parse_group_spec

        self.group = build_group(parse_group_spec(spec))
        self.order = self.group.order
        self.mult = self.group.mult.tolist()

    def product(self, xs, ys) -> set[int]:
        return {self.mult[x][y] for x in xs for y in ys}

    def inverse(self, xs) -> set[int]:
        return {y for x in xs for y in range(self.order) if self.mult[x][y] == 0}

    def word(self, xs, signs: str) -> set[int]:
        inv = self.inverse(xs)
        acc = {0}
        for s in signs:
            acc = self.product(acc, xs if s == "+" else inv)
        return acc


def _shattered(t: Table, a: set[int], witness: list[int]) -> bool:
    traces = {frozenset(t.mult[g][x] for x in a) & frozenset(witness) for g in range(t.order)}
    return len(traces) == 1 << len(witness)


@functools.cache
def _table(spec: str) -> Table:
    return Table(spec)


def _base_set(t: Table, literal: str) -> set[int]:
    """The set an op's literal names; `random:` literals go through the
    program's own parser, the only other source of their draws."""
    if literal.startswith("elems:["):
        return {int(x) for x in literal[len("elems:[") : -1].split(",")}
    from ablab.sets import parse_set_spec

    return set(parse_set_spec(t.group, literal))


def oracle_problems(op, rc: int, report: dict | None) -> list[str]:
    """Independent re-checks of one op's answer; [] when it holds up."""
    argv = op.argv
    if rc != 0:
        return []
    if op.kind == "verify":
        trials = int(_flag(argv, "--trials"))
        if report["pass"] is not True or report["trials"] != trials:
            return [f"{op.text}: suite did not pass all {trials} trials"]
        return []
    if op.kind == "diagnose":
        t = _table(_flag(argv, "--group"))
        a = set(report["set"]["elems"])
        if a != _base_set(t, _flag(argv, "--set")):
            return [f"{op.text[:120]}: report echoes a different set"]
        vc = report["vc"]
        cap = int(_flag(argv, "--vc-cap", 6))
        if len(vc["witness"]) != vc["vc_dim"] or not _shattered(t, a, vc["witness"]):
            return [f"{op.text[:120]}: VC witness {vc['witness']} is not shattered"]
        if vc["cap_hit"] and vc["vc_dim"] != cap:
            return [f"{op.text[:120]}: cap hit at {vc['vc_dim']} != cap {cap}"]
        return []
    if op.kind == "bogolyubov":
        t = _table(_flag(argv, "--group"))
        a = _base_set(t, _flag(argv, "--set"))
        h = set(report["witness"]["subgroup"]["elems"])
        if 0 not in h or t.product(h, h) != h:
            return [f"{op.text[:120]}: witness is not a subgroup"]
        if _flag(argv, "--mode") == "alternation":
            w = t.word(a, "+-+-")
        else:
            w = t.word(a, "+-+-") & t.word(a, "++--") & t.word(a, "-+-+") & t.word(a, "--++")
        if not h <= w:
            return [f"{op.text[:120]}: witness escapes W(A)"]
        return []
    return []
