"""Outside-in tracing of ablab's layers.

The tracer wraps public functions of the program from outside: it rebinds
every alias of a traced function in every `ablab.*` module namespace (so
`groups`'s own `from .kernels import product_mask` binding is wrapped too),
wraps the two traced methods on their classes, and restores the originals
on exit.  Each call becomes a span (layer name, start, end, parent span)
kept in flat in-memory arrays; a layer's self time is its spans' total
duration minus the time covered by their child spans.  Counters that do not
depend on the machine (calls, gathered cells, candidates, rungs, bytes)
are taken from each call's arguments or result.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# Layer name -> (module, attribute, class or None).
TARGETS = {
    "cli.main": ("ablab.cli", "main", None),
    "kernels.product_mask": ("ablab.kernels", "product_mask", None),
    "kernels.closure_mask": ("ablab.kernels", "closure_mask", None),
    "kernels.translate_diff_counts": ("ablab.kernels", "translate_diff_counts", None),
    "kernels.inverse_mask": ("ablab.kernels", "inverse_mask", None),
    "groups.build_group": ("ablab.groups", "build_group", None),
    "groups.closure": ("ablab.groups", "closure", "Group"),
    "groups.lattice": ("ablab.groups", "_lattice_masks", None),
    "sets.covering_number": ("ablab.sets", "covering_number", None),
    "sets.plunnecke_check": ("ablab.sets", "plunnecke_check", None),
    "sets.ruzsa_triangle_ok": ("ablab.sets", "ruzsa_triangle_ok", None),
    "sets.parse_set_spec": ("ablab.sets", "parse_set_spec", None),
    "rng.subset_mask": ("ablab.rng", "subset_mask", "SplitRng"),
    "torus.characters": ("ablab.torus", "characters", None),
    "bohr.bohr_set": ("ablab.bohr", "bohr_set", None),
    "bohr.bohr_witness_search": ("ablab.bohr", "bohr_witness_search", None),
    "vc.vc_dimension": ("ablab.vc", "vc_dimension", None),
    "vc.stabilizer": ("ablab.vc", "stabilizer", None),
    "pipelines.croot_sisask": ("ablab.pipelines", "croot_sisask", None),
    "pipelines.ystar": ("ablab.pipelines", "_ystar", None),
    "pipelines.subgroup_oracle": ("ablab.pipelines", "subgroup_candidates_inside", None),
    "reporting.canonical_dumps": ("ablab.reporting", "canonical_dumps", None),
}


def _product_cells(args, result, counts):
    group, xmask, ymask = args[:3]
    counts["kernels.product_mask.cells"] += (
        min(xmask.bit_count(), ymask.bit_count()) * group.order
    )


def _vc_outcome(args, result, counts):
    counts["vc.vc_dimension.cap_hit" if result.cap_hit else "vc.vc_dimension.answered"] += 1


def _oracle_candidates(args, result, counts):
    masks, method = result
    counts["pipelines.subgroup_oracle.candidates"] += len(masks)
    counts["pipelines.subgroup_oracle.exhaustive"] += method == "exhaustive"


def _ladder_rungs(args, result, counts):
    counts["pipelines.cs_ladder.rungs"] += sum(len(t.ladder) for t in result[1].targets)


def _report_bytes(args, result, counts):
    counts["reporting.canonical_dumps.bytes"] += len(result.encode())


# Layer name -> (hook(args, result, counts) run after each return, the
# counters it keeps).  A vc_dimension call that raises FeasibilityError
# counts as `exhausted`.
OBSERVERS = {
    "kernels.product_mask": (_product_cells, ("kernels.product_mask.cells",)),
    "vc.vc_dimension": (
        _vc_outcome,
        ("vc.vc_dimension.answered", "vc.vc_dimension.exhausted", "vc.vc_dimension.cap_hit"),
    ),
    "pipelines.subgroup_oracle": (
        _oracle_candidates,
        ("pipelines.subgroup_oracle.candidates", "pipelines.subgroup_oracle.exhaustive"),
    ),
    "pipelines.croot_sisask": (_ladder_rungs, ("pipelines.cs_ladder.rungs",)),
    "reporting.canonical_dumps": (_report_bytes, ("reporting.canonical_dumps.bytes",)),
}

# Counter suffixes that must repeat exactly for a fixed seed.
EXACT_COUNTERS = (".calls", ".cells", ".candidates", ".rungs", ".bytes")


class Tracer:
    """Install with `with Tracer() as t:`; read `t.summary()` afterwards."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {f"{name}.calls": 0 for name in self.names}
        for _, keys in OBSERVERS.values():
            self.counts.update(dict.fromkeys(keys, 0))
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        from ablab.errors import FeasibilityError

        self._exhausted_error = FeasibilityError
        modules = [m for n, m in sys.modules.items() if n == "ablab" or n.startswith("ablab.")]
        for nid, name in enumerate(self.names):
            module_name, attr, owner = TARGETS[name]
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                self._rebind(cls, attr, cls.__dict__[attr], nid)
                continue
            original = getattr(module, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, nid)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def _rebind(self, holder, key: str, original, nid: int) -> None:
        wrapper = self._wrap(original, nid)
        self._restore.append((holder, key, original))
        setattr(holder, key, wrapper)

    def _wrap(self, original, nid: int):
        name = self.names[nid]
        observe, _ = OBSERVERS.get(name, (None, ()))
        counts = self.counts
        calls = f"{name}.calls"
        exhausted = self._exhausted_error if name == "vc.vc_dimension" else ()
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            except exhausted:
                counts["vc.vc_dimension.exhausted"] += 1
                raise
            finally:
                ends[span] = perf_counter()
                stack.pop()
                counts[calls] += 1
            if observe is not None:
                observe(args, result, counts)
            return result

        traced.__wrapped__ = original
        return traced

    def self_seconds(self) -> dict[str, float]:
        """Per layer: total span time minus the time covered by child spans."""
        n = len(self.starts)
        child = [0.0] * n
        own = dict.fromkeys(self.names, 0.0)
        for i in range(n - 1, -1, -1):
            dur = self.ends[i] - self.starts[i]
            p = self.parents[i]
            if p >= 0:
                child[p] += dur
            own[self.names[self.name_ids[i]]] += dur - child[i]
        return own

    def summary(self) -> dict[str, float]:
        """Flat per-layer metrics: every counter plus `<layer>.self_s`."""
        out: dict[str, float] = dict(self.counts)
        for name, secs in self.self_seconds().items():
            out[f"{name}.self_s"] = secs
        return out
