"""Spans around zerohold's public layer functions, recorded from outside the program.

``Tracer.install()`` replaces each function in ``LAYERS`` by a wrapper at
every ``zerohold.*`` module attribute that holds it, so the wrapper sits
where each caller looks it up (``zerohold.hitting.solve_linear``,
``zerohold.renewal.expm_action``, ``zerohold.cli.solve_phi``, ...).  A span
records its function, parent span, start, end and the time of its wrapped
children; spans stay in memory and are aggregated per pass at the end.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

LAYERS = {
    "chain": ("parse_spec",),
    "spectral": ("solve_linear", "perron_decay", "expm_action"),
    "hitting": ("never_hit_prob", "hitting_mgf"),
    "asymptotics": ("solve_phi", "return_mgf"),
    "renewal": ("solve_renewal", "lift_survival"),
    "conditioned": ("make_limit_chain", "make_vague_limit", "make_hlambda", "make_subexp_weak"),
    "montecarlo": ("estimate_survival", "estimate_tail_ratio", "conditioned_vs_rejection",
                   "sample_hitting_times", "subexp_diagnostic"),
    "cli": ("cmd_analyze", "cmd_coin", "cmd_poisson", "cmd_renewal", "cmd_simulate",
            "cmd_condition", "cmd_tails", "cmd_diagnose_subexp"),
}
NAMES = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


# work units of a call, from its arguments and result: grid nodes marched
# after t = 0 for the renewal solver, sample paths for the samplers
UNITS = {
    "renewal.solve_renewal": lambda a, k, r: len(r.values) - 1,
    "montecarlo.estimate_survival": lambda a, k, r: _arg(a, k, 3, "n_paths"),
    "montecarlo.estimate_tail_ratio": lambda a, k, r: _arg(a, k, 5, "n_paths") * (1 if a[1] == a[2] else 2),
    "montecarlo.conditioned_vs_rejection": lambda a, k, r: _arg(a, k, 4, "n_paths") + r.n_conditioned,
    "montecarlo.sample_hitting_times": lambda a, k, r: _arg(a, k, 2, "n_paths"),
}


class Tracer:
    """Spans held in parallel flat lists: no per-span object for the garbage collector to walk."""

    def __init__(self):
        self.name: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.child: list = []
        self.units: list = []
        self.stack: list = []
        self.pass_starts: list = []
        self.sites = 0

    def install(self) -> None:
        import zerohold  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "zerohold" or k.startswith("zerohold.")]
        for name in NAMES:
            mod, fn = name.split(".")
            orig = getattr(sys.modules[f"zerohold.{mod}"], fn)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self.sites += 1

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, child, units = self.name, self.parent, self.start, self.end, self.child, self.units
        stack, count = self.stack, UNITS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            child.append(0.0)
            units.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if count is not None:
                units[idx] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.name))

    def _pass_ranges(self):
        bounds = self.pass_starts + [len(self.name)]
        return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def metrics(self) -> dict:
        """Per-layer metrics: exact per-pass counts, median per-pass self times."""
        per_pass = []
        for spans in self._pass_ranges():
            calls = dict.fromkeys(NAMES, 0)
            self_s = dict.fromkeys(NAMES, 0.0)
            units = dict.fromkeys(NAMES, 0)
            incl = dict.fromkeys(NAMES, 0.0)
            child_calls: dict = {}
            for i in spans:
                name = self.name[i]
                dur = self.end[i] - self.start[i]
                calls[name] += 1
                incl[name] += dur
                self_s[name] += dur - self.child[i]
                units[name] += self.units[i]
                if self.parent[i] >= 0:
                    key = (self.name[self.parent[i]], name)
                    child_calls[key] = child_calls.get(key, 0) + 1
            per_pass.append((calls, self_s, units, incl, child_calls))
        calls, _, units, _, child_calls = per_pass[0]
        if any(p[0] != calls or p[2] != units or p[4] != child_calls for p in per_pass[1:]):
            raise RuntimeError("call counts differ between passes over the same batch")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (statistics.median(p[1][name] for p in per_pass), "s")
        out["spectral.perron_decay.solves_per_call"] = (
            ratio(child_calls.get(("spectral.perron_decay", "spectral.solve_linear"), 0),
                  calls["spectral.perron_decay"]), "count")
        out["asymptotics.solve_phi.transforms_per_call"] = (
            ratio(child_calls.get(("asymptotics.solve_phi", "asymptotics.return_mgf"), 0),
                  calls["asymptotics.solve_phi"]), "count")
        out["renewal.solve_renewal.expm_per_node"] = (
            ratio(child_calls.get(("renewal.solve_renewal", "spectral.expm_action"), 0),
                  units["renewal.solve_renewal"]), "count")
        mc = [n for n in NAMES if n.startswith("montecarlo.")]
        mc_time = statistics.median(sum(p[3][n] for n in mc) for p in per_pass)
        out["montecarlo.paths_per_s"] = (ratio(sum(units[n] for n in mc), mc_time), "1/s")
        return out

    def dump(self, path: str) -> None:
        """Write the first traced pass's spans as JSON lines."""
        first = self._pass_ranges()[0]
        base = first.start
        with open(path, "w", encoding="utf-8") as f:
            for i in first:
                parent = self.parent[i] - base if self.parent[i] >= base else -1
                f.write(json.dumps({"id": i - base, "name": self.name[i], "parent": parent, "start": self.start[i],
                                    "end": self.end[i], "self": self.end[i] - self.start[i] - self.child[i]}) + "\n")
