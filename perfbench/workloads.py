"""Workload batches: the chain specs, written as spec files, and the CLI calls on them.

Everything here is plain numpy: the specs are built without zerohold, so the
program sees only the JSON files, and the oracles in ``oracles.py`` read the
same ``Chain`` objects that were written.

The workload seed changes the inputs without changing their cost:

* the interior states of the four-state chain are relabelled by a seeded
  permutation (every workload);
* ``analyze-sweep`` gets a seeded random non-reversible chain of 100 states;
* ``mc-paths`` derives every sampler ``--seed`` from it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analyze-sweep", "renewal-curves", "mc-paths")


@dataclass(frozen=True, eq=False)
class Chain:
    """A chain spec as the benchmark built it: rate matrix, window, escape state."""

    name: str
    rates: np.ndarray
    theta: float = 1.0
    escape: int | None = None
    # interior labels after relabelling: original state i is written as perm[i]
    perm: tuple = ()
    # birth/death rates and truncation level of a homogeneous walk, else None
    bd: tuple | None = None

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    def label(self, i: int) -> int:
        return self.perm[i] if self.perm else i

    def to_json(self) -> str:
        n = self.n
        triples = [[i, j, float(self.rates[i, j])] for i in range(n) for j in range(n) if self.rates[i, j] != 0.0]
        doc = {"n_states": n, "rates": triples, "wait_threshold": self.theta}
        if self.escape is not None:
            doc["escape_state"] = self.escape
        return json.dumps(doc)


@dataclass
class Op:
    """One CLI call of a batch; ``kind`` and ``ctx`` select its output check."""

    argv: list
    kind: str
    chain: Chain | None = None
    ctx: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join([self.argv[0]] + [os.path.basename(a) if a.endswith(".json") else a for a in self.argv[1:]])


@dataclass
class Batch:
    ops: list
    cold_argv: list


def single_interior() -> Chain:
    return Chain("single-interior", np.array([[0.0, 1.0], [2.0, 0.0]]))


def four_state(rng: np.random.Generator) -> Chain:
    base = np.zeros((4, 4))
    for i, j, r in [(0, 1, 0.8), (0, 2, 0.4), (1, 0, 1.0), (1, 2, 0.6), (2, 1, 0.5), (2, 3, 0.9), (3, 2, 1.2), (3, 0, 0.3)]:
        base[i, j] = r
    perm = (0,) + tuple(int(k) + 1 for k in rng.permutation(3))
    rates = np.zeros_like(base)
    for i in range(4):
        for j in range(4):
            rates[perm[i], perm[j]] = base[i, j]
    return Chain("four-state", rates, theta=0.8, perm=perm)


def poisson_chain(r: float) -> Chain:
    return Chain(f"poisson-r{r:g}", np.array([[r]]))


def birth_death(name: str, b: float, d: float, n: int) -> Chain:
    """Homogeneous walk on 0..n, origin exits to 1 at rate 1, top state n marked as escape."""
    rates = np.zeros((n + 1, n + 1))
    rates[0, 1] = 1.0
    for i in range(1, n + 1):
        rates[i, i - 1] = d
        if i < n:
            rates[i, i + 1] = b
    return Chain(name, rates, escape=n, bd=(b, d, n))


def heavy(n: int = 40) -> Chain:
    """b_i = d_i = 1/i: null recurrent walk with heavy return tails, no escape state."""
    rates = np.zeros((n + 1, n + 1))
    rates[0, 1] = 1.0
    for i in range(1, n):
        rates[i, i + 1] = 1.0 / i
        rates[i, i - 1] = 1.0 / i
    rates[n, n - 1] = 1.0 / n
    return Chain(f"heavy{n}", rates)


def random_nonreversible(rng: np.random.Generator, n: int = 100) -> Chain:
    """Directed ring over the interior plus one-way chords: no detailed balance."""
    rates = np.zeros((n, n))
    ring = np.arange(1, n)
    rates[ring, np.roll(ring, -1)] = rng.uniform(0.5, 1.5, n - 1)
    chords = rng.random((n, n)) < 0.03
    chords[0, :] = False
    chords[:, 0] = False
    np.fill_diagonal(chords, False)
    chords &= rates == 0.0
    chords &= ~chords.T  # keep every chord one-way
    rates[chords] = rng.uniform(0.1, 1.0, int(chords.sum()))
    back = rng.choice(ring, size=10, replace=False)
    rates[back, 0] = rng.uniform(0.2, 2.0, 10)
    out = rng.choice(ring, size=3, replace=False)
    rates[0, out] = rng.uniform(0.3, 1.0, 3)
    return Chain(f"random{n}", rates)


def _spec_files(outdir: str, chains) -> dict:
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for c in chains:
        path = os.path.join(outdir, f"{c.name}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(c.to_json())
        paths[c.name] = path
    return paths


def build(workload: str, seed: int, outdir: str) -> Batch:
    """Write the workload's spec files under ``outdir`` and return its batch."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    four = four_state(rng)
    if workload == "analyze-sweep":
        walk = birth_death("transient-walk", 2.0, 1.0, 60)
        chains = [
            single_interior(), four, poisson_chain(2.0), walk,
            birth_death("bd60", 1.0, 2.0, 60), birth_death("bd200", 1.0, 2.0, 200),
            heavy(40), random_nonreversible(rng), birth_death("bd12", 1.0, 2.0, 12),
        ]
        paths = _spec_files(outdir, chains)
        ops = [Op(["analyze", paths[c.name]], "analyze", c) for c in chains[:-1]]
        ops += [
            Op(["condition", paths[four.name], "--mode", "limit"], "condition-limit", four),
            Op(["condition", paths["bd12"], "--mode", "subexp"], "condition-subexp", chains[-1]),
            Op(["coin", "--p", "0.5", "--k", "2", "--n", "20"], "coin", ctx={"n": 20}),
            Op(["poisson", "--r", "2"], "poisson", ctx={"r": 2.0}),
        ]
        return Batch(ops, ["analyze", paths["single-interior"]])
    if workload == "renewal-curves":
        hv, bd60, pois, single = heavy(40), birth_death("bd60", 1.0, 2.0, 60), poisson_chain(1.0), single_interior()
        paths = _spec_files(outdir, [four, hv, bd60, pois, single])

        def curve(c, t_max, dt, start="0", **ctx):
            argv = ["renewal", paths[c.name], "--t-max", str(t_max), "--dt", str(dt), "--start", start, "--scale-by-phi"]
            return Op(argv, "renewal", c, dict(ctx, t_max=t_max, dt=dt))

        # heavy40 and bd60 are still far from their plateau at t_max / 2
        ops = [
            curve(four, 40, 0.01, plateau=True),
            curve(hv, 40, 0.02),
            curve(bd60, 20, 0.02),
            curve(four, 40, 0.01, str(four.label(1)), start_state=four.label(1), plateau=True),
            curve(four, 40, 0.01, "0:0.4", start_clock=0.4, plateau=True),
            curve(pois, 160, 0.01, plateau=True),
        ]
        cold = ["renewal", paths[single.name], "--t-max", "2", "--dt", "0.02", "--scale-by-phi"]
        return Batch(ops, cold)
    if workload == "mc-paths":
        walk, hv = birth_death("transient-walk", 2.0, 1.0, 60), heavy(40)
        paths = _spec_files(outdir, [four, walk, hv])
        mc_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=6)]

        def sim(c, seed, *rest):
            return ["simulate", paths[c.name], *rest, "--seed", str(seed), "--threads", "1"]

        ops = [
            Op(sim(four, mc_seeds[0], "--mode", "survival", "--horizon", "15", "--n-paths", "10000"), "mc-survival", four),
            Op(sim(walk, mc_seeds[1], "--mode", "survival", "--horizon", "60", "--t-grid", "60", "--n-paths", "3000"),
               "mc-transient", walk),
            Op(sim(four, mc_seeds[2], "--mode", "conditioned", "--kind", "limit", "--horizon", "15", "--n-paths", "5000"),
               "mc-conditioned", four),
            Op(sim(four, mc_seeds[3], "--mode", "compare", "--kind", "limit", "--horizon", "10", "--window", "2",
                   "--n-paths", "10000"), "mc-compare", four),
            Op(["tails", paths[hv.name], "--i", "0:0.5", "--j", "0", "--v", "0", "--t", "40", "--n-paths", "12000",
                "--seed", str(mc_seeds[4]), "--threads", "1"], "mc-tails", hv),
            Op(["diagnose-subexp", paths[hv.name], "--state", "1", "--order", "2", "--n-samples", "4000",
                "--horizon", "3000", "--seed", str(mc_seeds[5]), "--threads", "1"], "mc-subexp", hv),
        ]
        cold = ["simulate", paths[four.name], "--mode", "survival", "--horizon", "5", "--n-paths", "500",
                "--seed", str(mc_seeds[0]), "--threads", "1"]
        return Batch(ops, cold)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
