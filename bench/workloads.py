"""Job lists for the three workloads, generated from the workload seed alone.

A job is one user task: a ``qmce`` argv run in-process through
``qmce.cli.main``, or a short public-API call sequence.  Each workload is a
repeating *round*: a fixed recipe of job slots (command, spectrum family,
size class).  Continuous choices inside a slot (dimension, offset) follow
a Kronecker sequence frac(u0 + k*phi) with a seed-drawn start u0, so every
run covers the range evenly whatever the seed; level values, couplings and
energies are drawn from the seed directly.
No spectrum appears twice in a run, as no two qmce processes share memory.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

PHI = (math.sqrt(5.0) - 1.0) / 2.0
WORKLOADS = ("tabulate", "ensembles", "sampling")


@dataclass
class Job:
    """One job: what to run and what the checker needs to judge it."""

    id: int
    check: str  # checker name in checks.CHECKS
    argv: tuple = ()  # CLI arguments; empty for API jobs
    levels: tuple = ()  # ((energy, multiplicity), ...) of the (first) system
    params: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.params.get("label", self.check)


def _f(x: float) -> str:
    return f"{x:.17g}"


def _levels_arg(flag: str, levels) -> str:
    return f"{flag}=" + ",".join(_f(e) for e, _ in levels)


def ising_levels(spins: int, coupling: float, field_: float):
    """Distinct (energy, multiplicity) of the periodic Ising chain.

    Same convention and float arithmetic as the qmce CLI documents:
    H = -J sum s_k s_{k+1} - B sum s_k, classified by (antiparallel bonds,
    down spins) so equal-energy configurations are merged exactly.
    """
    counts: dict[tuple[int, int], int] = {}
    for x in range(1 << spins):
        rolled = ((x << 1) | (x >> (spins - 1))) & ((1 << spins) - 1)
        key = (bin(x ^ rolled).count("1"), bin(x).count("1"))
        counts[key] = counts.get(key, 0) + 1
    levels: dict[float, int] = {}
    for (flips, downs), m in counts.items():
        e = -coupling * (spins - 2 * flips) - field_ * (spins - 2 * downs)
        levels[e] = levels.get(e, 0) + m
    return tuple(sorted(levels.items()))


class _Gen:
    """Seeded draws shared by the workload recipes."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"qmce-bench/{workload}/{seed}")
        self.starts: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.seen: set = set()

    def sweep(self, key: str) -> float:
        """Next point of this slot's Kronecker sequence in [0, 1)."""
        if key not in self.starts:
            self.starts[key] = self.rng.random()
        k = self.counts.get(key, 0)
        self.counts[key] = k + 1
        return (self.starts[key] + k * PHI) % 1.0

    def pick(self, key: str, lo: int, hi: int) -> int:
        """Integer in [lo, hi], spread evenly over a run by the sweep."""
        return lo + min(int(self.sweep(key) * (hi - lo + 1)), hi - lo)

    def unique(self, levels):
        key = tuple(levels)
        if key in self.seen:
            return None
        self.seen.add(key)
        return key

    def generic(self, dim: int, width: float | None = None):
        """Nondegenerate levels drawn uniformly: no two closer than 1e-6 of the width."""
        while True:
            w = width if width is not None else 10 ** self.rng.uniform(0.0, 1.0)
            c = self.rng.uniform(-5.0, 5.0)
            us = sorted(self.rng.random() for _ in range(dim))
            span = us[-1] - us[0]
            es = [c + w * ((u - us[0]) / span - 0.5) for u in us]
            if min(b - a for a, b in zip(es, es[1:])) > 1e-6 * w:
                key = self.unique((e, 1) for e in es)
                if key:
                    return key

    def jittered(self, dim: int, center: float, width: float):
        """Nondegenerate levels: a grid of dim points over the width with each
        interior level moved at random by up to 35% of the spacing.

        The canonical transform's cost follows the gap pattern, so a near-grid
        keeps one slot's cost steady from seed to seed.  Uniform draws have
        small top gaps more often, where Omega is least accurate, so the
        workloads that measure Omega's accuracy use ``generic`` instead.
        """
        while True:
            us = [0.0] + [k + self.rng.uniform(-0.35, 0.35) for k in range(1, dim - 1)] + [dim - 1.0]
            key = self.unique((center + width * (u / (dim - 1) - 0.5), 1) for u in us)
            if key:
                return key

    def ising(self, spins: int, j_band=(0.2, 1.5), b_band=(0.1, 1.5), signed: bool = True):
        """Random (J, B) whose distinct levels are well separated."""
        while True:
            j = self.rng.uniform(*j_band)
            b = self.rng.uniform(*b_band)
            if signed:
                j *= self.rng.choice((-1.0, 1.0))
                b *= self.rng.choice((-1.0, 1.0))
            levels = ising_levels(spins, j, b)
            es = [e for e, _ in levels]
            width = es[-1] - es[0]
            if min(y - x for x, y in zip(es, es[1:])) > 1e-3 * width and self.unique(levels):
                return j, b, levels

    def ising_argv(self, spins: int, j: float, b: float):
        return ("--ising", "--spins", str(spins), "--J", _f(j), "--B", _f(b))


# -- rounds ---------------------------------------------------------------


def _tabulate_round(g: _Gen):
    """Bulk tables at dim 16-64: build_dos, Omega/S/T/C on 1000-point grids."""
    # Size slots are chosen so each timing statistic falls inside a cluster
    # of like jobs: the Ising L=6 pair at the median, thermo at dim 64 (twice)
    # with the grand grid as the heaviest cluster, which holds the 11th
    # largest job of a run whatever the number of rounds.
    for cmd, slots in (("dos", ((16, 31), (32, 63), (64, 64))),
                       ("thermo", ((16, 31), (32, 63), (64, 64), (64, 64)))):
        for lo, hi in slots:
            dim = g.pick(f"{cmd}{lo}", lo, hi)
            levels = g.generic(dim)
            yield dict(check=cmd, argv=(cmd, _levels_arg("--levels", levels)), levels=levels,
                       params={"label": f"{cmd} dim{dim}", "kind": f"{cmd} dim{lo}-{hi}"})
    for spins in (4, 4, 5, 6, 6):
        j, b, levels = g.ising(spins)
        yield dict(check="thermo", argv=("thermo",) + g.ising_argv(spins, j, b), levels=levels,
                   params={"label": f"thermo ising L{spins}", "kind": f"thermo ising L{spins}"})
    levels = g.generic(3)
    yield dict(check="grand", argv=("grand", "--marginal", _levels_arg("--levels", levels)),
               levels=levels, params={"label": "grand marginal", "kind": "grand marginal"})


def _ensembles_round(g: _Gen):
    """Canonical sweeps, n-fold consistency and equilibration."""
    # width 4, one fixed dimension per slot; |c| log-uniform in 0.1..10 or 100..1000
    for dim, sign, decades in ((8, -1.0, (-1, 1)), (8, 1.0, (-1, 1)), (12, 1.0, (-1, 1)),
                               (4, -1.0, (-1, 1)), (10, 1.0, (2, 3)), (6, -1.0, (2, 3))):
        kind = f"canonical dim{dim} |c|<=1e{decades[1]} {'+-'[sign < 0]}"
        offset = sign * 10 ** (decades[0] + (decades[1] - decades[0]) * g.sweep(kind))
        levels = g.jittered(dim, center=offset, width=4.0)
        width = levels[-1][0] - levels[0][0]
        yield dict(check="canonical",
                   argv=("canonical", _levels_arg("--levels", levels),
                         "--beta-min", _f(0.1 / width), "--beta-max", _f(200.0 / width)),
                   levels=levels, params={"label": f"canonical dim{dim} c={offset:+.3g}", "kind": kind})
    # The sweep's cost follows the level pattern, so these chains take one
    # narrow band of positive couplings; the accuracy workloads keep the
    # wide signed draws (no canonical Ising value has been wrong at either).
    for spins in (3, 3, 3, 4):
        j, b, levels = g.ising(spins, (0.6, 0.8), (0.3, 0.4), signed=False)
        width = levels[-1][0] - levels[0][0]
        yield dict(check="canonical",
                   argv=("canonical",) + g.ising_argv(spins, j, b)
                   + ("--beta-min", _f(0.1 / width), "--beta-max", _f(200.0 / width)),
                   levels=levels, params={"label": f"canonical ising L{spins}", "kind": f"canonical ising L{spins}"})
    # integer-spaced: unit*(0, 1, 2, 3); generic: interior levels in fixed
    # bands, so each fold count has one piece structure and a steady cost
    for copies, integer in itertools.product((2, 4, 8), (True, False)):
        while True:
            base = g.rng.randrange(-32, 33) / 8.0
            if integer:
                unit = g.rng.choice((0.5, 1.0, 2.0))
                es = [base + unit * k for k in range(4)]
            else:
                unit = g.rng.uniform(1.0, 3.0)
                es = [base, base + unit * g.rng.uniform(0.28, 0.32),
                      base + unit * g.rng.uniform(0.63, 0.67), base + unit]
            levels = g.unique((e, 1) for e in es)
            if levels:
                break
        lo, hi = levels[0][0], levels[-1][0]
        kind = "int" if integer else "generic"
        # below and above the mean level in alternate rounds: beta > 0, then
        # beta < 0, whose transform reflects every piece and costs more
        side = g.counts.get(f"side n{copies} {kind}", 0) % 2
        g.counts[f"side n{copies} {kind}"] = side + 1
        energy = lo + g.rng.uniform(0.1, 0.4) * (hi - lo) if side == 0 else hi - g.rng.uniform(0.1, 0.4) * (hi - lo)
        yield dict(check="nfold", levels=levels,
                   params={"label": f"nfold n{copies} {kind}", "kind": f"nfold n{copies} {kind}",
                           "copies": copies, "energy": energy})
    for _ in range(1):
        l1 = g.generic(g.pick("eq1", 4, 8))
        l2 = g.generic(g.pick("eq2", 4, 8))
        n1, n2 = g.pick("n1", 1, 50), g.pick("n2", 1, 50)
        e1 = l1[0][0] + g.rng.uniform(0.15, 0.85) * (l1[-1][0] - l1[0][0])
        e2 = l2[0][0] + g.rng.uniform(0.15, 0.85) * (l2[-1][0] - l2[0][0])
        yield dict(check="equilibrate",
                   argv=("equilibrate", _levels_arg("--levels", l1), "--E1", _f(e1), "--N1", str(n1),
                         _levels_arg("--levels2", l2), "--E2", _f(e2), "--N2", str(n2)),
                   levels=l1,
                   params={"label": f"equilibrate N{n1}/{n2}", "levels2": l2, "E1": e1, "E2": e2,
                           "N1": n1, "N2": n2, "kind": "equilibrate"})


def _sampling_round(g: _Gen, threads: int):
    """mc-verify with 1e6 samples and 512 bins; half the spectra degenerate."""
    env = {"QMCE_THREADS": str(threads)}
    for lo, hi in ((4, 7), (8, 11), (12, 16)):
        dim = g.pick(f"mc{lo}", lo, hi)
        levels = g.generic(dim)
        seed = g.rng.randrange(2**32)
        yield dict(check="mc_verify",
                   argv=("mc-verify", _levels_arg("--levels", levels), "--samples", "1e6", "--seed", str(seed)),
                   levels=levels, env=env, params={"label": f"mc-verify dim{dim}", "kind": f"mc-verify dim{lo}-{hi}"})
    for spins in (3, 4, 5):
        j, b, levels = g.ising(spins)
        seed = g.rng.randrange(2**32)
        yield dict(check="mc_verify",
                   argv=("mc-verify",) + g.ising_argv(spins, j, b) + ("--samples", "1e6", "--seed", str(seed)),
                   levels=levels, env=env, params={"label": f"mc-verify ising L{spins}", "kind": f"mc-verify ising L{spins}"})


def rounds(workload: str, seed: int, threads: int = 1):
    """Endless sequence of rounds (lists of Job) for workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    g = _Gen(seed, workload)
    next_id = 0
    while True:
        if workload == "tabulate":
            specs = list(_tabulate_round(g))
        elif workload == "ensembles":
            specs = list(_ensembles_round(g))
        else:
            specs = list(_sampling_round(g, threads))
        g.rng.shuffle(specs)
        batch = []
        for spec in specs:
            batch.append(Job(id=next_id, **spec))
            next_id += 1
        yield batch
