"""Seeded request lists for the benchmark workloads.

Maps are random descriptors from the hhalf map grammar: flows,
Moebius maps, rotations, two-factor compositions and, for the CLI
workload, inverse flows.  Nothing here asks the program what it makes
of a map; no map is ever dropped because of its outcome.

Two parameter ranges are used.  FULL is the grammar's range.  It
reaches the known conditioning and aliasing defects, and an untimed
accuracy pass runs it.  The timed request lists use narrower ranges,
chosen per cutoff so that the program accepts and gets right every
map (README.md gives the measurements behind them).  A timed run then
measures the same accepted work on every seed, and a fix that stops a
refusal cannot read as a slowdown.

Family counts are fixed and parameters are stratified (bandlimits
cycle, strengths and radii take one value from each of equal cells),
so each seed gives new maps but the same work mix.
"""

import json
from dataclasses import dataclass

import numpy as np

BASE_FAMILIES = (
    "flow",
    "moebius",
    "rotation",
    "flow.moebius",
    "moebius.flow",
    "flow.flow",
)
CLI_FAMILIES = BASE_FAMILIES + ("inverse",)


@dataclass(frozen=True)
class Ranges:
    strength: tuple  # (low, high) of max |eps * v'| of a flow
    radius: float  # largest |a| of a Moebius map
    bandlimit: int = 6


FULL = Ranges((0.05, 0.5), 0.5)
CLI_TIMED = Ranges((0.01, 0.1), 0.1)  # N = 32: an equivariance pair composes to <= 0.2
WIDE_TIMED = Ranges((0.003, 0.03), 0.03)  # N = 256: cond(A) <= 3e5 up to 0.03

# One cli-n32 block: four period requests, one each of the others.  The
# seven map slots of a block (4 period, 2 equivariance, 1 pullback-matrix)
# hold each family of CLI_FAMILIES once, the inverse flow in a period slot.
CLI_BLOCK = ("period",) * 4 + ("siegel-check", "equivariance", "pullback-matrix")
CLI_BLOCKS = 14
WIDE_PER_FAMILY = 2


class _Strata:
    """Stratified parameters for `count` members of one family.

    Each factor position gets its own spread: bandlimits cycle through
    1..bandlimit (a random subset of them for fewer members), and strengths and Moebius radii take one value from
    each of `count` equal cells, in random order.
    """

    def __init__(self, rng, count, ranges):
        self.rng = rng
        self.count = count
        self.ranges = ranges
        self.cells = {}

    def _take(self, key, make):
        if key not in self.cells:
            self.cells[key] = list(make())
        return self.cells[key].pop()

    def _spread(self):
        return (self.rng.permutation(self.count) + self.rng.random(self.count)) / self.count

    def flow(self, slot):
        rng = self.rng
        bands = np.resize(np.arange(1, self.ranges.bandlimit + 1), max(self.count, self.ranges.bandlimit))
        k = int(self._take(("band", slot), lambda: rng.permutation(bands)[: self.count]))
        low, high = self.ranges.strength
        strength = low + (high - low) * float(self._take(("strength", slot), self._spread))
        ks = np.arange(1, k + 1)
        c = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / ks**2
        theta = 2.0 * np.pi * np.arange(64 * k) / (64 * k)
        slope = 2.0 * np.real(np.exp(1j * np.outer(theta, ks)) @ (1j * ks * c))
        eps = strength / float(np.max(np.abs(slope)))
        entries = []
        for n, value in zip(ks, c):
            entries.append({"n": -int(n), "re": float(value.real), "im": -float(value.imag)})
            entries.append({"n": int(n), "re": float(value.real), "im": float(value.imag)})
        field = {"bandlimit": k, "real": True, "coeffs": entries}
        return {"type": "flow", "v": field, "eps": eps}

    def moebius(self, slot):
        radius = self.ranges.radius * float(self._take(("radius", slot), self._spread))
        a = radius * np.exp(2j * np.pi * float(self.rng.random()))
        beta = 2.0 * np.pi * float(self.rng.random())
        return {"type": "moebius", "a": {"re": float(a.real), "im": float(a.imag)}, "beta": beta}

    def rotation(self, slot):
        return {"type": "rotation", "alpha": 2.0 * np.pi * float(self.rng.random())}

    def draw(self, family):
        if family == "inverse":
            return {"type": "inverse", "of": self.flow(0)}
        maps = [getattr(self, part)(slot) for slot, part in enumerate(family.split("."))]
        return maps[0] if len(maps) == 1 else {"type": "compose", "maps": maps}


def members(rng, families, count, ranges):
    """family -> `count` stratified descriptors of that family."""
    pool = {}
    for family in families:
        strata = _Strata(rng, count, ranges)
        pool[family] = [strata.draw(family) for _ in range(count)]
    return pool


def cli_requests(seed, ranges=CLI_TIMED, stream=1):
    """The cli-n32 request list: argv lists for hhalf.cli.run_command.

    A siegel-check request reads the artifact of an earlier period
    request of its block, named by `source`; the argv is completed
    from that artifact when the request runs.
    """
    rng = np.random.default_rng([seed, stream])
    pool = members(rng, CLI_FAMILIES, CLI_BLOCKS, ranges)
    requests = []
    for block in range(CLI_BLOCKS):
        kinds = [CLI_BLOCK[i] for i in rng.permutation(len(CLI_BLOCK))]
        # The siegel-check goes after the block's first period request.
        kinds.remove("siegel-check")
        first = kinds.index("period")
        kinds.insert(first + 1 + int(rng.integers(len(kinds) - first)), "siegel-check")
        # The inverse flow always rides on a period request, so the tail
        # is the same kind of request on every seed.
        others = [f for f in CLI_FAMILIES if f != "inverse"]
        others = [others[i] for i in rng.permutation(len(others))]
        inverse_at = int(rng.integers(CLI_BLOCK.count("period")))
        base = len(requests)
        periods = 0
        for kind in kinds:
            if kind == "siegel-check":
                earlier = [i for i in range(base, len(requests)) if requests[i]["op"] == "period"]
                source = earlier[int(rng.integers(len(earlier)))]
                requests.append({"op": kind, "source": source, "families": []})
                continue
            if kind == "period":
                taken = ["inverse"] if periods == inverse_at else [others.pop()]
                periods += 1
            else:
                taken = [others.pop() for _ in range(2 if kind == "equivariance" else 1)]
            argv = [kind]
            for family in taken:
                argv += ["--map", json.dumps(pool[family][block], sort_keys=True)]
            requests.append({"op": kind, "argv": argv, "families": taken})
    return requests


def wide_requests(seed, ranges=WIDE_TIMED, stream=2):
    """The wide-256 request list: map descriptors for direct calls."""
    rng = np.random.default_rng([seed, stream])
    pool = members(rng, BASE_FAMILIES, WIDE_PER_FAMILY, ranges)
    pairs = [(family, d) for family in BASE_FAMILIES for d in pool[family]]
    return [{"op": "period", "map": pairs[i][1], "families": [pairs[i][0]]} for i in rng.permutation(len(pairs))]


def suite_requests(seed):
    """The suite workload: one invariance-suite pass at the run seed."""
    return [{"op": "invariance-suite", "argv": ["invariance-suite", "--seed", str(seed)], "families": []}]


def accuracy_requests(workload, seed):
    """The untimed accuracy pass: the timed list's shape over FULL ranges."""
    if workload == "cli-n32":
        return cli_requests(seed, FULL, stream=3)
    if workload == "wide-256":
        return wide_requests(seed, FULL, stream=4)
    return []


def family_shares(requests):
    """Measured share of each map family over a request list."""
    tally = {}
    for request in requests:
        for family in request["families"]:
            tally[family] = tally.get(family, 0) + 1
    total = sum(tally.values())
    return {name: tally[name] / total for name in sorted(tally)} if total else {}
