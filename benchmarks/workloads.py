"""Seeded request lists for the kpell benchmark.

Each workload is a list of ``kpell`` argv lists.  The seed picks parameters
that change the argv but not the amount of work: sizes move by at most half a
percent (where the seed picks k, n follows it to keep the digit count), sweep
grids keep their check count, and the request order is shuffled.  ``scale``
shrinks every size for smoke tests; the benchmark itself runs at scale 1.

Every workload also carries a few tiny requests so that each traced layer is
touched on each workload; they cost about one process start each.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("bigterm", "sweep", "matrix")
DEFAULT_SEED = 1

# k values with 1+k not a perfect square: for a square, QuadNum values turn
# rational and Binet or d'Ocagne work gets cheaper for some seeds.
NONSQUARE_K = (1, 2, 4, 5, 6)


def _digits_per_index(k: int) -> float:
    return math.log10(1 + math.sqrt(1 + k))


class _Gen:
    def __init__(self, workload: str, seed: int, scale: float):
        self.rng = random.Random(f"{workload}:{seed}")
        self.scale = scale

    def jitter(self, size: float, floor: int) -> int:
        """``size`` scaled and moved by at most 0.5%, never below ``floor``."""
        return max(floor, round(size * self.scale * self.rng.uniform(0.995, 1.005)))

    def index_for_digits(self, digits: float, k: int, floor: int = 3) -> int:
        return max(floor, round(self.jitter(digits, 1) / _digits_per_index(k)))

    def grid(self, n: int, floor: int = 2) -> int:
        return max(floor, round(n * self.scale))


def _bigterm(g: _Gen) -> list[list[str]]:
    rng = g.rng
    k_json = rng.choice(NONSQUARE_K[1:])
    return [
        # The two largest requests cost about the same, so the p90 request
        # falls between them rather than between requests of different cost.
        ["eval", "--kind", "P", "--k", "1", "--n", str(g.jitter(8e5, 3)), "--method", "fast"],
        ["eval", "--kind", "P", "--k", str(k_json), "--n", str(g.index_for_digits(2e5, k_json)),
         "--method", "fast", "--format", "json"],
        # Binet's square-and-multiply cost follows the high bits of n, so k
        # and bits 13 and up stay fixed under the jitter (about 10^5 digits).
        ["eval", "--kind", "P", "--k", "2", "--n", str(g.jitter(0b110111 << 12, 3)), "--method", "binet"],
        ["eval", "--kind", "G", "--k", "4", "--a", str(rng.randint(2, 9)),
         "--n", str(g.jitter(0b101111 << 12, 3)), "--method", "binet"],
        # At a fixed n the cost of these grows with k, so k is fixed.
        ["eval", "--kind", "G", "--k", "2", "--a", str(rng.randint(2, 9)), "--n", str(g.jitter(6e4, 3))],
        ["eval", "--kind", "P", "--k", "1", "--n", str(g.jitter(4000, 3)), "--method", "binomial"],
        ["eval", "--kind", "G", "--k", "2", "--a", str(rng.randint(1, 5)), "--n", str(g.jitter(3500, 2)),
         "--method", "double-sum"],
        ["bench", "--k", "1", "--n", str(g.jitter(3.2e6, 1)), "--method", "fast"],
        # touches: inverse, render, theta/phi, cofactor, Bareiss, d'Ocagne, JSON report
        ["matrix", "--kind", "P", "--k", str(rng.choice(NONSQUARE_K)), "--n", "12",
         "--show", "inverse"],
        ["verify", "--identities", "docagne,cofactor-dets", "--k-max", "1", "--a-max", "1",
         "--n-max", "3", "--format", "json"],
    ]


# (a_max, k_max) pairs with a fixed product, so the check count of an
# identity summed over a and k does not depend on the seed.
_AK_PAIRS = ((2, 6), (3, 4), (4, 3), (6, 2))
# d'Ocagne is cheaper when 1+k is a square; these two pairs cost the same.
_DOCAGNE_PAIRS = ((2, 6), (3, 4))
# cofactor-dets makes k_max * (a_max + 1) checks per order.
_COFACTOR_PAIRS = ((1, 12), (2, 8), (3, 6), (5, 4))


def _sweep(g: _Gen) -> list[list[str]]:
    rng = g.rng

    def verify(identity: str, n_max: int, pairs=None, k_max: int = 4) -> list[str]:
        a_max, k = rng.choice(pairs) if pairs else (1, k_max)
        argv = ["verify", "--identities", identity, "--k-max", str(k)]
        if pairs:
            argv += ["--a-max", str(a_max)]
        return argv + ["--n-max", str(g.grid(n_max))]

    k = str(rng.choice(NONSQUARE_K))
    return [
        verify("catalan", 38, _AK_PAIRS),
        verify("cassini", 260, _AK_PAIRS),
        # Four equal d'Ocagne sweeps rather than one large one: the p90
        # request then falls inside this group, which is sampled four times
        # per pass, rather than on one request sampled once.
        *(verify("docagne", 17, _DOCAGNE_PAIRS) for _ in range(4)),
        verify("partition", 38, _AK_PAIRS),
        verify("cofactor-dets", 8, _COFACTOR_PAIRS),
        verify("convolution1", 38),
        verify("convolution2", 36),
        verify("squares1", 380, k_max=6),
        verify("squares2", 380, k_max=6),
        ["verify", "--format", "json"] if g.scale == 1 else
        ["verify", "--k-max", "2", "--a-max", "2", "--n-max", str(g.grid(30)), "--format", "json"],
        # touches: doubling, Binet, binomial sum, inverse and its rendering
        ["eval", "--kind", "P", "--k", k, "--n", "1500", "--method", "fast"],
        ["eval", "--kind", "G", "--k", k, "--a", "2", "--n", "300", "--method", "binet"],
        ["eval", "--kind", "P", "--k", k, "--n", "300", "--method", "binomial"],
        ["matrix", "--kind", "G", "--k", k, "--a", "2", "--n", "12", "--show", "inverse"],
    ]


def _matrix(g: _Gen) -> list[list[str]]:
    rng = g.rng
    # (show, kind, k, n, format); entry sizes grow with k, so k is fixed and
    # the seed moves n by at most half a percent, a, and the order.  The first
    # four cost about the same, so the p90 request falls inside that group
    # rather than between two requests of different cost.
    plan = (
        ("inverse", "P", 1, 175, "text"),
        ("inverse", "G", 2, 180, "json"),
        ("inverse", "Q", 2, 165, "text"),
        ("cofactor", "P", 2, 300, "text"),
        ("inverse", "q", 1, 100, "json"),
        ("inverse", "P", 2, 80, "json"),
        ("cofactor", "G", 1, 180, "json"),
        ("cofactor", "G", 2, 120, "text"),
        ("cofactor", "P", 1, 60, "json"),
        ("theta-phi", "P", 1, 220, "text"),
        ("theta-phi", "Q", 5, 200, "json"),
        ("theta-phi", "G", 2, 160, "text"),
        ("matrix", "q", 2, 150, "text"),
        ("matrix", "G", 1, 220, "json"),
        ("matrix", "Q", 1, 100, "text"),
        ("inverse", "G", 1, 60, "text"),
    )
    out = []
    for show, kind, k, n, fmt in plan:
        argv = ["matrix", "--kind", kind, "--k", str(k)]
        if kind == "G":
            argv += ["--a", str(rng.randint(2, 4))]
        out.append(argv + ["--n", str(g.jitter(n, 2)), "--show", show, "--format", fmt])
    # touches: doubling, Binet, binomial sum, d'Ocagne, Bareiss, JSON report
    k = str(rng.choice(NONSQUARE_K))
    out += [
        ["eval", "--kind", "P", "--k", k, "--n", "1500", "--method", "fast"],
        ["eval", "--kind", "P", "--k", k, "--n", "300", "--method", "binet"],
        ["eval", "--kind", "G", "--k", k, "--a", "2", "--n", "300", "--method", "double-sum"],
        ["verify", "--identities", "docagne,cofactor-dets", "--k-max", "1", "--a-max", "1",
         "--n-max", "3", "--format", "json"],
    ]
    return out


_GENERATORS = {"bigterm": _bigterm, "sweep": _sweep, "matrix": _matrix}


def requests(workload: str, seed: int, scale: float = 1.0) -> list[list[str]]:
    """The argv lists of one pass over ``workload``, in the order they run."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    g = _Gen(workload, seed, scale)
    reqs = _GENERATORS[workload](g)
    g.rng.shuffle(reqs)
    return reqs
