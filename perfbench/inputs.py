"""Seeded input generators owned by the benchmark.

Every workload draws its inputs here, from ``random.Random(seed)``, and never
from ``combstab.oracles``: when the package's own generators change, the
benchmark inputs stay put.  Inputs are plain tuples and JSON-ready dicts so
that the same draw can feed the library (``batch``) and the CLI (``corpus``,
``scale``).

An instance is ``(genera, rank, multidegree, weights)`` with ``weights`` a
tuple of Fractions summing to 1.  A pair is ``(genera, rank, sections,
multidegree, kernel_dims, flags)`` with ``flags`` the three assumption flags
in the order of :data:`FLAG_NAMES`.
"""

from __future__ import annotations

import random
from fractions import Fraction

FLAG_NAMES = ("general_linear_series", "butler_conjecture", "components_general_in_moduli")


def draw_weights(rng: random.Random, num: int, max_den: int) -> tuple[Fraction, ...]:
    """``num`` positive weights a_j/D with a common denominator D, summing to 1."""
    den = rng.randint(num, max_den)
    cuts = sorted(rng.sample(range(1, den), num - 1))
    return tuple(Fraction(b - a, den) for a, b in zip((0, *cuts), (*cuts, den)))


def shapes(count: int) -> list[tuple[int, int]]:
    """(N, rank) for ``count`` small inputs: every N in 2..6 with every rank in
    1..4, equally often.  The shape mix then does not vary with the seed, so
    neither does the cost of a pass; the seed draws everything else."""
    return [(2 + i % 5, 1 + (i // 5) % 4) for i in range(count)]


def draw_instance(rng: random.Random, num: int, rank: int):
    """Small instance in the range the CLI user meets: N <= 6, |d| <= 20, rank <= 4."""
    genera = tuple(rng.randint(0, 5) for _ in range(num))
    degrees = tuple(rng.randint(-20, 20) for _ in range(num))
    return genera, rank, degrees, draw_weights(rng, num, 64)


def draw_pair(rng: random.Random, num: int, rank: int):
    """Valid generated pair; the assumption flags are drawn too.

    Zero kernels are drawn often enough, and the flags independently, so
    that ``characterize`` reaches every verdict, including
    ExistsSemistablePolarization.
    """
    genera = tuple(rng.randint(2, 5) for _ in range(num))
    sections = rank + rng.randint(1, 5)
    if rng.randrange(3) == 0:
        kernel_dims = [0] * num
    else:
        kernel_dims = [rng.randint(1, sections - rank) if rng.randrange(3) == 0 else 0 for _ in range(num)]
        if kernel_dims[-1] > 0 and not any(kernel_dims[:-1]):
            kernel_dims[0] = 1
    degrees = []
    for k in kernel_dims:
        if rng.randrange(5) == 0:
            degrees.append(0)
        else:
            floor = max(2, sections - k - rank)
            degrees.append(rng.randint(floor, floor + 20))
    flags = tuple(rng.random() < 0.5 for _ in FLAG_NAMES)
    return genera, rank, sections, tuple(degrees), tuple(kernel_dims), flags


def wide_instance(rng: random.Random, num: int, rank: int):
    """Large-N instance with random degrees: most teeth fail the inequalities."""
    genera = tuple(rng.randint(0, 3) for _ in range(num))
    degrees = tuple(rng.randint(-20, 20) for _ in range(num))
    return genera, rank, degrees, draw_weights(rng, num, 8 * num)


def tight_bundle(rng: random.Random, num: int, big: int):
    """Tight feasible family: genera 0, rank 1, tooth degrees near -big, spine N-3.

    chi is negative for every draw, so the strict region is feasible, but
    each tooth interval has width 1/|chi| and the independent simplest picks
    overshoot the simplex.
    """
    degrees = tuple(-big - rng.randint(0, 999) for _ in range(num - 1)) + (num - 3,)
    return (0,) * num, 1, degrees


def _ratio_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def bundle_document(genera, rank, degrees, weights=None, with_eulers=False) -> dict:
    doc: dict = {"curve": {"genera": list(genera)}, "bundle": {"rank": rank, "multidegree": list(degrees)}}
    if with_eulers:
        eulers = [d + rank * (1 - g) for g, d in zip(genera, degrees)]
        doc["bundle"]["component_eulers"] = eulers
        doc["bundle"]["euler"] = sum(eulers) - rank * (len(genera) - 1)
    if weights is not None:
        doc["polarization"] = {"weights": [_ratio_text(w) for w in weights]}
    return doc


def pair_document(genera, rank, sections, degrees, kernel_dims, flags) -> dict:
    return {
        "curve": {"genera": list(genera)},
        "pair": {
            "rank": rank,
            "sections": sections,
            "multidegree": list(degrees),
            "kernel_dims": list(kernel_dims),
            "assumptions": dict(zip(FLAG_NAMES, flags)),
        },
    }
