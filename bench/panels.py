"""Seeded priority panels for the CLI benchmark.

A panel is a (K, n) array of priority vectors: one row per decision-maker
(DM), one column per criterion. Every generated panel is a mixture of a few
Dirichlet groups plus a share of deviant DMs drawn uniformly on the simplex,
so K-means has groups to find and AWGMM has DMs to down-weight. All draws come
from one ``numpy.random.Generator`` seeded by the benchmark's ``--seed``; the
program under test sees only the CSV files written here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# Dirichlet parameter of every group centre
CENTER_ALPHA = 3.0


@dataclass(frozen=True)
class PanelSpec:
    """Make-up of one generated panel.

    Each group's centre is drawn from Dirichlet(``CENTER_ALPHA``); a member
    of a group is drawn from Dirichlet(``concentration`` * centre + 1). The
    +1 keeps every Dirichlet parameter at least 1, so no weight underflows to
    an exact zero (which the loader rejects). ``deviants`` rows are drawn from
    Dirichlet(1, ..., 1), the uniform law on the simplex.
    """

    name: str
    dms: int
    criteria: int
    groups: int
    concentration: float
    deviants: int


def generate(spec: PanelSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.criteria
    centers = rng.dirichlet(np.full(n, CENTER_ALPHA), size=spec.groups)
    members = spec.dms - spec.deviants
    sizes = np.full(spec.groups, members // spec.groups)
    sizes[: members % spec.groups] += 1
    rows = [
        rng.dirichlet(spec.concentration * center + 1.0, size=size)
        for center, size in zip(centers, sizes)
    ]
    rows.append(rng.dirichlet(np.ones(n), size=spec.deviants))
    panel = np.concatenate(rows)
    return panel[rng.permutation(spec.dms)]


def write_csv(path, panel: np.ndarray) -> None:
    """Header c1..cn, then one row per DM; ``repr`` keeps every float exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow([f"c{i + 1}" for i in range(panel.shape[1])])
        out.writerows([repr(float(v)) for v in row] for row in panel)


def read_csv(path) -> np.ndarray:
    """The panel as the checks see it: rows closed to unit sum."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    values = np.array([[float(cell) for cell in row] for row in rows])
    return values / values.sum(axis=1, keepdims=True)
