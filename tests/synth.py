"""Seeded synthetic datasets for metric and training tests."""

from __future__ import annotations

import random

import numpy as np

from fairsep import Schema
from fairsep.dataset import Table

GROUPS = ("F", "M")
CATS = ("A", "B", "C")
XP_LEVELS = (0, 100, 500, 1000, 5000, 10000)
XE_LEVELS = tuple(range(10, 100, 10))


def random_rows(rng: random.Random, n: int | None = None, mode: str = "hard"):
    """Random metric-test rows; both groups and two privilege levels forced."""
    n = n if n is not None else rng.randint(8, 32)
    rows = []
    for i in range(n):
        group = GROUPS[i] if i < 2 else rng.choice(GROUPS)
        xp = (0, 10000)[i] if i < 2 else rng.choice(XP_LEVELS)
        h = float(rng.randint(0, 1)) if mode == "hard" else rng.randint(0, 8) / 8.0
        rows.append({
            "group": group, "xp": xp, "xe": rng.choice(XE_LEVELS),
            "cat": rng.choice(CATS), "y": rng.randint(0, 1), "h": h,
        })
    return rows


PLANTED_SCHEMA = Schema.from_dict({
    "columns": [
        {"name": "group", "kind": "protected"},
        {"name": "x1", "kind": "numerical"},
        {"name": "x2", "kind": "numerical"},
        {"name": "y", "kind": "target"},
    ]
})


def planted_dp_table(n: int = 600, seed: int = 7) -> Table:
    """Outcome tied to group (70% vs 10% positive) and readable from x1."""
    rng = random.Random(seed)
    groups, x1, x2, y = [], [], [], []
    for i in range(n):
        g = GROUPS[i % 2]
        rate = 0.7 if g == "M" else 0.1
        label = 1 if rng.random() < rate else 0
        groups.append(g)
        y.append(label)
        x1.append(2.0 * label + rng.gauss(0.0, 0.4))
        x2.append(rng.gauss(0.0, 1.0))
    return Table(PLANTED_SCHEMA, {
        "group": np.array(groups, dtype=object),
        "x1": np.array(x1), "x2": np.array(x2),
        "y": np.array(y, dtype=np.int64),
    })


PRIVILEGE_SCHEMA = Schema.from_dict({
    "columns": [
        {"name": "group", "kind": "protected"},
        {"name": "xp", "kind": "numerical", "tags": ["privilege"]},
        {"name": "xe", "kind": "numerical", "tags": ["effort"]},
        {"name": "cat", "kind": "categorical"},
        {"name": "y", "kind": "target"},
    ]
})


def privilege_driven_table(n: int = 2000, seed: int = 11) -> Table:
    """Privilege deterministically drives the outcome: y = [xp >= 7000]."""
    rng = random.Random(seed)
    groups, xp, xe, cat, y = [], [], [], [], []
    for i in range(n):
        p_val = rng.randrange(10) * 1000
        groups.append(rng.choice(GROUPS))
        xp.append(float(p_val))
        xe.append(float(rng.randint(20, 60)))
        cat.append(rng.choice(("A", "B")))
        y.append(1 if p_val >= 7000 else 0)
    return Table(PRIVILEGE_SCHEMA, {
        "group": np.array(groups, dtype=object),
        "xp": np.array(xp), "xe": np.array(xe),
        "cat": np.array(cat, dtype=object),
        "y": np.array(y, dtype=np.int64),
    })
