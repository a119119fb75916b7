"""Helpers shared by the tests."""

import csv
from pathlib import Path

import numpy as np


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """Parse a trajectory.csv back into one float array per column."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(names)}
