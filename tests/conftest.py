import datetime
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for the shared oracles module


def pytest_configure(config):
    """Register "long", a longer run of the property tests chosen with --hypothesis-profile=long.

    The default profile stays as it is.  Hypothesis is imported here, not with the module, because
    bench/workloads.py imports this module for its surrogates and its memory is measured.
    """
    from hypothesis import settings

    settings.register_profile("long", max_examples=2000)


def month_starts(start: datetime.date, count: int, step_months: int) -> list[str]:
    """ISO dates of the first of every step_months-th month."""
    dates = []
    year, month = start.year, start.month
    for _ in range(count):
        dates.append(f"{year:04d}-{month:02d}-01")
        month += step_months
        year += (month - 1) // 12
        month = (month - 1) % 12 + 1
    return dates


def write_fred_csv(path: Path, series_id: str, dates: list[str], values) -> Path:
    lines = [f"DATE,{series_id}"]
    lines += [f"{d},{v}" for d, v in zip(dates, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def split_levels(count: int = 300) -> np.ndarray:
    """Levels near 0.49, the last three near -0.49: finite times 2**1025, but three demeaned values are not."""
    rng = np.random.default_rng(1)
    return np.concatenate([0.49 + 0.001 * rng.random(count - 3), -0.49 - 0.001 * rng.random(3)])


def growing_variance_levels(count: int, seed: int, ar: float = 0.3) -> np.ndarray:
    """Levels whose first differences have a smoothly increasing variance."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, count)
    sigma = 1.0 + 4.0 * (t / (count - 1.0)) ** 2
    increments = np.empty(count - 1)
    previous = 0.0
    for i in range(count - 1):
        previous = ar * previous + sigma[i] * rng.standard_normal()
        increments[i] = previous
    levels = np.concatenate([[100.0], 100.0 + np.cumsum(increments)])
    return np.round(levels, 4)
