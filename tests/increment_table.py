"""The (n, K+1) budget-increment table that tests compare against their references."""

import numpy as np


def increment_table(budget) -> np.ndarray:
    """Every agent's increment at every k = 0..K: ``budget.increment_blocks()`` joined in order."""
    return np.concatenate([block for _, block in budget.increment_blocks()], axis=1)
