"""Control signal representations."""

from __future__ import annotations

import numpy as np


class ZeroControl:
    """Identically zero control; lets integrators use exact exponentials."""

    def __init__(self, m: int):
        self.m = m
        self.is_zero = True

    def __call__(self, t):
        return np.zeros(self.m)


class CallableControl:
    """Control given by an arbitrary callable t -> m-vector."""

    def __init__(self, fn, m: int):
        self.fn = fn
        self.m = m
        self.is_zero = False

    def __call__(self, t):
        return np.atleast_1d(np.asarray(self.fn(t), dtype=float))

