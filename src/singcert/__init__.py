"""Numerical certification of singular extremals in minimum-time problems.

Subpackages cover control-affine systems on matrix groups, the reference
singular arc (the drift orbit with zero control) and its necessary
conditions, singular-surface geometry with the dominating Hamiltonian
certificate, second-variation coercivity tests, an empirical falsifier,
and a small CLI.
"""

__version__ = "0.1.0"
