"""Bounds and feasible solutions for the maximum k-colorable subgraph
problem.  The top level is the library API of README's example; every
other name is imported from its module (``mkcs.graph``, ``mkcs.cuts``, ...)."""

from .cpadmm import AdmmParams, cp_admm
from .graph import parse_dimacs
from .intadmm import int_admm

__all__ = ["AdmmParams", "cp_admm", "int_admm", "parse_dimacs"]

__version__ = "0.1.0"
