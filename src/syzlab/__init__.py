"""Exact-arithmetic workbench for invariant rings and graded syzygies.

Computes invariant rings of finite group representations over cyclotomic
fields, their graded Tor spaces via Koszul homology, syzygy degrees, and
audits the computed degrees against the known bounds (the open (p+1)g
conjecture, the representation-independent bound, and the cubic bound).
"""

__version__ = "0.1.0"
