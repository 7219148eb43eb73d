"""orbitcount: exact lattice censuses, smoothed orbital counts, and the
matching spectral-side evaluator on the rank-one model space, plus the flat
torus cross-check oracle."""

__version__ = "0.1.0"
