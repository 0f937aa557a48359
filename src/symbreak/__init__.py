"""Symmetry breaking for finite-domain problems under pluggable orderings.

Import names from the submodules (`symbreak.model`, `symbreak.orderings`,
`symbreak.symmetry`, ...); importing one loads only what it depends on.
"""

__version__ = "0.1.0"
