"""Orthogonal-polynomial coefficient transforms on the real line and the
unit circle, linked by the Szego map, with every perturbation family
cross-validated against a brute-force route.

Import each name from its module, e.g.
``from ortho_szego.szego import geronimus_forward``.  ``import ortho_szego``
loads no submodule, so a CLI run compiles only the modules its command uses.
"""

__version__ = "0.1.0"
