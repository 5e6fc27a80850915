"""tiling-forge: exact machinery for N-tilings of a triangle by a 120-degree tile.

Subpackages and modules:

- ``exactnum``: rationals, Q(sqrt3), cyclotomic rings.
- ``tilealgebra``: the tile's exact trigonometry and edge relations.
- ``constraints``: vertex splittings, boundary compositions, area counts.
- ``lemmalab``: a named, runnable suite of exact identity checks.
- ``search``: exhaustive exact-coordinate tiling search plus an
  independent certificate checker and SVG renderer.
- ``cli``: the ``tiling-forge`` command line tool.
"""

__version__ = "0.1.0"
