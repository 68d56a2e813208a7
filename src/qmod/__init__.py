"""Exact quadric-rank and moduli-divisor workbench.

Everything runs over the rationals or a large prime field: no floats,
no approximation.  The modules are the public surface: each name is
imported from the module that defines it (``from qmod.picard import
quad_class``), and the package root binds nothing but its submodules, so
importing one layer loads only that layer and what it imports.
"""
