"""Exact-arithmetic toolkit for twisted doubles of finite groups and their
equivariant/orbifold module categories.

The package root exports nothing: import each name from the module that
defines it, such as `equidouble.doubles.sector_double` or
`equidouble.catalogue.load_extension`."""

__version__ = "0.1.0"
