"""Lower algebraic K-theory of integral group rings of amalgams of finite
groups, with exact finite-group and integer-matrix machinery.

The package re-exports nothing: import from its modules, e.g.
``from lowerk.groups import build_group``.
"""
