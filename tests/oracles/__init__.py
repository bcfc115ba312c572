"""Frozen reference spellings the shipped kernels are compared against.

``src/`` keeps one implementation per function, so a second spelling
cannot drift from the shipped one unnoticed; what a kernel replaced lives
here, so the tests can go on saying "bit-identical
to what scipy did".
"""
