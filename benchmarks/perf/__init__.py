"""The repo's wall-clock benchmark (see README.md in this directory).

Import-light on purpose: fresh-interpreter children time ``import repro``
themselves, so nothing here may import NumPy or the library.
"""
