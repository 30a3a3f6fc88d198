"""Defaults of the numerical modules that the command line shows in its help.

They live apart from numpy, so the parser reads them without loading
the modules that use them.
"""

_DEFAULT_TOL = 1e-7  # check_dirac's verdict tolerance
_DEFAULT_KERNEL_WIDTH = 6.0  # mollifier Fourier half-width, a margin below 2*pi
