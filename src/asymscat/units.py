"""Dimensionless unit convention shared by every module.

Everything runs in hbar = 1, m = 1 with lengths measured in units of the
kernel half-width d.  Momenta are therefore k*d, kinetic energies k^2/2,
and kernel values come in the natural scale V0 = hbar^2 / (2 m d^3).
With the defaults below V0 = 1/2, so a stored kernel value v corresponds
to v / V0 = 2 v when comparing against plots normalised by V0.
"""

# Default support half-width of a kernel; kernels may carry their own d.
HALF_WIDTH = 1.0
