import os
from pathlib import Path

import numpy as np
import pytest

from asymscat.kernels import PolynomialKernel, SampledKernel


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def cli_env():
    """Environment for ``python -m asymscat`` subprocesses.

    The subprocesses run in temporary directories, so a relative
    ``PYTHONPATH=src`` no longer points at the package; put the absolute
    source path first.
    """
    env = dict(os.environ)
    paths = [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def random_poly_surface(rng, n=401, d=1.0, degree=4, scale=1.0):
    """Smooth random complex kernel sampled from a low-order polynomial
    surface; smooth enough for every quadrature order used in tests."""
    g = np.linspace(-d, d, n)
    c = scale * (rng.normal(size=(degree + 1, degree + 1))
                 + 1j * rng.normal(size=(degree + 1, degree + 1)))
    vals = np.polynomial.polynomial.polyval2d(*np.meshgrid(g, g, indexing="ij"), c)
    return SampledKernel(g, vals, is_local=False)


def random_poly_kernel(rng, degree=4, d=1.0, scale=1.0):
    c = scale * (rng.normal(size=(degree + 1, degree + 1))
                 + 1j * rng.normal(size=(degree + 1, degree + 1)))
    return PolynomialKernel(c, d=d)


def random_local_kernel(rng, n=401, d=1.0, scale=1.0, complex_part=True):
    g = np.linspace(-d, d, n)
    c = scale * rng.normal(size=5)
    prof = np.polynomial.polynomial.polyval(g, c).astype(complex)
    if complex_part:
        prof = prof + 1j * np.polynomial.polynomial.polyval(g, scale * rng.normal(size=5))
    return SampledKernel(g, prof, is_local=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def square_well_analytic(k, depth=-1.0, a=1.0):
    """Closed-form amplitudes for V(x) = depth on [-a, a] (two-interface
    matching); q is the interior wavenumber sqrt(k^2 - 2 depth)."""
    q = np.sqrt(k * k - 2.0 * depth + 0j)
    D = np.cos(2 * q * a) - 1j * (k * k + q * q) / (2 * k * q) * np.sin(2 * q * a)
    T = np.exp(-2j * k * a) / D
    R = T * 1j * (q * q - k * k) / (2 * k * q) * np.sin(2 * q * a)
    return T, R
