"""asymscat: 1D quantum scattering by complex, generally nonlocal
potentials.

The package computes exact transmission/reflection amplitudes for left
and right incidence (and for the adjoint Hamiltonian), classifies
kernels by the eight Klein-group symmetries to predict which scattering
asymmetries are possible, inverse-designs polynomial kernels realizing
the extreme asymmetric devices, and builds the Born-approximation
broadband one-way reflector.

Everything runs in hbar = m = 1 units with lengths in units of the
kernel half-width d (see ``asymscat.units``).
"""

__version__ = "0.1.0"

from .born import (
    BornPrediction,
    born_prediction,
    born_reflections,
    design_broadband_reflector,
    graded_mesh,
    reflector_config,
    tune_alpha,
)
from .design import (
    DEFAULT_TARGETS,
    DesignResult,
    DeviceSpec,
    design_device,
    verify_design,
)
from .errors import (
    AdjointDivergenceError,
    AsymscatError,
    BracketingError,
    DesignError,
    ForbiddenDeviceError,
    KernelFormatError,
    SingularSystemError,
    VerificationError,
)
from .kernel_io import kernel_from_dict, kernel_to_dict, load_kernel, save_kernel
from .kernels import (
    SYMMETRY_CODES,
    PolynomialKernel,
    RegularizedInverseSquare,
    SampledKernel,
    adjoint,
    fourier_transform_local,
)
from .solver import (
    ScatteringAmplitudes,
    SolverConfig,
    SweepTable,
    generalized_unitarity_residuals,
    hatted_from_unhatted,
    k_sweep,
    scatter,
    scatter_all,
    scatter_oracle_all,
)
from .symmetry import (
    DEVICE_CODES,
    EQUIVALENT_PAIRS,
    FORBIDDING_SYMMETRIES,
    AmplitudeRelation,
    DeviceVerdict,
    SymmetryReport,
    allowed_devices,
    check_symmetries,
    equivalence_table_check,
    predicted_amplitude_relations,
    symmetrize,
    transformed_amplitudes,
)
