"""csym: exact verification of discrete symmetries of the Maxwell and Dirac
equations, centered on the equivalence of charge conjugation and inversion of
the sign of the speed of light.

The package is organized as a small library:

* ``exact``      exact Gaussian-rational scalars, matrices, and elimination
* ``waves``      radicals, plane-wave records, and the plane-wave layer shared
                 by photons and electrons (exponent, Dirac residual, sums)
* ``gamma``      gamma-matrix sets: identity verification, conjugation spaces
* ``signgroup``  the order-8 coordinate sign group and the 16 field symmetries
* ``maxwell``    the field-equation system, invariance proofs, plane waves
* ``photon``     the 8-component Dirac form, photon states, C and Q conjugation
* ``electron``   the Dirac equation, transformation table, spinors, C and Q
* ``kinematics`` four-momentum arithmetic and the pair-creation threshold
* ``report``     the verification suite runner and report emitter
"""

from .exact import (
    ExactComplex,
    ExactMatrix,
    RowSpan,
    anticommutator,
    fraction_sqrt,
    matrix_rank,
    nullspace,
    rowspace_equal,
    solve,
)
from .waves import PlaneWaveFunction, Radical
from .signgroup import (
    GENERATORS,
    FieldOperator,
    GroupTable,
    build_field_operators,
    canonical_operators,
    classify_group,
    classical_conjugation_operator,
    enumerate_distinct,
    generate_g8,
    reduce_product,
    verify_relations,
)
from .maxwell import (
    LinearFieldSystem,
    PlaneWave,
    build_maxwell_system,
    check_invariance,
    classical_conjugate_wave,
    energy_poynting,
    plane_wave_residual,
    transform_system,
)
from .gamma import GammaIdentityError, GammaSet
from .photon import (
    PhotonState,
    apply_C_photon,
    apply_Q_photon,
    build_gamma8,
    currents,
    gamma5_product_check,
    photon_plane_wave,
    solve_conjugation_8,
)
from .electron import (
    ChargedEquation,
    DiracTransform,
    SpinorState,
    apply_C_spinor,
    apply_Q_spinor,
    build_gamma4,
    build_spinor,
    build_transform_table,
    conjugation_matrix,
    solve_UQ,
    spinor_norm,
    transform_charged_equation,
    verify_symmetry,
)
from .kinematics import (
    FourMomentum,
    infeasibility_scan,
    invariant_mass_sq,
    scalar_invariants,
    vacuum_transition_feasible,
)
from .report import VERSION as __version__
from .report import CheckResult, RunConfig, VerificationReport, emit, run
