"""csym: exact verification of discrete symmetries of the Maxwell and Dirac
equations, centered on the equivalence of charge conjugation and inversion of
the sign of the speed of light.  Each name is imported from its module:

* ``exact``      exact Gaussian-rational scalars, matrices, and elimination
* ``waves``      plane-wave records (one root times a Gaussian-rational vector)
                 and the layer photons and electrons share (exponent, residual)
* ``sampling``   seeded exact state data, vector arithmetic, the vector rule
* ``gamma``      gamma-matrix sets: identity verification, conjugation spaces
* ``signgroup``  the order-8 coordinate sign group and the 16 field symmetries
* ``maxwell``    the field-equation system, invariance proofs, plane waves
* ``photon``     the 8-component Dirac form, photon states, C and Q conjugation
* ``electron``   the Dirac equation, transformation table, spinors, C and Q
* ``kinematics`` four-momentum arithmetic and the pair-creation threshold
* ``report``     the verification suite runner and report emitter
* ``cli``        the ``csym verify`` command
"""
