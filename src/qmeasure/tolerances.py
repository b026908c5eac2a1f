"""Central table of numerical tolerances.

Every tolerance used anywhere in the package lives here, and no check takes
one as a parameter: each kind of check has a single knob.
"""

HERMITICITY = 1e-10      # |m - m†| for inputs required to be Hermitian
ORTHONORMALITY = 1e-9    # pairwise <v_i|v_j> deviation from delta_ij
RECONSTRUCTION = 1e-9    # spectral / Schmidt reconstruction residuals
NORMALIZATION = 1e-10    # | ||v|| - 1 | for state vectors

DEGENERACY_GAP = 1e-8    # eigenvalue gap at or below which neighbours share one spectral term
DETECTABILITY = 1e-12    # probability below which an outcome counts as null
REPEATABILITY = 1e-9     # max |A_k - P_k A_k|_F for a repeatable family
TRANSFORMER = 1e-9       # completeness and PVM checks on transformer families
GS_SKIP = 1e-8           # Gram-Schmidt residual below which a basis vector is skipped

SCHMIDT_CUTOFF = 1e-12   # squared Schmidt coefficients below this are dropped
PHASE_PIVOT = 1e-8       # smallest component modulus usable as a phase pivot
DEFINITE_VALUE = 1e-8    # |P v - v| bound for assigning a definite outcome

DISTRIBUTION_NEG = 1e-12  # most negative admissible probability entry
DISTRIBUTION_SUM = 1e-9   # |sum p - 1| bound for probability lists
ENTROPY_CUTOFF = 1e-12    # eigenvalues below this contribute no entropy
ENTROPY_NEG_FLOOR = -1e-10  # eigenvalues above this are clamped to zero, below: error

PRC = 1e-10              # probability reproducibility deviation
KRAUS_CONSISTENCY = 1e-10  # conditional-state agreement between representations
REPEAT_CERTAINTY = 1e-10   # 1 - min conditional repeat probability
COMMUTATOR = 1e-10       # commutator norms that must vanish after measurement
THEOREM = 1e-9           # entropy identity checks; worst 3.8e-15 in batch --seeds 0..99 --d1-max 36 --outcomes-max 9

STATE_RENORM = 1e-6      # parse-time renormalization window for amplitudes
