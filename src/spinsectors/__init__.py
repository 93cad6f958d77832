"""Entanglement entropy statistics in SU(2) symmetry sectors of spin chains."""

__version__ = "0.1.0"

from .combinatorics import (
    HALF,
    ONE,
    MultiplicityTable,
    SectorLabel,
    SpinSpecies,
    admissible_two_j,
    hilbert_fraction,
    multiplicity,
    multiplicity_table,
    spin_half_multiplicity,
    spin_half_multiplicity_log,
    zero_magnetization_dim,
)
from .asymptotics import (
    SaddleData,
    fraction_peak_density,
    hilbert_fraction_asymptotic,
    log_multiplicity_saddle,
    multiplicity_rate,
    saddle_solve,
)
from .special import digamma
from .su2 import clebsch_gordan
from .ensembles import (
    EntropyEstimate,
    default_sample_count,
    ensemble_entropy_samples,
    entanglement_entropy,
    fixed_filling_average,
    haar_average_leading,
    max_spin_entropy_asymptotic,
    max_spin_state_entropy,
    page_average,
    paired_spin_crossover,
    random_state_average,
    sd1_semianalytic,
    sd2_average_closed,
    sd2_asymptotic,
    singlet_average_asymptotic,
    singlet_average_exact,
    slice_entanglement_entropy,
)
from .spectra import (
    ChainSpec,
    EigenstateRecord,
    diagonalize_and_resolve,
    eigenstate_entropy_average,
    gaussianity_average,
    gaussianity_of_vector,
)
