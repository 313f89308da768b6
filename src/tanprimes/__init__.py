"""Desk-scale experiments on ternary sums of floor(p^c tan^theta(log p))."""

from .asymptotics import (
    BandComparison,
    band_stats,
    classical_main_term,
    compare_report,
    grid_weights,
    main_term,
    singular_integral,
    weight_convolution,
)
from .circle import (
    circle_integral,
    fourier_coeff,
    fourier_expansion_residual,
    integer_exp_sum,
    prime_exp_sum,
    smooth_exp_sum,
)
from .exponents import (
    Rational,
    admissible_c,
    cutoffs,
    derivation_chain,
    gk_exponent,
    minor_arc_exponent,
)
from .primesieve import PrimeBlock, sieve_segment
from .repcount import (
    BandScan,
    PairMap,
    RepReport,
    build_pair_map,
    count_classical,
    count_ternary_mitm,
    count_ternary_naive,
    find_binary,
    scan_band,
)
from .seqeval import ValueEntry, ValueTable, floor_value, frac_norm, value_table
from .window import (
    WindowParams,
    forward_map,
    image_interval,
    invert_map,
    solve_for_target,
    weight,
    window_from_index,
)

__version__ = "0.1.0"
