"""Numerical ergodic theory on explicitly constructible systems.

Multiple ergodic averages (Birkhoff, linear patterns, two-parameter squares,
cubes, Folner boxes), Host-Kra seminorms, van der Corput diagnostics, and
empirical self-joinings with their fiber decompositions -- every quantity
computed both by orbit streaming and by an exact character-algebra oracle,
and cross-validated.
"""

from .averaging import (AverageTrajectory, FolnerBox, IteratedMap,
                        birkhoff_average, convergence_diagnostic,
                        cube_average, cube_eps_index, folner_average,
                        geometric_checkpoints, is_tempered, linear_trajectory,
                        multilinear_average_linear, multilinear_average_square,
                        square_trajectory, temperedness_margins)
from .config import ExperimentConfig, format_config, parse_config
from .errors import (CommutationError, DimensionMismatchError,
                     FrequencyOverflowError, ResourceCapError, ValidationError)
from .joinings import (EmpiricalMeasure, ap_fiber_integral,
                       ap_subtorus_integral, character_box,
                       decomposition_consistency, dump_cloud,
                       empirical_self_joining, fiber_measure,
                       integrate_tensor, integrate_tensors, load_cloud)
from .observables import (Observable, compose_with_power, conjugate, evaluate,
                          format_observable, integral_haar, multiply,
                          parse_observable)
from .rng import SplitMix64
from .runner import run_experiment
from .seminorms import (BoundCheck, SeminormEstimate, VdcReport, hk_seminorm,
                        multilinear_norm_bound_check, seminorm_ladder,
                        van_der_corput_check)
from .systems import (GOLDEN, SQRT2_M1, SQRT3_M1, DynamicalSystem,
                      ErgodicityCertificate, HeisenbergTranslation, Rotation,
                      SkewProduct, ToralAutomorphism, cat_map,
                      default_heisenberg, ergodicity_certificate,
                      golden_rotation, orbit_points, reduce_mod_lattice,
                      standard_skew, step, system_from_kv, system_to_kv)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
