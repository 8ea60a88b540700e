"""Regenerative Markov chain toolkit.

Simulates the split chain attached to a minorization condition,
extracts regeneration blocks and excursion sums, evaluates explicit
Bernstein-type tail bounds, and verifies those bounds against Monte
Carlo and exact enumerated tails on small chains.
"""

from .bounds import (EVALUATORS, BernsteinParams, BoundValue, bbi_constants,
                     classical_bernstein, iid_unbounded, kp_constant,
                     m_cutoff, one_dep_bounded, one_dep_stopped, one_dep_sup,
                     param_bounds_from_drift, psi1_bernstein,
                     random_sum_bound, regen_count_psi1,
                     regen_count_psi1_coarse, regen_count_tail,
                     regen_count_threshold, stopped_b_factor, thm_bi,
                     thm_bi2, thm_sbi)
from .chain_models import (ChainInstance, Functional, MinorizationSpec,
                           SingularMod1Chain, TransitionKernel, chain_from_dict,
                           chain_to_dict, load_chain, make_chain,
                           make_singular_mod1, make_two_state,
                           resolve_functional, sample_path, save_chain,
                           stationary_distribution, tv_decay_curve,
                           validate_minorization)
from ._io import write_json
from .errors import GuardError
from .orlicz import (OrliczEstimate, conditional_mean_norm_factor,
                     lemma_bp_bridge, moment_bound, product_norm_bound,
                     psi_alpha_via_psi1, psi_norm_empirical, quasi_triangle,
                     tail_conditional, tail_from_norm)
from .split_regen import (BlockDecomposition, SplitMeasure, SplitTrajectory,
                          block_decompose, count_regenerations, excursions,
                          extract_blocks, functional_values, gap_lengths,
                          regeneration_times, simulate_split, split_measure,
                          trajectory_summary, trajectory_to_csv)
from .variance import (VarianceEstimate, mean_excursion_value,
                       sigma_inf_from_excursions, sigma_mrv_batch,
                       sigma_mrv_cov_series, sigma_mrv_exact,
                       sigma_mrv_regenerative, two_state_sigma_mrv)
from .exact import (BlockMarkovCheck, TailCurve, check_block_markov,
                    exact_gap_distribution, exact_gap_psi1,
                    exact_regeneration_count_tail, exact_tail)
from .verify import (BlockStructureReport, BoundCurve, DominationVerdict,
                     FittedParams, PitmanCheck, StructuralTestResult,
                     TwoBlockSample, VerificationReport,
                     block_structure_tests, bound_curves,
                     check_block_structure, check_domination, check_pitman,
                     collect_excursions, fit_bernstein_params, mc_tail,
                     report_to_dict, run_verification,
                     structure_report_to_dict, tail_curve_to_dict,
                     two_block_factor, two_block_sup_tail, write_curves_csv)

__version__ = "0.1.0"
