"""Desk-scale laboratory for Bayesian phase estimation.

Simulates a two-qubit interferometric experiment (a controlled unitary
probed through an ancilla) under programmable noise, and runs two
estimators against it: rejection-filtering Bayesian inference with
adaptive experiment design, and textbook iterative bit-by-bit phase
estimation. The scenario harness turns JSON study descriptions into
reproducible CSV/JSON/SVG artifacts.
"""

from .calibration import (FitUnidentifiableError, FringeFit, FringeSample,
                          fit_fringe, fit_report_json, fit_report_text,
                          fringe_model, load_fringe_csv, phase_power_map,
                          power_for_phase, propagate_phase_uncertainty)
from .device import (CircuitInstance, FidelityPoint, NonUnitaryError,
                     StatePrepSpec, UnitarySpec, build_instance,
                     compose_power, eigenstate_prep, euler_angles,
                     fidelity_vs_noise, phase_gate_instance,
                     probability_from_phases, simulate_probability)
from .experiment import DeviceOracle, SyntheticOracle, device_oracle_for_phase
from .ipea import (BitRecord, IpeaConfig, bit_success_probability, ipea_run,
                   theta_feedback, write_bit_records_csv)
from .noise import (CountPair, MajorityVote, NoiseConfig, Sampled, SingleShot,
                    depolarize, perturb_phases, reduce_outcome, sample_counts,
                    strategy_from_name, strategy_name)
from .phases import (TWO_PI, ExperimentSetting, circular_distance, likelihood,
                     wrap_phase)
from .rfpe import (DegenerateUpdateError, GaussianBelief, InferenceTraceRow,
                   RfpeConfig, UpdateFailure, acceptance_probability,
                   grid_posterior, particle_guess, particle_guess_capped,
                   rejection_update, rfpe_run, write_trace_csv,
                   write_trace_json)
from .scenarios import (ConfigError, MolecularRecord, load_config,
                        load_molecular_table, run_scenario,
                        run_scenario_config, validate_config)
from .svgplot import Layer, PlotDataError, PlotSpec, emit_plot
from .voting import (VotingScenario, chernoff_bound, critical_signal,
                     effective_probability, exact_minority_tail,
                     expected_bad_bits, physical_t2)

__version__ = "0.1.0"

# The benchmark records this with every result. The rejection kernel has
# one implementation, the numpy one in `kernels.py`.
BACKEND = "python"

__all__ = [name for name in dir() if not name.startswith("_")]
