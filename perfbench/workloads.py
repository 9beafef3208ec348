"""Workloads, reference outputs and expected spans of the qflow benchmark.

Standard library only: the orchestrator imports this module without
loading numpy.  Paths are relative to the root of the checkout.
"""

# One experiment: (label, config path, name of its time metric).
WORKLOADS = {
    # Almost all time in pde2d.  energy-decay is the explicit path, which
    # bypasses the IMEX Helmholtz solve while sharing rhs_pq and the
    # monitors; smallness-128 has 4x the working set of smallness.
    "rect": (
        ("smallness", "configs/smallness.cfg", "smallness_s"),
        ("smallness-128", "perfbench/configs/smallness-128.cfg", "smallness_128_s"),
        ("energy-decay", "configs/energy-decay.cfg", "energy_decay_s"),
        ("continuous-dependence", "configs/continuous-dependence.cfg",
         "continuous_dependence_s"),
    ),
    # Almost all time in radial.  The search reads only the blow-up flag of
    # each run; blowup writes every per-step monitor into its CSV.
    "radial": (
        ("blowup-threshold-search", "configs/blowup-threshold-search.cfg",
         "threshold_search_s"),
        ("blowup", "configs/blowup.cfg", "blowup_s"),
        ("hedgehog-consistency", "configs/hedgehog-consistency.cfg",
         "hedgehog_consistency_s"),
    ),
    # Time in splitting and qtensor, no pde2d or radial work.
    "split": (
        ("trotter-convergence", "configs/trotter-convergence.cfg", "trotter_s"),
        ("physicality", "configs/physicality.cfg", "physicality_s"),
        ("coercivity-report", "configs/coercivity-report.cfg", "coercivity_report_s"),
    ),
}

# Experiments whose inputs have no random part: the sine-bump radial
# profiles.  The seed is still written into their configs.
UNSEEDED = ("blowup", "blowup-threshold-search")

CSV_HEADER = "t,energy,max_h2,l2_norm,l2_dQdt,flag"

# trace.csv data rows per experiment, fixed by each config's T and dt.
# Recorded at the seed commit for seeds 0, 1 and 2; none depends on the seed.
EXPECTED_ROWS = {
    "smallness": 1001,
    "smallness-128": 21,
    "energy-decay": 1585,
    "continuous-dependence": 501,
    "blowup-threshold-search": 0,
    "blowup": 135,
    "hedgehog-consistency": 0,
    "trotter-convergence": 0,
    "physicality": 51,
    "coercivity-report": 0,
}

# Bisection bracket of configs/blowup-threshold-search.cfg at the seed
# commit; a later bracket must overlap it.
REFERENCE_BRACKET = (-3.6710571289062504, -3.670144653320313)

# Spans named <module>.<function>; the tracer wraps every binding of each.
SPANS = (
    "pde2d.run",
    "pde2d.step",
    "pde2d.rhs_pq",
    "pde2d.discrete_energy",
    "pde2d.field_distance",
    "pde2d.smooth_random_field",
    "radial.run_radial",
    "radial.theta_rhs",
    "radial.blowup_functional",
    "radial.blowup_certificate",
    "radial.comparison_lower_bound",
    "radial.dominates_comparison",
    "radial.hedgehog_consistency_check",
    "radial.solve_banded",
    "splitting.trotter_solve",
    "splitting.heat_step",
    "splitting.bulk_ode_step",
    "splitting.bulk_ode_rhs",
    "splitting.hull_bounds",
    "splitting.eigen_ode_integrate",
    "splitting.make_hull_spanning_field",
    "qtensor.eigvals_traceless_sym3",
    "qtensor.physical_interval",
    "energy.derived_constants",
    "cli.parse_config",
    "cli.run_experiment",
    "cli.write_trace_csv",
    "cli.write_svg",
)

_CLI = ("cli.parse_config", "cli.run_experiment", "cli.write_trace_csv", "cli.write_svg")

# Spans that must record calls on each workload; a traced run in which one
# of them records none fails, so a missed binding cannot read as zero time.
# The radial experiments never call energy.derived_constants.
EXPECTED_SPANS = {
    "rect": tuple(s for s in SPANS if s.startswith(("pde2d.", "energy."))) + _CLI,
    "radial": tuple(s for s in SPANS if s.startswith("radial.")) + ("pde2d.rhs_pq",) + _CLI,
    "split": tuple(s for s in SPANS if s.startswith(("splitting.", "qtensor.", "energy."))) + _CLI,
}
