"""What the penalty schedule does to selection accuracy.

The prefix penalty must dominate the O(n^-1/2) sampling noise of the
criterion on supersets of the active set, so its rate has to stay below
1/2; and the penalty argument must grow along the ranking (rank form) for
the minimum to land at the active count.  This script measures exact-
recovery rates across schedules to make both effects visible.
"""

from covsel import PenaltySchedule, SimulationConfig, run_study

SIZES = (50, 500, 2000)
REPS = 100

settings = [
    ("g rate 3/4, label argument (default)", PenaltySchedule()),
    ("g rate 3/4, rank argument", PenaltySchedule(penalty_arg="rank")),
    ("g rate 0.45, rank argument", PenaltySchedule(g_rate=0.45, penalty_arg="rank")),
    ("g rate 0.40, rank argument", PenaltySchedule(g_rate=0.40, penalty_arg="rank")),
]

print(f"exact-recovery rate of the active set, {REPS} replications per cell:")
header = "  " + f"{'schedule':<38}" + "".join(f"{f'n={n}':>9}" for n in SIZES)
print(header)
for name, pen in settings:
    cfg = SimulationConfig(
        sample_sizes=SIZES,
        replications=REPS,
        base_seed=515151,
        pen=pen,
    )
    summary = run_study(cfg)
    rates = "".join(f"{summary.row_for(n).correct_rate:>9.2f}" for n in SIZES)
    print(f"  {name:<38}{rates}")

print()
print("the default schedule keeps all variables (the zero-criterion full")
print("set always wins the vote); a sub-1/2 rate with rank penalties")
print("recovers the active set essentially every time.")
