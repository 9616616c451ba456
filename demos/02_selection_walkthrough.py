"""Step-by-step run of the selection pipeline on one simulated dataset.

Shows the intermediate quantities: penalized leave-one-out scores (phi),
the ranking they induce (sigma), penalized prefix scores (psi), and the
dimension estimate that cuts the ranking.
"""

from covsel import (
    PenaltySchedule,
    benchmark_model,
    relevant_set,
    sample_dataset,
    select_variables,
)

model = benchmark_model()
data = sample_dataset(model, n=2000, seed=7)
print(f"dataset: n={data.n}, p={data.p}, q={data.q}; true active set:",
      relevant_set(model.b))
print()

result = select_variables(data)
print("default schedule (f: n^-1/4 / i, g: n^-3/4 * i, label-argument):")
print(f"  {'rank':>4} {'var':>4} {'phi':>10} {'psi':>10} selected")
for rank in range(1, 8):
    label = int(result.sigma_hat[rank - 1])
    mark = "*" if rank <= result.s_hat else ""
    print(
        f"  {rank:>4} {label:>4} {result.phi[label - 1]:>10.5f} "
        f"{result.psi[rank - 1]:>10.5f} {mark:>8}"
    )
print(f"  -> s_hat = {result.s_hat}, selected = {result.selected}")
print()
print("the ranking puts the active variables first, but the prefix vote")
print("lands on the full set: its criterion is exactly zero while shorter")
print("prefixes keep O(n^-1/2) sampling noise that the n^-3/4 penalty")
print("cannot overcome.")
print()

steep = PenaltySchedule(g_rate=0.4, penalty_arg="rank")
result2 = select_variables(data, steep)
print("same data, g rate 0.4 with rank-argument penalties:")
print(f"  -> s_hat = {result2.s_hat}, selected = {result2.selected}")
