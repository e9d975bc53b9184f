# Invariants of `tipbench -exp multi -scale test -json` (make smoke-multi).
{
  "one point per group size": (.max_n == 8 and [.points[].n] == [range(1; 9)]),
  "one process row per group member": all(.points[]; (.procs | length) == .n),
  "jain fairness in (0, 1]": all(.points[]; .jain_fairness > 0 and .jain_fairness <= 1),
  "speculation wins at every group size": all(.points[]; .improvement_pct > 0)
}
| if all(.[]; .) then true else error end
