# Invariants of `tipbench -exp faults -scale test -json` (make smoke-faults).
{
  "three apps x three modes x every rate": ((.points | length) == 9 * (.rates | length)),
  "the rate-0 cell is its own baseline":
    all(.points[] | select(.rate == 0); .slowdown_pct == 0 and .faulted_reqs == 0)
}
| if all(.[]; .) then true else error end
