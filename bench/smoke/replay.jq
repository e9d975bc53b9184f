# Invariants of `tipbench -exp replay -scale test -json` (make smoke-replay).
{
  "schema": (.schema == "tipbench-replay/v1"),
  "two modern apps x four modes": (.points | length == 8),
  "three canonical round trips": (.roundtrip | length == 3),
  "speculation beats the original on every modern app":
    all(.points[] | select(.mode == "speculating"); .improvement_pct > 0),
  "every cell's stall buckets sum to its elapsed cycles": all(.points[]; .buckets_sum_ok),
  "every capture→replay pass is block-for-block exact":
    all(.roundtrip[]; .exact and .buckets_sum_ok and .reads > 0)
}
| if all(.[]; .) then true else error end
