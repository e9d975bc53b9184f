# Invariants of `tipbench -exp cluster -scale test -json` (make smoke-cluster).
{
  "two loads x five shard counts": (.points | length == 10),
  "every cell serves reads": all(.points[]; .reads > 0 and .throughput_reads_per_sec > 0),
  "jain fairness in (0, 1]": all(.points[]; .jain_fairness > 0 and .jain_fairness <= 1),
  "one detail row per shard": all(.points[]; (.shards_detail | length) == .shards),
  "shard stall buckets sum exactly to elapsed cycles":
    ([.points[] as $p | $p.shards_detail[]
      | .hinted_cycles + .unhinted_cycles + .idle_cycles == $p.elapsed_cycles] | all)
}
| if all(.[]; .) then true else error end
