# Invariants of `tipbench -exp overload -scale test -json` (make smoke-overload).
{
  "two arms x four loads + the failover cell": (.points | length == 9),
  "cluster-wide conservation: every offered part is ruled exactly once":
    all(.points[]; .offered == .admitted + .shed_parts + .failed_parts),
  "per-shard conservation":
    all(.points[] | .shards_detail[]; .offered == .admitted + .shed + .failed),
  "shard stall buckets sum exactly to elapsed cycles":
    ([.points[] as $p | $p.shards_detail[]
      | .hinted_cycles + .unhinted_cycles + .idle_cycles == $p.elapsed_cycles] | all),
  "the shed-off arm never sheds or fails":
    all(.points[] | select(.shed | not); .shed_parts == 0 and .failed_parts == 0),
  "the failover cell fails parts and still serves reads":
    all(.points[] | select(.failover); .failed_parts > 0 and .reads > 0)
}
| if all(.[]; .) then true else error end
