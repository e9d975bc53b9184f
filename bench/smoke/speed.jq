# Invariants of `tipbench -exp speed -scale test -json` (make smoke-speed):
# sane shape, positive throughput, zero-alloc fast paths. ns/op itself is
# machine-dependent and is not asserted.
{
  "schema": (.schema == "spechint-bench-speed/v1"),
  "event-loop cells": ([.event_loop[].name] == ["steady512", "burst64"]),
  "vm cells": ([.vm[].name] == ["vmstep"]),
  "positive throughput": all(.event_loop[], .vm[]; .per_sec > 0 and .ns_per_op > 0),
  "fast paths allocate nothing": all(.event_loop[], .vm[]; .allocs_per_op == 0),
  "end to end ran the nine-cell suite": (.end_to_end.wall_ms > 0 and .end_to_end.runs == 9)
}
| if all(.[]; .) then true else error end
