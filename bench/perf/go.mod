module spechint/bench/perf

go 1.22

require spechint v0.0.0

replace spechint => ../..
