package bench

import (
	"testing"

	"spechint/internal/apps"
)

// TestGoldenCluster byte-compares the test-scale cluster sweep — every shard
// count at both offered loads — against the committed canon, like
// TestCellLedger does for the solo cells: any change to ring placement,
// hint batching, message timing, the service path or the population generator
// shows up as a diff here. Re-canonize deliberately with:
//
//	go test ./internal/bench -run GoldenCluster -update
func TestGoldenCluster(t *testing.T) {
	rep, err := shardedService(apps.TestScale())
	goldenReport(t, "cluster_small.json", rep, err)
}
