package bench

import (
	"testing"

	"spechint/internal/apps"
)

// TestGoldenCluster byte-compares the small fixed cluster scenario — the
// 2-shard, test-scale sweep at both offered loads — against the committed
// canon, like TestGoldenRunStats does for the solo cells: any change to ring
// placement, hint batching, message timing or the population generator shows
// up as a diff here. Re-canonize deliberately with:
//
//	go test ./internal/bench -run GoldenCluster -update
func TestGoldenCluster(t *testing.T) {
	rep, err := clusterReport(apps.TestScale(), []int{2})
	goldenReport(t, "cluster_small.json", rep, err)
}
