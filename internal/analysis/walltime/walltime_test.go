package walltime_test

import (
	"testing"

	"distws/internal/analysis/analysistest"
	"distws/internal/analysis/walltime"
)

func TestFlagsWallClockInVirtualPackage(t *testing.T) {
	a := walltime.New([]string{"distws/internal"})
	analysistest.Run(t, a, "testdata/virtual", "distws/internal/sim")
}

func TestUnlistedPackageIsIgnored(t *testing.T) {
	a := walltime.New([]string{"distws/internal"})
	analysistest.Run(t, a, "testdata/real", "distws/cmd/experiments")
}

// TestInterproceduralLaundering proves a wall-clock read hidden behind
// a helper in a non-virtual package is flagged at the virtual-time call
// site through the call graph.
func TestInterproceduralLaundering(t *testing.T) {
	a := walltime.New([]string{"fix/virt"})
	analysistest.RunDirs(t, a,
		analysistest.Dir{Path: "testdata/cross/clock", ImportPath: "fix/clock"},
		analysistest.Dir{Path: "testdata/cross/virt", ImportPath: "fix/virt"},
	)
}
