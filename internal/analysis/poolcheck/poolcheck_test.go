package poolcheck_test

import (
	"testing"

	"distws/internal/analysis/analysistest"
	"distws/internal/analysis/poolcheck"
)

const commPath = "distws/internal/comm"

func TestPoolcheckFixture(t *testing.T) {
	analysistest.Run(t, poolcheck.New(commPath, []string{"fix/poolcheck"}),
		"testdata/basic", "fix/poolcheck")
}

// TestPoolcheckSeededViolation proves the analyzer fires on broken
// copies of three drain shapes the runtime has had: internal/core's
// two, and that of the deleted internal/dagws scheduler.
func TestPoolcheckSeededViolation(t *testing.T) {
	analysistest.Run(t, poolcheck.New(commPath, []string{"fix/poolcheckseeded"}),
		"testdata/seeded", "fix/poolcheckseeded")
}
