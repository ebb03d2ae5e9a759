package detrand_test

import (
	"testing"

	"distws/internal/analysis/analysistest"
	"distws/internal/analysis/detrand"
)

func TestFlagsMathRandAndTimeSeeds(t *testing.T) {
	a := detrand.New()
	analysistest.Run(t, a, "testdata/bad", "distws/internal/victim")
}
