package atomicmix_test

import (
	"testing"

	"distws/internal/analysis/analysistest"
	"distws/internal/analysis/atomicmix"
)

func TestMixedAtomicAccess(t *testing.T) {
	analysistest.Run(t, atomicmix.New(), "testdata/mixed", "distws/internal/obs")
}
