package uts

import (
	"os"
	"strings"
	"testing"
)

// TestCPUIDProbe pins the probe's leaf, register and bit positions
// against the kernel's own decoding of CPUID: cpuHasSHANI must say yes
// exactly when /proc/cpuinfo lists both sha_ni and ssse3.
func TestCPUIDProbe(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	_, flags, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	flags, _, _ = strings.Cut(flags, "\n")
	has := map[string]bool{}
	for _, f := range strings.Fields(flags) {
		has[f] = true
	}
	want := has["sha_ni"] && has["ssse3"]
	if got := cpuHasSHANI(); got != want {
		t.Errorf("cpuHasSHANI() = %v, /proc/cpuinfo says sha_ni=%v ssse3=%v", got, has["sha_ni"], has["ssse3"])
	}
	if haveKernel != want {
		t.Errorf("package init selected useSHANI = %v, want %v", haveKernel, want)
	}
}
