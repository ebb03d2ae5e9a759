package uts

// useSHANI selects hashBlock's body, once, at package init: the
// one-block kernel of sha1block_amd64.s when the CPU has the SHA
// extensions, crypto/sha1 otherwise. Both produce the same bytes; only
// tests write it afterwards.
var useSHANI = cpuHasSHANI()

// blockChildSHANI sets *dst to the SHA-1 digest of the 24-byte child
// input *src.
//
//go:noescape
func blockChildSHANI(dst *State, src *[StateSize + 4]byte)

// blockChainSHANI sets *dst to the SHA-1 digest of the 20-byte state
// *src; dst and src may be the same.
//
//go:noescape
func blockChainSHANI(dst, src *State)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuHasSHANI reports whether the kernel's instructions exist on this
// CPU: the SHA extensions and PSHUFB (SSSE3). Both use the legacy SSE
// encoding, so there is no OS-enabled (XSAVE) state to check beyond
// what amd64 guarantees.
func cpuHasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		ssse3 = 1 << 9  // leaf 1 ECX
		sha   = 1 << 29 // leaf 7 (sub-leaf 0) EBX
	)
	return ecx1&ssse3 != 0 && ebx7&sha != 0
}
