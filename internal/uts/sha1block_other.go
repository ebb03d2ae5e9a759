//go:build !amd64

package uts

// useSHANI is never set here: there is no kernel for this GOARCH and
// hashBlock always runs crypto/sha1. It is a variable so that the tests
// which flip it build everywhere.
var useSHANI = false

func blockChildSHANI(dst *State, src *[StateSize + 4]byte) {
	panic("uts: no SHA-NI kernel on this GOARCH")
}

func blockChainSHANI(dst, src *State) {
	panic("uts: no SHA-NI kernel on this GOARCH")
}
