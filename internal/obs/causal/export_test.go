package causal

// PairsBuilt reports whether a has built its ordered pair slice.
func PairsBuilt(a *Analysis) bool { return a.pairs.done }
