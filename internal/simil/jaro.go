package simil

// Jaro returns the Jaro similarity of a and b in [0, 1]. It counts matching
// runes within the usual half-window and penalizes transpositions among the
// matches. Two empty strings score 1; one empty string scores 0. Thin
// wrapper over jaroInto with a fresh Scratch.
func Jaro(a, b string) float64 {
	var sc Scratch
	return jaroInto(a, b, &sc)
}

// winklerPrefixScale is the standard Winkler prefix bonus factor.
const winklerPrefixScale = 0.1

// winklerMaxPrefix is the standard cap on the shared-prefix length that earns
// the Winkler bonus.
const winklerMaxPrefix = 4

// JaroWinkler returns the Jaro-Winkler similarity of a and b in [0, 1]: Jaro
// boosted by a bonus for a shared prefix of up to four runes. It is one of
// the three record measures of the usability experiment (§6.5); thin
// wrapper over JaroWinklerInto.
func JaroWinkler(a, b string) float64 {
	var sc Scratch
	return JaroWinklerInto(a, b, &sc)
}
