package simil

// Scratch holds the reusable working memory of the string kernels: rune
// decodings of both inputs, the pattern masks of the bit-parallel edit
// distance, three DP rows for the patterns it does not take, the two
// match-flag arrays of the Jaro kernel, the Monge-Elkan column maxima and
// two token buffers. One Scratch serves one goroutine; the parallel scoring
// engine keeps one per worker so the §6.3/§6.5 hot loop — millions of value
// comparisons — runs without per-comparison allocations. The zero value is
// ready to use; buffers grow on demand and are retained between calls.
//
// The *Into kernel variants below take a Scratch and are bit-identical to
// their allocating counterparts (which are now thin wrappers around them):
// edit distances are the same integers whichever algorithm computes them,
// and the float normalizations are the same expressions in the same order.
type Scratch struct {
	ra, rb     []rune
	peq        [128]uint64 // per ASCII rune, its positions in the pattern; all 0 between calls
	r0, r1, r2 []int
	ma, mb     []bool
	colMax     []float64
	ta, tb     []string
	gj         []gjCand
}

// appendRunes decodes s into buf (reused, length reset), returning the
// decoded slice.
func appendRunes(buf []rune, s string) []rune {
	buf = buf[:0]
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

// intRow returns *buf grown to n entries; contents are unspecified — each
// kernel initializes the cells it reads.
func intRow(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// boolRow returns *buf grown to n entries, all false.
func boolRow(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// tokenizeInto is Tokenize writing into buf (reused, length reset). The
// returned slice aliases buf's backing array.
func tokenizeInto(s string, buf []string) []string {
	buf = buf[:0]
	start := -1
	for i, r := range s {
		if isTokenRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			buf = append(buf, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		buf = append(buf, s[start:])
	}
	return buf
}

// DamerauLevenshteinSimilarityInto is DamerauLevenshteinSimilarity over a
// caller-provided Scratch.
func DamerauLevenshteinSimilarityInto(a, b string, sc *Scratch) float64 {
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	m := max(len(sc.ra), len(sc.rb))
	if m == 0 {
		return 1
	}
	return 1 - float64(editDistance(sc.ra, sc.rb, true, sc))/float64(m)
}

// jaroInto is Jaro over a caller-provided Scratch.
func jaroInto(a, b string, sc *Scratch) float64 {
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	return jaroRunes(sc.ra, sc.rb, sc)
}

// jaroRunes is the Jaro kernel over decoded runes.
func jaroRunes(ra, rb []rune, sc *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := boolRow(&sc.ma, la)
	matchedB := boolRow(&sc.mb, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(float64(transpositions) / 2)
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinklerInto is JaroWinkler over a caller-provided Scratch.
func JaroWinklerInto(a, b string, sc *Scratch) float64 {
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	ra, rb := sc.ra, sc.rb
	j := jaroRunes(ra, rb, sc)
	prefix := 0
	for prefix < winklerMaxPrefix && prefix < len(ra) && prefix < len(rb) && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(float64(prefix)*winklerPrefixScale*(1-j))
}

// MongeElkanTokensInto is MongeElkan over pre-tokenized sequences with the
// Damerau-Levenshtein similarity as the internal measure, reusing the
// Scratch for every token comparison. It fills the token similarity matrix
// once and reads the directed mean of a from its row maxima, that of b from
// its column maxima, so each token pair is compared once instead of twice.
// It equals MongeElkan(a, b, DamerauLevenshteinSimilarity) bit-for-bit: the
// DL similarity is bit-symmetric, a maximum over non-negative values does
// not depend on the order it is taken in, and each mean still adds in token
// order.
func MongeElkanTokensInto(a, b []string, sc *Scratch) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 1
		}
		return 0
	}
	if cap(sc.colMax) < len(b) {
		sc.colMax = make([]float64, len(b))
	}
	colMax := sc.colMax[:len(b)]
	clear(colMax)
	sumA := 0.0
	for _, ta := range a {
		best := 0.0
		for j, tb := range b {
			s := DamerauLevenshteinSimilarityInto(ta, tb, sc)
			best = max(best, s)
			colMax[j] = max(colMax[j], s)
		}
		sumA += best
	}
	sumB := 0.0
	for _, s := range colMax {
		sumB += s
	}
	return (sumA/float64(len(a)) + sumB/float64(len(b))) / 2
}

// MongeElkanDLInto is MongeElkanDL over a caller-provided Scratch: the
// token slices are built in the Scratch's buffers, the token comparisons in
// its DP rows.
func MongeElkanDLInto(a, b string, sc *Scratch) float64 {
	sc.ta = tokenizeInto(a, sc.ta)
	sc.tb = tokenizeInto(b, sc.tb)
	return MongeElkanTokensInto(sc.ta, sc.tb, sc)
}
