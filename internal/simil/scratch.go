package simil

// Scratch holds the reusable working memory of the dynamic-programming
// kernels: rune decodings of both inputs, up to three DP rows, the two
// match-flag arrays of the Jaro kernel, and two token buffers. One Scratch
// serves one goroutine; the parallel scoring engine keeps one per worker so
// the §6.3/§6.5 hot loop — millions of value comparisons — runs without
// per-comparison allocations. The zero value is ready to use; buffers grow
// on demand and are retained between calls.
//
// The *Into kernel variants below take a Scratch and are bit-identical to
// their allocating counterparts (which are now thin wrappers around them):
// the DP recurrences and float normalizations are the same expressions in
// the same order.
type Scratch struct {
	ra, rb     []rune
	r0, r1, r2 []int
	ma, mb     []bool
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

// levenshteinInto is Levenshtein over a caller-provided Scratch.
func levenshteinInto(a, b string, sc *Scratch) int {
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	ra, rb := sc.ra, sc.rb
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := intRow(&sc.r0, len(rb)+1)
	cur := intRow(&sc.r1, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// damerauLevenshteinInto is DamerauLevenshtein over a caller-provided
// Scratch.
func damerauLevenshteinInto(a, b string, sc *Scratch) int {
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	return damerauLevenshteinRunes(sc.ra, sc.rb, sc)
}

// damerauLevenshteinRunes is the OSA Damerau-Levenshtein DP over decoded
// runes; ra and rb may alias sc.ra and sc.rb.
func damerauLevenshteinRunes(ra, rb []rune, sc *Scratch) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev2 := intRow(&sc.r0, len(rb)+1)
	prev := intRow(&sc.r1, len(rb)+1)
	cur := intRow(&sc.r2, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[len(rb)]
}

// DamerauLevenshteinSimilarityInto is DamerauLevenshteinSimilarity over a
// caller-provided Scratch.
func DamerauLevenshteinSimilarityInto(a, b string, sc *Scratch) float64 {
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	m := maxInt(len(sc.ra), len(sc.rb))
	if m == 0 {
		return 1
	}
	return 1 - float64(damerauLevenshteinRunes(sc.ra, sc.rb, sc))/float64(m)
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
	window := maxInt(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := boolRow(&sc.ma, la)
	matchedB := boolRow(&sc.mb, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := maxInt(0, i-window)
		hi := minInt(lb-1, i+window)
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
// Scratch for every token comparison. It equals
// MongeElkan(a, b, DamerauLevenshteinSimilarity) bit-for-bit: the directed
// means accumulate in the same token order.
func MongeElkanTokensInto(a, b []string, sc *Scratch) float64 {
	return (mongeElkanDirectedInto(a, b, sc) + mongeElkanDirectedInto(b, a, sc)) / 2
}

// mongeElkanDirectedInto is mongeElkanDirected with the DL-similarity
// internal measure over a Scratch.
func mongeElkanDirectedInto(a, b []string, sc *Scratch) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sum := 0.0
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := DamerauLevenshteinSimilarityInto(ta, tb, sc); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(a))
}

// MongeElkanDLInto is MongeElkanDL over a caller-provided Scratch: the
// token slices are built in the Scratch's buffers, the token comparisons in
// its DP rows.
func MongeElkanDLInto(a, b string, sc *Scratch) float64 {
	sc.ta = tokenizeInto(a, sc.ta)
	sc.tb = tokenizeInto(b, sc.tb)
	return MongeElkanTokensInto(sc.ta, sc.tb, sc)
}
