// Package errstats implements the paper's error-diversity analysis (§6.4,
// Table 4): it profiles a labeled dataset for singleton irregularities
// (outliers, abbreviations, missing values) and pair-based irregularities
// between duplicate records (typos, OCR errors, phonetic errors,
// prefix/postfix situations, formatting differences, token transpositions,
// value confusions, integrated and scattered values). The analyzer works on
// a schema-agnostic Input so the NC dataset and the Cora/Census/CDDB
// comparators all profile the same way.
package errstats

import (
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/simil"
	"repro/internal/voter"
)

// ErrType enumerates the irregularity types of Table 4.
type ErrType string

// Singleton irregularities.
const (
	Outlier      ErrType = "outlier"
	Abbreviation ErrType = "abbreviation"
	Missing      ErrType = "missing"
)

// Pair-based irregularities.
const (
	Typo            ErrType = "typo"
	OCRError        ErrType = "OCR-error"
	Phonetic        ErrType = "phonetic"
	Prefix          ErrType = "prefix"
	Postfix         ErrType = "postfix"
	Formatting      ErrType = "formatting"
	TokenTransp     ErrType = "token transp."
	ValueConfusion  ErrType = "value confusion"
	IntegratedValue ErrType = "integrated value"
	ScatteredValue  ErrType = "scattered value"
)

// SingletonTypes lists the singleton irregularities in table order.
var SingletonTypes = []ErrType{Outlier, Abbreviation, Missing}

// PairTypes lists the pair-based irregularities in table order.
var PairTypes = []ErrType{
	Typo, OCRError, Phonetic, Prefix, Postfix, Formatting,
	TokenTransp, ValueConfusion, IntegratedValue, ScatteredValue,
}

// Input is the schema-agnostic dataset view the analyzer consumes.
type Input struct {
	Attrs   []string   // analyzed attribute names, aligned with record values
	Records [][]string // every record's analyzed values
	// Clusters lists the record indices of each duplicate cluster; only
	// clusters of size >= 2 contribute pairs.
	Clusters [][]int
	// AgeAttr optionally names the attribute holding a bounded numeric age
	// for outlier detection ("" disables the numeric check).
	AgeAttr string
	// ConfusablePairs limits the expensive multi-attribute checks (value
	// confusion, integrated and scattered values) to the given attribute
	// index pairs. Nil means: all pairs if the schema has at most 8
	// attributes, otherwise none.
	ConfusablePairs [][2]int
	// AbbrevExempt lists attributes whose values are single-letter codes
	// by design (sex_code, race_code, ...); they never count as
	// abbreviations.
	AbbrevExempt map[string]bool
}

// Stat accumulates one irregularity's counts.
type Stat struct {
	Total   int            // occurrences over all attributes
	PerAttr map[string]int // occurrences per attribute name
}

// MostCommon returns the attribute with the highest count and that count.
func (s *Stat) MostCommon() (string, int) {
	best, bestN := "", 0
	names := make([]string, 0, len(s.PerAttr))
	for a := range s.PerAttr {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		if s.PerAttr[a] > bestN {
			best, bestN = a, s.PerAttr[a]
		}
	}
	return best, bestN
}

// Table is the full irregularity profile of one dataset.
type Table struct {
	TotalRecords int
	TotalPairs   int
	Singletons   map[ErrType]*Stat
	PairBased    map[ErrType]*Stat
}

// Analyze profiles the input.
func Analyze(in Input) *Table {
	t := &Table{
		TotalRecords: len(in.Records),
		Singletons:   map[ErrType]*Stat{},
		PairBased:    map[ErrType]*Stat{},
	}
	for _, e := range SingletonTypes {
		t.Singletons[e] = &Stat{PerAttr: map[string]int{}}
	}
	for _, e := range PairTypes {
		t.PairBased[e] = &Stat{PerAttr: map[string]int{}}
	}

	ageIdx := -1
	for i, a := range in.Attrs {
		if in.AgeAttr != "" && a == in.AgeAttr {
			ageIdx = i
		}
	}

	for _, rec := range in.Records {
		analyzeSingletons(t, in.Attrs, rec, ageIdx, in.AbbrevExempt)
	}

	pairs := in.ConfusablePairs
	if pairs == nil && len(in.Attrs) <= 8 {
		for i := 0; i < len(in.Attrs); i++ {
			for j := i + 1; j < len(in.Attrs); j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}

	for _, cluster := range in.Clusters {
		for x := 0; x < len(cluster); x++ {
			for y := x + 1; y < len(cluster); y++ {
				a, b := in.Records[cluster[x]], in.Records[cluster[y]]
				t.TotalPairs++
				analyzePair(t, in.Attrs, a, b, pairs)
			}
		}
	}
	return t
}

func (t *Table) addSingleton(e ErrType, attr string) {
	s := t.Singletons[e]
	s.Total++
	s.PerAttr[attr]++
}

func (t *Table) addPair(e ErrType, attr string) {
	s := t.PairBased[e]
	s.Total++
	s.PerAttr[attr]++
}

// analyzeSingletons profiles one record.
func analyzeSingletons(t *Table, attrs []string, rec []string, ageIdx int, abbrevExempt map[string]bool) {
	for i, raw := range rec {
		v := strings.TrimSpace(raw)
		if voter.IsMissing(v) {
			t.addSingleton(Missing, attrs[i])
			continue
		}
		if isAbbreviation(v) && !abbrevExempt[attrs[i]] {
			t.addSingleton(Abbreviation, attrs[i])
		}
		if i == ageIdx {
			if n, err := strconv.Atoi(v); err != nil || n > 110 || n < 16 {
				t.addSingleton(Outlier, attrs[i])
			}
			continue
		}
		if hasUnusualCharacter(v) {
			t.addSingleton(Outlier, attrs[i])
		}
	}
}

// isAbbreviation matches a single letter optionally followed by one
// punctuation mark.
func isAbbreviation(v string) bool {
	r := []rune(v)
	switch len(r) {
	case 1:
		return unicode.IsLetter(r[0])
	case 2:
		return unicode.IsLetter(r[0]) && (r[1] == '.' || r[1] == ',')
	}
	return false
}

// hasUnusualCharacter reports characters atypical for register text values
// (control characters and symbols outside names/addresses). Letters,
// digits, spaces, and common name punctuation are usual.
func hasUnusualCharacter(v string) bool {
	for _, r := range v {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == ' ':
		case r == '-' || r == '\'' || r == '.' || r == ',' || r == '#' || r == '/' || r == '&' || r == '(' || r == ')' || r == ':':
		default:
			return true
		}
	}
	return false
}

// analyzePair profiles one duplicate pair.
func analyzePair(t *Table, attrs []string, a, b []string, confusable [][2]int) {
	for i := range attrs {
		va, vb := strings.TrimSpace(a[i]), strings.TrimSpace(b[i])
		if va == vb || va == "" || vb == "" {
			continue
		}
		la, lb := strings.ToLower(va), strings.ToLower(vb)
		if la != lb && len(la) > 2 && len(lb) > 2 && simil.DamerauLevenshtein(la, lb) == 1 {
			t.addPair(Typo, attrs[i])
		}
		if isOCRPair(va, vb) {
			t.addPair(OCRError, attrs[i])
		}
		if isPhoneticPair(va, vb) {
			t.addPair(Phonetic, attrs[i])
		}
		pre, post := prefixPostfix(va, vb)
		if pre {
			t.addPair(Prefix, attrs[i])
		}
		if post {
			t.addPair(Postfix, attrs[i])
		}
		if isFormattingPair(va, vb) {
			t.addPair(Formatting, attrs[i])
		}
		if isTokenTransposition(va, vb) {
			t.addPair(TokenTransp, attrs[i])
		}
	}
	for _, p := range confusable {
		i, j := p[0], p[1]
		vaI, vaJ := strings.TrimSpace(a[i]), strings.TrimSpace(a[j])
		vbI, vbJ := strings.TrimSpace(b[i]), strings.TrimSpace(b[j])
		attrPair := attrs[i] + "/" + attrs[j]
		confused := vaI != "" && vaJ != "" && vaI != vaJ && vaI == vbJ && vaJ == vbI
		if confused {
			t.addPair(ValueConfusion, attrPair)
		}
		integrated := isIntegrated(vaI, vaJ, vbI, vbJ) || isIntegrated(vbI, vbJ, vaI, vaJ)
		if integrated {
			t.addPair(IntegratedValue, attrPair)
		}
		if !confused && !integrated && isScattered(vaI, vaJ, vbI, vbJ) {
			t.addPair(ScatteredValue, attrPair)
		}
	}
}

// isOCRPair: equal length, and every differing position has a digit on
// exactly one side (digits on both sides must agree).
func isOCRPair(a, b string) bool {
	if a == b || len(a) != len(b) {
		return false
	}
	diff := false
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca == cb {
			continue
		}
		diff = true
		da := ca >= '0' && ca <= '9'
		db := cb >= '0' && cb <= '9'
		if da == db { // both digits (must be identical) or neither
			return false
		}
	}
	return diff
}

// isPhoneticPair: not identical after removing non-letters, both longer
// than 2, equal soundex codes.
func isPhoneticPair(a, b string) bool {
	la := lettersOnly(a)
	lb := lettersOnly(b)
	if len(la) <= 2 || len(lb) <= 2 || strings.EqualFold(la, lb) {
		return false
	}
	return simil.SoundexEqual(la, lb)
}

func lettersOnly(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// prefixPostfix reports whether one value is a prefix (resp. postfix) of
// the other after removing a potential trailing punctuation mark from the
// shorter value.
func prefixPostfix(a, b string) (prefix, postfix bool) {
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	if len(short) == len(long) {
		return false, false
	}
	short = strings.TrimRight(short, ".,")
	if short == "" {
		return false, false
	}
	return strings.HasPrefix(long, short), strings.HasSuffix(long, short)
}

// isFormattingPair: values differ only in non-alphanumeric characters.
func isFormattingPair(a, b string) bool {
	if a == b {
		return false
	}
	return alnumOnly(a) == alnumOnly(b) && alnumOnly(a) != ""
}

func alnumOnly(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// isTokenTransposition: identical token multisets in different order.
func isTokenTransposition(a, b string) bool {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) != len(tb) || len(ta) < 2 {
		return false
	}
	same := true
	for i := range ta {
		if ta[i] != tb[i] {
			same = false
			break
		}
	}
	if same {
		return false
	}
	return equalMultiset(ta, tb)
}

func equalMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	counts := map[string]int{}
	for _, t := range a {
		counts[t]++
	}
	for _, t := range b {
		counts[t]--
		if counts[t] < 0 {
			return false
		}
	}
	return true
}

// isIntegrated reports whether record b integrated a's value of attribute i
// into attribute j: b's i is empty, a's both non-empty, and b's j tokens are
// exactly a's i tokens plus a's j tokens.
func isIntegrated(aI, aJ, bI, bJ string) bool {
	if aI == "" || aJ == "" || bI != "" || bJ == "" {
		return false
	}
	combined := append(strings.Fields(aJ), strings.Fields(aI)...)
	return equalMultiset(combined, strings.Fields(bJ))
}

// isScattered: the union token multiset over both attributes agrees while
// the per-attribute assignment differs.
func isScattered(aI, aJ, bI, bJ string) bool {
	if aI == bI && aJ == bJ {
		return false
	}
	ua := append(strings.Fields(aI), strings.Fields(aJ)...)
	ub := append(strings.Fields(bI), strings.Fields(bJ)...)
	if len(ua) < 2 {
		return false
	}
	return equalMultiset(ua, ub)
}
