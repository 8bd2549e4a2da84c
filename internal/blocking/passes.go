// Pass-key construction: the vocabulary users compose SNM passes from.
// The paper's validation setup sorts on concatenated attribute values
// (e.g. lastname+zip, firstname+birthyear) and on phonetic codes; the
// spec grammar mirrors that directly so a pass configuration reads like
// the paper's description of it.

package blocking

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dedup"
	"repro/internal/simil"
)

// keySep joins component keys inside one pass key. It cannot occur in TSV
// data, so "a"+"bc" and "ab"+"c" sort as distinct keys.
const keySep = "\x1f"

// KeyFunc derives a pass's sorting key from a record's values; records with
// close keys sort adjacently. See docs/BLOCKING.md for the pass-key design
// space.
type KeyFunc func(rec []string) string

// soundexKey keys on the Soundex code of one attribute — the classic
// phonetic blocking for name data (the same code §6.4 uses as an error
// measure for phonetic typos, here turned into a sort key).
func soundexKey(attr int) KeyFunc {
	return func(rec []string) string { return simil.Soundex(rec[attr]) }
}

// prefixKey keys on the first n runes of one attribute (upper-cased).
func prefixKey(attr, n int) KeyFunc {
	return func(rec []string) string {
		r := []rune(strings.ToUpper(strings.TrimSpace(rec[attr])))
		if len(r) > n {
			r = r[:n]
		}
		return string(r)
	}
}

// exactKey keys on the full trimmed value of one attribute.
func exactKey(attr int) KeyFunc {
	return func(rec []string) string { return strings.TrimSpace(rec[attr]) }
}

// ParsePasses builds SNM passes from a spec string: passes are separated
// by commas, components inside a pass by "+". Each component is an
// attribute name (its trimmed value), "soundex(attr)" (the phonetic code,
// §6.4's error measure turned into a blocking key) or "prefix(attr,n)"
// (the upper-cased first n runes). Attribute names match ds.Attrs
// case-insensitively.
//
//	last_name+zip_code, soundex(last_name), prefix(first_name,4)+age
func ParsePasses(ds *dedup.Dataset, spec string) ([]Pass, error) {
	var passes []Pass
	for _, ps := range splitTopLevel(spec) {
		ps = strings.TrimSpace(ps)
		if ps == "" {
			continue
		}
		comps := strings.Split(ps, "+")
		keys := make([]KeyFunc, 0, len(comps))
		for _, c := range comps {
			k, err := componentKey(ds, strings.TrimSpace(c))
			if err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
		passes = append(passes, Pass{Name: ps, Key: combineKeys(keys)})
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("blocking: empty pass spec %q", spec)
	}
	return passes, nil
}

// splitTopLevel splits on commas outside parentheses, so the argument
// comma of prefix(attr,n) does not end a pass.
func splitTopLevel(spec string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(spec); i++ {
		switch spec[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, spec[start:i])
				start = i + 1
			}
		}
	}
	return append(out, spec[start:])
}

// componentKey resolves one spec component to a key function.
func componentKey(ds *dedup.Dataset, comp string) (KeyFunc, error) {
	if open := strings.IndexByte(comp, '('); open >= 0 && strings.HasSuffix(comp, ")") {
		fn := strings.TrimSpace(comp[:open])
		args := strings.Split(comp[open+1:len(comp)-1], ",")
		switch fn {
		case "soundex":
			if len(args) != 1 {
				return nil, fmt.Errorf("blocking: soundex wants one attribute, got %q", comp)
			}
			attr, err := attrIndex(ds, strings.TrimSpace(args[0]))
			if err != nil {
				return nil, err
			}
			return soundexKey(attr), nil
		case "prefix":
			if len(args) != 2 {
				return nil, fmt.Errorf("blocking: prefix wants (attr, n), got %q", comp)
			}
			attr, err := attrIndex(ds, strings.TrimSpace(args[0]))
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(strings.TrimSpace(args[1]))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("blocking: prefix length in %q must be a positive integer", comp)
			}
			return prefixKey(attr, n), nil
		}
		return nil, fmt.Errorf("blocking: unknown key function %q (want soundex, prefix)", fn)
	}
	attr, err := attrIndex(ds, comp)
	if err != nil {
		return nil, err
	}
	return exactKey(attr), nil
}

// combineKeys joins component keys with keySep; a single component passes
// through unchanged.
func combineKeys(keys []KeyFunc) KeyFunc {
	if len(keys) == 1 {
		return keys[0]
	}
	return func(rec []string) string {
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k(rec)
		}
		return strings.Join(parts, keySep)
	}
}

// attrIndex finds an attribute by case-insensitive name.
func attrIndex(ds *dedup.Dataset, name string) (int, error) {
	for i, a := range ds.Attrs {
		if strings.EqualFold(a, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("blocking: dataset %s has no attribute %q", ds.Name, name)
}

// EntropyPasses returns one raw-value pass per most-unique attribute —
// the paper's default setup (§6.5: one pass for each of the k most unique
// attributes). Keys are the raw record values, untrimmed.
func EntropyPasses(ds *dedup.Dataset, k int) []Pass {
	attrs := dedup.MostUniqueAttrs(ds, k)
	passes := make([]Pass, len(attrs))
	for i, a := range attrs {
		a := a
		name := fmt.Sprintf("attr%d", a)
		if a < len(ds.Attrs) {
			name = ds.Attrs[a]
		}
		passes[i] = Pass{
			Name: name,
			Key:  func(rec []string) string { return rec[a] },
		}
	}
	return passes
}

// Recall is the fraction of gold-standard duplicate pairs the candidate
// set covers (§6.5: the paper reports that no true duplicates were lost by
// the candidate reduction on NC1-NC3).
func Recall(ds *dedup.Dataset, candidates []dedup.Pair) float64 {
	truePairs := ds.NumTruePairs()
	if truePairs == 0 {
		return 1
	}
	found := 0
	for _, p := range candidates {
		if ds.IsDuplicate(p.I, p.J) {
			found++
		}
	}
	return float64(found) / float64(truePairs)
}
