package corrupt

import (
	"math/rand"
	"sort"
	"strings"
)

const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

// Typo applies one random keyboard-style edit to s: insertion, deletion,
// substitution, or transposition of two adjacent characters — exactly the
// edits with Damerau-Levenshtein distance 1 that the paper's error profile
// counts as typos. Strings shorter than 3 characters are returned unchanged
// (the profile only counts typos in values longer than two, §6.4).
func Typo(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) < 3 {
		return s
	}
	switch rng.Intn(4) {
	case 0: // insert
		pos := rng.Intn(len(r) + 1)
		c := rune(letters[rng.Intn(len(letters))])
		out := make([]rune, 0, len(r)+1)
		out = append(out, r[:pos]...)
		out = append(out, c)
		out = append(out, r[pos:]...)
		return string(out)
	case 1: // delete
		pos := rng.Intn(len(r))
		out := make([]rune, 0, len(r)-1)
		out = append(out, r[:pos]...)
		out = append(out, r[pos+1:]...)
		return string(out)
	case 2: // substitute with a different letter
		pos := rng.Intn(len(r))
		for {
			c := rune(letters[rng.Intn(len(letters))])
			if c != r[pos] {
				r[pos] = c
				break
			}
		}
		return string(r)
	default: // transpose two distinct adjacent runes
		for attempt := 0; attempt < 8; attempt++ {
			pos := rng.Intn(len(r) - 1)
			if r[pos] != r[pos+1] {
				r[pos], r[pos+1] = r[pos+1], r[pos]
				return string(r)
			}
		}
		// All-equal string: substitute instead.
		r[0] = rune(letters[rng.Intn(len(letters))])
		return string(r)
	}
}

// ocrPairs lists character confusions typical for optical character
// recognition; each pair maps a letter to a visually similar digit (or vice
// versa), matching the paper's OCR-error definition ("differ at those
// positions where one of them has a digit", §6.4).
var ocrPairs = map[rune]rune{
	'O': '0', '0': 'O',
	'I': '1', '1': 'I',
	'L': '1',
	'S': '5', '5': 'S',
	'B': '8', '8': 'B',
	'Z': '2', '2': 'Z',
	'G': '6', '6': 'G',
	'E': '3', '3': 'E',
	'T': '7', '7': 'T',
	'A': '4', '4': 'A',
}

// OCRError replaces one confusable character of s with its OCR look-alike.
// If s contains no confusable character it is returned unchanged.
func OCRError(rng *rand.Rand, s string) string {
	r := []rune(s)
	var positions []int
	for i, c := range r {
		if _, ok := ocrPairs[c]; ok {
			positions = append(positions, i)
		}
	}
	if len(positions) == 0 {
		return s
	}
	pos := positions[rng.Intn(len(positions))]
	r[pos] = ocrPairs[r[pos]]
	return string(r)
}

// phoneticSubs lists respellings that keep the Soundex code unchanged: the
// replacement letter carries the same Soundex digit (or both are
// vowels/ignored), so the resulting pair is flagged as a phonetic error by
// the paper's profile (same soundex, different spelling).
var phoneticSubs = map[rune][]rune{
	'C': {'K', 'S'},
	'K': {'C'},
	'S': {'C', 'Z'},
	'Z': {'S'},
	'D': {'T'},
	'T': {'D'},
	'M': {'N'},
	'N': {'M'},
	'F': {'V', 'P'},
	'V': {'F'},
	'P': {'B'},
	'B': {'P'},
	'A': {'E', 'O'},
	'E': {'A', 'I'},
	'I': {'E', 'Y'},
	'O': {'A', 'U'},
	'U': {'O'},
	'Y': {'I'},
}

// phoneticError respells one character of s with a Soundex-equivalent
// letter. The first character is never touched (it anchors the Soundex
// code). Returns s unchanged if no substitutable character exists.
func phoneticError(rng *rand.Rand, s string) string {
	r := []rune(s)
	var positions []int
	for i := 1; i < len(r); i++ {
		if _, ok := phoneticSubs[r[i]]; ok {
			positions = append(positions, i)
		}
	}
	if len(positions) == 0 {
		return s
	}
	pos := positions[rng.Intn(len(positions))]
	subs := phoneticSubs[r[pos]]
	r[pos] = subs[rng.Intn(len(subs))]
	return string(r)
}

// abbreviate reduces s to its first letter, optionally followed by a period
// — the paper's abbreviation singleton ("a single letter, possibly followed
// by a punctuation mark", §6.4). Empty input stays empty.
func abbreviate(rng *rand.Rand, s string) string {
	t := strings.TrimSpace(s)
	if t == "" {
		return s
	}
	first := string([]rune(t)[0])
	if rng.Intn(2) == 0 {
		return first + "."
	}
	return first
}

// TruncateTail cuts a random non-empty suffix off s, producing a value of
// which the original is a postfix-extension (the paper's prefix
// irregularity: one value is a prefix of the other). Values of length < 4
// are returned unchanged so the result stays recognizable.
func TruncateTail(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) < 4 {
		return s
	}
	keep := 2 + rng.Intn(len(r)-3) // keep in [2, len-2]
	return string(r[:keep])
}

// truncateHead cuts a random non-empty prefix off s (postfix irregularity).
// Values shorter than 4 runes are returned unchanged.
func truncateHead(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) < 4 {
		return s
	}
	drop := 1 + rng.Intn(len(r)-3) // drop in [1, len-3]
	return string(r[drop:])
}

// DropToken removes one random token from a multi-token value; the result is
// a token-subset of the original ("forgotten tokens"). Single-token values
// are returned unchanged.
func DropToken(rng *rand.Rand, s string) string {
	tokens := strings.Fields(s)
	if len(tokens) < 2 {
		return s
	}
	i := rng.Intn(len(tokens))
	return strings.Join(append(tokens[:i:i], tokens[i+1:]...), " ")
}

// TransposeTokens swaps two random tokens of a multi-token value (token
// transposition irregularity). Single-token values are returned unchanged.
func TransposeTokens(rng *rand.Rand, s string) string {
	tokens := strings.Fields(s)
	if len(tokens) < 2 {
		return s
	}
	i := rng.Intn(len(tokens))
	j := rng.Intn(len(tokens) - 1)
	if j >= i {
		j++
	}
	tokens[i], tokens[j] = tokens[j], tokens[i]
	return strings.Join(tokens, " ")
}

// FormatNoise changes only non-alphanumeric presentation: it flips a space
// to a hyphen or vice versa, or inserts a hyphen between two tokens — the
// paper's "different representation" irregularity. Values without any
// flippable position are returned unchanged.
func FormatNoise(rng *rand.Rand, s string) string {
	r := []rune(s)
	var seps []int
	for i, c := range r {
		if c == ' ' || c == '-' {
			seps = append(seps, i)
		}
	}
	if len(seps) > 0 {
		pos := seps[rng.Intn(len(seps))]
		if r[pos] == ' ' {
			r[pos] = '-'
		} else {
			r[pos] = ' '
		}
		return string(r)
	}
	// No separator: append a period (punctuation-only difference).
	if len(r) > 0 {
		return s + "."
	}
	return s
}

// whitespacePad adds leading and/or trailing spaces, the distribution
// artifact the paper removes with trimming (§3.1.3).
func whitespacePad(rng *rand.Rand, s string) string {
	lead := strings.Repeat(" ", rng.Intn(3))
	trail := strings.Repeat(" ", 1+rng.Intn(3))
	return lead + s + trail
}

// nicknamePairs maps formal first names to their common nicknames. Both
// directions apply: a voter registered as WILLIAM may re-register as BILL
// and vice versa — a classic duplicate-detection challenge, since the two
// forms share almost no characters.
var nicknamePairs = map[string][]string{
	"WILLIAM":     {"BILL", "WILL", "BILLY"},
	"ROBERT":      {"BOB", "ROB", "BOBBY"},
	"RICHARD":     {"DICK", "RICK"},
	"JAMES":       {"JIM", "JIMMY"},
	"JOHN":        {"JACK", "JOHNNY"},
	"MICHAEL":     {"MIKE"},
	"JOSEPH":      {"JOE", "JOEY"},
	"CHARLES":     {"CHUCK", "CHARLIE"},
	"THOMAS":      {"TOM", "TOMMY"},
	"CHRISTOPHER": {"CHRIS"},
	"DANIEL":      {"DAN", "DANNY"},
	"MATTHEW":     {"MATT"},
	"ANTHONY":     {"TONY"},
	"STEVEN":      {"STEVE"},
	"EDWARD":      {"ED", "TED", "EDDIE"},
	"KENNETH":     {"KEN", "KENNY"},
	"RONALD":      {"RON", "RONNIE"},
	"TIMOTHY":     {"TIM"},
	"LAWRENCE":    {"LARRY"},
	"GERALD":      {"JERRY"},
	"WALTER":      {"WALT"},
	"PATRICK":     {"PAT"},
	"PETER":       {"PETE"},
	"NICHOLAS":    {"NICK"},
	"BENJAMIN":    {"BEN"},
	"SAMUEL":      {"SAM"},
	"GREGORY":     {"GREG"},
	"ELIZABETH":   {"BETH", "LIZ", "BETTY", "BETSY"},
	"MARGARET":    {"PEGGY", "MEG", "MAGGIE"},
	"PATRICIA":    {"PAT", "PATTY", "TRISH"},
	"BARBARA":     {"BARB", "BARBIE"},
	"JENNIFER":    {"JEN", "JENNY"},
	"DEBORAH":     {"DEBBIE", "DEB"},
	"DEBRA":       {"DEBBIE", "DEB"},
	"SUSAN":       {"SUE", "SUSIE"},
	"KATHLEEN":    {"KATHY", "KATE"},
	"KATHERINE":   {"KATHY", "KATE", "KATIE"},
	"DOROTHY":     {"DOT", "DOTTIE"},
	"VIRGINIA":    {"GINNY"},
	"JACQUELINE":  {"JACKIE"},
	"KIMBERLY":    {"KIM"},
	"CYNTHIA":     {"CINDY"},
	"SANDRA":      {"SANDY"},
	"PAMELA":      {"PAM"},
	"CHRISTINE":   {"CHRIS", "CHRISSY"},
	"REBECCA":     {"BECKY"},
	"THERESA":     {"TERRY"},
	"TERESA":      {"TERRY"},
	"JUDITH":      {"JUDY"},
}

// nicknameReverse maps every nickname back to its formal forms, built once
// at init. Each slice is sorted: the map above is ranged over in a different
// order in every process, and Nickname indexes the slice with a seeded draw.
var nicknameReverse = buildNicknameReverse()

func buildNicknameReverse() map[string][]string {
	rev := map[string][]string{}
	for formal, nicks := range nicknamePairs {
		for _, n := range nicks {
			rev[n] = append(rev[n], formal)
		}
	}
	for _, formals := range rev {
		sort.Strings(formals)
	}
	return rev
}

// Nickname substitutes a formal first name with a common nickname or vice
// versa. Names without a known alternative are returned unchanged. Case is
// preserved only as upper case (register style).
func Nickname(rng *rand.Rand, s string) string {
	key := strings.ToUpper(strings.TrimSpace(s))
	if nicks, ok := nicknamePairs[key]; ok {
		return nicks[rng.Intn(len(nicks))]
	}
	if formals, ok := nicknameReverse[key]; ok {
		return formals[rng.Intn(len(formals))]
	}
	return s
}

// CaseNoise lower-cases or title-cases an upper-case value.
func CaseNoise(rng *rand.Rand, s string) string {
	if s == "" {
		return s
	}
	if rng.Intn(2) == 0 {
		return strings.ToLower(s)
	}
	lower := strings.ToLower(s)
	return strings.ToUpper(lower[:1]) + lower[1:]
}
