package corrupt

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simil"
	"repro/internal/voter"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestSubSeedIndependence(t *testing.T) {
	s1 := SubSeed(42, 0)
	s2 := SubSeed(42, 1)
	if s1 == s2 {
		t.Error("consecutive sub-seeds collide")
	}
	if SubSeed(42, 0) != s1 {
		t.Error("SubSeed is not deterministic")
	}
	if SubSeed(43, 0) == s1 {
		t.Error("different masters give the same sub-seed")
	}
}

func TestTypoIsDistanceOne(t *testing.T) {
	r := rng()
	for i := 0; i < 500; i++ {
		orig := "WILLIAMS"
		got := Typo(r, orig)
		if d := simil.DamerauLevenshtein(orig, got); d != 1 {
			t.Fatalf("Typo(%q) = %q, distance %d, want 1", orig, got, d)
		}
	}
}

func TestTypoShortStringsUntouched(t *testing.T) {
	r := rng()
	for _, s := range []string{"", "A", "AB"} {
		if got := Typo(r, s); got != s {
			t.Errorf("Typo(%q) = %q, want unchanged", s, got)
		}
	}
}

func TestOCRErrorChangesDigitness(t *testing.T) {
	r := rng()
	got := OCRError(r, "NICOLE")
	if got == "NICOLE" {
		t.Fatal("OCRError left a confusable value unchanged")
	}
	// Exactly one position differs, and at that position one side is a digit.
	diff := 0
	for i := range got {
		if got[i] != "NICOLE"[i] {
			diff++
			gd := got[i] >= '0' && got[i] <= '9'
			od := "NICOLE"[i] >= '0' && "NICOLE"[i] <= '9'
			if gd == od {
				t.Errorf("OCR diff at %d is not letter-digit: %c vs %c", i, "NICOLE"[i], got[i])
			}
		}
	}
	if diff != 1 {
		t.Errorf("OCRError changed %d positions, want 1", diff)
	}
	if got := OCRError(r, "WWW"); got != "WWW" {
		t.Errorf("OCRError(%q) = %q, want unchanged (no confusable char)", "WWW", got)
	}
}

func TestPhoneticErrorPreservesSoundex(t *testing.T) {
	r := rng()
	for i := 0; i < 500; i++ {
		orig := "BAILEY"
		got := phoneticError(r, orig)
		if simil.Soundex(got) != simil.Soundex(orig) {
			t.Fatalf("phoneticError(%q) = %q changed soundex %s -> %s",
				orig, got, simil.Soundex(orig), simil.Soundex(got))
		}
	}
}

func TestPhoneticErrorEventuallyChanges(t *testing.T) {
	r := rng()
	changed := false
	for i := 0; i < 100 && !changed; i++ {
		changed = phoneticError(r, "BAILEY") != "BAILEY"
	}
	if !changed {
		t.Error("phoneticError never produced a respelling")
	}
}

func TestAbbreviate(t *testing.T) {
	r := rng()
	got := abbreviate(r, "ALEXANDER")
	if got != "A" && got != "A." {
		t.Errorf("abbreviate = %q", got)
	}
	if got := abbreviate(r, ""); got != "" {
		t.Errorf("abbreviate(empty) = %q", got)
	}
}

func TestTruncateTailIsPrefix(t *testing.T) {
	f := func(s string) bool {
		r := rng()
		got := TruncateTail(r, s)
		return strings.HasPrefix(s, got) && got != "" == (s != "")
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	r := rng()
	got := TruncateTail(r, "BRAGGTOWN")
	if !strings.HasPrefix("BRAGGTOWN", got) || got == "BRAGGTOWN" {
		t.Errorf("TruncateTail(BRAGGTOWN) = %q", got)
	}
}

func TestTruncateHeadIsSuffix(t *testing.T) {
	r := rng()
	got := truncateHead(r, "BRAGGTOWN")
	if !strings.HasSuffix("BRAGGTOWN", got) || got == "BRAGGTOWN" {
		t.Errorf("truncateHead(BRAGGTOWN) = %q", got)
	}
}

func TestDropTokenSubset(t *testing.T) {
	r := rng()
	got := DropToken(r, "ANH THI NGUYEN")
	tokens := strings.Fields(got)
	if len(tokens) != 2 {
		t.Fatalf("DropToken result = %q", got)
	}
	if got := DropToken(r, "SINGLE"); got != "SINGLE" {
		t.Errorf("DropToken(single token) = %q", got)
	}
}

func TestTransposeTokensPreservesMultiset(t *testing.T) {
	r := rng()
	orig := "ANH THI NGUYEN"
	got := TransposeTokens(r, orig)
	if got == orig {
		t.Fatalf("TransposeTokens did not change order")
	}
	a := strings.Fields(orig)
	b := strings.Fields(got)
	if len(a) != len(b) {
		t.Fatalf("token count changed: %q", got)
	}
	counts := map[string]int{}
	for _, x := range a {
		counts[x]++
	}
	for _, x := range b {
		counts[x]--
	}
	for tok, c := range counts {
		if c != 0 {
			t.Errorf("token multiset changed at %q", tok)
		}
	}
}

func TestFormatNoiseOnlyNonAlnum(t *testing.T) {
	r := rng()
	stripped := func(s string) string {
		return strings.Map(func(c rune) rune {
			if c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
				return c
			}
			return -1
		}, s)
	}
	for i := 0; i < 100; i++ {
		orig := "JRS RIDGE"
		got := FormatNoise(r, orig)
		if stripped(got) != stripped(orig) {
			t.Fatalf("FormatNoise changed alphanumerics: %q -> %q", orig, got)
		}
	}
}

func TestWhitespacePadTrimsBack(t *testing.T) {
	r := rng()
	got := whitespacePad(r, "SMITH")
	if strings.TrimSpace(got) != "SMITH" {
		t.Errorf("whitespacePad core changed: %q", got)
	}
	if got == "SMITH" {
		t.Error("whitespacePad added no whitespace")
	}
}

func TestCaseNoiseCaseInsensitiveEqual(t *testing.T) {
	r := rng()
	got := CaseNoise(r, "SMITH")
	if !strings.EqualFold(got, "SMITH") {
		t.Errorf("CaseNoise changed letters: %q", got)
	}
	if got == "SMITH" {
		t.Error("CaseNoise left the value unchanged")
	}
}

func makeRecord() voter.Record {
	r := voter.NewRecord()
	r.SetName("ncid", "AA1")
	r.SetName("first_name", "DEBRA")
	r.SetName("midl_name", "ANN")
	r.SetName("last_name", "WILLIAMS")
	r.SetName("birth_place", "NC")
	r.SetName("street_name", "MAIN STREET")
	r.SetName("res_city_desc", "DURHAM")
	r.SetName("age", "45")
	return r
}

func TestConfuseValues(t *testing.T) {
	r := makeRecord()
	confuseValues(&r, voter.IdxFirstName, voter.IdxLastName)
	if r.GetName("first_name") != "WILLIAMS" || r.GetName("last_name") != "DEBRA" {
		t.Errorf("confuseValues: %q / %q", r.GetName("first_name"), r.GetName("last_name"))
	}
}

func TestIntegrateValue(t *testing.T) {
	r := makeRecord()
	integrateValue(&r, voter.IdxMiddleName, voter.IdxFirstName)
	if r.GetName("first_name") != "DEBRA ANN" {
		t.Errorf("first_name = %q", r.GetName("first_name"))
	}
	if r.GetName("midl_name") != "" {
		t.Errorf("midl_name = %q, want empty", r.GetName("midl_name"))
	}
	// Integrating an empty value is a no-op.
	r2 := makeRecord()
	r2.SetName("midl_name", "")
	integrateValue(&r2, voter.IdxMiddleName, voter.IdxFirstName)
	if r2.GetName("first_name") != "DEBRA" {
		t.Errorf("no-op integrate changed first_name to %q", r2.GetName("first_name"))
	}
}

func TestScatterValuesPreservesTokenUnion(t *testing.T) {
	r := makeRecord()
	r.SetName("midl_name", "AN LE")
	r.SetName("last_name", "MA")
	scatterValues(rng(), &r, voter.IdxMiddleName, voter.IdxLastName)
	got := append(strings.Fields(r.GetName("midl_name")), strings.Fields(r.GetName("last_name"))...)
	if len(got) != 3 {
		t.Fatalf("token count = %d, want 3", len(got))
	}
	want := map[string]bool{"AN": true, "LE": true, "MA": true}
	for _, tok := range got {
		if !want[tok] {
			t.Errorf("unexpected token %q", tok)
		}
	}
}

func TestOutlierAge(t *testing.T) {
	r := makeRecord()
	OutlierAge(rng(), &r)
	if len(r.GetName("age")) != 3 {
		t.Errorf("outlier age = %q, want 3 digits", r.GetName("age"))
	}
}

func TestCorruptorDeterminism(t *testing.T) {
	apply := func() voter.Record {
		r := makeRecord()
		c := NewCorruptor(Heavy(), rand.New(rand.NewSource(99)))
		for i := 0; i < 10; i++ {
			c.Apply(&r)
		}
		return r
	}
	a, b := apply(), apply()
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("non-deterministic corruption at column %d: %q vs %q",
				i, a.Values[i], b.Values[i])
		}
	}
}

func TestCorruptorZeroConfigIsNoop(t *testing.T) {
	r := makeRecord()
	orig := r.Clone()
	c := NewCorruptor(Config{}, rng())
	c.Apply(&r)
	for i := range r.Values {
		if r.Values[i] != orig.Values[i] {
			t.Fatalf("zero config changed column %d", i)
		}
	}
}

func TestCorruptorHeavyChangesSomething(t *testing.T) {
	c := NewCorruptor(Heavy(), rng())
	changed := false
	for i := 0; i < 20 && !changed; i++ {
		r := makeRecord()
		orig := r.Clone()
		c.Apply(&r)
		for j := range r.Values {
			if r.Values[j] != orig.Values[j] {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Error("Heavy corruptor changed nothing in 20 records")
	}
}

func TestCorruptorNeverTouchesNCID(t *testing.T) {
	c := NewCorruptor(Heavy(), rng())
	for i := 0; i < 200; i++ {
		r := makeRecord()
		c.Apply(&r)
		if r.NCID() != "AA1" {
			t.Fatal("corruptor changed the gold-standard NCID")
		}
	}
}

// TestNicknameReverseDeterministic: a nickname of several formal names must
// resolve the same way in every process, or corpora are not a function of
// the seed. The reverse table is built by ranging over a map, so its slices
// are sorted.
func TestNicknameReverseDeterministic(t *testing.T) {
	multi := 0
	for nick, formals := range nicknameReverse {
		if !sort.StringsAreSorted(formals) {
			t.Errorf("nicknameReverse[%q] = %v is not sorted", nick, formals)
		}
		if len(formals) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no nickname with several formal names; the test pins nothing")
	}
	if got := Nickname(rand.New(rand.NewSource(1)), "TERRY"); got != "THERESA" {
		t.Errorf(`Nickname(seed 1, "TERRY") = %q, want "THERESA"`, got)
	}
}

func TestNicknameBothDirections(t *testing.T) {
	r := rng()
	got := Nickname(r, "WILLIAM")
	if got == "WILLIAM" {
		t.Errorf("formal name not substituted: %q", got)
	}
	// A nickname maps back to one of its formal names.
	if back := Nickname(r, got); back == got {
		t.Errorf("nickname %q not reversible", got)
	}
	// Unknown names pass through.
	if got := Nickname(r, "XYZZY"); got != "XYZZY" {
		t.Errorf("unknown name changed: %q", got)
	}
	// Case-insensitive lookup, trimmed.
	if got := Nickname(r, " robert "); got == " robert " {
		t.Error("case/space-insensitive lookup failed")
	}
}

func TestCorruptorNicknameOnlyFirstName(t *testing.T) {
	cfg := Config{Nickname: 1}
	c := NewCorruptor(cfg, rng())
	r := makeRecord()
	r.SetName("first_name", "WILLIAM")
	r.SetName("last_name", "JAMES") // a formal name in the last slot stays
	c.Apply(&r)
	if r.GetName("first_name") == "WILLIAM" {
		t.Error("first name nickname not applied at rate 1")
	}
	if r.GetName("last_name") != "JAMES" {
		t.Errorf("nickname leaked into last_name: %q", r.GetName("last_name"))
	}
}
