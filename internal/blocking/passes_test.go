package blocking

import (
	"strings"
	"testing"

	"repro/internal/dedup"
)

func specDataset() *dedup.Dataset {
	return &dedup.Dataset{
		Name:  "spec",
		Attrs: []string{"last_name", "first_name", "zip"},
		Records: [][]string{
			{"Miller", "James", "27601"},
			{"Muller", "Jim", "27601"},
		},
		ClusterOf: []int{0, 0},
	}
}

func TestParsePasses(t *testing.T) {
	ds := specDataset()
	passes, err := ParsePasses(ds, "last_name+zip, soundex(LAST_NAME), prefix(first_name,2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 3 {
		t.Fatalf("got %d passes, want 3", len(passes))
	}
	if got := passes[0].Key(ds.Records[0]); got != "Miller"+keySep+"27601" {
		t.Errorf("concat key = %q", got)
	}
	if got := passes[1].Key(ds.Records[0]); got != "M460" {
		t.Errorf("soundex key = %q, want M460", got)
	}
	if got := passes[2].Key(ds.Records[1]); got != "JI" {
		t.Errorf("prefix key = %q, want JI", got)
	}
	if passes[0].Name != "last_name+zip" {
		t.Errorf("pass name = %q", passes[0].Name)
	}
}

func TestParsePassesErrors(t *testing.T) {
	ds := specDataset()
	for _, spec := range []string{
		"",                      // empty spec
		"no_such_attr",          // unknown attribute
		"soundex(a,b)",          // wrong arity
		"prefix(last_name)",     // missing length
		"prefix(last_name,0)",   // non-positive length
		"prefix(last_name,x)",   // non-integer length
		"metaphone(last_name)",  // unknown function
		"soundex(no_such_attr)", // unknown attribute inside a function
	} {
		if _, err := ParsePasses(ds, spec); err == nil {
			t.Errorf("spec %q: expected an error", spec)
		}
	}
}

// TestConcatKeyBoundary: the component separator must keep "a"+"bc"
// distinct from "ab"+"c".
func TestConcatKeyBoundary(t *testing.T) {
	ds := &dedup.Dataset{
		Name:    "bound",
		Attrs:   []string{"x", "y"},
		Records: [][]string{{"a", "bc"}, {"ab", "c"}},
	}
	passes, err := ParsePasses(ds, "x+y")
	if err != nil {
		t.Fatal(err)
	}
	if passes[0].Key(ds.Records[0]) == passes[0].Key(ds.Records[1]) {
		t.Fatal("concatenation keys collide across attribute boundaries")
	}
}

func TestEntropyPassesNames(t *testing.T) {
	ds := specDataset()
	passes := EntropyPasses(ds, 2)
	if len(passes) != 2 {
		t.Fatalf("got %d passes, want 2", len(passes))
	}
	for _, p := range passes {
		found := false
		for _, a := range ds.Attrs {
			if p.Name == a {
				found = true
			}
		}
		if !found {
			t.Errorf("pass name %q is not an attribute name", p.Name)
		}
		if strings.TrimSpace(p.Name) == "" {
			t.Errorf("empty pass name")
		}
	}
	// Raw-value keys: no trimming.
	rec := []string{" Miller ", "J", "1"}
	if got := passes[0].Key(rec); got != rec[dedup.MostUniqueAttrs(ds, 2)[0]] {
		t.Errorf("entropy pass key %q is not the raw value", got)
	}
}

func TestPrefixKey(t *testing.T) {
	k := prefixKey(0, 3)
	if k([]string{" williams "}) != "WIL" {
		t.Errorf("prefixKey = %q", k([]string{" williams "}))
	}
	if k([]string{"AB"}) != "AB" {
		t.Errorf("short value key = %q", k([]string{"AB"}))
	}
}
