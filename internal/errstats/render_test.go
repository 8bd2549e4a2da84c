package errstats

import (
	"strings"
	"testing"
)

func renderInput() *Table {
	return Analyze(Input{
		Attrs:   []string{"first", "last"},
		AgeAttr: "",
		Records: [][]string{
			{"ADELL", "SMITH"},
			{"ADELE", "SMITH"},
			{"", "JONES"},
		},
		Clusters: [][]int{{0, 1}, {2}},
	})
}

func TestRenderText(t *testing.T) {
	var sb strings.Builder
	RenderText(&sb, []Column{{Name: "toy", Table: renderInput()}})
	out := sb.String()
	for _, want := range []string{"error type", "toy (3 rec / 1 pairs)", "typo", "first 1 (100.0%)", "missing"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table misses %q:\n%s", want, out)
		}
	}
}
