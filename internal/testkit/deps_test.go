package testkit_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestImportDirection keeps the dependency arrows pointing one way: the
// server and its metrics must not link the analysis stack or the test kit
// (one import of bench from obs puts synth, corrupt, dedup, blocking, …
// into ncserve), the analysis stack must not import the test kit from
// non-test code, and the pipeline layers reach the metrics registry only
// through the counter seam, which itself imports nothing. Neither does the
// string-kernel leaf simil, which hetero, plaus, dedup, blocking and
// errstats share. The store seam sits above every layer: only binaries,
// examples and tests open or commit a store through it. A banned entry
// also bans every package below it; the roots themselves are exempt.
func TestImportDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	layers := []string{"repro/internal/core", "repro/internal/docstore", "repro/internal/provenance",
		"repro/internal/dedup", "repro/internal/blocking", "repro/internal/serving"}
	for _, tc := range []struct {
		roots  []string
		banned []string
	}{
		{[]string{"repro/cmd/ncserve", "repro/internal/obs"}, []string{"repro/internal/bench", "repro/internal/testkit"}},
		{[]string{"repro/internal/bench"}, []string{"repro/internal/testkit"}},
		{[]string{"repro/internal/counter"}, []string{"repro"}},
		{[]string{"repro/internal/simil"}, []string{"repro"}},
		{layers, []string{"repro/internal/obs", "net/http"}},
		{slices.Concat(layers, []string{"repro/internal/hetero", "repro/internal/plaus", "repro/internal/custom", "repro/internal/httpapi"}),
			[]string{"repro/internal/store"}},
	} {
		out, err := exec.Command("go", append([]string{"list", "-deps"}, tc.roots...)...).Output()
		if err != nil {
			t.Fatalf("go list -deps %v: %v", tc.roots, err)
		}
		deps := strings.Fields(string(out))
		if len(deps) == 0 {
			t.Errorf("go list -deps %v printed nothing", tc.roots)
		}
		for _, dep := range deps {
			for _, b := range tc.banned {
				if !slices.Contains(tc.roots, dep) && (dep == b || strings.HasPrefix(dep, b+"/")) {
					t.Errorf("%v depends on %s", tc.roots, dep)
				}
			}
		}
	}
}
