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
// into ncserve), and the analysis stack must not import the test kit from
// non-test code.
func TestImportDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	for _, tc := range []struct {
		roots  []string
		banned []string
	}{
		{[]string{"repro/cmd/ncserve", "repro/internal/obs"}, []string{"repro/internal/bench", "repro/internal/testkit"}},
		{[]string{"repro/internal/bench"}, []string{"repro/internal/testkit"}},
	} {
		out, err := exec.Command("go", append([]string{"list", "-deps"}, tc.roots...)...).Output()
		if err != nil {
			t.Fatalf("go list -deps %v: %v", tc.roots, err)
		}
		deps := strings.Fields(string(out))
		if len(deps) == 0 {
			t.Errorf("go list -deps %v printed nothing", tc.roots)
		}
		for _, b := range tc.banned {
			if slices.Contains(deps, b) {
				t.Errorf("%v depends on %s", tc.roots, b)
			}
		}
	}
}
