package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/loadgen"
)

// facts are the exact counts and digests a lap's outputs are checked by: they
// must be identical in every lap of a run and, for seed 1, equal to the
// checked-in golden file.
type facts struct {
	BaseRows     int   `json:"baseRows"`
	BaseRecords  int   `json:"baseRecords"`
	BaseClusters int   `json:"baseClusters"`
	BasePairs    int   `json:"basePairs"`
	StoreBytes   int64 `json:"storeBytes"`

	RefreshRows         int   `json:"refreshRows"`
	Records             int   `json:"records"`
	Clusters            int   `json:"clusters"`
	Pairs               int   `json:"pairs"`
	RefreshedStoreBytes int64 `json:"refreshedStoreBytes"`

	// HotDigest and WideDigest fold the SHA-256 of each distinct path's
	// response body, in mix order.
	HotDigest  string `json:"hotDigest"`
	WideDigest string `json:"wideDigest"`

	DedupRecords int `json:"dedupRecords"`
	DedupPairs   int `json:"dedupPairs"`
	// Candidates is the unique candidate-pair count per measure; BestF1Bits is
	// math.Float64bits of the best F1 per measure, in hex, with the readable
	// value after a slash.
	Candidates map[string]int    `json:"candidates"`
	BestF1Bits map[string]string `json:"bestF1Bits"`
}

func f1Bits(f1 float64) string {
	return fmt.Sprintf("%016x/%.6f", math.Float64bits(f1), f1)
}

// diff names the fields in which two sets of facts differ.
func (f facts) diff(other facts) []string {
	var out []string
	a, b := reflect.ValueOf(f), reflect.ValueOf(other)
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s: %v != %v", a.Type().Field(i).Name, a.Field(i).Interface(), b.Field(i).Interface()))
		}
	}
	return out
}

// wideDigestStride thins the wide mix's digest to every eighth path: the mix
// has one path per NCID, and hashing them all would cost more than the timed
// phase itself.
const wideDigestStride = 8

// responseDigest requests every stride-th distinct path of the mix once more
// and folds path, status and body hash into one digest.
func responseDigest(h http.Handler, targets []loadgen.Target, stride int) string {
	fold := sha256.New()
	for _, t := range targets {
		for i := 0; i < len(t.Paths); i += stride {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, t.Paths[i], nil))
			body := sha256.Sum256(rec.Body.Bytes())
			fmt.Fprintf(fold, "%s %d %x\n", t.Paths[i], rec.Code, body)
		}
	}
	return hex.EncodeToString(fold.Sum(nil))
}

// goldenPath is the checked-in facts file of a workload; only seed 1 has one.
func goldenPath(dir, workload string) string {
	return filepath.Join(dir, workload+"-seed1.json")
}

func writeGolden(path string, f facts) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns the keys of a string-keyed map in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func joinLines(lines []string) string { return strings.Join(lines, "\n  ") }
