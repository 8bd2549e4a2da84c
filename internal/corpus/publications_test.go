package corpus

import (
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dedup"
)

func TestPublicationsSnapshotsWellFormed(t *testing.T) {
	cfg := DefaultPublicationConfig(1, 200, 6)
	snaps := GeneratePublications(cfg)
	if len(snaps) != 6 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	schema := PublicationSchema()
	for si, s := range snaps {
		for ri, r := range s.Records {
			if len(r.Values) != len(schema.Attrs) {
				t.Fatalf("snapshot %d record %d width %d", si, ri, len(r.Values))
			}
			if r.ObjectID == "" {
				t.Fatalf("snapshot %d record %d misses id", si, ri)
			}
		}
	}
	if len(snaps[5].Records) <= len(snaps[0].Records) {
		t.Error("bibliography did not grow")
	}
}

func TestPublicationsPipelineEndToEnd(t *testing.T) {
	cfg := DefaultPublicationConfig(2, 250, 6)
	d := NewDataset(PublicationSchema())
	for _, s := range GeneratePublications(cfg) {
		if _, err := d.ImportSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	// Yearly republication floods the corpus with exact duplicates.
	removed := float64(d.TotalRows()-d.NumRecords()) / float64(d.TotalRows())
	if removed < 0.45 {
		t.Errorf("removed %.1f%%, want > 45%%", 100*removed)
	}
	if d.NumPairs() == 0 {
		t.Fatal("no fuzzy duplicates from re-entry")
	}
	// Detection works on the third domain out of the box.
	ds := d.Export()
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	cands, _ := blocking.Generate(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, 4), Window: 20})
	f1, _ := dedup.EvaluateCandidatesParallel(ds, dedup.MeasureTrigramJaccard, cands, 50, dedup.ScoreOpts{}).BestF1()
	if f1 < 0.5 {
		t.Errorf("publication detection best F1 = %v", f1)
	}
}

func TestPublicationsVenueDrift(t *testing.T) {
	cfg := DefaultPublicationConfig(3, 100, 6)
	cfg.DriftYear = 3
	snaps := GeneratePublications(cfg)
	hasFull, hasAbbrev := false, false
	for si, s := range snaps {
		for _, r := range s.Records {
			venue := r.Values[2]
			long := strings.Contains(venue, " ")
			if si < 3 && !long {
				t.Fatalf("abbreviated venue %q before the drift (snapshot %d)", venue, si)
			}
			if si >= 3 && long {
				t.Fatalf("full venue %q after the drift (snapshot %d)", venue, si)
			}
			if long {
				hasFull = true
			} else {
				hasAbbrev = true
			}
		}
	}
	if !hasFull || !hasAbbrev {
		t.Error("drift eras not both observed")
	}
}

func TestPublicationsDeterminism(t *testing.T) {
	a := GeneratePublications(DefaultPublicationConfig(7, 150, 4))
	b := GeneratePublications(DefaultPublicationConfig(7, 150, 4))
	for i := range a {
		if len(a[i].Records) != len(b[i].Records) {
			t.Fatalf("snapshot %d sizes differ", i)
		}
		for j := range a[i].Records {
			for k := range a[i].Records[j].Values {
				if a[i].Records[j].Values[k] != b[i].Records[j].Values[k] {
					t.Fatalf("non-deterministic value at %d/%d/%d", i, j, k)
				}
			}
		}
	}
}
