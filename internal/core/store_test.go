package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/docstore"
	"repro/internal/voter"
)

// TestStoreStringConversions holds the two reflection-free conversions of
// clusterFromDoc against what they replaced — fmt.Sprint on every snapshot
// date and a rune-by-rune unescape of every inserted key — on strings and on
// what a hostile document may hold in a string's place.
func TestStoreStringConversions(t *testing.T) {
	for _, v := range []any{"2008-01-01", "", "ÅSA ．", 2008.5, float64(20080101), 1e21, 7, int64(-7), nil, true, []any{"a", 1.0}, docstore.Document{"k": "v"}} {
		if got, want := asString(v), fmt.Sprint(v); got != want {
			t.Errorf("asString(%#v) = %q, fmt.Sprint gives %q", v, got, want)
		}
	}
	oldUnescape := func(k string) string {
		out := make([]rune, 0, len(k))
		for _, r := range k {
			if r == '．' {
				r = '.'
			}
			out = append(out, r)
		}
		return string(out)
	}
	for _, k := range []string{"2008-01-01", "", "2010．11．03", "．", "．．a．", "a.b", "ÅSA．Ö", "日本．語"} {
		if got, want := unescapeField(k), oldUnescape(k); got != want {
			t.Errorf("unescapeField(%q) = %q, was %q", k, got, want)
		}
		if got := unescapeField(docstore.FieldPathEscape(k)); got != oldUnescape(k) {
			t.Errorf("unescapeField(FieldPathEscape(%q)) = %q", k, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { unescapeField("2008-01-01") }); n != 0 {
		t.Errorf("unescaping a key without a full-width dot allocates %v times", n)
	}
}

// TestRecordDocSizesGroupsOnce: group maps regrown value by value were most
// of ToDocDB's garbage. A record with every value set must allocate no more
// than making its four group maps at their final size and filling them.
func TestRecordDocSizesGroupsOnce(t *testing.T) {
	r := voter.NewRecord()
	for i := range r.Values {
		r.Values[i] = "x"
	}
	groups := []voter.Group{voter.GroupMeta, voter.GroupPerson, voter.GroupDistrict, voter.GroupElection}
	cols := make([][]int, len(groups))
	for i, g := range groups {
		cols[i] = voter.GroupIndices(g)
	}
	var doc docstore.Document // escapes, as recordDoc's result does
	want := testing.AllocsPerRun(20, func() {
		doc = docstore.Document{}
		for i, g := range groups {
			group := make(docstore.Document, len(cols[i]))
			for _, c := range cols[i] {
				group[voter.Attributes[c].Name] = r.Values[c]
			}
			doc[g.String()] = group
		}
	})
	if got := testing.AllocsPerRun(20, func() { recordDoc(r) }); got > want {
		t.Errorf("recordDoc allocates %v times, its four final-size maps %v", got, want)
	}
}

// TestClusterFromDocHostileShapes loads documents whose fields hold the
// wrong types as it always did: non-string dates print, misfiled or unknown
// attribute names and non-document groups are ignored, a missing or
// non-document meta leaves the defaults.
func TestClusterFromDocHostileShapes(t *testing.T) {
	c, err := clusterFromDoc(docstore.Document{
		"_id": "X1",
		"records": []any{
			docstore.Document{
				"person":   docstore.Document{"first_name": "ANN", "ncid": "misfiled", "no_such_attr": "x", "age": 41.0},
				"meta":     docstore.Document{"ncid": "X1", "last_name": "misfiled"},
				"district": "not a document",
				"unknown":  docstore.Document{"first_name": "ignored"},
			},
			"not a record",
		},
		"meta": docstore.Document{
			"snapshots":    []any{[]any{"2008-01-01", 2009.0, nil, 7}, "not an array"},
			"firstVersion": []any{2.0},
			"inserted":     docstore.Document{"2010．11．03": 2.0, "2008-01-01": "x"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := voter.NewRecord()
	want.SetName("first_name", "ANN")
	want.SetName("ncid", "X1")
	if !reflect.DeepEqual(c.Records[0].Rec, want) {
		t.Errorf("record 0 = %v", c.Records[0].Rec.Values)
	}
	if !reflect.DeepEqual(c.Records[1].Rec, voter.NewRecord()) {
		t.Errorf("record 1 = %v", c.Records[1].Rec.Values)
	}
	if got := c.Records[0].Snapshots; !reflect.DeepEqual(got, []string{"2008-01-01", "2009", "<nil>", "7"}) {
		t.Errorf("snapshots = %q", got)
	}
	if c.Records[0].FirstVersion != 2 || c.Records[1].FirstVersion != 1 || c.Records[1].Snapshots != nil {
		t.Errorf("first versions %d, %d; snapshots of record 1 %v", c.Records[0].FirstVersion, c.Records[1].FirstVersion, c.Records[1].Snapshots)
	}
	if !reflect.DeepEqual(c.Inserted, map[string]int{"2010.11.03": 2, "2008-01-01": 0}) {
		t.Errorf("inserted = %v", c.Inserted)
	}
	for _, meta := range []any{nil, "not a document", []any{}} {
		c, err := clusterFromDoc(docstore.Document{"_id": "X2", "records": []any{docstore.Document{}}, "meta": meta})
		if err != nil || len(c.Records) != 1 || c.Records[0].FirstVersion != 1 || len(c.Inserted) != 0 || len(c.SimMaps) != 0 {
			t.Errorf("meta %v: cluster %+v, %v", meta, c, err)
		}
	}
}
