package docstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// jsonDoc is what the load path used to do with a line.
func jsonDoc(line []byte) (Document, error) {
	var d Document
	err := json.Unmarshal(line, &d)
	return d, err
}

// sameDocument is reflect.DeepEqual plus the one thing it cannot see: the
// sign of a zero, which json.Marshal spells out.
func sameDocument(t testing.TB, got, want Document) bool {
	t.Helper()
	g, err1 := json.Marshal(got)
	w, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		t.Fatalf("re-marshal: %v, %v", err1, err2)
	}
	return reflect.DeepEqual(got, want) && bytes.Equal(g, w)
}

// clusterShapedDoc is a document of the shape core.clusterDoc emits: records
// split into group sub-documents, hashes, per-record snapshot arrays, insert
// counts under snapshot dates and the nested similarity maps.
func clusterShapedDoc(i int) Document {
	records := []any{}
	hashes := []any{}
	first := []any{}
	snaps := []any{}
	rows := Document{}
	for r := 0; r < 3; r++ {
		person := Document{}
		for a := 0; a < 25; a++ {
			person[fmt.Sprintf("person_attr_%02d", a)] = fmt.Sprintf("VALUE %d", (i+a*r)%40)
		}
		records = append(records, Document{
			"person":   person,
			"meta":     Document{"ncid": fmt.Sprintf("AB%06d", i), "snapshot_dt": "2008-01-01", "voter_status_desc": "ACTIVE"},
			"election": Document{"vtd_abbrv": "60", "vtd_desc": "VOTING DISTRICT 60"},
		})
		hashes = append(hashes, fmt.Sprintf("%032x", i*31+r))
		first = append(first, float64(r/2+1))
		snaps = append(snaps, []any{"2008-01-01", "2008-11-03"})
		if r > 0 {
			row := Document{}
			for j := 0; j < r; j++ {
				row[fmt.Sprint(j)] = 1 / float64(i+j+2)
			}
			rows[fmt.Sprint(r)] = row
		}
	}
	return Document{
		"_id": fmt.Sprintf("AB%06d", i), "size": 3.0, "plausibility": 1.0, "heterogeneity": 0.3499698105777552,
		"records": records,
		"meta": Document{
			"hashes": hashes, "firstVersion": first, "snapshots": snaps,
			"inserted": Document{"2008-01-01": 1.0, "2010-11-03": 2.0},
			"sims":     Document{"plausibility": Document{"v1": rows}, "heterogeneity_all": Document{"v1": rows, "v2": Document{}}},
		},
	}
}

func clusterShapedLine(t testing.TB, i int) []byte {
	t.Helper()
	var enc docEncoder
	line, err := enc.encode(clusterShapedDoc(i))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(line)
}

// decoderFastLines are lines the decoder must read itself. Each has a seed
// file of its name under testdata/fuzz/FuzzDocDecoder.
var decoderFastLines = []struct{ name, line string }{
	{"empty-object", `{}`},
	{"dataset-document", `{"_id":"dataset","imports":[{"newObjects":3,"newRecords":4,"rows":9,"snapshot":"2008-01-01"}],"mode":2,"totalRows":9,"versions":[{"number":1,"snapshots":["2008-01-01","2008-11-03"]}]}`},
	{"scalars", `{"_id":"AA1","size":3,"plausibility":0.75,"ok":true,"no":false,"none":null,"empty":""}`},
	{"empty-containers", `{"o":{},"a":[],"oo":{"o":{}},"aa":[[]],"ao":[{}]}`},
	{"nested-arrays", `{"a":[[1,[2,[3,["x",[]]]]],[{"k":[{"j":[null]}]}]]}`},
	{"negative-zero", `{"z":-0,"zf":-0.0,"ze":-0e0,"p":0}`},
	{"number-forms", `{"a":1e21,"b":0.000001,"c":1E-7,"d":1.5e+3,"e":-12.25,"f":5e-324,"g":1.7976931348623157e308,"h":1e-400}`},
	{"integers-past-2-53", `{"a":9007199254740993,"b":12345678901234567890,"c":-9223372036854775809}`},
	{"duplicate-keys", `{"a":1,"b":{"x":1},"a":2,"b":{"y":2},"c":[{"k":1,"k":2}]}`},
	{"del-in-string", "{\"k\x7f\":\"v\x7f~ !#$%&'()*+,-./:;<=>?@[]^_`{|}\"}"},
	{"inter-token-space", " \t\r\n{ \"a\" \t: \r[ 1 ,\n2 ] , \"b\" : { } , \"c\":[ ]\n} \t\r\n"},
	{"inserted-and-sims", `{"meta":{"inserted":{"2008-01-01":1},"sims":{"k":{"v1":{"1":{"0":0.5}}}}}}`},
}

// TestDocDecoderMatchesJSON holds the fast path against json.Unmarshal on
// every value shape clusterDoc and the dataset document emit, and on the
// corners of the grammar it claims for itself.
func TestDocDecoderMatchesJSON(t *testing.T) {
	var dec docDecoder
	check := func(name string, line []byte) {
		want, err := jsonDoc(line)
		if err != nil {
			t.Fatalf("%s: json rejects the line: %v", name, err)
		}
		got, ok := dec.document(line)
		if !ok {
			t.Errorf("%s: declined", name)
			return
		}
		if !sameDocument(t, got, want) {
			t.Errorf("%s:\n got %v\nwant %v", name, got, want)
		}
	}
	for _, row := range decoderFastLines {
		check(row.name, []byte(row.line))
	}
	for i := 0; i < 20; i++ {
		check(fmt.Sprint("cluster-shaped ", i), clusterShapedLine(t, i))
	}
	if z, _ := dec.document([]byte(`{"z":-0}`)); !math.Signbit(z["z"].(float64)) {
		t.Error("-0 lost its sign")
	}
}

// decoderDeclinedLines are lines the decoder must leave to json.Unmarshal,
// valid and invalid alike. Each has a seed file of its name.
var decoderDeclinedLines = []struct{ name, line string }{
	{"escape-in-value", `{"a":"q\"uote"}`},
	{"escape-in-key", `{"a\nb":1}`},
	{"unicode-escape", `{"a":"\u00e9\ud83d\ude00"}`},
	{"lone-surrogate-escape", `{"a":"\ud83d"}`},
	{"bad-escape", `{"a":"\x"}`},
	{"utf8-value", `{"name":"ÅSA"}`},
	{"utf8-key", `{"ä":1,"2010．11．03":2}`},
	{"invalid-utf8", "{\"a\":\"bad\xffutf8\",\"\xc3\":1}"},
	{"control-character", "{\"a\":\"tab\there\"}"},
	{"nul-after-value", "{\"a\":1}\x00"},
	{"leading-zero", `{"a":01}`},
	{"negative-leading-zero", `{"a":-01}`},
	{"no-fraction-digits", `{"a":1.}`},
	{"no-integer-digits", `{"a":.5}`},
	{"plus-sign", `{"a":+1}`},
	{"bare-minus", `{"a":-}`},
	{"no-exponent-digits", `{"a":1e}`},
	{"signed-empty-exponent", `{"a":1e+}`},
	{"float-overflow", `{"a":1e999,"b":2}`},
	{"hex-number", `{"a":0x10}`},
	{"bad-literal", `{"a":tru}`},
	{"literal-runs-on", `{"a":nullx}`},
	{"capital-literal", `{"a":True}`},
	{"trailing-garbage", `{"a":1} x`},
	{"second-document", `{"a":1}{"b":2}`},
	{"trailing-comma-object", `{"a":1,}`},
	{"trailing-comma-array", `{"a":[1,]}`},
	{"missing-colon", `{"a" 1}`},
	{"missing-comma", `{"a":1 "b":2}`},
	{"unquoted-key", `{a:1}`},
	{"truncated-object", `{"a":1`},
	{"truncated-array", `{"a":[1,2`},
	{"truncated-string", `{"a":"xy`},
	{"truncated-key", `{"a`},
	{"truncated-literal", `{"a":tr`},
	{"empty-line", ``},
	{"blank-line", " \t"},
	{"top-level-null", `null`},
	{"top-level-array", `[{"_id":"a"}]`},
	{"top-level-string", `"a"`},
	{"top-level-number", `1`},
	{"too-deep", `{"a":` + strings.Repeat(`[`, maxDecodeDepth) + strings.Repeat(`]`, maxDecodeDepth) + `}`},
	{"too-deep-objects", strings.Repeat(`{"a":`, maxDecodeDepth+1) + `1` + strings.Repeat(`}`, maxDecodeDepth+1)},
}

// TestDocDecoderDeclines sends every such line through decode and requires
// json.Unmarshal's value or its exact error text — the corrupt-line messages
// of both loaders are json's own.
func TestDocDecoderDeclines(t *testing.T) {
	var dec docDecoder
	for _, row := range decoderDeclinedLines {
		line := []byte(row.line)
		if _, ok := dec.document(line); ok {
			t.Errorf("%s: the fast path took %q", row.name, row.line)
		}
		want, wantErr := jsonDoc(line)
		got, err := dec.decode(line)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: err = %v, json's = %v", row.name, err, wantErr)
		}
		if wantErr == nil && !sameDocument(t, got, want) {
			t.Errorf("%s:\n got %v\nwant %v", row.name, got, want)
		}
		// A declined line leaves the decoder fit for the next one.
		if next, ok := dec.document([]byte(`{"a":[1]}`)); !ok || !reflect.DeepEqual(next, Document{"a": []any{1.0}}) {
			t.Fatalf("after %s: got %v, %v", row.name, next, ok)
		}
	}
	// One level less than too deep is the decoder's own.
	atLimit := `{"a":` + strings.Repeat(`[`, maxDecodeDepth-1) + strings.Repeat(`]`, maxDecodeDepth-1) + `}`
	if _, ok := dec.document([]byte(atLimit)); !ok {
		t.Error("declined nesting at the limit")
	}
}

// TestDocDecoderInternsWithinBounds pins the sharing contract and its
// limits: equal keys and short values are one string, long values are not
// interned, and a store of distinct values cannot grow the tables past their
// bounds.
func TestDocDecoderInternsWithinBounds(t *testing.T) {
	var dec docDecoder
	var b strings.Builder
	b.WriteString(`{"_id":"x"`)
	for i := 0; i < maxInternStrings+maxInternKeys+10; i++ {
		fmt.Fprintf(&b, `,"k%d":"v%d"`, i, i)
	}
	b.WriteString(`,"long":"` + strings.Repeat("L", maxInternStringLen+1) + `"}`)
	line := []byte(b.String())
	got, ok := dec.document(line)
	want, _ := jsonDoc(line)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("wide document decoded differently from json")
	}
	if len(dec.keys) != maxInternKeys || len(dec.strs) != maxInternStrings {
		t.Errorf("tables hold %d keys and %d values, want %d and %d", len(dec.keys), len(dec.strs), maxInternKeys, maxInternStrings)
	}
	if _, ok := dec.strs[strings.Repeat("L", maxInternStringLen+1)]; ok {
		t.Error("a long value was interned")
	}
}

// TestDocDecoderAllocations pins what the decoder is for: a cluster document
// costs at most half the allocations json.Unmarshal makes for the same line.
func TestDocDecoderAllocations(t *testing.T) {
	line := clusterShapedLine(t, 7)
	var dec docDecoder
	if _, ok := dec.document(line); !ok {
		t.Fatal("declined the cluster document")
	}
	ours := testing.AllocsPerRun(50, func() { dec.decode(line) })
	jsons := testing.AllocsPerRun(50, func() { jsonDoc(line) })
	t.Logf("allocations per cluster document: decoder %v, json.Unmarshal %v", ours, jsons)
	if ours > jsons/2 {
		t.Errorf("%v allocations per document, json.Unmarshal makes %v: want at most half", ours, jsons)
	}
}

// FuzzDocDecoder feeds arbitrary bytes to the fast path: it declines, or it
// returns json.Unmarshal's document for a line json accepts. decode as a
// whole must agree with json either way, and nothing may panic.
func FuzzDocDecoder(f *testing.F) {
	f.Add(clusterShapedLine(f, 3))
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := jsonDoc(line)
		var dec docDecoder
		if got, ok := dec.document(line); ok && (wantErr != nil || !sameDocument(t, got, want)) {
			t.Fatalf("fast path took %q:\n got %v\nwant %v, %v", line, got, want, wantErr)
		}
		got, err := dec.decode(line)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || wantErr == nil && !sameDocument(t, got, want) {
			t.Fatalf("decode(%q):\n got %v, %v\nwant %v, %v", line, got, err, want, wantErr)
		}
	})
}

// BenchmarkDocDecoder compares the two readers on cluster-shaped lines.
func BenchmarkDocDecoder(b *testing.B) {
	lines := make([][]byte, 64)
	total := 0
	for i := range lines {
		lines[i] = clusterShapedLine(b, i)
		total += len(lines[i])
	}
	b.Run("decoder", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			var dec docDecoder
			for _, line := range lines {
				if _, err := dec.decode(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for _, line := range lines {
				if _, err := jsonDoc(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
