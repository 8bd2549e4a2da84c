package docstore

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// jsonLine is what the segment writer used to emit: json.Encoder's line.
func jsonLine(t testing.TB, d Document) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(d)
	return buf.Bytes(), err
}

// TestDocEncoderMatchesJSON holds the encoder against json.Encoder on every
// value shape documents carry and on the ones it hands back to json.
func TestDocEncoderMatchesJSON(t *testing.T) {
	type custom struct {
		A int    `json:"a"`
		B string `json:"b,omitempty"`
	}
	docs := []Document{
		{},
		nil,
		{"_id": "AA1", "size": 3, "plausibility": 0.75, "ok": true, "none": nil},
		{"b": 1, "a": 2, "B": 3, "aa": 4, "": 5, "ä": 6, "a.b": 7, "a．b": 8},
		{"s": []any{"O'NEIL", "A&B", "<tag>", `q"uote`, `back\slash`, "tab\there", "line\nbreak",
			"\b\f\r\x00\x1f\x7f", "ÅSA", "K", "İ", "\u2028\u2029", "bad\xffutf8", "~ !#$%()*+,-./:;=?@[]^_`{|}"}},
		{"f": []any{0.0, math.Copysign(0, -1), 1.0, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.7976931348623157e308,
			5e-324, 123456789.125, 0.30000000000000004, float32(0.25)}},
		{"i": []any{0, -1, math.MaxInt64, math.MinInt64, int64(7), int32(-7), uint(8), uint8(9), json.Number("12.50")}},
		{"nested": Document{"z": Document{"y": []any{Document{"x": 1, "w": []any{}}, []any{nil, []any(nil)}}}, "a": Document(nil)}},
		{"foreign": custom{A: 1}, "ptr": &custom{A: 2, B: "<b>"}, "strs": []string{"x", "<y>"}, "m": map[string]int{"b": 1, "a": 2}},
	}
	var enc docEncoder
	for i, d := range docs {
		want, wantErr := jsonLine(t, d)
		got, err := enc.encode(d)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("doc %d: err = %v, json's = %v", i, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("doc %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestDocEncoderRejectsWhatJSONRejects keeps a failed save a failed save, and
// the encoder usable for the next document.
func TestDocEncoderRejectsWhatJSONRejects(t *testing.T) {
	var enc docEncoder
	for _, bad := range []any{math.NaN(), math.Inf(1), math.Inf(-1), make(chan int), func() {}} {
		d := Document{"a": Document{"deep": []any{1, bad}}, "b": 2}
		if _, wantErr := jsonLine(t, d); wantErr == nil {
			t.Fatalf("json accepts %v", bad)
		}
		if _, err := enc.encode(d); err == nil {
			t.Errorf("encode accepted %v", bad)
		}
		good := Document{"a": Document{"b": 1}}
		want, _ := jsonLine(t, good)
		if got, err := enc.encode(good); err != nil || !bytes.Equal(got, want) {
			t.Errorf("after %v: got %s, %v; want %s", bad, got, err, want)
		}
	}
}

// TestDocEncoderAllocatesNothing pins what the encoder is for: once its
// buffers have grown, a document of plain values costs no allocation (json's
// map path paid 72 bytes per field).
func TestDocEncoderAllocatesNothing(t *testing.T) {
	d := Document{"_id": "AA1", "size": 2, "heterogeneity": 0.25, "records": []any{
		Document{"person": Document{"last_name": "O'NEIL", "first_name": "ANN", "age": 41}, "meta": Document{"status": "A"}},
		Document{"person": Document{"last_name": "ONEIL", "first_name": "ANNE"}},
	}}
	var enc docEncoder
	if _, err := enc.encode(d); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { enc.encode(d) }); n != 0 {
		t.Errorf("%v allocations per document, want 0", n)
	}
}

// FuzzDocEncoder decodes arbitrary JSON objects the way the store loads them
// and requires the encoder to write them back exactly as json.Encoder does.
func FuzzDocEncoder(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"_id":"x","n":1,"f":0.5,"t":true,"z":null,"a":[1,"two",[3],{"k":"v"}]}`,
		`{"<k>":"&v","é":"\u2028","e":1e-7,"big":1e21,"neg":-0.0,"q":"\"\\\b\f\n\r\t\u0000"}`,
		`{"deep":{"a":{"b":{"c":[{"d":[]},{}]}}},"int":12345678901234567890}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d Document
		if json.Unmarshal(raw, &d) != nil {
			return
		}
		want, wantErr := jsonLine(t, d)
		var enc docEncoder
		got, err := enc.encode(d)
		if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("got %q, %v\nwant %q, %v", got, err, want, wantErr)
		}
	})
}
