package docstore

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// docEncoder writes documents as the JSON lines json.Encoder writes — same
// bytes: keys sorted, HTML-unsafe characters escaped, one '\n' per document —
// without json's per-map garbage (a sort slice plus a boxed copy of every key
// and value: 72 bytes per field, 13.7 MB for a 2 000-cluster store). That
// garbage is what used to push the heap over the collector's goal in the
// middle of a save, and a collection cycle on the P that is also making the
// save's four system calls per segment costs the save a multiple of the
// cycle's own CPU time.
//
// Only the value shapes documents are made of take the fast path; anything
// else — a string that needs an escape, a float that needs an exponent, a
// type of the caller's — is handed to json.Marshal, so the output cannot
// drift from encoding/json's for the cases it is not known to be identical.
// An encoder serves one goroutine for one save — its field stack keeps
// references into the last document — and the zero value is ready to use.
type docEncoder struct {
	line   []byte
	fields []docField // stack of the open maps' sorted fields
}

type docField struct {
	key string
	val any
}

// encode returns the document's line; the slice is reused by the next call.
func (e *docEncoder) encode(d Document) ([]byte, error) {
	e.fields = e.fields[:0]
	b, err := e.appendMap(e.line[:0], d)
	e.line = b
	if err != nil {
		return nil, err
	}
	e.line = append(e.line, '\n')
	return e.line, nil
}

func (e *docEncoder) appendMap(b []byte, m map[string]any) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	base := len(e.fields)
	for k, v := range m {
		e.fields = append(e.fields, docField{k, v})
	}
	end := len(e.fields)
	slices.SortFunc(e.fields[base:end], func(x, y docField) int { return strings.Compare(x.key, y.key) })
	b = append(b, '{')
	for i := base; i < end; i++ {
		if i > base {
			b = append(b, ',')
		}
		f := e.fields[i] // nested maps push above end and pop back to it
		var err error
		if b, err = AppendJSONString(b, f.key); err != nil {
			return b, err
		}
		b = append(b, ':')
		if b, err = e.appendValue(b, f.val); err != nil {
			return b, err
		}
	}
	e.fields = e.fields[:base]
	return append(b, '}'), nil
}

func (e *docEncoder) appendValue(b []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case string:
		return AppendJSONString(b, t)
	case map[string]any:
		return e.appendMap(b, t)
	case []any:
		if t == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i, el := range t {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = e.appendValue(b, el); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	case int:
		return strconv.AppendInt(b, int64(t), 10), nil
	case float64:
		return AppendJSONFloat(b, t)
	case bool:
		return strconv.AppendBool(b, t), nil
	}
	return appendJSONMarshal(b, v)
}

// The three primitives below are the whole of the encoder's knowledge of
// encoding/json's byte layout. They are exported for the one other writer
// that must produce json.Marshal's bytes without its garbage — core's
// cluster-document encoder — so that there is a single place where "known
// identical to encoding/json" is decided.

// AppendJSONString quotes s. Printable ASCII without the five characters
// json escapes (the quote, the backslash and, for HTML safety, <, > and &)
// is copied; everything else is json's to encode.
func AppendJSONString(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSONMarshal(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
}

// AppendJSONFloat renders f as json does. json switches to exponents outside
// [1e-6, 1e21) and rejects NaN and infinities; both are its business.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	return appendJSONMarshal(b, f)
}

// appendJSONMarshal is the fallback: json.Marshal's own bytes for v.
func appendJSONMarshal(b []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	return append(b, raw...), err
}
