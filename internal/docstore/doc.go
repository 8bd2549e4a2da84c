// Package docstore is an embedded, aggregate-oriented document store — the
// storage half of the paper's MongoDB deployment (§5): cluster-grouped
// nested documents in which absent fields cost nothing, kept in insertion
// order and persisted as checksummed JSON-lines segments behind a manifest
// (segment.go). It stores and nothing else: subset extraction by score range
// is internal/custom over a core.Dataset, and range pages are the serving
// snapshot's tables. Collections are safe for concurrent use.
package docstore

import "strings"

// Document is a nested JSON-like object: values are strings, numbers
// (float64 or int), bools, nil, []any, or nested Documents.
type Document = map[string]any

// D is a convenience constructor for document literals in tests and
// examples.
func D(pairs ...any) Document {
	if len(pairs)%2 != 0 {
		panic("docstore: D requires key/value pairs")
	}
	d := Document{}
	for i := 0; i < len(pairs); i += 2 {
		key, ok := pairs[i].(string)
		if !ok {
			panic("docstore: D keys must be strings")
		}
		d[key] = pairs[i+1]
	}
	return d
}

// Get resolves a dotted path ("meta.inserted.2008-01-01") inside doc. The
// second result reports whether every path segment existed. Path segments
// never index into arrays.
func Get(doc Document, path string) (any, bool) {
	cur := any(doc)
	for _, seg := range strings.Split(path, ".") {
		m, ok := cur.(Document)
		if !ok {
			return nil, false
		}
		cur, ok = m[seg]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// FieldPathEscape is a helper for keys containing dots (e.g. snapshot
// dates used as map keys): it replaces dots so they survive dotted-path
// addressing.
func FieldPathEscape(key string) string { return strings.ReplaceAll(key, ".", "．") }
