package docstore

import (
	"encoding/json"
	"strconv"
)

// docDecoder reads a JSON line into the Document json.Unmarshal produces —
// objects as map[string]any, arrays as []any, every number a float64 — in one
// strict recursive-descent pass without json's per-line garbage: a validating
// pre-scan, reflection per value, a fresh string per key occurrence and maps
// and slices grown by doubling. It is docEncoder's twin on the read side, and
// the store's re-open is the cost of every profiling, customization and
// serving pass.
//
// Only what the store is known to write takes the fast path: objects, arrays,
// true/false/null, numbers spelled in json's grammar that strconv.ParseFloat
// accepts (the call json itself makes on the literal), and strings of plain
// ASCII (0x20 ≤ c < 0x80) without a quote or backslash. Anything else — an
// escape, a byte ≥ 0x80, a control character, a top-level value that is not
// an object, nesting past maxDecodeDepth, any syntax doubt — declines the
// whole line, which then goes to json.Unmarshal: its result and its error
// text for those inputs are json's by construction.
//
// Object keys are interned (a store has a few hundred distinct keys), and so
// are short string values, already boxed as the any a document holds: a
// register repeats its names, cities, dates and codes, and a shared value
// costs no allocation and gives the collector one object to mark instead of
// two per occurrence. Decoded documents therefore share immutable strings —
// with each other and, through SegmentCache, across loads — which is the
// sharing contract loaded documents already have. Containers are built on a
// field stack and allocated once at their final size. A decoder serves one
// goroutine for one load; the zero value is ready to use.
type docDecoder struct {
	buf    []byte
	pos    int
	keys   map[string]string
	strs   map[string]any
	fields []docField // stack of the open containers' members
}

const (
	// maxDecodeDepth bounds the recursion; cluster documents nest seven
	// levels, json itself stops at 10 000.
	maxDecodeDepth = 32
	// maxInternKeys and maxInternStrings bound the tables against a hostile
	// store; maxInternStringLen keeps ids and hashes, which never repeat
	// across documents, out of the value table.
	maxInternKeys      = 1 << 12
	maxInternStrings   = 1 << 13
	maxInternStringLen = 24
)

// decode returns the line's document, or json.Unmarshal's error for it.
func (d *docDecoder) decode(line []byte) (Document, error) {
	if doc, ok := d.document(line); ok {
		return doc, nil
	}
	var doc Document
	err := json.Unmarshal(line, &doc)
	return doc, err
}

// document is the fast path: the line's document, or false to decline.
func (d *docDecoder) document(line []byte) (Document, bool) {
	if d.keys == nil {
		d.keys = map[string]string{}
		d.strs = map[string]any{}
	}
	d.buf, d.pos, d.fields = line, 0, d.fields[:0]
	if d.skipSpace() != '{' {
		return nil, false
	}
	d.pos++
	doc, ok := d.object(1)
	return doc, ok && d.skipSpace() == 0 && d.pos == len(line)
}

// skipSpace advances over json's inter-token whitespace and returns the byte
// it stopped at, 0 at the end of the line (a literal NUL is no token either,
// so callers need not tell the two apart).
func (d *docDecoder) skipSpace() byte {
	for ; d.pos < len(d.buf); d.pos++ {
		if c := d.buf[d.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// object decodes the members of an object whose '{' has been consumed. Later
// duplicates of a key overwrite earlier ones, as in json.
func (d *docDecoder) object(depth int) (map[string]any, bool) {
	base := len(d.fields)
	if d.skipSpace() == '}' {
		d.pos++
		return map[string]any{}, true
	}
	for {
		if d.skipSpace() != '"' {
			return nil, false
		}
		raw, ok := d.str()
		if !ok {
			return nil, false
		}
		key, ok := d.keys[string(raw)]
		if !ok {
			key = string(raw)
			if len(d.keys) < maxInternKeys {
				d.keys[key] = key
			}
		}
		if d.skipSpace() != ':' {
			return nil, false
		}
		d.pos++
		val, ok := d.value(depth)
		if !ok {
			return nil, false
		}
		d.fields = append(d.fields, docField{key, val})
		c := d.skipSpace()
		d.pos++
		if c == '}' {
			break
		}
		if c != ',' {
			return nil, false
		}
	}
	m := make(map[string]any, len(d.fields)-base)
	for _, f := range d.fields[base:] {
		m[f.key] = f.val
	}
	d.fields = d.fields[:base]
	return m, true
}

// array decodes the elements of an array whose '[' has been consumed.
func (d *docDecoder) array(depth int) ([]any, bool) {
	base := len(d.fields)
	if d.skipSpace() == ']' {
		d.pos++
		return []any{}, true
	}
	for {
		val, ok := d.value(depth)
		if !ok {
			return nil, false
		}
		d.fields = append(d.fields, docField{val: val})
		c := d.skipSpace()
		d.pos++
		if c == ']' {
			break
		}
		if c != ',' {
			return nil, false
		}
	}
	arr := make([]any, len(d.fields)-base)
	for i, f := range d.fields[base:] {
		arr[i] = f.val
	}
	d.fields = d.fields[:base]
	return arr, true
}

// value decodes one value nested depth containers deep. What it returns
// beside false is not a value.
func (d *docDecoder) value(depth int) (any, bool) {
	switch d.skipSpace() {
	case '"':
		raw, ok := d.str()
		if !ok {
			return nil, false
		}
		if len(raw) > maxInternStringLen {
			return string(raw), true
		}
		if v, ok := d.strs[string(raw)]; ok {
			return v, true
		}
		s := string(raw)
		v := any(s)
		if len(d.strs) < maxInternStrings {
			d.strs[s] = v
		}
		return v, true
	case '{':
		if depth == maxDecodeDepth {
			return nil, false
		}
		d.pos++
		m, ok := d.object(depth + 1)
		return m, ok
	case '[':
		if depth == maxDecodeDepth {
			return nil, false
		}
		d.pos++
		arr, ok := d.array(depth + 1)
		return arr, ok
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return nil, d.literal("null")
	}
	return d.number()
}

// literal consumes word; whatever follows it must be the next token, which
// the caller checks.
func (d *docDecoder) literal(word string) bool {
	if len(d.buf)-d.pos < len(word) || string(d.buf[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// str consumes the string whose opening quote is at pos and returns its
// contents, which alias the line.
func (d *docDecoder) str() ([]byte, bool) {
	start := d.pos + 1
	for i := start; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return d.buf[start:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — json's
// grammar, narrower than ParseFloat's — and converts it as json does.
func (d *docDecoder) number() (any, bool) {
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := digitsEnd(b, i)
	if end == i || b[i] == '0' && end > i+1 {
		return nil, false
	}
	i = end
	if i < len(b) && b[i] == '.' {
		if end = digitsEnd(b, i+1); end == i+1 {
			return nil, false
		}
		i = end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if end = digitsEnd(b, i); end == i {
			return nil, false
		}
		i = end
	}
	f, err := strconv.ParseFloat(string(b[d.pos:i]), 64)
	if err != nil {
		return nil, false
	}
	d.pos = i
	return f, true
}

// digitsEnd returns the end of the run of decimal digits that starts at i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
