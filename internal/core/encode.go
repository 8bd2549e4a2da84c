package core

import (
	"bytes"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"

	"repro/internal/docstore"
	"repro/internal/voter"
)

// Direct JSON rendering of a cluster: AppendDocJSON writes the bytes
// json.Marshal produces for clusterDoc(c), AppendRecordViewJSON the lean
// projection of the same document that /v1/records/{ncid} serves — without
// building the map[string]any tree first and without encoding/json's
// reflective map encoder (a sort slice plus a boxed copy of every key and
// value). The serving layer renders every cluster once per generation and
// one cluster per document request, which made that tree the largest share
// of a server's start-up.
//
// The cluster-document layout is therefore defined twice: clusterDoc builds
// it as documents (what the store persists and FromDocDBParallel parses),
// this file writes it as text. json.Marshal sorts map keys bytewise, so the key order
// here is fixed by hand for the static keys and sorted for the dynamic ones
// (escaped snapshot dates, score kinds, "v<version>", decimal record
// indices — "10" sorts before "2"). FuzzClusterJSON and TestClusterJSON hold
// the two equal; the string, number and fallback primitives are docstore's,
// so what "the bytes encoding/json writes" means is decided in one place.

// docGroup is one record sub-document: its rendered opening (`"person":{`)
// and its columns in attribute-name order, each with its rendered key
// (`"last_name":`).
type docGroup struct {
	open string
	cols []docCol
}

type docCol struct {
	idx int
	key string
}

// docGroups is the record layout in json's key order, computed once.
var docGroups = buildDocGroups()

func buildDocGroups() []docGroup {
	byName := map[string]*docGroup{}
	for i, a := range voter.Attributes {
		name := a.Group.String()
		g := byName[name]
		if g == nil {
			g = &docGroup{open: string(mustAppendString(nil, name)) + ":{"}
			byName[name] = g
		}
		g.cols = append(g.cols, docCol{idx: i, key: string(mustAppendString(nil, a.Name)) + ":"})
	}
	groups := make([]docGroup, 0, len(byName))
	for _, name := range sortedKeys(byName) {
		g := byName[name]
		// The rendered keys of plain names sort like the names: both are the
		// name between two quotes.
		slices.SortFunc(g.cols, func(x, y docCol) int {
			return strings.Compare(voter.Attributes[x.idx].Name, voter.Attributes[y.idx].Name)
		})
		groups = append(groups, *g)
	}
	return groups
}

func mustAppendString(b []byte, s string) []byte {
	b, err := docstore.AppendJSONString(b, s)
	if err != nil {
		panic("core: schema name does not encode: " + err.Error())
	}
	return b
}

// DocScores returns the two cluster-level score summaries a cluster document
// carries — the minimum plausibility and the mean person heterogeneity — and
// whether the cluster has each (no scored pair, no summary). Users select
// score ranges on them (the paper's customization workflow, §5): with plain
// store queries on the documents, with /v1/clusters on a served corpus.
func (c *Cluster) DocScores() (plaus float64, hasPlaus bool, hetero float64, hasHetero bool) {
	plaus, hasPlaus = c.ClusterScore(KindPlausibility, AggMin)
	if h, ok := c.ClusterScore(KindHeteroPerson, AggMean); ok {
		hetero, hasHetero = HeteroFromSim(h), true
	}
	return
}

// AppendRecordViewJSON appends the /v1/records/{ncid} payload of the
// cluster — its records plus the cluster-level scores, without the
// reproducibility meta block — as json.Marshal renders the same projection
// of the cluster document. It allocates nothing beyond dst's growth unless a
// value needs an escape. The error is json's (a NaN or infinite score).
func (c *Cluster) AppendRecordViewJSON(dst []byte) ([]byte, error) {
	p, hasP, h, hasH := c.DocScores()
	b := append(dst, '{')
	var err error
	if hasH {
		b = append(b, `"heterogeneity":`...)
		if b, err = docstore.AppendJSONFloat(b, h); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	b = append(b, `"ncid":`...)
	if b, err = docstore.AppendJSONString(b, c.NCID); err != nil {
		return b, err
	}
	if hasP {
		b = append(b, `,"plausibility":`...)
		if b, err = docstore.AppendJSONFloat(b, p); err != nil {
			return b, err
		}
	}
	return c.appendRecordsAndSize(b)
}

// AppendDocJSON appends the cluster document — what GET /v1/clusters/{ncid}
// serves and the store persists — as json.Marshal renders clusterDoc(c).
// The error is json's (a NaN or infinite score).
func (c *Cluster) AppendDocJSON(dst []byte) ([]byte, error) {
	p, hasP, h, hasH := c.DocScores()
	b := append(dst, `{"_id":`...)
	var err error
	if b, err = docstore.AppendJSONString(b, c.NCID); err != nil {
		return b, err
	}
	if hasH {
		b = append(b, `,"heterogeneity":`...)
		if b, err = docstore.AppendJSONFloat(b, h); err != nil {
			return b, err
		}
	}
	if b, err = c.appendMetaJSON(b); err != nil {
		return b, err
	}
	if hasP {
		b = append(b, `,"plausibility":`...)
		if b, err = docstore.AppendJSONFloat(b, p); err != nil {
			return b, err
		}
	}
	return c.appendRecordsAndSize(b)
}

// appendRecordsAndSize closes either rendering: `,"records":[…],"size":n}`.
func (c *Cluster) appendRecordsAndSize(b []byte) ([]byte, error) {
	b = append(b, `,"records":[`...)
	var err error
	for i := range c.Records {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendRecordJSON(b, c.Records[i].Rec); err != nil {
			return b, err
		}
	}
	b = append(b, `],"size":`...)
	b = strconv.AppendInt(b, int64(len(c.Records)), 10)
	return append(b, '}'), nil
}

// appendRecordJSON renders recordDoc(r): the non-empty values, grouped.
func appendRecordJSON(b []byte, r voter.Record) ([]byte, error) {
	b = append(b, '{')
	first := true
	for gi := range docGroups {
		g := &docGroups[gi]
		open := false
		for _, col := range g.cols {
			v := r.Values[col.idx]
			if v == "" {
				continue
			}
			if open {
				b = append(b, ',')
			} else {
				if !first {
					b = append(b, ',')
				}
				b = append(b, g.open...)
				open, first = true, false
			}
			b = append(b, col.key...)
			var err error
			if b, err = docstore.AppendJSONString(b, v); err != nil {
				return b, err
			}
		}
		if open {
			b = append(b, '}')
		}
	}
	return append(b, '}'), nil
}

// appendMetaJSON renders the reproducibility block: `,"meta":{…}`.
func (c *Cluster) appendMetaJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `,"meta":{"firstVersion":[`...)
	for i := range c.Records {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c.Records[i].FirstVersion), 10)
	}
	b = append(b, `],"hashes":[`...)
	for i := range c.Records {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = hex.AppendEncode(b, c.Records[i].Hash[:])
		b = append(b, '"')
	}
	b = append(b, `],"inserted":`...)
	if b, err = c.appendInsertedJSON(b); err != nil {
		return b, err
	}
	b = append(b, `,"sims":`...)
	if b, err = c.appendSimsJSON(b); err != nil {
		return b, err
	}
	b = append(b, `,"snapshots":[`...)
	for i := range c.Records {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k, date := range c.Records[i].Snapshots {
			if k > 0 {
				b = append(b, ',')
			}
			if b, err = docstore.AppendJSONString(b, date); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendInsertedJSON renders the per-snapshot insert counts under their
// escaped dates. Escaping can reorder the keys and can merge two of them;
// clusterDoc writes them in date order into one map, so of two dates with
// one escaped form the later date's count is the one that stays.
func (c *Cluster) appendInsertedJSON(b []byte) ([]byte, error) {
	type entry struct{ key, date string }
	entries := make([]entry, 0, len(c.Inserted))
	for date := range c.Inserted {
		entries = append(entries, entry{docstore.FieldPathEscape(date), date})
	}
	slices.SortFunc(entries, func(x, y entry) int {
		if d := strings.Compare(x.key, y.key); d != 0 {
			return d
		}
		return strings.Compare(x.date, y.date)
	})
	b = append(b, '{')
	first := true
	for i, e := range entries {
		if i+1 < len(entries) && entries[i+1].key == e.key {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		var err error
		if b, err = docstore.AppendJSONString(b, e.key); err != nil {
			return b, err
		}
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(c.Inserted[e.date]), 10)
	}
	return append(b, '}'), nil
}

// appendSimsJSON renders the version-similarity maps: kind → "v<version>" →
// newer record index → older record index → score, every level in json's
// bytewise key order. One int stack serves all levels: a level's sorted
// keys stay below the part its nested levels push and pop.
func (c *Cluster) appendSimsJSON(b []byte) ([]byte, error) {
	var keys []int
	b = append(b, '{')
	for n, kind := range sortedKeys(c.SimMaps) {
		if n > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = docstore.AppendJSONString(b, kind); err != nil {
			return b, err
		}
		b = append(b, ":{"...)
		vm := c.SimMaps[kind]
		keys = pushDecimalOrder(keys[:0], vm)
		for vi, vEnd := 0, len(keys); vi < vEnd; vi++ {
			if vi > 0 {
				b = append(b, ',')
			}
			b = append(b, `"v`...)
			b = strconv.AppendInt(b, int64(keys[vi]), 10)
			b = append(b, `":{`...)
			byI := vm[keys[vi]]
			keys = pushDecimalOrder(keys, byI)
			for ii, iEnd := vEnd, len(keys); ii < iEnd; ii++ {
				if ii > vEnd {
					b = append(b, ',')
				}
				b = appendIntKey(b, keys[ii])
				b = append(b, '{')
				row := byI[keys[ii]]
				keys = pushDecimalOrder(keys, row)
				for ji := iEnd; ji < len(keys); ji++ {
					if ji > iEnd {
						b = append(b, ',')
					}
					b = appendIntKey(b, keys[ji])
					if b, err = docstore.AppendJSONFloat(b, row[keys[ji]]); err != nil {
						return b, err
					}
				}
				keys = keys[:iEnd]
				b = append(b, '}')
			}
			keys = keys[:vEnd]
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendIntKey renders `"<n>":`.
func appendIntKey(b []byte, n int) []byte {
	b = append(b, '"')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, `":`...)
}

// pushDecimalOrder appends the map's keys to the stack in the order of their
// decimal renderings — json's order for strconv.Itoa keys, "10" before "2".
func pushDecimalOrder[V any](stack []int, m map[int]V) []int {
	base := len(stack)
	for k := range m {
		stack = append(stack, k)
	}
	slices.SortFunc(stack[base:], func(x, y int) int {
		var xb, yb [20]byte
		return bytes.Compare(strconv.AppendInt(xb[:0], int64(x), 10), strconv.AppendInt(yb[:0], int64(y), 10))
	})
	return stack
}
