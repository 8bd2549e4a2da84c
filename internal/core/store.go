package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/docstore"
	"repro/internal/voter"
)

// Materialization of the dataset into the document store, following the
// paper's layout (§5): one document per person (duplicate cluster) holding
// an array with one sub-document per record — itself split into person,
// district, election and meta parts — plus a cluster-meta sub-document with
// the record hashes, per-snapshot insert counts, per-record snapshot arrays
// and first-version fields, and the version-similarity maps. Only non-empty
// attribute values are stored, so the sparse district columns cost nothing.

// ClustersCollection is the collection name used for cluster documents.
const ClustersCollection = "clusters"

// MetaCollection is the collection name for dataset-level metadata.
const MetaCollection = "dataset"

// ToDocDB materializes the dataset into a fresh document database.
func (d *Dataset) ToDocDB() *docstore.DB {
	db := docstore.NewDB()
	col := db.Collection(ClustersCollection)
	for _, id := range d.order {
		if err := col.Insert(clusterDoc(d.clusters[id])); err != nil {
			// Cluster ids are unique by construction; an error here is a
			// programming bug.
			panic(err)
		}
	}
	meta := db.Collection(MetaCollection)
	versions := make([]any, 0, len(d.versions))
	for _, v := range d.versions {
		snaps := make([]any, len(v.Snapshots))
		for i, s := range v.Snapshots {
			snaps[i] = s
		}
		versions = append(versions, docstore.D("number", v.Number, "snapshots", snaps))
	}
	imports := make([]any, 0, len(d.imports))
	for _, st := range d.imports {
		imports = append(imports, docstore.D(
			"snapshot", st.Snapshot, "rows", st.Rows,
			"newRecords", st.NewRecords, "newObjects", st.NewObjects))
	}
	if err := meta.Insert(docstore.D(
		"_id", "dataset",
		"mode", int(d.Mode),
		"totalRows", d.totalRows,
		"versions", versions,
		"imports", imports,
	)); err != nil {
		panic(err)
	}
	return db
}

// clusterDoc renders one cluster as a nested document. encode.go writes the
// same layout as JSON text directly; a change here needs its twin there
// (FuzzClusterJSON fails otherwise).
func clusterDoc(c *Cluster) docstore.Document {
	records := make([]any, 0, len(c.Records))
	hashes := make([]any, 0, len(c.Records))
	firstVersions := make([]any, 0, len(c.Records))
	snapshots := make([]any, 0, len(c.Records))
	for _, e := range c.Records {
		records = append(records, recordDoc(e.Rec))
		hashes = append(hashes, hashHex(e.Hash))
		firstVersions = append(firstVersions, e.FirstVersion)
		dates := make([]any, len(e.Snapshots))
		for i, s := range e.Snapshots {
			dates[i] = s
		}
		snapshots = append(snapshots, dates)
	}
	inserted := docstore.Document{}
	for _, date := range sortedKeys(c.Inserted) {
		inserted[docstore.FieldPathEscape(date)] = c.Inserted[date]
	}
	sims := docstore.Document{}
	for kind, vm := range c.SimMaps {
		kindDoc := docstore.Document{}
		for version, byI := range vm {
			vDoc := docstore.Document{}
			for i, row := range byI {
				rowDoc := docstore.Document{}
				for j, s := range row {
					rowDoc[strconv.Itoa(j)] = s
				}
				vDoc[strconv.Itoa(i)] = rowDoc
			}
			kindDoc["v"+strconv.Itoa(version)] = vDoc
		}
		sims[kind] = kindDoc
	}
	doc := docstore.D(
		"_id", c.NCID,
		"size", len(c.Records),
		"records", records,
		"meta", docstore.D(
			"hashes", hashes,
			"firstVersion", firstVersions,
			"snapshots", snapshots,
			"inserted", inserted,
			"sims", sims,
		),
	)
	p, hasP, h, hasH := c.DocScores()
	if hasP {
		doc["plausibility"] = p
	}
	if hasH {
		doc["heterogeneity"] = h
	}
	return doc
}

// recordDoc splits one record into the four group sub-documents, each made at
// its final size, storing only non-empty values (sparse representation).
func recordDoc(r voter.Record) docstore.Document {
	var size [voter.GroupMeta + 1]int
	for i, a := range voter.Attributes {
		if r.Values[i] != "" {
			size[a.Group]++
		}
	}
	doc := docstore.Document{}
	for i, a := range voter.Attributes {
		v := r.Values[i]
		if v == "" {
			continue
		}
		group, ok := doc[a.Group.String()].(docstore.Document)
		if !ok {
			group = make(docstore.Document, size[a.Group])
			doc[a.Group.String()] = group
		}
		group[a.Name] = v
	}
	return doc
}

// datasetFromMeta parses the dataset-level metadata document into a fresh
// Dataset, leaving the clusters to the caller.
func datasetFromMeta(db *docstore.DB) (*Dataset, error) {
	meta := db.Collection(MetaCollection).Get("dataset")
	if meta == nil {
		return nil, fmt.Errorf("core: document database misses the dataset metadata")
	}
	mode, _ := docstore.Get(meta, "mode")
	d := NewDataset(RemovalMode(asInt(mode)))
	if tr, ok := docstore.Get(meta, "totalRows"); ok {
		d.totalRows = asInt(tr)
	}
	if vs, ok := docstore.Get(meta, "versions"); ok {
		arr, _ := vs.([]any)
		for _, v := range arr {
			vd, _ := v.(docstore.Document)
			num, _ := docstore.Get(vd, "number")
			ver := Version{Number: asInt(num)}
			if snaps, ok := docstore.Get(vd, "snapshots"); ok {
				for _, s := range snaps.([]any) {
					ver.Snapshots = append(ver.Snapshots, asString(s))
				}
			}
			d.versions = append(d.versions, ver)
		}
	}
	if is, ok := docstore.Get(meta, "imports"); ok {
		arr, _ := is.([]any)
		for _, v := range arr {
			vd, _ := v.(docstore.Document)
			st := ImportStats{}
			if s, ok := docstore.Get(vd, "snapshot"); ok {
				st.Snapshot = asString(s)
			}
			st.Rows = intAt(vd, "rows")
			st.NewRecords = intAt(vd, "newRecords")
			st.NewObjects = intAt(vd, "newObjects")
			d.imports = append(d.imports, st)
		}
	}
	return d, nil
}

// clusterFromDoc parses one cluster document.
func clusterFromDoc(doc docstore.Document) (*Cluster, error) {
	ncid, _ := doc["_id"].(string)
	c := &Cluster{
		NCID:     ncid,
		Inserted: map[string]int{},
		SimMaps:  map[string]VersionSimMap{},
		hashes:   map[voter.Hash]int{},
	}
	recsAny, _ := doc["records"].([]any)
	meta, _ := doc["meta"].(docstore.Document)
	hashesAny, _ := meta["hashes"].([]any)
	fvAny, _ := meta["firstVersion"].([]any)
	snapsAny, _ := meta["snapshots"].([]any)
	for i, rv := range recsAny {
		rd, _ := rv.(docstore.Document)
		e := RecordEntry{Rec: recordFromDoc(rd), FirstVersion: 1}
		if i < len(hashesAny) {
			if hs, ok := hashesAny[i].(string); ok {
				if h, ok := decodeHash(hs); ok {
					e.Hash = h
				}
			}
		}
		if i < len(fvAny) {
			e.FirstVersion = asInt(fvAny[i])
		}
		if i < len(snapsAny) {
			if dates, ok := snapsAny[i].([]any); ok {
				for _, dt := range dates {
					e.Snapshots = append(e.Snapshots, asString(dt))
				}
			}
		}
		if _, dup := c.hashes[e.Hash]; !dup {
			c.hashes[e.Hash] = len(c.Records)
		}
		c.Records = append(c.Records, e)
	}
	if ins, ok := meta["inserted"].(docstore.Document); ok {
		for k, v := range ins {
			c.Inserted[unescapeField(k)] = asInt(v)
		}
	}
	if sims, ok := meta["sims"].(docstore.Document); ok {
		for kind, kv := range sims {
			kindDoc, _ := kv.(docstore.Document)
			vm := VersionSimMap{}
			for vkey, vv := range kindDoc {
				version, err := strconv.Atoi(trimPrefix(vkey, "v"))
				if err != nil {
					continue
				}
				vDoc, _ := vv.(docstore.Document)
				byI := map[int]map[int]float64{}
				for ikey, iv := range vDoc {
					i, err := strconv.Atoi(ikey)
					if err != nil {
						continue
					}
					rowDoc, _ := iv.(docstore.Document)
					row := map[int]float64{}
					for jkey, jv := range rowDoc {
						j, err := strconv.Atoi(jkey)
						if err != nil {
							continue
						}
						row[j] = asFloat(jv)
					}
					byI[i] = row
				}
				vm[version] = byI
			}
			c.SimMaps[kind] = vm
		}
	}
	return c, nil
}

// recordGroups lists the sub-documents recordDoc splits a record into.
var recordGroups = [...]voter.Group{voter.GroupMeta, voter.GroupPerson, voter.GroupDistrict, voter.GroupElection}

// recordFromDoc rebuilds the flat 90-value record from the grouped sparse
// document. It walks the values the document holds — a sparse record has
// about 35 — rather than probing for all 90 attributes; a name filed under
// another group than its own is ignored.
func recordFromDoc(doc docstore.Document) voter.Record {
	r := voter.NewRecord()
	for _, g := range recordGroups {
		group, _ := doc[g.String()].(docstore.Document)
		for name, v := range group {
			if s, ok := v.(string); ok {
				if i, ok := voter.Index(name); ok && voter.Attributes[i].Group == g {
					r.Values[i] = s
				}
			}
		}
	}
	return r
}

// decodeHash parses the hex form written by hashHex.
func decodeHash(s string) (voter.Hash, bool) {
	var h voter.Hash
	if len(s) != len(h)*2 {
		return h, false
	}
	for i := 0; i < len(h); i++ {
		hi, ok1 := fromHexDigit(s[2*i])
		lo, ok2 := fromHexDigit(s[2*i+1])
		if !ok1 || !ok2 {
			return voter.Hash{}, false
		}
		h[i] = hi<<4 | lo
	}
	return h, true
}

func fromHexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func intAt(doc docstore.Document, path string) int {
	v, _ := docstore.Get(doc, path)
	return asInt(v)
}

func asInt(v any) int {
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	case float64:
		return int(n)
	}
	return 0
}

func asFloat(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	}
	return 0
}

func trimPrefix(s, p string) string {
	if len(s) >= len(p) && s[:len(p)] == p {
		return s[len(p):]
	}
	return s
}

// asString returns strings as they are; any other value a hostile document
// holds in a string's place prints as fmt prints it.
func asString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

// unescapeField undoes docstore.FieldPathEscape.
func unescapeField(k string) string { return strings.ReplaceAll(k, "．", ".") }
