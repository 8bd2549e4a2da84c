package core

import (
	"runtime"
	"sync"

	"repro/internal/docstore"
)

// FromDocDBParallel reconstructs a Dataset from a document database produced
// by ToDocDB (directly or after a save/load round trip), parsing the cluster
// documents on a worker pool — the store-to-dataset direction of every
// scoring, profiling and customization pass, and the dominant cost of
// reopening a saved corpus. Cluster parsing is embarrassingly parallel (each
// document is independent); the results land in a slice indexed by the
// document's position and are committed in that order, so the dataset's
// cluster order — and everything derived from it, such as deterministic
// sampling — is the same for any worker count. workers <= 0 selects
// GOMAXPROCS, 1 parses inline.
func FromDocDBParallel(db *docstore.DB, workers int) (*Dataset, error) {
	d, err := datasetFromMeta(db)
	if err != nil {
		return nil, err
	}
	docs := db.Collection(ClustersCollection).Docs()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(docs))

	clusters := make([]*Cluster, len(docs))
	if workers <= 1 {
		for i, doc := range docs {
			if clusters[i], err = clusterFromDoc(doc); err != nil {
				return nil, err
			}
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		block := (len(docs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * block
			hi := min(lo+block, len(docs))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					c, err := clusterFromDoc(docs[i])
					if err != nil {
						errs[w] = err
						return
					}
					clusters[i] = c
				}
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	for _, c := range clusters {
		d.clusters[c.NCID] = c
		d.order = append(d.order, c.NCID)
	}
	return d, nil
}
