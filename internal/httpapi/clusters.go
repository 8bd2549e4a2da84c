package httpapi

import (
	"net/http"
	"strconv"

	"repro/internal/serving"
)

// Pagination bounds for the cluster list.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// clusterRoutes serves the cluster resource: score-range listing with
// cursor pagination over the snapshot's score tables, and per-cluster
// lookup, rendered from the dataset per request. The range/cursor space is
// too large to precompute and the documents are the bulk of the corpus, so
// only the list endpoint (whose hot queries repeat) is cacheable.
func (s *Server) clusterRoutes() []route {
	return []route{
		{"GET", "/clusters", s.handleClusterQuery, true},
		{"GET", "/clusters/{ncid}", s.handleCluster, false},
	}
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	ncid := r.PathValue("ncid")
	doc, ok, err := snap.ClusterDoc(ncid)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown cluster "+ncid)
		return
	}
	if err != nil {
		s.logger.Error("httpapi: cluster document does not render", "ncid", ncid, "err", err)
		writeError(w, http.StatusInternalServerError, "internal", "response encoding failed")
		return
	}
	s.writeData(w, r, snap, doc, nil)
}

// handleClusterQuery lists cluster summaries by score range with cursor
// pagination:
//
//	GET /v1/clusters?score=plausibility&max=0.8&limit=50
//	GET /v1/clusters?score=heterogeneity&min=0.4&limit=20&cursor=...
//	GET /v1/clusters?score=size&min=5
//
// Pages hold at most limit summaries; meta.nextCursor resumes the scan and
// meta.total counts the whole range.
func (s *Server) handleClusterQuery(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	q := r.URL.Query()
	var by serving.Score
	switch score := q.Get("score"); score {
	case "", "size":
		by = serving.BySize
	case "plausibility":
		by = serving.ByPlausibility
	case "heterogeneity":
		by = serving.ByHeterogeneity
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "unknown score "+score)
		return
	}
	var bounds serving.ScoreRange
	if v := q.Get("min"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "min must be a number")
			return
		}
		bounds.Min, bounds.HasMin = f, true
	}
	if v := q.Get("max"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "max must be a number")
			return
		}
		bounds.Max, bounds.HasMax = f, true
	}
	limit := defaultPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxPageLimit {
			writeError(w, http.StatusBadRequest, "bad_request",
				"limit must be an integer in [1, "+strconv.Itoa(maxPageLimit)+"]")
			return
		}
		limit = n
	}
	afterID, ok := decodeCursor(q.Get("cursor"))
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_cursor", "malformed cursor")
		return
	}

	page, next, total, err := snap.ClusterPage(by, bounds, afterID, limit)
	if err != nil { // serving.ErrBadCursor, the one way a page can fail
		writeError(w, http.StatusBadRequest, "bad_cursor", "stale or unknown cursor")
		return
	}

	// Summaries only: id, size and scores — record bodies via
	// /v1/clusters/{id} or /v1/records/{id}.
	items := make([]map[string]any, 0, len(page))
	for _, e := range page {
		item := map[string]any{"ncid": e.NCID, "size": e.Size}
		if e.HasPlaus {
			item["plausibility"] = e.Plaus
		}
		if e.HasHetero {
			item["heterogeneity"] = e.Hetero
		}
		items = append(items, item)
	}
	s.writeData(w, r, snap, items, &meta{
		Total:      &total,
		NextCursor: encodeCursor(next),
	})
}
