package httpapi

import (
	"net/http"
	"strconv"

	"repro/internal/serving"
)

// summaryRoutes serves the whole-store aggregation endpoint — the hottest
// and most expensive read, hence cacheable.
func (s *Server) summaryRoutes() []route {
	return []route{
		{"GET", "/clusters/summary", s.handleClusterSummary, true},
	}
}

// handleClusterSummary aggregates the served clusters in one pass — cluster
// and record counts, size extremes, and histogram-estimated plausibility/
// heterogeneity quantiles:
//
//	GET /v1/clusters/summary
//	GET /v1/clusters/summary?minSize=2&maxSize=10
//
// The unfiltered payload was marshaled when the snapshot was built; a
// size-filtered request folds a binary-searched slice of the snapshot's
// size table — no cluster visits either way.
func (s *Server) handleClusterSummary(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	var bounds serving.SizeBounds
	for _, bound := range []struct {
		param string
		val   *int64
		has   *bool
	}{{"minSize", &bounds.Min, &bounds.HasMin}, {"maxSize", &bounds.Max, &bounds.HasMax}} {
		v := r.URL.Query().Get(bound.param)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", bound.param+" must be an integer")
			return
		}
		*bound.val = int64(n)
		*bound.has = true
	}

	s.writeData(w, r, snap, snap.Summary(bounds), nil)
}
