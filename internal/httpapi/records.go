package httpapi

import "net/http"

// recordRoutes serves the census-style point lookup: one person (NCID) →
// their record versions plus cluster-level scores. This is the endpoint the
// consulta-censo pattern optimizes for — very high QPS, tiny responses —
// so it is cacheable and a single map probe.
func (s *Server) recordRoutes() []route {
	return []route{
		{"GET", "/records/{ncid}", s.handleRecord, true},
	}
}

// handleRecord answers GET /v1/records/{ncid}: the record view of one
// person. The payload was rendered when the snapshot was built; the lookup
// is O(1).
func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	ncid := r.PathValue("ncid")
	raw, ok := snap.RecordView(ncid)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown ncid "+ncid)
		return
	}
	s.writeData(w, r, snap, raw, nil)
}
