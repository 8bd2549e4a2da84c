package httpapi

import "net/http"

// metaRoutes serves the dataset-level resources: statistics, import
// history, cluster-size histogram and published versions. All four were
// rendered when the snapshot was built, and are cacheable.
func (s *Server) metaRoutes() []route {
	return []route{
		{"GET", "/stats", s.handleStats, true},
		{"GET", "/years", s.handleYears, true},
		{"GET", "/histogram", s.handleHistogram, true},
		{"GET", "/versions", s.handleVersions, true},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	s.writeData(w, r, snap, snap.Stats(), nil)
}

func (s *Server) handleYears(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	raw, total := snap.Years()
	s.writeData(w, r, snap, raw, &meta{Total: &total})
}

func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	s.writeData(w, r, snap, snap.Histogram(), nil)
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	raw, total := snap.Versions()
	s.writeData(w, r, snap, raw, &meta{Total: &total})
}
