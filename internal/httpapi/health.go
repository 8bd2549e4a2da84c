package httpapi

import "net/http"

// healthRoutes serves the probe endpoints. Readiness (healthz) and
// liveness (livez) are distinct: a process that is up but has not loaded
// its first snapshot yet is alive but not ready, and must not receive
// traffic from a load balancer.
func (s *Server) healthRoutes() []route {
	return []route{
		{"GET", "/healthz", s.handleHealthz, false},
		{"GET", "/livez", s.handleLivez, false},
	}
}

// handleHealthz reports readiness: 503 with the standard error envelope
// until the first snapshot swap, then 200 with the served corpus shape.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.requireSnapshot(w, r)
	if snap == nil {
		return
	}
	s.writeData(w, r, snap, map[string]any{
		"status":   "ready",
		"clusters": snap.Dataset().NumClusters(),
		"records":  snap.Dataset().NumRecords(),
	}, nil)
}

// handleLivez reports liveness: always 200 while the process serves
// requests, snapshot or not. meta.generation is 0 before the first swap.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeEnvelope(w, map[string]any{"status": "alive"}, meta{Generation: s.source.Generation()})
}
