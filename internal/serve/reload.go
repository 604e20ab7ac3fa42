package serve

import (
	"net/http"
)

// Hot model reload. POST /v1/models/{alias}/reload re-reads the
// alias's bundle (or an explicitly named path) and swaps it in
// atomically: the alias is stable, the Version underneath is
// monotonic, and in-flight predictions caught on the displaced
// coalescer retry transparently against the new version (server.go).
// New models roll in without dropping traffic — and because
// prediction-cache keys carry the version, the roll also invalidates
// every memoized prediction of the old bundle for free.

// reloadRequest parameterizes one reload. An empty (or absent) body
// re-reads the model's registered source path.
type reloadRequest struct {
	Path string `json:"path,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	alias := r.PathValue("alias")
	var req reloadRequest
	if r.ContentLength != 0 {
		if err := decodeBody(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	old, err := s.reg.Get(alias)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	m, err := s.reg.Reload(alias, req.Path)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":            m.Name,
		"version":          m.Version,
		"previous_version": old.Version,
		"path":             m.Path,
	})
}
