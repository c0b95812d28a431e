package ring

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"

	"repro/internal/wire"
)

// adminMemberRequest is the POST/DELETE body of the cluster membership
// admin API: one replica base URL.
type adminMemberRequest struct {
	URL string `json:"url"`
}

// adminMemberResponse answers a membership mutation.
type adminMemberResponse struct {
	URL     string `json:"url"`
	Changed bool   `json:"changed"`
	Live    int    `json:"live"`
}

// AdminHandler returns the cluster membership admin endpoint, mounted
// by pasproxy at /v1/cluster/replicas:
//
//	GET    — the membership snapshot (same shape as Stats().Members)
//	POST   {"url": "http://host:port"} — join a replica
//	DELETE {"url": ...} or ?url=...    — retire a replica
//
// Membership mutations reshape traffic for the whole fleet, so the
// endpoint is never open: an empty token disables it entirely (403 on
// every request) rather than defaulting to unauthenticated. Requests
// authenticate with X-PAS-Admin-Token or Authorization: Bearer.
func (c *Client) AdminHandler(token string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if token == "" {
			http.Error(w, "admin API disabled: start pasproxy with -admin-token", http.StatusForbidden)
			return
		}
		if !wire.AdminTokenMatches(r, token) {
			http.Error(w, "missing or invalid admin token", http.StatusForbidden)
			return
		}
		switch r.Method {
		case http.MethodGet:
			writeAdminJSON(w, http.StatusOK, c.mem.Snapshot())
		case http.MethodPost:
			url, ok := adminMemberURL(w, r)
			if !ok {
				return
			}
			norm, changed, err := c.addReplica(url)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeAdminJSON(w, http.StatusOK, adminMemberResponse{URL: norm, Changed: changed, Live: c.mem.live()})
		case http.MethodDelete:
			url, ok := adminMemberURL(w, r)
			if !ok {
				return
			}
			removed, err := c.removeReplica(url)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			status := http.StatusOK
			if !removed {
				status = http.StatusNotFound
			}
			writeAdminJSON(w, status, adminMemberResponse{URL: url, Changed: removed, Live: c.mem.live()})
		default:
			w.Header().Set("Allow", "GET, POST, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// adminMemberURL extracts the target replica URL from the query or a
// small JSON body, writing the error response itself on failure.
func adminMemberURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	if u := r.URL.Query().Get("url"); u != "" {
		return u, true
	}
	var req adminMemberRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return "", false
	}
	if req.URL == "" {
		http.Error(w, `missing replica url (body {"url": ...} or ?url=)`, http.StatusBadRequest)
		return "", false
	}
	return req.URL, true
}

func writeAdminJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("ring: writing admin response: %v", err)
	}
}
