package pas

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/wire"
)

// AugmentRequest and AugmentResponse are the bodies of POST /v1/augment,
// declared in internal/wire so the cluster router speaks the same types.
type (
	AugmentRequest  = wire.AugmentRequest
	AugmentResponse = wire.AugmentResponse
)

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// maxPromptBytes bounds request bodies; a prompt this size is abuse.
const maxPromptBytes = 1 << 20

// ServingConfig sizes the serving core enabled by EnableServing; zero
// values select defaults. It is the serving package's own
// configuration, so the daemons' flags, this API, and the core read one
// struct.
type ServingConfig = serving.Config

// EnableServing puts the admission-controlled, deduplicating, cached
// serving core in front of Complement for every context-taking entry
// point: handleAugment, the reverse proxy, AugmentContextDegraded, and
// EnhanceContext. Call it once before serving traffic; the plain
// Complement and Augment methods stay direct and unlimited.
func (s *System) EnableServing(cfg ServingConfig) error {
	core, err := serving.New(s.Complement, cfg)
	if err != nil {
		return err
	}
	s.core = core
	return nil
}

// complementLevel is Complement through the serving core when one is
// enabled: results are cached, concurrent identical requests share one
// computation, and a request the core sheds is, with
// ServingConfig.Degrade, answered degraded instead of failing (see
// serving.Core.DoLevel): an empty complement with no error — the caller
// proceeds with the un-augmented prompt. An error for which IsOverloaded
// is true means the request was shed.
// Without EnableServing it computes directly and never fails.
func (s *System) complementLevel(ctx context.Context, prompt, salt string) (complement string, degraded bool, err error) {
	if s.core == nil {
		return s.Complement(prompt, salt), false, nil
	}
	return s.core.DoLevel(ctx, prompt, salt, s.BaseModel())
}

// RegisterMetrics exposes the serving core's counters on reg (see
// serving.Core.RegisterMetrics). Without EnableServing it registers
// nothing — there is no core to observe.
func (s *System) RegisterMetrics(reg *obs.Registry) {
	if s.core != nil {
		s.core.RegisterMetrics(reg)
	}
}

// AugmentContextDegraded is Augment through the serving core (see
// complementLevel): cat(prompt, complement), or, degraded, the prompt as
// it came (fail-open).
func (s *System) AugmentContextDegraded(ctx context.Context, prompt, salt string) (augmented string, degraded bool, err error) {
	c, degraded, err := s.complementLevel(ctx, prompt, salt)
	if err != nil {
		return "", false, err
	}
	return cat(prompt, c), degraded, nil
}

// AugmentContextLevel is AugmentContextDegraded with the verdict as its
// X-PAS-Degraded value.
//
// Deprecated: call AugmentContextDegraded; kept one round for bench/pasperf.
func (s *System) AugmentContextLevel(ctx context.Context, prompt, salt string) (augmented, level string, err error) {
	augmented, degraded, err := s.AugmentContextDegraded(ctx, prompt, salt)
	if degraded {
		level = wire.DegradedValue
	}
	return augmented, level, err
}

// IsOverloaded reports whether err from a context-taking entry point
// means the serving core shed the request; callers should answer 503
// and retry later.
//
//paslint:allow unused public API: serving is internal, so this is how a library caller tells a shed from any other error
func IsOverloaded(err error) bool { return serving.Overloaded(err) }

// IsDraining reports whether err means this instance is draining for
// shutdown. Draining errors are Overloaded too (503 + Retry-After),
// but they must never be served fail-open: the 503 is the signal that
// moves routers off this instance.
//
//paslint:allow unused public API: how a library caller tells a drain shed, never served fail-open, from an overload shed
func IsDraining(err error) bool { return errors.Is(err, serving.ErrDraining) }

// Drain flips the system into draining for a zero-downtime shutdown:
// GET /v1/status starts answering "draining" (still 200 — the process
// is healthy, just leaving), new augmentation work is shed with
// 503 + Retry-After, and in-flight plus cache-hit traffic keeps being
// served. Cluster routers (internal/ring) treat the draining status as
// routing-excluded-but-healthy, so the instance leaves the ring without
// tripping breakers or suspicion. Returns true on the first call.
// Draining is one-way: a restarted process starts fresh.
func (s *System) Drain() bool {
	first := s.draining.CompareAndSwap(false, true)
	if first && s.core != nil {
		s.core.Drain()
	}
	return first
}

// Draining reports whether Drain has been called.
//
//paslint:allow unused public API: Drain's state for a library caller that mounts Handler in its own server
func (s *System) Draining() bool { return s.draining.Load() }

// Quiesce blocks until the serving core is idle (no computation running
// or queued) or ctx ends. Call it between Drain and closing the
// listener: with new work shed, the queue can only empty. A system
// without a serving core is trivially quiesced.
func (s *System) Quiesce(ctx context.Context) error {
	if s.core == nil {
		return nil
	}
	return s.core.Quiesce(ctx)
}

// SetAdminToken guards POST /v1/drain: when non-empty, requests must
// present the token in X-PAS-Admin-Token or Authorization: Bearer.
// Set it before serving traffic; it is not safe to change while
// requests are in flight.
func (s *System) SetAdminToken(token string) { s.adminToken = token }

// OnDrain registers fn to run (at most once, from a request goroutine)
// when an HTTP drain request asks the process to exit — cmd/passerve
// hooks its signal-equivalent shutdown path here. Register before
// serving traffic.
func (s *System) OnDrain(fn func()) { s.onDrain = fn }

// fireDrainExit invokes the registered exit hook exactly once.
func (s *System) fireDrainExit() {
	s.drainExit.Do(func() {
		if s.onDrain != nil {
			s.onDrain()
		}
	})
}

// adminAuthorized checks the drain/admin token. An unset token leaves
// the endpoint open (single-node dev flows); production runs set
// -admin-token.
func (s *System) adminAuthorized(r *http.Request) bool {
	if s.adminToken == "" {
		return true
	}
	got := r.Header.Get("X-PAS-Admin-Token")
	if got == "" {
		got = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(s.adminToken)) == 1
}

// Handler returns the HTTP handler exposing the system as a
// plug-and-play service:
//
//	POST /v1/augment {"prompt": "..."} -> AugmentResponse
//	GET  /v1/stats                     -> serving-core snapshot (enabled cores)
//	GET  /v1/status                    -> {"status":"ok"|"draining","model":...} (ring health probes)
//	POST /v1/drain  [{"exit": bool}]   -> graceful drain (admin; see Drain)
//	GET  /healthz                      -> 200 "ok"
//
// The handler is safe for concurrent use.
func (s *System) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/augment", s.handleAugment)
	mux.Handle("/v1/stats", s.StatsHandler())
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/drain", s.handleDrain)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleStatus is the liveness probe the cluster membership table polls
// (see wire.Status for what probers read from it). It is deliberately
// cheap — no serving-core counters, no locks — because a fleet of
// probers hits it continuously.
func (s *System) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := wire.Status{Status: wire.StatusOK, Model: s.BaseModel(), Instance: s.instance}
	if s.Draining() {
		st.Status = wire.StatusDraining
	}
	writeJSON(w, http.StatusOK, st)
}

// handleDrain is the admin half of a rolling restart: it flips the
// system into draining (idempotently) and, unless the body says
// {"exit": false}, asks the process to begin its graceful exit via the
// OnDrain hook. Guarded by the admin token when one is set.
func (s *System) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	if !s.adminAuthorized(r) {
		writeJSON(w, http.StatusForbidden, errorResponse{Error: "admin token missing or wrong (X-PAS-Admin-Token or Authorization: Bearer)"})
		return
	}
	// The body is optional; an empty one means "drain and exit" — the
	// rolling-restart default. {"exit": false} flips the status without
	// scheduling an exit, for operators who kill the process themselves.
	req := struct {
		Exit *bool `json:"exit"`
	}{}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	exit := req.Exit == nil || *req.Exit
	first := s.Drain()
	if exit {
		s.fireDrainExit()
	}
	writeJSON(w, http.StatusOK, struct {
		Status          string `json:"status"`
		AlreadyDraining bool   `json:"already_draining,omitempty"`
		Exiting         bool   `json:"exiting"`
	}{Status: "draining", AlreadyDraining: !first, Exiting: exit && s.onDrain != nil})
}

// StatsHandler serves the serving core's snapshot as JSON (mount at
// GET /v1/stats). Without EnableServing it answers 404 so monitoring
// can tell "core disabled" apart from "all counters zero".
func (s *System) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.core == nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "serving core disabled; start with EnableServing"})
			return
		}
		s.core.StatsHandler().ServeHTTP(w, r)
	})
}

func (s *System) handleAugment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	req, err := readAugmentRequest(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.Prompt) == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "prompt is required"})
		return
	}
	// With a serving core the drain gate lives inside it (cache hits
	// still answer); without one, shed here so a bare System still
	// honors the drain protocol.
	if s.core == nil && s.Draining() {
		s.writeOverloaded(w, serving.ErrDraining)
		return
	}
	c, degraded, err := s.complementLevel(r.Context(), req.Prompt, req.Salt)
	if err != nil {
		if !clientGone(w, r) {
			s.writeOverloaded(w, err)
		}
		return
	}
	resp := AugmentResponse{
		Prompt:     req.Prompt,
		Complement: c,
		Augmented:  cat(req.Prompt, c),
		Model:      s.BaseModel(),
		Degraded:   degraded,
	}
	if degraded {
		resp.DegradedLevel = wire.DegradedValue
		w.Header().Set(wire.DegradedHeader, wire.DegradedValue)
	}
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B = wire.AppendAugmentResponse(buf.B, &resp)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.B); err != nil {
		log.Printf("pas: writing response: %v", err)
	}
}

// readAugmentRequest reads and decodes the body of POST /v1/augment. The
// body goes through pooled scratch that is handed back before the
// request waits on the core, so the fields are copies, never views of it
// (wire.DecodeAugmentRequest). A body the scanner does not claim — or the
// readable part of one that failed to arrive whole — is encoding/json's to
// read, from the same bytes and the same read error (Buffer.Replay): what
// is accepted, and the wording of every 400, are what they were before
// this handler scanned.
func readAugmentRequest(w http.ResponseWriter, r *http.Request) (AugmentRequest, error) {
	buf := wire.GetBuffer()
	defer buf.Release()
	readErr := buf.ReadAll(http.MaxBytesReader(w, r.Body, maxPromptBytes))
	req, ok := wire.DecodeAugmentRequest(buf.B)
	if ok {
		return req, nil
	}
	err := json.NewDecoder(buf.Replay(readErr)).Decode(&req)
	return req, err
}

// clientGone reports whether the request's own client has left: its
// context has ended, which a follower of a cancelled single-flight
// leader's has not. Nobody was refused and nobody is listening, so the
// chain's shared recorder is told 499 and the caller writes nothing.
func clientGone(w http.ResponseWriter, r *http.Request) bool {
	gone := r.Context().Err() != nil
	if rec, ok := w.(*obs.ResponseRecorder); ok && gone {
		rec.NoteStatus(obs.StatusClientClosedRequest)
	}
	return gone
}

// writeOverloaded answers a request the core shed or failed. Loaded
// sheds carry Retry-After priced from the core's observed queue-drain
// rate — the backlog divided by the admission limit, times the service
// EWMA — so well-behaved clients back off for roughly as long as the
// congestion will actually last; drain sheds carry it so routers retry
// elsewhere immediately.
func (s *System) writeOverloaded(w http.ResponseWriter, err error) {
	if serving.Overloaded(err) {
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
	}
	prefix := "server overloaded: "
	if IsDraining(err) {
		prefix = "shutting down: "
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: prefix + err.Error()})
}

// RetryAfterHint is the congestion-priced Retry-After in whole seconds
// — the core's queue-drain estimate, or 1 when serving is not enabled.
// The proxy prices its own 503s with it, so they carry the same advice
// as the core's sheds.
func (s *System) RetryAfterHint() int {
	if s.core != nil {
		return s.core.RetryAfter()
	}
	return 1
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("pas: writing response: %v", err)
	}
}
