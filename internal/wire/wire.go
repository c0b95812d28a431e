// Package wire declares the JSON bodies passerve exchanges with its
// callers — POST /v1/augment and GET /v1/status — once, below both the
// root package that serves them and the packages that consume them
// (internal/ring's router and prober, internal/loadgen's readiness
// poll). The field names are the stable contract. The augment bodies
// are also read and written here (codec.go), by the repository's one
// JSON scanner (scan.go) and one JSON string appender instead of by
// reflection; encoding/json stays the reference both are fuzzed against
// and the reader of every body the scanner does not claim.
package wire

// DegradedHeader is the response header that flags every reply below
// full quality, with the value DegradedValue. A reader takes any
// non-empty value as the flag. Documented, and matched by HTTP, as
// X-PAS-Degraded; spelled here the way net/http keys and writes it, so
// a Get or Set allocates no canonical copy of the name.
const DegradedHeader = "X-Pas-Degraded"

// DegradedValue is what DegradedHeader and AugmentResponse.DegradedLevel
// carry on a reply below full quality: "1", the raw prompt passed
// through, the only answer PAS gives other than cat(p, M_p(p)).
const DegradedValue = "1"

// AugmentRequest is the body of POST /v1/augment.
type AugmentRequest struct {
	// Prompt is the user prompt to complement. Required.
	Prompt string `json:"prompt"`
	// Salt optionally decorrelates repeated calls.
	Salt string `json:"salt,omitempty"`
}

// AugmentResponse is the reply of POST /v1/augment.
type AugmentResponse struct {
	// Prompt echoes the original prompt.
	Prompt string `json:"prompt"`
	// Complement is p_c = M_p(p).
	Complement string `json:"complement"`
	// Augmented is cat(p, p_c), ready to send to any LLM.
	Augmented string `json:"augmented"`
	// Model is the PAS base model name.
	Model string `json:"model"`
	// Degraded reports that the response is below full quality: the
	// augmentation path shed and the service fell back to the raw
	// prompt (ServingConfig.Degrade).
	Degraded bool `json:"degraded,omitempty"`
	// DegradedLevel is DegradedValue when Degraded, as the X-PAS-Degraded
	// response header is.
	DegradedLevel string `json:"degraded_level,omitempty"`
}

// The values of Status.Status.
const (
	StatusOK       = "ok"
	StatusDraining = "draining"
)

// Status is the body of GET /v1/status, the probe the cluster
// membership table polls. The HTTP status stays 200 while draining — a
// draining process is healthy, just leaving — and Status carries the
// routing verdict: StatusDraining reads as routing-excluded-but-healthy,
// anything else 2xx as "route to me".
type Status struct {
	Status string `json:"status"`
	Model  string `json:"model"`
	// Instance names the serving process's incarnation: fixed when it is
	// built, different after a restart. A restarted replica may carry a
	// new model, so a prober that reads a changed Instance drops whatever
	// it cached of the fleet's answers.
	Instance string `json:"instance,omitempty"`
}
