package pas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/wire"
)

// Client talks to a remote PAS service (see System.Handler). It is how a
// third-party application plugs PAS in front of its own LLM calls.
type Client struct {
	baseURL string
	http    *http.Client
}

// NewClient creates a client for the PAS service at baseURL
// (e.g. "http://localhost:8422").
func NewClient(baseURL string) (*Client, error) {
	trimmed := strings.TrimRight(baseURL, "/")
	if trimmed == "" {
		return nil, fmt.Errorf("pas: empty base URL")
	}
	return &Client{
		baseURL: trimmed,
		http:    &http.Client{Timeout: 30 * time.Second},
	}, nil
}

// Augment requests a complementary prompt for the given user prompt.
func (c *Client) Augment(prompt, salt string) (AugmentResponse, error) {
	body := wire.AppendAugmentRequest(nil, AugmentRequest{Prompt: prompt, Salt: salt})
	resp, err := c.http.Post(c.baseURL+"/v1/augment", "application/json", bytes.NewReader(body))
	if err != nil {
		return AugmentResponse{}, fmt.Errorf("pas: calling service: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPromptBytes*2))
	if err != nil {
		return AugmentResponse{}, fmt.Errorf("pas: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return AugmentResponse{}, fmt.Errorf("pas: service error (%d): %s", resp.StatusCode, e.Error)
		}
		return AugmentResponse{}, fmt.Errorf("pas: service error: status %d", resp.StatusCode)
	}
	var out AugmentResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return AugmentResponse{}, fmt.Errorf("pas: decoding response: %w", err)
	}
	return out, nil
}

// Healthy reports whether the service responds on /healthz.
func (c *Client) Healthy() bool {
	resp, err := c.http.Get(c.baseURL + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse; health is the status code
	return resp.StatusCode == http.StatusOK
}
