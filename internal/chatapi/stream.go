package chatapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Streaming support: when a chat request sets "stream": true, the server
// replies with server-sent events, one word-chunk per event, terminated
// by the [DONE] sentinel — the de-facto wire protocol of public chat
// APIs. The simulation generates the full response first and streams its
// words; latency per chunk is zero, but the framing, incremental
// delivery, and client-side assembly are the real thing.

// streamChunk is one SSE delta event.
type streamChunk struct {
	ID      string `json:"id"`
	Model   string `json:"model"`
	Choices []struct {
		Index int `json:"index"`
		Delta struct {
			Role    string `json:"role,omitempty"`
			Content string `json:"content,omitempty"`
		} `json:"delta"`
		FinishReason *string `json:"finish_reason"`
	} `json:"choices"`
}

func newChunk(id, model, role, content string, finish *string) streamChunk {
	var c streamChunk
	c.ID = id
	c.Model = model
	c.Choices = make([]struct {
		Index int `json:"index"`
		Delta struct {
			Role    string `json:"role,omitempty"`
			Content string `json:"content,omitempty"`
		} `json:"delta"`
		FinishReason *string `json:"finish_reason"`
	}, 1)
	c.Choices[0].Delta.Role = role
	c.Choices[0].Delta.Content = content
	c.Choices[0].FinishReason = finish
	return c
}

// streamResponse writes the completion as SSE. Chunks split on word
// boundaries, a few words per event.
func streamResponse(w http.ResponseWriter, id, model, content string) {
	flusher, ok := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(v interface{}) {
		raw, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", raw)
		if ok {
			flusher.Flush()
		}
	}

	writeEvent(newChunk(id, model, "assistant", "", nil))
	words := strings.Fields(content)
	const perChunk = 4
	for i := 0; i < len(words); i += perChunk {
		end := i + perChunk
		if end > len(words) {
			end = len(words)
		}
		text := strings.Join(words[i:end], " ")
		if end < len(words) {
			text += " "
		}
		writeEvent(newChunk(id, model, "", text, nil))
	}
	stop := "stop"
	writeEvent(newChunk(id, model, "", "", &stop))
	fmt.Fprint(w, "data: [DONE]\n\n")
	if ok {
		flusher.Flush()
	}
}

// ChatCompletionStream performs a streaming request under ctx and
// invokes onDelta for every content chunk, returning the assembled
// completion. A context that ends mid-stream aborts the read, and the
// returned error wraps the context's.
func (c *Client) ChatCompletionStream(ctx context.Context, req ChatRequest, onDelta func(string)) (string, error) {
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("chatapi: encoding request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/chat/completions", strings.NewReader(string(body)))
	if err != nil {
		return "", fmt.Errorf("chatapi: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.cfg.APIKey != "" {
		httpReq.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
	}
	resp, err := c.cfg.HTTPClient.Do(httpReq)
	if err != nil {
		return "", fmt.Errorf("chatapi: transport: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var e apiError
		if json.Unmarshal(raw, &e) == nil && e.Error.Message != "" {
			return "", fmt.Errorf("chatapi: %s (%d): %s", e.Error.Type, resp.StatusCode, e.Error.Message)
		}
		return "", fmt.Errorf("chatapi: status %d", resp.StatusCode)
	}

	var assembled strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		data := strings.TrimPrefix(line, "data: ")
		if data == "[DONE]" {
			return assembled.String(), nil
		}
		var chunk streamChunk
		if err := json.Unmarshal([]byte(data), &chunk); err != nil {
			return "", fmt.Errorf("chatapi: bad stream chunk: %w", err)
		}
		if len(chunk.Choices) > 0 && chunk.Choices[0].Delta.Content != "" {
			assembled.WriteString(chunk.Choices[0].Delta.Content)
			if onDelta != nil {
				onDelta(chunk.Choices[0].Delta.Content)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("chatapi: reading stream: %w", err)
	}
	return "", fmt.Errorf("chatapi: stream ended without [DONE]")
}
