package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// The oracle enforces the paper's contract r_e = LLM(cat(p, M_p(p))) on
// every response: the prompt reaches the main model intact and the only
// change is an appended complement. A violation counts as a failed
// request.

// errDegraded marks a response the daemon itself flagged as below full
// quality. It is a valid response, but the benchmark's workloads never
// load a daemon enough to degrade, so it is counted on its own.
var errDegraded = errors.New("response flagged degraded")

// augmentReply is the subset of POST /v1/augment's reply the oracle
// reads.
type augmentReply struct {
	Prompt     string `json:"prompt"`
	Complement string `json:"complement"`
	Augmented  string `json:"augmented"`
	Degraded   bool   `json:"degraded"`
}

// checkAugment validates one /v1/augment reply and returns the
// complement. degradedHeader is the reply's X-PAS-Degraded value.
func checkAugment(prompt string, body []byte, degradedHeader string) (string, error) {
	var rep augmentReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return "", fmt.Errorf("reply is not JSON: %w", err)
	}
	if rep.Prompt != prompt {
		return "", fmt.Errorf("reply echoes prompt %q, sent %q", clip(rep.Prompt), clip(prompt))
	}
	if rep.Degraded || degradedHeader != "" {
		if rep.Augmented != prompt && rep.Augmented != prompt+"\n"+rep.Complement {
			return "", fmt.Errorf("degraded reply altered the prompt: %q", clip(rep.Augmented))
		}
		return rep.Complement, errDegraded
	}
	if rep.Complement == "" {
		return "", errors.New("empty complement on a reply not flagged degraded")
	}
	if rep.Augmented != prompt+"\n"+rep.Complement {
		return "", fmt.Errorf("augmented is not prompt + newline + complement: %q", clip(rep.Augmented))
	}
	return rep.Complement, nil
}

// chatDoc is a chat-completions request parsed generically, so the
// comparison is on JSON values, not bytes: a proxy that rewrites the
// body byte-surgically and one that re-marshals it both pass.
type chatDoc map[string]any

func parseChat(body []byte) (chatDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var doc chatDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("chat payload is not a JSON object: %w", err)
	}
	return doc, nil
}

// checkChat compares what the upstream received with what the client
// sent: same top-level fields with equal values, same number of
// messages, every message but the last user turn equal, and the last
// user turn's content = original + "\n" + a non-empty complement. It
// returns the complement.
func checkChat(orig chatDoc, received []byte) (string, error) {
	got, err := parseChat(received)
	if err != nil {
		return "", err
	}
	for k, v := range orig {
		if k == "messages" {
			continue
		}
		gv, ok := got[k]
		if !ok {
			return "", fmt.Errorf("field %q dropped", k)
		}
		if !reflect.DeepEqual(v, gv) {
			return "", fmt.Errorf("field %q changed from %v to %v", k, v, gv)
		}
	}
	for k := range got {
		if _, ok := orig[k]; !ok {
			return "", fmt.Errorf("field %q added", k)
		}
	}
	om, _ := orig["messages"].([]any)
	gm, ok := got["messages"].([]any)
	if !ok {
		return "", errors.New("messages is not an array")
	}
	if len(gm) != len(om) {
		return "", fmt.Errorf("%d messages arrived, %d were sent", len(gm), len(om))
	}
	last := -1
	for i, m := range om {
		if mm, _ := m.(map[string]any); mm["role"] == "user" {
			last = i
		}
	}
	if last < 0 {
		return "", errors.New("original has no user turn")
	}
	for i := range om {
		if i != last && !reflect.DeepEqual(om[i], gm[i]) {
			return "", fmt.Errorf("message %d was edited", i)
		}
	}
	want, _ := om[last].(map[string]any)
	have, _ := gm[last].(map[string]any)
	if len(have) != len(want) || have["role"] != "user" {
		return "", fmt.Errorf("last user turn's shape changed: %v", have)
	}
	sent, _ := want["content"].(string)
	content, _ := have["content"].(string)
	complement, found := strings.CutPrefix(content, sent+"\n")
	if !found || complement == "" {
		return "", fmt.Errorf("last user turn is not original + newline + complement: %q", clip(content))
	}
	return complement, nil
}

// memo checks that one (prompt, salt) always yields the same
// complement, across requests and daemons. Keys are request ids, which
// stand for prompts; the salt is fixed per workload.
type memo struct {
	mu   sync.Mutex
	seen map[int]string
}

// memoCap bounds memory on serve_cold, where every id is new.
const memoCap = 1 << 16

func newMemo() *memo { return &memo{seen: make(map[int]string)} }

func (m *memo) check(id int, complement string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.seen[id]; ok {
		if prev != complement {
			return fmt.Errorf("complement of request id %d changed from %q to %q", id, clip(prev), clip(complement))
		}
		return nil
	}
	if len(m.seen) < memoCap {
		m.seen[id] = complement
	}
	return nil
}

// sample returns up to n recorded (id, complement) pairs, lowest ids
// first so the choice does not depend on map order.
func (m *memo) sample(n int) map[int]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]string, n)
	for id := 0; len(out) < n && id < 4*memoCap; id++ {
		if c, ok := m.seen[id]; ok {
			out[id] = c
		}
	}
	return out
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}
