package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// The generator is benchmark-owned on purpose: it shares nothing with
// internal/corpus, so a change to the repo's synthetic corpus cannot
// move the benchmark's inputs. Every string below is plain ASCII
// without quotes or backslashes, so prompts embed into JSON verbatim.

// templates has one form per category of the paper's taxonomy (coding,
// qa, writing, math, reasoning, translation, summarization, roleplay,
// brainstorming, knowledge, advice, analysis, extraction, chitchat), so
// M_p's category guess and facet scoring see every branch.
var templates = []string{
	"Write a function to implement %s for %s and debug the edge cases, %s; %s.",
	"What is the answer to a common question about %s asked by %s? %s; %s.",
	"Write a short essay about %s for %s in a warm style, %s; %s.",
	"Calculate and solve the equation that models %s for %s, %s; %s.",
	"If every premise about %s holds for %s, which conclusion follows logically? %s; %s.",
	"Translate a paragraph about %s into french for %s, %s; %s.",
	"Summarize the long report about %s for %s into key points, %s; %s.",
	"Pretend you are an expert on %s and greet %s in character, %s; %s.",
	"Brainstorm a list of ideas about %s for %s, %s; %s.",
	"Explain how %s works and describe the mechanism to %s, %s; %s.",
	"What is the best way to get better at %s? Give advice and tips to %s, %s; %s.",
	"Analyze the trade offs of %s for %s and compare the pros and cons, %s; %s.",
	"Extract the fields about %s from the notes of %s and return a table, %s; %s.",
	"Hello! Anything fun to chat about regarding %s with %s this weekend, %s; %s.",
}

var topics = []string{
	"consistent hashing", "tidal forces", "sourdough fermentation", "binary search trees",
	"compound interest", "the silk road", "coral reef bleaching", "sleep cycles",
	"remote team rituals", "rate limiting", "photosynthesis", "glass recycling",
	"salary negotiation", "monolith migration", "invoice processing", "marathon training",
	"vector clocks", "urban beekeeping", "bond pricing", "medieval trade guilds",
	"garbage collection", "volcanic soil", "espresso extraction", "cache eviction",
	"index funds", "the printing press", "wetland restoration", "jet lag",
	"code review habits", "circuit breakers", "plate tectonics", "textile dyeing",
	"interview preparation", "schema evolution", "receipt scanning", "trail running",
	"leader election", "rooftop gardens", "option hedging", "roman aqueducts",
	"memory arenas", "glacier retreat", "tea oxidation", "write ahead logs",
	"mortgage amortization", "the telegraph", "river deltas", "altitude sickness",
}

var audiences = []string{
	"a new graduate", "a busy manager", "a curious child", "a night shift nurse",
	"a retired engineer", "a first time founder", "a high school teacher", "a field biologist",
	"a freelance designer", "a support team", "a city planner", "a chess coach",
	"a student club", "a small bakery", "a volunteer crew", "a museum guide",
}

var qualifiers = []string{
	"keeping the scope small", "with one worked case", "assuming no prior background",
	"using plain language", "with the usual caveats", "covering the common mistakes",
	"for a ten minute read", "with numbers where they help", "starting from first principles",
	"without skipping steps", "with a realistic budget", "focused on the first week",
	"using a recent case", "under a tight deadline", "for a sceptical reader",
	"with a checklist at the end", "as part of a larger plan", "noting what can go wrong",
	"with sources to follow up", "in a neutral tone", "after a failed first attempt",
	"on a slow connection", "before a big review", "with two alternatives",
}

var formats = []string{
	"answer in short paragraphs", "number the main points", "end with a one line recap",
	"lead with the conclusion", "keep it under a page", "flag any assumption",
	"separate facts from opinion", "close with next steps", "mark the hard part",
	"use a running case", "define each term once", "say what to skip",
}

// promptSpace is the number of distinct prompts the generator can emit.
var promptSpace = uint64(len(templates) * len(topics) * len(audiences) * len(qualifiers) * len(formats))

// promptStride is a prime that shares no factor with promptSpace, so
// i -> (offset + i*stride) mod promptSpace visits every prompt once.
const promptStride = 1000003

// mix is splitmix64; it turns (seed, stream) into independent offsets
// and rng seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// promptAt returns the i-th prompt of the seed's enumeration. For one
// seed, distinct i below promptSpace give distinct prompts.
func promptAt(seed, i uint64) string {
	idx := (mix(seed)%promptSpace + (i%promptSpace)*promptStride) % promptSpace
	pick := func(n int) int {
		k := int(idx % uint64(n))
		idx /= uint64(n)
		return k
	}
	t := templates[pick(len(templates))]
	return fmt.Sprintf(t, topics[pick(len(topics))], audiences[pick(len(audiences))],
		qualifiers[pick(len(qualifiers))], formats[pick(len(formats))])
}

// augmentSalt is the salt of every /v1/augment request. chatSeed is the
// "seed" field of every chat request; the proxy uses its raw JSON text
// as the salt.
const (
	augmentSalt = "pasperf"
	chatSeed    = 7
	chatSalt    = "7"
	chatModel   = "gpt-4-0613"
)

// augmentBody renders the POST /v1/augment body. Prompts are JSON-safe
// by construction (TestGeneratorPrompts), so no escaping pass runs in
// the timed loop.
func augmentBody(prompt string) []byte {
	b := make([]byte, 0, len(prompt)+40)
	b = append(b, `{"prompt":"`...)
	b = append(b, prompt...)
	b = append(b, `","salt":"`+augmentSalt+`"}`...)
	return b
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// chatRequest carries exactly the fields the issue fixes for chat
// payloads: model, temperature, seed, and role+string messages.
type chatRequest struct {
	Model       string        `json:"model"`
	Temperature float64       `json:"temperature"`
	Seed        int           `json:"seed"`
	Messages    []chatMessage `json:"messages"`
}

// filler returns n bytes or a little more of deterministic prose for
// the earlier turns of a long conversation.
func filler(r *rand.Rand, n int) string {
	var sb strings.Builder
	for sb.Len() < n {
		fmt.Fprintf(&sb, "On %s, %s, %s. ", topics[r.Intn(len(topics))],
			qualifiers[r.Intn(len(qualifiers))], formats[r.Intn(len(formats))])
	}
	return sb.String()
}

// longChat is the proxy_chat payload: a system turn, six earlier
// user/assistant exchanges of about 520 bytes per turn, and the final
// user turn — 14 messages, about 7 KiB.
func longChat(seed uint64, id int, prompt string) chatRequest {
	r := rand.New(rand.NewSource(int64(mix(seed ^ uint64(id)<<20 ^ 0xc4a7))))
	msgs := []chatMessage{{Role: "system", Content: "You are a careful assistant. " + filler(r, 200)}}
	for i := 0; i < 6; i++ {
		msgs = append(msgs,
			chatMessage{Role: "user", Content: filler(r, 380)},
			chatMessage{Role: "assistant", Content: filler(r, 600)})
	}
	msgs = append(msgs, chatMessage{Role: "user", Content: prompt})
	return chatRequest{Model: chatModel, Temperature: 0.7, Seed: chatSeed, Messages: msgs}
}

// shortChat is the cluster_zipf payload: two messages, so the proxy's
// JSON rewrite is cheap and the ring hop dominates.
func shortChat(prompt string) chatRequest {
	return chatRequest{Model: chatModel, Temperature: 0.7, Seed: chatSeed, Messages: []chatMessage{
		{Role: "system", Content: "You are a careful assistant."},
		{Role: "user", Content: prompt},
	}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("pasperf: marshaling a generated request: %v", err)) // only plain strings and numbers go in
	}
	return b
}

// Workload names are permanent: BENCHMARK.json, reports and later PRs
// refer to them.
const (
	serveHot    = "serve_hot"
	serveCold   = "serve_cold"
	proxyChat   = "proxy_chat"
	clusterZipf = "cluster_zipf"
)

var workloadNames = []string{serveHot, serveCold, proxyChat, clusterZipf}

const (
	hotPrompts  = 256   // pre-warmed working set of serve_hot and proxy_chat
	zipfPrompts = 50000 // key space of cluster_zipf
	zipfS       = 1.1
	// coldBase keeps serve_cold's enumeration clear of the hot pools.
	coldBase = 1 << 20
)

// request is one generated request: the body to send and the id the
// oracle uses to find the original prompt or chat payload again.
type request struct {
	id   int
	body []byte
}

// inputs holds what a workload's requests are drawn from. It is a pure
// function of (workload, seed).
type inputs struct {
	workload string
	seed     uint64
	chat     bool
	hot      []string  // serve_hot, proxy_chat: request id i asks hot[i]; sent once before warm-up
	bodies   [][]byte  // proxy_chat: pre-marshaled long payloads
	parsed   []chatDoc // proxy_chat: originals, parsed once for the oracle
}

func newInputs(workload string, seed uint64) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed}
	switch workload {
	case serveHot, proxyChat:
		in.hot = make([]string, hotPrompts)
		for i := range in.hot {
			in.hot[i] = promptAt(seed, uint64(i))
		}
	case serveCold, clusterZipf:
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	in.chat = workload == proxyChat || workload == clusterZipf
	if workload == proxyChat {
		for i, p := range in.hot {
			b := mustJSON(longChat(seed, i, p))
			doc, err := parseChat(b)
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
			in.parsed = append(in.parsed, doc)
		}
	}
	return in, nil
}

// path is the URL path the workload posts to.
func (in *inputs) path() string {
	if in.chat {
		return "/v1/chat/completions"
	}
	return "/v1/augment"
}

// prompt returns the user prompt of request id.
func (in *inputs) prompt(id int) string {
	switch in.workload {
	case serveHot, proxyChat:
		return in.hot[id]
	case serveCold:
		return promptAt(in.seed, coldBase+uint64(id))
	default:
		return promptAt(in.seed, uint64(id))
	}
}

// salt is the salt the daemons derive for the workload's requests.
func (in *inputs) salt() string {
	if in.chat {
		return chatSalt
	}
	return augmentSalt
}

// body renders request id.
func (in *inputs) body(id int) []byte {
	switch in.workload {
	case proxyChat:
		return in.bodies[id]
	case clusterZipf:
		return mustJSON(shortChat(in.prompt(id)))
	default:
		return augmentBody(in.prompt(id))
	}
}

// original returns the parsed chat payload of request id, for the stub
// upstream's oracle.
func (in *inputs) original(id int) (chatDoc, bool) {
	switch in.workload {
	case proxyChat:
		if id < 0 || id >= len(in.parsed) {
			return nil, false
		}
		return in.parsed[id], true
	case clusterZipf:
		if id < 0 || id >= zipfPrompts {
			return nil, false
		}
		doc, err := parseChat(in.body(id))
		return doc, err == nil
	}
	return nil, false
}

// stream is one closed-loop client's request sequence: a pure function
// of (workload, seed, client, clients).
type stream struct {
	in      *inputs
	rng     *rand.Rand
	zipf    *rand.Zipf
	next    int // serve_cold: the client's next distinct id
	clients int
}

func (in *inputs) stream(client, clients int) *stream {
	r := rand.New(rand.NewSource(int64(mix(in.seed ^ mix(uint64(client)+1)))))
	s := &stream{in: in, rng: r, next: client, clients: clients}
	if in.workload == clusterZipf {
		s.zipf = rand.NewZipf(r, zipfS, 1, zipfPrompts-1)
	}
	return s
}

func (s *stream) nextID() int {
	switch s.in.workload {
	case serveCold:
		// Clients interleave one enumeration, so no two requests of a run
		// share a prompt whatever the clients' relative speed.
		id := s.next
		s.next += s.clients
		return id
	case clusterZipf:
		return int(s.zipf.Uint64())
	default:
		return s.rng.Intn(hotPrompts)
	}
}

func (s *stream) nextRequest() request {
	id := s.nextID()
	return request{id: id, body: s.in.body(id)}
}

// sequenceHash fingerprints the request sequence: the first n requests
// of each client, ids and bodies. Same (workload, seed, clients) gives
// the same hash; another seed gives another.
func sequenceHash(in *inputs, clients, n int) string {
	h := sha256.New()
	for c := 0; c < clients; c++ {
		s := in.stream(c, clients)
		for i := 0; i < n; i++ {
			r := s.nextRequest()
			_, _ = fmt.Fprintf(h, "%d\x00%s\x00", r.id, r.body) // a hash.Hash never fails to write
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
