// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus the design-choice ablations listed in DESIGN.md
// §5. Each experiment benchmark prints its table once, so
//
//	go test -bench=. -benchmem
//
// regenerates every reported artefact at reduced (smoke) scale; use
// cmd/paseval for paper-scale runs.
package pas_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	pas "repro"
	"repro/internal/augment"
	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/curation"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/evalbench"
	"repro/internal/facet"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/simllm"
)

// Shared artifacts: Prepare is the dominant cost, so every experiment
// benchmark reuses one quick-scale build.
var (
	benchOnce sync.Once
	benchArt  *evalbench.Artifacts
	benchErr  error
)

func benchArtifacts(b *testing.B) *evalbench.Artifacts {
	b.Helper()
	benchOnce.Do(func() {
		benchArt, benchErr = evalbench.Prepare(evalbench.QuickOptions())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchArt
}

var printOnce sync.Map

func printFirst(b *testing.B, key, out string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", out)
	}
}

// BenchmarkTable1 regenerates Table 1: PAS vs BPO vs no APE across the
// six main models on Arena-Hard and AlpacaEval 2.0 (+LC).
func BenchmarkTable1(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.Table1()
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "table1", rep.String())
	}
}

// BenchmarkTable2 regenerates Table 2: PAS and BPO on the same
// LLaMA-2-7B base.
func BenchmarkTable2(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.Table2()
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "table2", rep.String())
	}
}

// BenchmarkTable3 regenerates Table 3: the flexibility matrix.
func BenchmarkTable3(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printFirst(b, "table3", art.Table3().String())
	}
}

// BenchmarkTable4 regenerates Table 4 and Figure 1(b): the human
// evaluation with the simulated rater pool.
func BenchmarkTable4(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.HumanStudy()
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "table4", rep.String())
	}
}

// BenchmarkFigure1 is the GSB half of the human study; it shares the
// Table 4 computation and reports the per-category win rates.
func BenchmarkFigure1(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.HumanStudy()
		if err != nil {
			b.Fatal(err)
		}
		var g humanGSB
		for _, c := range rep.Categories {
			g.good += c.GSB.Good
			g.same += c.GSB.Same
			g.bad += c.GSB.Bad
		}
		printFirst(b, "fig1", fmt.Sprintf("Figure 1(b) totals: good %d, same %d, bad %d", g.good, g.same, g.bad))
	}
}

type humanGSB struct{ good, same, bad int }

// BenchmarkTable5 regenerates Table 5: the selection/regeneration
// ablation.
func BenchmarkTable5(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.Table5()
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "table5", rep.String())
	}
}

// BenchmarkFigure6 regenerates Figure 6: the dataset category
// distribution.
func BenchmarkFigure6(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printFirst(b, "fig6", art.Figure6().String())
	}
}

// BenchmarkFigure7 regenerates Figure 7: the data-efficiency comparison.
func BenchmarkFigure7(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "fig7", rep.String())
	}
}

// BenchmarkCaseStudies reruns the §4.6 case studies.
func BenchmarkCaseStudies(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases, err := art.CaseStudies()
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "cases", evalbench.RenderCases(cases))
	}
}

// ---------------------------------------------------------------------
// Design-choice ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

func dedupVectors(b *testing.B, n int) []embed.Vector {
	b.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Size = n
	pool, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, len(pool))
	for i, p := range pool {
		texts[i] = p.Text
	}
	enc := embed.MustNew(embed.DefaultConfig())
	if err := enc.Fit(texts); err != nil {
		b.Fatal(err)
	}
	return enc.EncodeBatch(texts)
}

// BenchmarkDedupHNSWvsExact compares the HNSW-backed dedup against the
// brute-force oracle — the speed/recall trade-off that justifies HNSW in
// the §3.1 pipeline.
func BenchmarkDedupHNSWvsExact(b *testing.B) {
	vecs := dedupVectors(b, 2000)
	b.Run("hnsw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.NearDuplicates(vecs, cluster.DefaultDedupConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.NearDuplicatesExact(vecs, 0.92); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchCurated(b *testing.B, n int) []curation.Curated {
	b.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Size = n * 2
	cfg.JunkRate = 0
	cfg.DuplicateRate = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]curation.Curated, 0, n)
	for _, p := range pool {
		if len(out) == n {
			break
		}
		out = append(out, curation.Curated{Prompt: p, Category: p.Truth.Category})
	}
	return out
}

// BenchmarkRegenCap sweeps the regeneration attempt budget and reports
// the residual bad-pair rate — Algorithm 1 loops until correct; this
// shows where the loop's value saturates.
func BenchmarkRegenCap(b *testing.B) {
	cur := benchCurated(b, 300)
	golden := dataset.Golden()
	for _, cap := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("maxregen=%d", cap), func(b *testing.B) {
			var residual int
			for i := 0; i < b.N; i++ {
				cfg := augment.DefaultConfig()
				cfg.MaxRegen = cap
				res, err := augment.Run(cur, golden, cfg)
				if err != nil {
					b.Fatal(err)
				}
				residual = res.Stats.ResidualDefects
			}
			b.ReportMetric(float64(residual)/300, "residual-defects/pair")
		})
	}
}

// BenchmarkGoldenSize sweeps the number of golden few-shot examples per
// category (the paper uses 4-5) and reports the pre-selection defect
// rate of raw generation.
func BenchmarkGoldenSize(b *testing.B) {
	cur := benchCurated(b, 300)
	full := dataset.Golden()
	for _, size := range []int{1, 4, 5} {
		b.Run(fmt.Sprintf("golden=%d", size), func(b *testing.B) {
			golden := make(map[facet.Category][]dataset.Pair, len(full))
			for c, pairs := range full {
				if len(pairs) > size {
					pairs = pairs[:size]
				}
				golden[c] = pairs
			}
			var residual int
			for i := 0; i < b.N; i++ {
				cfg := augment.DefaultConfig()
				cfg.Selection = false // measure raw generation quality
				res, err := augment.Run(cur, golden, cfg)
				if err != nil {
					b.Fatal(err)
				}
				residual = res.Stats.ResidualDefects
			}
			b.ReportMetric(float64(residual)/300, "raw-defects/pair")
		})
	}
}

// BenchmarkLCCorrection shows why AlpacaEval 2.0 has an LC variant: with
// a length-biased judge, padding a response shifts the raw win
// probability but the length-controlled estimate stays put.
func BenchmarkLCCorrection(b *testing.B) {
	j := judge.MustNew(judge.DefaultConfig())
	m := simllm.MustModel(simllm.GPT40613)
	rng := rand.New(rand.NewSource(4))
	cfg := corpus.DefaultConfig()
	cfg.Size = 300
	cfg.JunkRate = 0
	cfg.DuplicateRate = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var probs, gaps []float64
		for k, p := range pool {
			salt := fmt.Sprintf("lc/%d", k)
			respA := m.Respond(p.Text, simllm.Options{Salt: salt + "/a"})
			respB := m.Respond(p.Text, simllm.Options{Salt: salt + "/b"})
			// Pad half of the A responses with content-free filler.
			if rng.Intn(2) == 0 {
				respA += " It is also worth noting additional general remarks of no substance whatsoever repeated at length."
			}
			v := j.Compare(p.Text, respA, respB, salt)
			probs = append(probs, v.ProbA)
			gaps = append(gaps, judge.LengthGap(respA, respB))
		}
		raw := metrics.Mean(probs)
		fit, err := metrics.LinearRegression(gaps, probs)
		if err != nil {
			b.Fatal(err)
		}
		lc := fit.Predict(0)
		if i == 0 {
			printFirst(b, "lc", fmt.Sprintf(
				"LC correction: raw win prob %.3f vs length-controlled %.3f (padding inflates raw, LC removes it)",
				raw, lc))
		}
	}
}

// BenchmarkEndToEndBuild measures the full PAS construction at smoke
// scale: corpus -> curation -> generation -> SFT.
func BenchmarkEndToEndBuild(b *testing.B) {
	opt := evalbench.QuickOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evalbench.Prepare(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDomainSpecialization runs the §3.3 extension: specialised
// coding PAS vs general PAS on a coding-only benchmark.
func BenchmarkDomainSpecialization(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.DomainStudy(facet.Coding, 40)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "domain", rep.String())
	}
}

// BenchmarkSelfConsistencyVsPAS compares the two ways of buying trap
// accuracy: self-consistency pays k-times inference; PAS pays one short
// complementary prompt. Reported metric: correct-answers per 40 trials.
func BenchmarkSelfConsistencyVsPAS(b *testing.B) {
	art := benchArtifacts(b)
	m := simllm.MustModel(simllm.GPT4Turbo)
	prompt := "A quick trick puzzle for you: heavier a kilogram of steel or a kilogram of feathers. What do you say?"
	tr, ok := facet.FindTrap(prompt)
	if !ok {
		b.Fatal("trap missing")
	}
	const trials = 40
	b.Run("single", func(b *testing.B) {
		var right int
		for i := 0; i < b.N; i++ {
			right = 0
			for k := 0; k < trials; k++ {
				// Same salts as self-consistency's first sample, so the
				// comparison isolates the voting effect.
				if tr.ClaimsRight(m.Respond(prompt, simllm.Options{Salt: fmt.Sprintf("v%d/sc0", k)})) {
					right++
				}
			}
		}
		b.ReportMetric(float64(right), "right/40")
	})
	b.Run("selfconsistency-k5", func(b *testing.B) {
		var right int
		for i := 0; i < b.N; i++ {
			right = 0
			for k := 0; k < trials; k++ {
				out, err := m.SelfConsistent(prompt, 5, simllm.Options{Salt: fmt.Sprintf("v%d", k)})
				if err != nil {
					b.Fatal(err)
				}
				if tr.ClaimsRight(out) {
					right++
				}
			}
		}
		b.ReportMetric(float64(right), "right/40")
	})
	b.Run("pas", func(b *testing.B) {
		ape := art.PASAPE()
		var right int
		for i := 0; i < b.N; i++ {
			right = 0
			for k := 0; k < trials; k++ {
				salt := fmt.Sprintf("p%d", k)
				if tr.ClaimsRight(m.Respond(ape.Transform(prompt, salt), simllm.Options{Salt: salt})) {
					right++
				}
			}
		}
		b.ReportMetric(float64(right), "right/40")
	})
}

// BenchmarkAutoCoTVsPAS compares the per-task Auto-CoT demonstrations
// against task-agnostic PAS on a reasoning workload.
func BenchmarkAutoCoTVsPAS(b *testing.B) {
	art := benchArtifacts(b)
	// Task pool: reasoning/math prompts.
	gen := corpus.DefaultConfig()
	gen.Size = 600
	gen.Seed = 77
	gen.JunkRate = 0
	gen.DuplicateRate = 0
	gen.CategoryBias = 0
	pool, err := corpus.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	var task []string
	for _, p := range pool {
		if p.Truth.Category == facet.Math || p.Truth.Category == facet.Reason {
			task = append(task, p.Text)
		}
	}
	if len(task) < 40 {
		b.Fatalf("task pool too small: %d", len(task))
	}
	auto, err := baselines.NewAutoCoT(task[:20], baselines.DefaultAutoCoTConfig())
	if err != nil {
		b.Fatal(err)
	}
	eval := task[20:60]
	m := simllm.MustModel(simllm.GPT40613)
	j := judge.MustNew(judge.DefaultConfig())
	score := func(ape baselines.APE) float64 {
		var total float64
		for i, p := range eval {
			salt := fmt.Sprintf("ac%d", i)
			resp := m.Respond(ape.Transform(p, salt), simllm.Options{Salt: salt})
			total += j.Score(p, resp)
		}
		return total / float64(len(eval))
	}
	for i := 0; i < b.N; i++ {
		autoScore := score(auto)
		pasScore := score(art.PASAPE())
		noneScore := score(baselines.None{})
		printFirst(b, "autocot", fmt.Sprintf(
			"Auto-CoT vs PAS on reasoning tasks (mean judge score): none %.2f, Auto-CoT %.2f, PAS %.2f",
			noneScore, autoScore, pasScore))
	}
}

// BenchmarkLeaderboard fits a joint Bradley-Terry ranking across
// (model, APE) systems from round-robin judged games — the Chatbot-Arena
// style aggregation underlying Arena-Hard.
func BenchmarkLeaderboard(b *testing.B) {
	art := benchArtifacts(b)
	contenders := []evalbench.Contender{
		{MainModel: simllm.GPT4Turbo, APE: baselines.None{}},
		{MainModel: simllm.GPT4Turbo, APE: art.PASAPE()},
		{MainModel: simllm.GPT40613, APE: baselines.None{}},
		{MainModel: simllm.GPT40613, APE: art.PASAPE()},
		{MainModel: simllm.GPT35Turbo, APE: baselines.None{}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := art.Leaderboard(contenders)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "leaderboard", rep.String())
	}
}

// constAugmenter appends a fixed complement, so BenchmarkProxyRewrite
// times the proxy's request rewrite and not M_p.
type constAugmenter struct{}

func (constAugmenter) AugmentContextDegraded(_ context.Context, prompt, _ string) (string, bool, error) {
	return prompt + "\nState your assumptions and number the steps.", false, nil
}

// memTransport answers every round trip from memory, after consuming
// the forwarded body as a socket would.
type memTransport struct{}

func (memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body) // a reader over memory
		_ = req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
		Body:   io.NopCloser(strings.NewReader(`{"ok":true}`)), ContentLength: 11, Request: req,
	}, nil
}

// discardWriter is the cheapest ResponseWriter.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// BenchmarkProxyRewrite times one chat request through Proxy.ServeHTTP
// with no socket and no model on the path: what is left is reading the
// body, finding the last user turn, splicing the complement in, and the
// reverse proxy's own bookkeeping. long is the 14-message, 7 KiB
// conversation of pasperf's proxy_chat workload, short its 2-message
// cluster_zipf one (the same shapes as the proxy.rewrite_ns and
// proxy.rewrite_short_ns probes). The proxy has no Transport of its
// own, so the in-memory one is installed as http.DefaultTransport while
// the benchmark runs. Use -benchmem.
func BenchmarkProxyRewrite(b *testing.B) {
	type message struct {
		Role    string `json:"role"`
		Content string `json:"content"`
	}
	chat := func(msgs []message) []byte {
		body, err := json.Marshal(map[string]any{"model": "gpt-4-0613", "temperature": 0.7, "seed": "pasperf", "messages": msgs})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	const prompt = "Explain how tides form, for a reader who has never seen the sea."
	filler := strings.Repeat("On tides, in plain words, as a numbered list. ", 11) // ~520 bytes a turn
	long := []message{{"system", "You are a careful assistant. " + filler[:200]}}
	for i := 0; i < 6; i++ {
		long = append(long, message{"user", filler[:380]}, message{"assistant", filler + filler[:100]})
	}
	long = append(long, message{"user", prompt})
	short := []message{{"system", "You are a careful assistant."}, {"user", prompt}}

	saved := http.DefaultTransport
	http.DefaultTransport = memTransport{}
	defer func() { http.DefaultTransport = saved }()

	for _, bc := range []struct {
		name string
		body []byte
	}{{"long", chat(long)}, {"short", chat(short)}} {
		b.Run(bc.name, func(b *testing.B) {
			proxy, err := pas.NewProxyWith(constAugmenter{}, "http://upstream.invalid")
			if err != nil {
				b.Fatal(err)
			}
			w := discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest(http.MethodPost, "http://proxy/v1/chat/completions", bytes.NewReader(bc.body))
				if err != nil {
					b.Fatal(err)
				}
				proxy.ServeHTTP(w, req)
			}
		})
	}
}
