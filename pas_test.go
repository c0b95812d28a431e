package pas

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/facet"
	"repro/internal/simllm"
)

// buildOnce builds a small PAS system once for the whole test package;
// the end-to-end build is the expensive part.
var (
	buildMu  sync.Mutex
	built    *BuildResult
	buildErr error
)

func testSystem(t testing.TB) *BuildResult {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if built == nil && buildErr == nil {
		cfg := DefaultConfig()
		cfg.CorpusSize = 3000
		cfg.ClassifierExamples = 2000
		cfg.Augment.PerCategoryCap = 80
		cfg.Augment.HeavyCategoryCap = 160
		built, buildErr = Build(cfg)
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return built
}

func TestBuildValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CorpusSize = 0
	if _, err := Build(cfg); err == nil {
		t.Error("zero corpus should fail")
	}
	cfg = DefaultConfig()
	cfg.ClassifierExamples = 0
	if _, err := Build(cfg); err == nil {
		t.Error("zero classifier examples should fail")
	}
	cfg = DefaultConfig()
	cfg.BaseModel = "nope"
	if _, err := Build(cfg); err == nil {
		t.Error("unknown base model should fail")
	}
}

func TestBuildProducesWorkingSystem(t *testing.T) {
	res := testSystem(t)
	if res.Dataset.Len() == 0 {
		t.Fatal("no dataset generated")
	}
	if res.CurationStats.AfterFilter == 0 {
		t.Fatal("curation kept nothing")
	}
	if res.AugmentStats.Prompts == 0 {
		t.Fatal("no generations")
	}
	if res.System.BaseModel() != simllm.Qwen27B {
		t.Fatalf("base = %s", res.System.BaseModel())
	}

	prompt := "Explain how photosynthesis works."
	c := res.System.Complement(prompt, "t")
	if facet.DetectDirectives(c).Len() == 0 {
		t.Fatalf("complement has no directives: %q", c)
	}
	aug := res.System.Augment(prompt, "t")
	if !strings.HasPrefix(aug, prompt) {
		t.Fatal("augmentation must preserve the original prompt as prefix")
	}
	if aug == prompt {
		t.Fatal("augmentation added nothing")
	}
}

func TestSystemImplementsAPE(t *testing.T) {
	res := testSystem(t)
	if res.System.Name() != "PAS" {
		t.Fatal("name")
	}
	p := "Solve x^2 - 5x + 6 = 0."
	if res.System.Transform(p, "s") != res.System.Augment(p, "s") {
		t.Fatal("Transform must equal Augment")
	}
}

func TestEnhanceRunsDownstreamModel(t *testing.T) {
	res := testSystem(t)
	main := simllm.MustModel(simllm.GPT40613)
	out, err := res.System.EnhanceContext(context.Background(), main, "Give me advice on keeping houseplants alive.", "e")
	if err != nil {
		t.Fatal(err)
	}
	if out.Complement == "" || out.Response == "" {
		t.Fatalf("incomplete enhancement: %+v", out)
	}
	if _, err := res.System.EnhanceContext(context.Background(), nil, "x", "e"); err == nil {
		t.Fatal("nil downstream model should fail")
	}
}

func TestSaveLoadSystem(t *testing.T) {
	res := testSystem(t)
	path := filepath.Join(t.TempDir(), "pas-model.json")
	if err := res.System.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(path)
	if err != nil {
		t.Fatal(err)
	}
	p := "Write a python function that implements a trie."
	if loaded.Complement(p, "x") != res.System.Complement(p, "x") {
		t.Fatal("loaded system behaves differently")
	}
	if _, err := LoadSystem(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing model file should fail")
	}
}

func TestHTTPService(t *testing.T) {
	res := testSystem(t)
	srv := httptest.NewServer(res.System.Handler())
	defer srv.Close()

	client, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !client.Healthy() {
		t.Fatal("health check failed")
	}
	out, err := client.Augment("Explain the science of fermentation.", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if out.Complement == "" {
		t.Fatal("empty complement over HTTP")
	}
	if !strings.HasPrefix(out.Augmented, "Explain the science of fermentation.") {
		t.Fatalf("augmented = %q", out.Augmented)
	}
	if out.Model != simllm.Qwen27B {
		t.Fatalf("model = %q", out.Model)
	}

	// Same salt must be reproducible across HTTP.
	again, err := client.Augment("Explain the science of fermentation.", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if again.Complement != out.Complement {
		t.Fatal("service not deterministic for fixed salt")
	}
}

func TestHTTPServiceErrors(t *testing.T) {
	res := testSystem(t)
	srv := httptest.NewServer(res.System.Handler())
	defer srv.Close()
	client, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Augment("", "s"); err == nil {
		t.Error("empty prompt should be rejected")
	}
	if !strings.Contains(fmt.Sprint(err), "") { // keep err used
		t.Log(err)
	}
	// Wrong method.
	resp, err := srv.Client().Get(srv.URL + "/v1/augment")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(""); err == nil {
		t.Error("empty URL should fail")
	}
	if _, err := NewClient("/"); err == nil {
		t.Error("bare slash should fail")
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client, err := NewClient("http://127.0.0.1:1") // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	if client.Healthy() {
		t.Error("dead server reported healthy")
	}
	if _, err := client.Augment("p", "s"); err == nil {
		t.Error("dead server should fail")
	}
}

// TestDatasetMostlyClean asserts the headline §3.2 property on the real
// built dataset: residual defects are rare after selection+regeneration.
func TestDatasetMostlyClean(t *testing.T) {
	res := testSystem(t)
	frac := float64(res.AugmentStats.ResidualDefects) / float64(res.Dataset.Len())
	if frac > 0.10 {
		t.Fatalf("residual defect fraction = %.3f, want <= 0.10", frac)
	}
}

func TestAugmentMessagesTouchesOnlyLastUserTurn(t *testing.T) {
	res := testSystem(t)
	conv := []simllm.Message{
		{Role: "system", Content: "Be helpful."},
		{Role: "user", Content: "Explain how tides form."},
		{Role: "assistant", Content: "Tides come from gravity."},
		{Role: "user", Content: "Now explain the science of fermentation."},
	}
	out, err := res.System.AugmentMessages(conv, "conv")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(conv) {
		t.Fatalf("turn count changed: %d", len(out))
	}
	for i := 0; i < 3; i++ {
		if out[i] != conv[i] {
			t.Errorf("turn %d modified: %+v", i, out[i])
		}
	}
	if !strings.HasPrefix(out[3].Content, conv[3].Content) {
		t.Fatal("final user turn must keep the original prompt as prefix")
	}
	if out[3].Content == conv[3].Content {
		t.Fatal("final user turn not augmented")
	}
	// The input conversation must not be mutated.
	if conv[3].Content != "Now explain the science of fermentation." {
		t.Fatal("input slice mutated")
	}
}

func TestAugmentMessagesRequiresUserTurn(t *testing.T) {
	res := testSystem(t)
	if _, err := res.System.AugmentMessages([]simllm.Message{
		{Role: "system", Content: "x"},
		{Role: "assistant", Content: "y"},
	}, "s"); err == nil {
		t.Fatal("no user turn should fail")
	}
	if _, err := res.System.AugmentMessages(nil, "s"); err == nil {
		t.Fatal("empty conversation should fail")
	}
}
