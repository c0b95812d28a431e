// Package pas is the public API of the PAS reproduction: a data-efficient,
// plug-and-play prompt augmentation system (Zheng, Liang et al., ICDE
// 2025).
//
// PAS takes a user prompt p, generates a short complementary prompt
// p_c = M_p(p) with a fine-tuned model, and feeds cat(p, p_c) to any
// downstream LLM:
//
//	r_e = LLM(cat(p, p_c))
//
// The complementary prompt never rewrites the user's words — it only adds
// methodological guidance — which is what makes the system safe to plug in
// front of any model.
//
// Build constructs the full system from scratch (synthetic corpus →
// curation → pair generation with selection/regeneration → SFT), or a
// System can be created from a previously trained and saved model. The
// System implements the APE interface of internal/baselines, so the
// evaluation harness treats PAS and every baseline uniformly.
package pas

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/augment"
	"repro/internal/curation"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/sft"
	"repro/internal/simllm"
)

// Config assembles the end-to-end build settings. It is the pipeline
// configuration; see internal/pipeline for field documentation.
//
//paslint:allow unused public API: the one name a caller outside this module has for Build's parameter
type Config = pipeline.Config

// DefaultConfig returns the build used by the experiments: a pool large
// enough to curate ~9000 pairs on Qwen2-7B.
//
//paslint:allow unused public API: a caller outside this module cannot import internal/pipeline
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// BuildResult carries the trained system together with the artefacts of
// each pipeline stage, for inspection and persistence.
type BuildResult struct {
	// System is the ready-to-serve PAS.
	System *System
	// Dataset is the generated (prompt, complementary prompt) dataset.
	Dataset *dataset.Dataset
	// CurationStats reports the §3.1 pipeline.
	CurationStats curation.Stats
	// AugmentStats reports the §3.2 pipeline.
	AugmentStats augment.Stats //paslint:allow unused public API: the build's §3.2 report, kept for a caller to inspect as CurationStats is
}

// Build runs the complete PAS construction: synthesise a raw prompt pool,
// curate it, generate the complementary-prompt dataset, and fine-tune the
// base model.
func Build(cfg Config) (*BuildResult, error) {
	res, err := pipeline.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("pas: %w", err)
	}
	return &BuildResult{
		System:        newSystem(res.Model),
		Dataset:       res.Dataset,
		CurationStats: res.CurationStats,
		AugmentStats:  res.AugmentStats,
	}, nil
}

// System is a trained plug-and-play prompt augmentation system.
type System struct {
	model *sft.Model
	// core, when enabled, is the admission-controlled, deduplicating,
	// cached hot path behind the HTTP surfaces; see EnableServing.
	core *serving.Core

	// draining, once set, flips /v1/status to "draining" and sheds new
	// augmentation work so routers stop sending traffic here; see Drain.
	draining atomic.Bool
	// adminToken guards POST /v1/drain when non-empty; set it before
	// serving traffic (SetAdminToken).
	adminToken string
	// onDrain, when set, is invoked (once) when an HTTP drain request
	// asks the process to exit; cmd/passerve hooks its shutdown here.
	onDrain   func()
	drainExit sync.Once
	// instance is this System's incarnation, reported by /v1/status
	// (wire.Status.Instance): its construction time in nanoseconds, so a
	// restarted process — which may load another model — reads as new.
	instance string
}

// newSystem wraps a fine-tuned PAS model.
func newSystem(model *sft.Model) *System {
	return &System{model: model, instance: strconv.FormatInt(time.Now().UnixNano(), 10)}
}

// LoadSystem reads a trained PAS model from a file saved with SaveModel.
func LoadSystem(path string) (*System, error) {
	m, err := sft.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return newSystem(m), nil
}

// SaveModel persists the underlying fine-tuned model to path.
func (s *System) SaveModel(path string) error { return s.model.SaveFile(path) }

// BaseModel returns the name of the fine-tuned base LLM.
func (s *System) BaseModel() string { return s.model.BaseName() }

// Complement returns p_c = M_p(p): the complementary prompt for the
// user's prompt. The salt decorrelates repeated calls; "" is fine for
// single-shot use.
func (s *System) Complement(prompt, salt string) string {
	return s.model.Complement(prompt, salt)
}

// Augment returns cat(p, p_c): the text to send to the downstream LLM.
// The user's original prompt is preserved verbatim.
func (s *System) Augment(prompt, salt string) string {
	return cat(prompt, s.Complement(prompt, salt))
}

// cat is the paper's cat(p, p_c). An empty complement — a degraded
// call, or a model with nothing to add — leaves the prompt untouched,
// without a stray newline.
func cat(prompt, complement string) string {
	if complement == "" {
		return prompt
	}
	return prompt + "\n" + complement
}

// Name implements the APE interface.
func (s *System) Name() string { return "PAS" }

// Transform implements the APE interface; it is Augment.
func (s *System) Transform(prompt, salt string) string { return s.Augment(prompt, salt) }

// AugmentMessages augments a chat conversation: the complementary prompt
// is computed from, and appended to, the final user turn only — earlier
// turns and assistant messages pass through untouched, so PAS can sit in
// a multi-turn conversation without rewriting history.
// It returns an error when the conversation has no user turn.
//
//paslint:allow unused public API: the multi-turn entry point example_test.go documents
func (s *System) AugmentMessages(messages []simllm.Message, salt string) ([]simllm.Message, error) {
	last := -1
	for i := len(messages) - 1; i >= 0; i-- {
		if messages[i].Role == "user" {
			last = i
			break
		}
	}
	if last == -1 {
		return nil, fmt.Errorf("pas: conversation has no user turn")
	}
	out := make([]simllm.Message, len(messages))
	copy(out, messages)
	out[last].Content = s.Augment(out[last].Content, salt)
	return out, nil
}

// Enhanced is the result of running a prompt through PAS and a
// downstream model.
type Enhanced struct {
	// Prompt is the user's original prompt.
	Prompt string //paslint:allow unused public API: pairs a caller's result with the prompt it answered
	// Complement is p_c; empty when the call degraded.
	Complement string
	// Response is r_e = LLM(cat(p, p_c)).
	Response string
	// Degraded reports that the augmentation side answered with the raw
	// prompt — fail-open (ServingConfig.Degrade) — the plug-and-play
	// guarantee held: the user still got an answer.
	Degraded bool //paslint:allow unused public API: the only way a caller of EnhanceContext learns the answer was fail-open
}

// Chatter is any chat-capable downstream LLM: an in-process simulated
// model (*simllm.Model) or a remote API-backed one (chatapi.Remote). It
// is simllm.Chatter, declared once below both; this name is the one a
// caller outside the module can write, since simllm is internal.
//
//paslint:allow unused public API: the nameable form of simllm.Chatter for callers outside the module
type Chatter = simllm.Chatter

// EnhanceContext runs the full plug-and-play path under ctx: the
// complement goes through the serving core when one is enabled
// (cache, dedup, admission), and with ServingConfig.Degrade a PAS-side
// failure falls back to the raw prompt — the main-model call always
// happens, so augmentation can only add value, never availability risk.
// Main-model errors are the downstream's own and propagate unchanged.
func (s *System) EnhanceContext(ctx context.Context, main Chatter, prompt, salt string) (Enhanced, error) {
	if main == nil {
		return Enhanced{}, fmt.Errorf("pas: nil downstream model")
	}
	c, degraded, err := s.complementLevel(ctx, prompt, salt)
	if err != nil {
		return Enhanced{}, err
	}
	mctx, mspan := obs.StartSpan(ctx, "main.chat")
	mspan.SetAttr("model", main.Name())
	mspan.SetAttrBool("degraded", degraded)
	resp, err := main.ChatContext(mctx,
		[]simllm.Message{{Role: "user", Content: cat(prompt, c)}},
		simllm.Options{Salt: salt})
	if err != nil {
		mspan.SetError(err)
		mspan.End()
		return Enhanced{}, err
	}
	mspan.End()
	return Enhanced{Prompt: prompt, Complement: c, Response: resp, Degraded: degraded}, nil
}
