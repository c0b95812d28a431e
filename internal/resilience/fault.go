package resilience

import (
	"context"
	"sync"
	"time"

	"repro/internal/simllm"
)

// Fault is one scripted step of a FaultyChatter: wait Delay (honouring
// the context), then fail with Err, or pass the call through to the
// wrapped model when Err is nil.
type Fault struct {
	// Err is returned after Delay; nil lets the call through.
	Err error
	// Delay is added latency before the outcome.
	Delay time.Duration
}

// FaultyChatter wraps a simllm.Chatter with a deterministic fault
// script: call n consumes script[n]; calls past the end of the script
// pass through cleanly (or loop from the start with Loop). It is itself
// a simllm.Chatter, so it stands wherever the model it wraps would.
// Safe for concurrent use; concurrent calls consume script steps in
// arrival order.
type FaultyChatter struct {
	inner  simllm.Chatter
	script []Fault
	// Loop replays the script forever instead of passing through after
	// its end — a permanently dead backend is Loop over one fault.
	Loop bool

	mu    sync.Mutex
	i     int
	calls int64
}

// NewFaultyChatter scripts faults in front of inner.
func NewFaultyChatter(inner simllm.Chatter, script ...Fault) *FaultyChatter {
	return &FaultyChatter{inner: inner, script: script}
}

// Name reports the wrapped model's name.
func (f *FaultyChatter) Name() string { return f.inner.Name() }

// next pops the scripted fault for this call, if any.
func (f *FaultyChatter) next() (Fault, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.Loop && len(f.script) > 0 {
		step := f.script[f.i%len(f.script)]
		f.i++
		return step, true
	}
	if f.i < len(f.script) {
		step := f.script[f.i]
		f.i++
		return step, true
	}
	return Fault{}, false
}

// Calls reports how many ChatContext calls arrived — the probe
// accounting tests need it to prove a breaker stopped the hammering.
func (f *FaultyChatter) Calls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// ChatContext runs one scripted step; a context that ends during the
// scripted delay wins with its own error.
func (f *FaultyChatter) ChatContext(ctx context.Context, messages []simllm.Message, opt simllm.Options) (string, error) {
	step, scripted := f.next()
	if scripted && step.Delay > 0 {
		if err := SleepContext(ctx, step.Delay); err != nil {
			return "", err
		}
	}
	if scripted && step.Err != nil {
		return "", step.Err
	}
	return f.inner.ChatContext(ctx, messages, opt)
}
