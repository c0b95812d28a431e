package pas

// BenchmarkEnhanceDegraded measures the fail-open fast path: the
// augmentation breaker is pinned open, so every iteration takes the
// deterministic degrade route — breaker reject, fallback to the raw
// prompt, downstream chat. No queues fill and no retries sleep
// (open-breaker failures are terminal for the retry loop), so the
// numbers are stable run to run.

import (
	"context"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/simllm"
)

func BenchmarkEnhanceDegraded(b *testing.B) {
	sys := NewSystem(testSystem(b).System.model)
	entered := make(chan struct{})
	release := make(chan struct{})
	core, err := serving.New(func(prompt, salt string) string {
		if prompt == "block" {
			entered <- struct{}{}
			<-release
		}
		return sys.Complement(prompt, salt)
	}, serving.Config{
		CacheSize:        -1,
		MaxInFlight:      1,
		QueueDepth:       0,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // stays open for the whole run
		Degrade:          true,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys.core = core

	// Park the single slot, shed once to trip the breaker, then unpark:
	// from here on every request fails fast with the breaker open.
	done := make(chan struct{})
	go func() {
		core.Do(context.Background(), "block", "", "bench")
		close(done)
	}()
	<-entered
	if _, _, err := core.DoLevel(context.Background(), "x", "", "bench"); err != nil || core.Stats().Breaker.State != "open" {
		b.Fatalf("priming shed got %v, breaker %+v", err, core.Stats().Breaker)
	}
	close(release)
	<-done

	main := simllm.MustModel(simllm.GPT40613)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sys.EnhanceContext(ctx, main, "Explain how tides form.", "bench")
		if err != nil {
			b.Fatal(err)
		}
		if !out.Degraded {
			b.Fatal("expected every iteration to degrade")
		}
	}
}
