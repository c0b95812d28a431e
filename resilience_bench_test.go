package pas

// BenchmarkEnhanceDegraded measures the fail-open fast path: the one
// computation slot is parked for the whole run and there is no queue, so
// every iteration takes the degrade route — refused admission, fallback
// to the raw prompt, downstream chat. Nothing waits, so the numbers are stable
// run to run.

import (
	"context"
	"testing"

	"repro/internal/serving"
	"repro/internal/simllm"
)

func BenchmarkEnhanceDegraded(b *testing.B) {
	sys := newSystem(testSystem(b).System.model)
	entered := make(chan struct{})
	release := make(chan struct{})
	core, err := serving.New(func(prompt, salt string) string {
		if prompt == "block" {
			entered <- struct{}{}
			<-release
		}
		return sys.Complement(prompt, salt)
	}, serving.Config{
		CacheSize:   -1,
		MaxInFlight: 1,
		QueueDepth:  0,
		Degrade:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys.core = core

	// Park the single slot: from here on every request is refused
	// admission at once.
	done := make(chan struct{})
	go func() {
		core.DoLevel(context.Background(), "block", "", "bench")
		close(done)
	}()
	<-entered
	defer func() {
		close(release)
		<-done
	}()

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
