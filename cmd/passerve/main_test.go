package main

import (
	"flag"
	"testing"

	"repro/cmd/internal/daemon"
)

// TestServingFlagsAreTheSharedBinders: every serving flag passerve
// exposes is cmd/internal/daemon's, name, default and help. The same
// test in the other daemon compares against the same binder, so the two
// cannot drift apart.
func TestServingFlagsAreTheSharedBinders(t *testing.T) {
	got := flag.NewFlagSet("passerve", flag.ContinueOnError)
	bindFlags(got)
	want := flag.NewFlagSet("daemon", flag.ContinueOnError)
	daemon.Bind(want)
	n := 0
	want.VisitAll(func(w *flag.Flag) {
		n++
		g := got.Lookup(w.Name)
		if g == nil || g.DefValue != w.DefValue || g.Usage != w.Usage {
			t.Errorf("-%s: passerve has %+v, the binder %+v", w.Name, g, w)
		}
	})
	if n < 20 {
		t.Fatalf("the binder declared %d flags, want the 18 serving + 2 observability ones", n)
	}
}
