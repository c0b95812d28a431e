package daemon

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	pas "repro"
)

func parse(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs)
	return f, fs.Parse(args)
}

// TestBindDefaults: no arguments yields the documented defaults table —
// the configuration BENCHMARK.json measures.
func TestBindDefaults(t *testing.T) {
	f, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	want := pas.ServingConfig{
		CacheSize: 4096, MaxInFlight: 64, QueueDepth: 256, QueueWait: 100 * time.Millisecond,
		Degrade: true, DefaultTenantWeight: 1,
	}
	if !reflect.DeepEqual(f.Serving, want) {
		t.Fatalf("default serving config:\n got %+v\nwant %+v", f.Serving, want)
	}
	if f.DebugAddr != "" || f.TraceSample != 1 {
		t.Fatalf("default obs flags = (%q, %d), want (\"\", 1)", f.DebugAddr, f.TraceSample)
	}
}

// TestBindRoundTrip: every flag lands in its own field, and every flag
// the binder declares has a row here.
func TestBindRoundTrip(t *testing.T) {
	rows := []struct {
		name, arg string
		get       func(*Flags) any
		want      any
	}{
		{"cache-size", "-1", func(f *Flags) any { return f.Serving.CacheSize }, -1},
		{"cache-ttl", "30s", func(f *Flags) any { return f.Serving.CacheTTL }, 30 * time.Second},
		{"max-inflight", "8", func(f *Flags) any { return f.Serving.MaxInFlight }, 8},
		{"tenant-weights", "gold=3, free=1", func(f *Flags) any { return f.Serving.TenantWeights }, map[string]int{"gold": 3, "free": 1}},
		{"default-tenant-weight", "2", func(f *Flags) any { return f.Serving.DefaultTenantWeight }, 2},
		{"tenant-quotas", "free=2", func(f *Flags) any { return f.Serving.TenantQuotas }, map[string]int{"free": 2}},
		{"tenant-queue-depth", "5", func(f *Flags) any { return f.Serving.TenantQueueDepth }, 5},
		{"max-tenants", "16", func(f *Flags) any { return f.Serving.MaxTenants }, 16},
		{"compute-delay", "25ms", func(f *Flags) any { return f.Serving.ComputeDelay }, 25 * time.Millisecond},
		{"queue-depth", "0", func(f *Flags) any { return f.Serving.QueueDepth }, 0},
		{"queue-wait", "250ms", func(f *Flags) any { return f.Serving.QueueWait }, 250 * time.Millisecond},
		{"degrade", "false", func(f *Flags) any { return f.Serving.Degrade }, false},
		{"debug-addr", "127.0.0.1:6061", func(f *Flags) any { return f.DebugAddr }, "127.0.0.1:6061"},
		{"trace-sample", "100", func(f *Flags) any { return f.TraceSample }, 100},
	}
	defaults, _ := parse(t)
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.name] = true
		f, err := parse(t, "-"+r.name+"="+r.arg)
		if err != nil {
			t.Errorf("-%s=%s: %v", r.name, r.arg, err)
			continue
		}
		if got := r.get(f); !reflect.DeepEqual(got, r.want) {
			t.Errorf("-%s=%s: field = %v, want %v", r.name, r.arg, got, r.want)
		}
		// Nothing else moved: undoing the one field restores the defaults.
		for _, o := range rows {
			if o.name != r.name && !reflect.DeepEqual(o.get(f), o.get(defaults)) {
				t.Errorf("-%s also changed the field of -%s", r.name, o.name)
			}
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs)
	fs.VisitAll(func(fl *flag.Flag) {
		if !covered[fl.Name] {
			t.Errorf("flag -%s has no round-trip row", fl.Name)
		}
	})
}

// TestBindRejectsMalformedTenantMaps: a bad tenant=n list fails the
// parse instead of starting a daemon with a silently empty table.
func TestBindRejectsMalformedTenantMaps(t *testing.T) {
	for _, arg := range []string{"gold", "gold=", "gold=x", "gold=0", "gold=-2", "gold=3,free"} {
		for _, name := range []string{"tenant-weights", "tenant-quotas"} {
			if _, err := parse(t, "-"+name+"="+arg); err == nil {
				t.Errorf("-%s=%q parsed, want an error", name, arg)
			}
		}
	}
}
