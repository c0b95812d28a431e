package augment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simllm"
)

// datasetBytes renders a dataset as JSONL for byte-level comparison.
func datasetBytes(t *testing.T, d *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memJournal collects records in memory and can fail after a set
// number of appends, simulating a crash at an exact journal offset.
// Like the real checkpoint journal, it serialises its own appends.
type memJournal struct {
	mu        sync.Mutex
	recs      []ItemRecord
	failAfter int // -1: never fail
}

var errCrash = errors.New("injected crash")

func (m *memJournal) Append(rec ItemRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failAfter >= 0 && len(m.recs) >= m.failAfter {
		return errCrash
	}
	m.recs = append(m.recs, rec)
	return nil
}

func (m *memJournal) records() []ItemRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ItemRecord(nil), m.recs...)
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.PerCategoryCap = 8
	cfg.HeavyCategoryCap = 16
	return cfg
}

func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	curated := curatedFixture(t, 40)
	golden := dataset.Golden()
	base, err := Run(curated, golden, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, base.Data)
	for _, workers := range []int{2, 5, 32} {
		cfg := smallCfg()
		cfg.Workers = workers
		res, err := Run(curated, golden, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(datasetBytes(t, res.Data), want) {
			t.Fatalf("workers=%d changed the dataset bytes", workers)
		}
		// Maps aside, stats must match too.
		if res.Stats.Prompts != base.Stats.Prompts || res.Stats.Rejected != base.Stats.Rejected ||
			res.Stats.Regenerated != base.Stats.Regenerated || res.Stats.GaveUp != base.Stats.GaveUp {
			t.Fatalf("workers=%d changed stats: %+v vs %+v", workers, res.Stats, base.Stats)
		}
		if !reflect.DeepEqual(res.Stats.RegenByCategory, base.Stats.RegenByCategory) {
			t.Fatalf("workers=%d changed per-category regen counts", workers)
		}
	}
}

// TestResumeFromJournalIsByteIdentical interrupts the run at every
// journal offset and resumes from the journaled prefix: the assembled
// dataset must be byte-identical to the uninterrupted run's.
func TestResumeFromJournalIsByteIdentical(t *testing.T) {
	curated := curatedFixture(t, 24)
	golden := dataset.Golden()
	cfg := smallCfg()

	full, err := Run(curated, golden, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full.Data)
	total := full.Stats.Prompts

	for offset := 0; offset < total; offset += 3 {
		crash := &memJournal{failAfter: offset}
		_, err := RunResumable(curated, golden, cfg, RunState{Journal: crash})
		if !errors.Is(err, errCrash) {
			t.Fatalf("offset %d: interrupted run returned %v, want crash", offset, err)
		}
		if len(crash.records()) != offset {
			t.Fatalf("offset %d: journal holds %d records", offset, len(crash.records()))
		}

		resumed, err := RunResumable(curated, golden, cfg, RunState{Done: crash.records(), Journal: &memJournal{failAfter: -1}})
		if err != nil {
			t.Fatalf("offset %d: resume failed: %v", offset, err)
		}
		if !bytes.Equal(datasetBytes(t, resumed.Data), want) {
			t.Fatalf("offset %d: resumed dataset differs from uninterrupted run", offset)
		}
		if !statsEqual(resumed.Stats, full.Stats) {
			t.Fatalf("offset %d: resumed stats differ: %+v vs %+v", offset, resumed.Stats, full.Stats)
		}
	}
}

func statsEqual(a, b Stats) bool { return reflect.DeepEqual(a, b) }

func TestForeignJournalRecordRefused(t *testing.T) {
	curated := curatedFixture(t, 6)
	_, err := RunResumable(curated, dataset.Golden(), smallCfg(), RunState{
		Done: []ItemRecord{{Index: 99, Complement: "x"}},
	})
	if err == nil || !strings.Contains(err.Error(), "outside the build plan") {
		t.Fatalf("foreign journal record not refused: %v", err)
	}
}

// TestQuarantineOnFaultBudgetExhaustion wires a permanently failing
// FaultyChatter: every item exhausts its budget and quarantines, and
// the build still succeeds with an empty dataset... except it must
// not: quarantine never fails the build, and healthy items are kept.
func TestQuarantineOnFaultBudgetExhaustion(t *testing.T) {
	curated := curatedFixture(t, 8)
	cfg := smallCfg()
	cfg.MaxRegen = 2
	cfg.FaultGate = resilience.NewFaultyChatter(NullChatter{},
		// First item: three generate faults (attempts 0,1,2) exhaust
		// the budget; everything after passes through cleanly.
		resilience.Fault{Err: errors.New("backend down")},
		resilience.Fault{Err: errors.New("backend down")},
		resilience.Fault{Err: errors.New("backend down")},
	)
	cfg.Workers = 1 // deterministic fault script consumption

	prog := &Progress{}
	res, err := RunResumable(curated, dataset.Golden(), cfg, RunState{Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (stats: %+v)", res.Stats.Quarantined, res.Stats)
	}
	if f := prog.faults.Load(); f != 3 {
		t.Fatalf("faults = %d, want 3", f)
	}
	if len(res.Quarantine) != 1 {
		t.Fatalf("Quarantine list has %d entries", len(res.Quarantine))
	}
	q := res.Quarantine[0]
	if !strings.HasPrefix(q.Reason, "generate:") {
		t.Fatalf("quarantine entry malformed: %+v", q)
	}
	// The healthy remainder is all kept.
	if res.Data.Len() != res.Stats.Prompts-1 {
		t.Fatalf("dataset has %d pairs, want %d", res.Data.Len(), res.Stats.Prompts-1)
	}
}

// TestTransientFaultsRecoverWithinBudget: a fault script that fails
// once then recovers must not quarantine anything — the item retries
// on the next attempt salt.
func TestTransientFaultsRecoverWithinBudget(t *testing.T) {
	curated := curatedFixture(t, 6)
	cfg := smallCfg()
	cfg.FaultGate = resilience.NewFaultyChatter(NullChatter{},
		resilience.Fault{Err: errors.New("blip")},
	)
	cfg.Workers = 1
	prog := &Progress{}
	res, err := RunResumable(curated, dataset.Golden(), cfg, RunState{Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Quarantined != 0 {
		t.Fatalf("transient fault caused quarantine: %+v", res.Stats)
	}
	if f := prog.faults.Load(); f != 1 {
		t.Fatalf("faults = %d, want 1", f)
	}
	if res.Data.Len() != res.Stats.Prompts {
		t.Fatalf("dataset lost items: %d of %d", res.Data.Len(), res.Stats.Prompts)
	}
}

// TestCriticFaultExhaustionQuarantines: faults on the critique call
// also land the item in quarantine — an unvalidated pair is not kept.
func TestCriticFaultExhaustionQuarantines(t *testing.T) {
	curated := curatedFixture(t, 4)
	cfg := smallCfg()
	cfg.MaxRegen = 1
	script := make([]resilience.Fault, 0, 4)
	// Item 1: generate gate passes (nil fault), critique gate fails,
	// then attempt 1: generate passes, critique fails again — budget
	// exhausted on critic faults.
	script = append(script,
		resilience.Fault{},
		resilience.Fault{Err: errors.New("critic down")},
		resilience.Fault{},
		resilience.Fault{Err: errors.New("critic down")},
	)
	cfg.FaultGate = resilience.NewFaultyChatter(NullChatter{}, script...)
	cfg.Workers = 1
	res, err := Run(curated, dataset.Golden(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (%+v)", res.Stats.Quarantined, res.Stats)
	}
	if !strings.HasPrefix(res.Quarantine[0].Reason, "critic:") {
		t.Fatalf("reason = %q, want critic prefix", res.Quarantine[0].Reason)
	}
}

func TestJournalAppendErrorAbortsBuild(t *testing.T) {
	curated := curatedFixture(t, 10)
	cfg := smallCfg()
	cfg.Workers = 4
	_, err := RunResumable(curated, dataset.Golden(), cfg, RunState{Journal: &memJournal{failAfter: 2}})
	if !errors.Is(err, errCrash) {
		t.Fatalf("journal failure did not abort the build: %v", err)
	}
}

func TestProgressCounters(t *testing.T) {
	curated := curatedFixture(t, 12)
	cfg := smallCfg()
	cfg.Workers = 3
	prog := &Progress{}
	full := &memJournal{failAfter: -1}
	res, err := RunResumable(curated, dataset.Golden(), cfg, RunState{Journal: full, Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	if prog.planned.Load() != int64(res.Stats.Prompts) || prog.done.Load() != int64(res.Stats.Prompts) {
		t.Fatalf("progress planned/done = %d/%d, want %d", prog.planned.Load(), prog.done.Load(), res.Stats.Prompts)
	}
	if prog.replayed.Load() != 0 {
		t.Fatalf("fresh run reported %d restored items", prog.replayed.Load())
	}

	// A resumed run reports the replayed prefix as restored.
	prog2 := &Progress{}
	half := full.records()[:len(full.records())/2]
	if _, err := RunResumable(curated, dataset.Golden(), cfg, RunState{Done: half, Progress: prog2}); err != nil {
		t.Fatal(err)
	}
	if prog2.replayed.Load() != int64(len(half)) {
		t.Fatalf("restored = %d, want %d", prog2.replayed.Load(), len(half))
	}

	// The collector exposes the counters under the documented names.
	reg := obs.NewRegistry()
	reg.RegisterCollector(prog2.Collect)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"pas_build_items_planned",
		"pas_build_items_done",
		"pas_build_items_restored_total " + fmt.Sprint(len(half)),
		"pas_build_quarantined_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// NullChatter is a no-op simllm.Chatter: it answers every call with
// an empty reply. It exists to serve as the pass-through inner of a
// resilience.FaultyChatter used as a FaultGate, where only the scripted
// faults matter.
type NullChatter struct{}

// Name identifies the chatter.
func (NullChatter) Name() string { return "null" }

// ChatContext returns an empty reply.
func (NullChatter) ChatContext(context.Context, []simllm.Message, simllm.Options) (string, error) {
	return "", nil
}
