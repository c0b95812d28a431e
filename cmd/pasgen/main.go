// Command pasgen runs the PAS data pipeline end to end — synthetic corpus,
// §3.1 curation, §3.2 complementary-pair generation with selection and
// regeneration — and writes the resulting dataset as JSONL.
//
// With -checkpoint-dir the build is crash-safe: completed stages are
// snapshotted and the generation loop journals every finished item, so
// a failed or killed run retains a checkpoint and prints the command
// that resumes it at the exact item it died on.
//
// Usage:
//
//	pasgen -out pairs.jsonl [-corpus 20000] [-cap 500] [-seed 1] [-no-selection]
//	       [-checkpoint-dir ckpt/] [-resume] [-workers 4] [-debug-addr :9090]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/datastats"
	"repro/internal/facet"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pasgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the command with the given arguments, writing the report
// to w. Split from main for testability.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pasgen", flag.ContinueOnError)
	var (
		out           = fs.String("out", "pairs.jsonl", "output JSONL path")
		corpusSize    = fs.Int("corpus", 20000, "raw synthetic corpus size")
		cap           = fs.Int("cap", 500, "max pairs per category (0 = unlimited)")
		seed          = fs.Int64("seed", 1, "generation seed")
		noSelection   = fs.Bool("no-selection", false, "disable the selection/regeneration stage (Table 5 ablation)")
		stats         = fs.Bool("stats", false, "print the §3.3 dataset analysis report")
		checkpointDir = fs.String("checkpoint-dir", "", "directory for crash-safe stage snapshots and the generation journal")
		resume        = fs.Bool("resume", false, "resume the build in -checkpoint-dir (refused if config or seed changed)")
		workers       = fs.Int("workers", 4, "concurrent generation workers (output is identical for any count)")
		debugAddr     = fs.String("debug-addr", "", "serve /metricsz build progress and pprof on this address while building")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}

	cfg := pipeline.DefaultConfig()
	cfg.CorpusSize = *corpusSize
	cfg.Seed = *seed
	cfg.Augment.PerCategoryCap = *cap
	cfg.Augment.HeavyCategoryCap = 3 * (*cap)
	cfg.Augment.Selection = !*noSelection
	cfg.Augment.Workers = *workers

	prog := &pipeline.Progress{}
	opt := pipeline.BuildOptions{
		CheckpointDir: *checkpointDir,
		Resume:        *resume,
		Progress:      prog,
	}

	if *debugAddr != "" {
		reg := obs.NewRegistry()
		reg.RegisterCollector(prog.Collect)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			if err := obs.ServeDebug(ctx, *debugAddr, obs.DebugMux(reg, nil)); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	res, err := pipeline.BuildWithCheckpoint(cfg, opt)
	if err != nil {
		return buildFailure(w, err, *checkpointDir, args)
	}
	if err := res.Dataset.SaveFile(*out); err != nil {
		return err
	}

	st := res.CurationStats
	fmt.Fprintf(w, "curation: %d raw -> %d after dedup (-%d dups) -> %d after quality filter (junk dropped %d, leaked %d)\n",
		st.Input, st.AfterDedup, st.DupCollapsed, st.AfterFilter, st.DroppedJunk, st.LeakedJunk)
	as := res.AugmentStats
	fmt.Fprintf(w, "augment: %d prompts, %d rejected by critic, %d regenerated, %d gave up, %d quarantined, %d residual defects\n",
		as.Prompts, as.Rejected, as.Regenerated, as.GaveUp, as.Quarantined, as.ResidualDefects)
	if len(as.RegenByCategory) > 0 {
		fmt.Fprint(w, "regenerations by category:")
		for _, c := range facet.Categories() {
			if n := as.RegenByCategory[c.String()]; n > 0 {
				fmt.Fprintf(w, " %s=%d", c.String(), n)
			}
		}
		fmt.Fprintln(w)
	}
	for _, q := range res.Quarantine {
		fmt.Fprintf(w, "quarantined: item %d (%s): %s\n", q.Index, q.Category, q.Reason)
	}
	fmt.Fprintf(w, "dataset: %d pairs -> %s\n", res.Dataset.Len(), *out)
	counts := res.Dataset.CategoryCounts()
	for _, c := range facet.Categories() {
		fmt.Fprintf(w, "  %-14s %d\n", c.String(), counts[c])
	}
	if *stats {
		rep, err := datastats.Analyze(res.Dataset)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, rep.String())
	}
	return nil
}

// buildFailure reports a failed build. When a checkpoint directory is
// in play the partial state is retained and the exact resume command
// is printed, so a crash mid-build leaves something actionable; a
// stale-fingerprint refusal speaks for itself and gets no resume hint.
func buildFailure(w io.Writer, err error, dir string, args []string) error {
	if dir == "" || strings.Contains(err.Error(), "different build") {
		return err
	}
	fmt.Fprintf(w, "build failed: %v\n", err)
	fmt.Fprintf(w, "partial checkpoint retained in %s\n", dir)
	fmt.Fprintf(w, "resume with: pasgen %s\n", strings.Join(resumeArgs(args), " "))
	return err
}

// resumeArgs reconstructs the invocation with -resume prepended
// (once), preserving every other flag so the fingerprint matches.
func resumeArgs(args []string) []string {
	out := []string{"-resume"}
	for _, a := range args {
		if a == "-resume" || a == "--resume" {
			continue
		}
		out = append(out, a)
	}
	return out
}
