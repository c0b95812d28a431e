package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/augment"
	"repro/internal/checkpoint"
	"repro/internal/classify"
	"repro/internal/corpus"
	"repro/internal/curation"
	"repro/internal/dataset"
	"repro/internal/sft"
	"repro/internal/simllm"
)

// Snapshot and journal names inside a build's checkpoint directory.
const (
	snapCuration = "curation"
	snapAugment  = "augment"
	snapSFT      = "sft"
	journalItems = "augment"
)

// BuildOptions controls checkpointing and instrumentation for one
// build. The zero value builds in memory exactly like Build always
// has.
type BuildOptions struct {
	// CheckpointDir, when non-empty, persists stage snapshots and the
	// per-item generation journal there. A crash or failure retains
	// the directory so the build can resume.
	CheckpointDir string
	// Resume continues from the state in CheckpointDir. The directory
	// must have been written by a build with the same fingerprint
	// (config and seed); anything else is refused with a
	// *checkpoint.StaleError. Without Resume, prior state in the
	// directory is discarded.
	Resume bool
	// Progress, when set, receives live stage and item counters;
	// register Progress.Collect on an obs.Registry to surface them on
	// /metricsz.
	Progress *Progress

	// journalWrap interposes on the augment journal — the chaos tests'
	// crash-injection seam.
	journalWrap func(augment.Journal) augment.Journal
}

// fingerprint derives the checkpoint key for cfg: a hash of every
// output-affecting setting (sizes, seed, model names, caps). Runtime
// knobs that cannot change the output — worker counts, fault gates,
// progress callbacks — are excluded via their `json:"-"` tags.
func fingerprint(cfg Config) (string, error) {
	fp, err := checkpoint.Fingerprint(cfg)
	if err != nil {
		return "", fmt.Errorf("pipeline: %w", err)
	}
	return fp, nil
}

// curationSnapshot is the persisted §3.1 stage result.
type curationSnapshot struct {
	Selected []curation.Curated `json:"selected"`
	Stats    curation.Stats     `json:"stats"`
}

// augmentSnapshot is the persisted §3.2 stage result.
type augmentSnapshot struct {
	Dataset    *dataset.Dataset      `json:"dataset"`
	Stats      augment.Stats         `json:"stats"`
	Quarantine []augment.Quarantined `json:"quarantine,omitempty"`
}

// BuildWithCheckpoint runs the complete PAS construction with
// crash-safe checkpointing. Completed stages load from their
// snapshots; an interrupted §3.2 generation loop resumes at the exact
// item recorded in its journal, and the resumed build's dataset and
// model are byte-identical to an uninterrupted run under the same
// config and seed. A corrupt snapshot is detected, discarded, and its
// stage rebuilt; a corrupt journal keeps every intact record and drops
// only a torn tail.
func BuildWithCheckpoint(cfg Config, opt BuildOptions) (*Result, error) {
	if cfg.CorpusSize <= 0 {
		return nil, fmt.Errorf("pipeline: CorpusSize must be positive, got %d", cfg.CorpusSize)
	}
	if cfg.ClassifierExamples <= 0 {
		return nil, fmt.Errorf("pipeline: ClassifierExamples must be positive, got %d", cfg.ClassifierExamples)
	}

	var store *checkpoint.Store
	if opt.CheckpointDir != "" {
		fp, err := fingerprint(cfg)
		if err != nil {
			return nil, err
		}
		store, err = checkpoint.Open(opt.CheckpointDir, fp, opt.Resume)
		if err != nil {
			return nil, err
		}
	}

	// The base model is validated after the store opens: a failure
	// past this point leaves a resumable checkpoint behind.
	base, err := simllm.LookupProfile(cfg.BaseModel)
	if err != nil {
		return nil, fmt.Errorf("pipeline: base model: %w", err)
	}

	cur, err := curationStage(cfg, opt, store)
	if err != nil {
		return nil, err
	}
	gen, err := augmentStage(cfg, opt, store, cur)
	if err != nil {
		return nil, err
	}
	model, err := sftStage(cfg, opt, store, base, gen)
	if err != nil {
		return nil, err
	}
	opt.Progress.setStage(stageDone)

	return &Result{
		Model:         model,
		Dataset:       gen.Data,
		Curated:       cur.Selected,
		CurationStats: cur.Stats,
		AugmentStats:  gen.Stats,
		Quarantine:    gen.Quarantine,
	}, nil
}

// curationStage loads or rebuilds the §3.1 output (including the
// corpus synthesis and classifier training it depends on).
func curationStage(cfg Config, opt BuildOptions, store *checkpoint.Store) (*curation.Result, error) {
	if store != nil {
		var snap curationSnapshot
		ok, err := loadOrDiscard(store, snapCuration, &snap)
		if err != nil {
			return nil, err
		}
		if ok {
			opt.Progress.curationTick(len(snap.Selected), len(snap.Selected))
			return &curation.Result{Selected: snap.Selected, Stats: snap.Stats}, nil
		}
	}

	opt.Progress.setStage(stageCorpus)
	poolCfg := corpus.DefaultConfig()
	poolCfg.Size = cfg.CorpusSize
	poolCfg.Seed = cfg.Seed
	pool, err := corpus.Generate(poolCfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: corpus: %w", err)
	}
	examples, err := classify.TrainingSet(cfg.ClassifierExamples, cfg.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("pipeline: classifier data: %w", err)
	}
	clf, err := classify.Train(examples, classify.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("pipeline: classifier: %w", err)
	}

	opt.Progress.setStage(stageCuration)
	curCfg := cfg.Curation
	curCfg.OnProgress = opt.Progress.curationTick
	cur, err := curation.Run(pool, clf, curCfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: curation: %w", err)
	}
	if store != nil {
		if err := store.WriteSnapshot(snapCuration, curationSnapshot{Selected: cur.Selected, Stats: cur.Stats}); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	return cur, nil
}

// journalAdapter narrows a checkpoint journal to augment's interface.
type journalAdapter struct{ j *checkpoint.Journal }

func (a journalAdapter) Append(rec augment.ItemRecord) error { return a.j.Append(rec) }

// augmentStage loads or resumes the §3.2 generation loop. The journal
// is the commit point: every finished item is durable before it counts,
// so a crash resumes at the exact item, not the stage.
func augmentStage(cfg Config, opt BuildOptions, store *checkpoint.Store, cur *curation.Result) (*augment.Result, error) {
	opt.Progress.setStage(stageAugment)
	if store != nil {
		var snap augmentSnapshot
		ok, err := loadOrDiscard(store, snapAugment, &snap)
		if err != nil {
			return nil, err
		}
		if ok {
			return &augment.Result{Data: snap.Dataset, Stats: snap.Stats, Quarantine: snap.Quarantine}, nil
		}
	}

	st := augment.RunState{Progress: opt.Progress.augmentProgress()}
	var jr *checkpoint.Journal
	if store != nil {
		var rec *checkpoint.Recovery
		var err error
		jr, rec, err = store.OpenJournal(journalItems)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		// Every append is individually durable; a close failure after
		// the stage snapshot commits is harmless.
		defer jr.Close()
		st.Done = make([]augment.ItemRecord, 0, len(rec.Records))
		for i, payload := range rec.Records {
			var r augment.ItemRecord
			if err := json.Unmarshal(payload, &r); err != nil {
				return nil, fmt.Errorf("pipeline: journal record %d undecodable: %w", i, err)
			}
			st.Done = append(st.Done, r)
		}
		st.Journal = journalAdapter{j: jr}
	}
	if opt.journalWrap != nil && st.Journal != nil {
		st.Journal = opt.journalWrap(st.Journal)
	}

	gen, err := augment.RunResumable(cur.Selected, dataset.Golden(), cfg.Augment, st)
	if err != nil {
		return nil, fmt.Errorf("pipeline: augment: %w", err)
	}
	if store != nil {
		snap := augmentSnapshot{Dataset: gen.Data, Stats: gen.Stats, Quarantine: gen.Quarantine}
		if err := store.WriteSnapshot(snapAugment, snap); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		// The snapshot supersedes the journal; a crash between the two
		// resumes from the snapshot and never reads the journal again.
		if err := store.RemoveJournal(journalItems); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	return gen, nil
}

// sftStage loads or retrains the §3.4 model.
func sftStage(cfg Config, opt BuildOptions, store *checkpoint.Store, base simllm.Profile, gen *augment.Result) (*sft.Model, error) {
	opt.Progress.setStage(stageSFT)
	if store != nil {
		payload, ok, err := store.LoadSnapshotBytes(snapSFT)
		var corrupt *checkpoint.CorruptError
		switch {
		case errors.As(err, &corrupt):
			if err := store.RemoveSnapshot(snapSFT); err != nil {
				return nil, fmt.Errorf("pipeline: %w", err)
			}
		case err != nil:
			return nil, fmt.Errorf("pipeline: %w", err)
		case ok:
			model, err := sft.Load(bytes.NewReader(payload))
			if err == nil {
				return model, nil
			}
			// Unloadable but checksum-clean: treat like corruption and
			// retrain rather than fail a resumable build.
			if rmErr := store.RemoveSnapshot(snapSFT); rmErr != nil {
				return nil, fmt.Errorf("pipeline: %w", rmErr)
			}
		}
	}

	baseModel, err := simllm.New(base)
	if err != nil {
		return nil, err
	}
	model, err := sft.Train(baseModel, gen.Data, cfg.SFT)
	if err != nil {
		return nil, fmt.Errorf("pipeline: sft: %w", err)
	}
	if store != nil {
		b, err := model.Bytes()
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		if err := store.WriteSnapshotBytes(snapSFT, b); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	return model, nil
}

// LoadCheckpointDataset reads the generated pair dataset out of a build
// checkpoint directory (the §3.2 stage snapshot) without re-checking the
// build fingerprint — the caller is consuming an artefact, not resuming
// a build.
func LoadCheckpointDataset(dir string) (*dataset.Dataset, error) {
	store, err := checkpoint.Attach(dir)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	var snap augmentSnapshot
	ok, err := store.LoadSnapshot(snapAugment, &snap)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("pipeline: checkpoint %s has no generated dataset yet — run (or resume) pasgen first", dir)
	}
	return snap.Dataset, nil
}

// LoadCheckpointModel loads the fine-tuned model snapshot from a build
// checkpoint directory; ok reports whether one exists and is intact.
func LoadCheckpointModel(dir string) (*sft.Model, bool, error) {
	store, err := checkpoint.Attach(dir)
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: %w", err)
	}
	payload, ok, err := store.LoadSnapshotBytes(snapSFT)
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: %w", err)
	}
	if !ok {
		return nil, false, nil
	}
	model, err := sft.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: model snapshot: %w", err)
	}
	return model, true, nil
}

// SaveCheckpointModel persists a fine-tuned model into a build
// checkpoint directory as the §3.4 stage snapshot.
func SaveCheckpointModel(dir string, m *sft.Model) error {
	store, err := checkpoint.Attach(dir)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	b, err := m.Bytes()
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if err := store.WriteSnapshotBytes(snapSFT, b); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return nil
}

// loadOrDiscard loads a snapshot, treating corruption as absence: the
// damaged file is removed and the stage rebuilds. Missing snapshots
// return (false, nil).
func loadOrDiscard(store *checkpoint.Store, name string, v any) (bool, error) {
	ok, err := store.LoadSnapshot(name, v)
	var corrupt *checkpoint.CorruptError
	if errors.As(err, &corrupt) {
		if rmErr := store.RemoveSnapshot(name); rmErr != nil {
			return false, fmt.Errorf("pipeline: %w", rmErr)
		}
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("pipeline: %w", err)
	}
	return ok, nil
}
