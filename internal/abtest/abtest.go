// Package abtest implements the online experimentation harness a PAS
// deployment runs before flipping traffic: split incoming prompts
// between a control arm (no augmentation) and a treatment arm (PAS),
// collect per-request success signals, and decide with a two-proportion
// z-test — including a sequential early-stopping variant — whether the
// treatment wins. The paper's §4.5 "online" human evaluation is exactly
// such a study; this package makes it a reusable tool.
package abtest

import (
	"fmt"
	"math"
	"strings"
)

// Arm identifies a test arm.
type Arm int

const (
	// Control is the unaugmented arm.
	Control Arm = iota
	// Treatment is the PAS-augmented arm.
	Treatment
)

func (a Arm) String() string {
	if a == Control {
		return "control"
	}
	return "treatment"
}

// Config controls a test.
type Config struct {
	// Alpha is the two-sided significance level (e.g. 0.05).
	Alpha float64
	// MinPerArm is the minimum sample size per arm before any verdict.
	MinPerArm int
	// Sequential enables early stopping with an O'Brien-Fleming-style
	// inflated threshold (alpha spent more strictly early on).
	Sequential bool
}

// Test accumulates outcomes and renders verdicts.
type Test struct {
	cfg       Config
	successes [2]int
	totals    [2]int
	assignN   int
}

// New creates a test.
// It returns an error when the configuration is out of range.
func New(cfg Config) (*Test, error) {
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("abtest: alpha must be in (0,1), got %v", cfg.Alpha)
	}
	if cfg.MinPerArm < 2 {
		return nil, fmt.Errorf("abtest: MinPerArm must be >= 2, got %d", cfg.MinPerArm)
	}
	return &Test{cfg: cfg}, nil
}

// Assign deterministically routes the n-th request to an arm
// (alternating split keeps arms balanced without randomness, preserving
// the repository-wide reproducibility guarantee).
func (t *Test) Assign() Arm {
	t.assignN++
	if t.assignN%2 == 1 {
		return Control
	}
	return Treatment
}

// Record adds one outcome to an arm. Success is the binary signal (for
// the paper's study: availability, i.e. rating >= 3).
func (t *Test) Record(arm Arm, success bool) error {
	if arm != Control && arm != Treatment {
		return fmt.Errorf("abtest: unknown arm %d", int(arm))
	}
	t.totals[arm]++
	if success {
		t.successes[arm]++
	}
	return nil
}

// rate returns an arm's success rate (0 when empty).
func (t *Test) rate(arm Arm) float64 {
	if t.totals[arm] == 0 {
		return 0
	}
	return float64(t.successes[arm]) / float64(t.totals[arm])
}

// Result is a verdict snapshot.
type Result struct {
	ControlRate, TreatmentRate float64
	ControlN, TreatmentN       int
	// Z is the two-proportion z statistic (treatment minus control).
	Z float64
	// PValue is the two-sided p-value.
	PValue float64
	// Significant reports whether the configured threshold was crossed.
	Significant bool
	// TreatmentWins is meaningful only when Significant.
	TreatmentWins bool
	// Ready reports whether both arms reached MinPerArm.
	Ready bool
}

// Evaluate computes the current verdict.
func (t *Test) Evaluate() Result {
	r := Result{
		ControlRate:   t.rate(Control),
		TreatmentRate: t.rate(Treatment),
		ControlN:      t.totals[Control],
		TreatmentN:    t.totals[Treatment],
	}
	r.Ready = r.ControlN >= t.cfg.MinPerArm && r.TreatmentN >= t.cfg.MinPerArm
	if r.ControlN == 0 || r.TreatmentN == 0 {
		r.PValue = 1
		return r
	}
	n1, n2 := float64(r.ControlN), float64(r.TreatmentN)
	p1, p2 := r.ControlRate, r.TreatmentRate
	pooled := (float64(t.successes[Control]) + float64(t.successes[Treatment])) / (n1 + n2)
	se := math.Sqrt(pooled * (1 - pooled) * (1/n1 + 1/n2))
	if se == 0 {
		r.PValue = 1
		return r
	}
	r.Z = (p2 - p1) / se
	r.PValue = 2 * (1 - stdNormalCDF(math.Abs(r.Z)))

	alpha := t.cfg.Alpha
	if t.cfg.Sequential && r.Ready {
		// O'Brien-Fleming flavour: spend less alpha early. With
		// information fraction f (capped at 1 after 4x MinPerArm),
		// threshold alpha*f^2.
		full := float64(4 * t.cfg.MinPerArm)
		f := math.Min(1, (n1+n2)/(2*full))
		alpha = t.cfg.Alpha * f * f
		if alpha < 1e-6 {
			alpha = 1e-6
		}
	}
	if r.Ready && r.PValue < alpha {
		r.Significant = true
		r.TreatmentWins = r.Z > 0
	}
	return r
}

// stdNormalCDF is the standard normal CDF via erf.
func stdNormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// String renders the verdict.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A/B test: control %.1f%% (n=%d) vs treatment %.1f%% (n=%d), z=%.2f, p=%.4f",
		100*r.ControlRate, r.ControlN, 100*r.TreatmentRate, r.TreatmentN, r.Z, r.PValue)
	switch {
	case !r.Ready:
		b.WriteString(" — collecting")
	case r.Significant && r.TreatmentWins:
		b.WriteString(" — treatment wins")
	case r.Significant:
		b.WriteString(" — control wins")
	default:
		b.WriteString(" — not significant")
	}
	return b.String()
}
