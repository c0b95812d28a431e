package evalbench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baselines"
	"repro/internal/metrics"
	"repro/internal/simllm"
)

// LeaderboardEntry is one contender in the joint Bradley–Terry ranking.
type LeaderboardEntry struct {
	// Name labels the (main model, APE) pair.
	Name string
	// Strength is the centred Bradley–Terry log-strength.
	Strength float64
	// WinRateVsRef is the implied win probability against the first
	// (reference) entry.
	WinRateVsRef float64
}

// LeaderboardReport ranks contenders jointly from all pairwise games —
// the Chatbot-Arena-style aggregation behind Arena-Hard, computed with
// the MM Bradley–Terry fitter in internal/metrics.
type LeaderboardReport struct {
	Entries []LeaderboardEntry
	Games   int
}

// Contender pairs a main model with an APE for the leaderboard.
type Contender struct {
	MainModel string
	APE       baselines.APE
}

// Leaderboard plays every contender against every other on the
// Arena-Hard prompt set (both positions) and fits Bradley–Terry
// strengths. The first contender serves as the reference for the implied
// win rates.
func (a *Artifacts) Leaderboard(contenders []Contender) (*LeaderboardReport, error) {
	if len(contenders) < 2 {
		return nil, fmt.Errorf("evalbench: leaderboard needs >= 2 contenders, got %d", len(contenders))
	}
	prompts := a.Suite.arena

	// Generate each contender's responses once.
	responses := make([][]string, len(contenders))
	names := make([]string, len(contenders))
	for ci, c := range contenders {
		if c.APE == nil {
			return nil, fmt.Errorf("evalbench: contender %d has nil APE", ci)
		}
		m, err := model(c.MainModel)
		if err != nil {
			return nil, err
		}
		names[ci] = fmt.Sprintf("%s + %s", c.MainModel, c.APE.Name())
		responses[ci] = make([]string, len(prompts))
		for pi, p := range prompts {
			salt := fmt.Sprintf("lb/%d/%d", ci, pi)
			responses[ci][pi] = m.Respond(c.APE.Transform(p, salt), simllm.Options{Salt: salt})
		}
	}

	// Round-robin games, judged in both positions.
	wins := make([][]float64, len(contenders))
	for i := range wins {
		wins[i] = make([]float64, len(contenders))
	}
	games := 0
	for i := 0; i < len(contenders); i++ {
		for j := i + 1; j < len(contenders); j++ {
			for pi, p := range prompts {
				salt := fmt.Sprintf("lbg/%d/%d/%d", i, j, pi)
				if a.Suite.judge.Compare(p, responses[i][pi], responses[j][pi], salt).AWins {
					wins[i][j]++
				} else {
					wins[j][i]++
				}
				if a.Suite.judge.Compare(p, responses[j][pi], responses[i][pi], salt+"/swap").AWins {
					wins[j][i]++
				} else {
					wins[i][j]++
				}
				games += 2
			}
		}
	}

	strengths, err := metrics.BradleyTerry(wins, 200)
	if err != nil {
		return nil, fmt.Errorf("evalbench: fitting leaderboard: %w", err)
	}
	rep := &LeaderboardReport{Games: games}
	for i, n := range names {
		rep.Entries = append(rep.Entries, LeaderboardEntry{
			Name:         n,
			Strength:     strengths[i],
			WinRateVsRef: metrics.WinRate(strengths, i, 0),
		})
	}
	sort.Slice(rep.Entries, func(x, y int) bool { return rep.Entries[x].Strength > rep.Entries[y].Strength })
	return rep, nil
}

func (r *LeaderboardReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bradley-Terry leaderboard (%d judged games)\n", r.Games)
	t := newTable("Rank", "System", "BT log-strength", "Win rate vs reference")
	for i, e := range r.Entries {
		t.addRow(fmt.Sprint(i+1), e.Name, fmt.Sprintf("%+.3f", e.Strength), pct(e.WinRateVsRef))
	}
	b.WriteString(t.String())
	return b.String()
}
