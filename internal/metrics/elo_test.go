package metrics

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEloValidation(t *testing.T) {
	if _, err := NewElo(0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewElo(-5); err == nil {
		t.Error("negative k should fail")
	}
}

func TestEloBaseRating(t *testing.T) {
	e, err := NewElo(24)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rating("unknown") != 1000 {
		t.Fatal("unseen player should have base rating")
	}
	if e.Expected("a", "b") != 0.5 {
		t.Fatal("equal ratings should expect 0.5")
	}
}

func TestEloConvergesToWinner(t *testing.T) {
	e, err := NewElo(24)
	if err != nil {
		t.Fatal(err)
	}
	// a beats b 80% of 200 games.
	for i := 0; i < 200; i++ {
		if i%5 == 0 {
			e.Record("b", "a")
		} else {
			e.Record("a", "b")
		}
	}
	if e.Rating("a") <= e.Rating("b") {
		t.Fatalf("a=%f b=%f", e.Rating("a"), e.Rating("b"))
	}
	exp := e.Expected("a", "b")
	if exp < 0.6 || exp > 0.95 {
		t.Fatalf("expected score = %v, want near 0.8", exp)
	}
	if e.Games("a") != 200 || e.Games("b") != 200 {
		t.Fatalf("games = %d/%d", e.Games("a"), e.Games("b"))
	}
}

func TestEloDrawMovesTowardEquality(t *testing.T) {
	e, err := NewElo(24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Record("a", "b")
	}
	gap := e.Rating("a") - e.Rating("b")
	for i := 0; i < 20; i++ {
		e.RecordDraw("a", "b")
	}
	if newGap := e.Rating("a") - e.Rating("b"); newGap >= gap {
		t.Fatalf("draws should shrink the gap: %f -> %f", gap, newGap)
	}
}

// TestEloConservationProperty: total rating is invariant (zero-sum
// updates), regardless of game sequence.
func TestEloConservationProperty(t *testing.T) {
	f := func(results []bool) bool {
		e, err := NewElo(32)
		if err != nil {
			return false
		}
		for _, aWins := range results {
			if aWins {
				e.Record("a", "b")
			} else {
				e.Record("b", "a")
			}
		}
		total := e.Rating("a") + e.Rating("b")
		return math.Abs(total-2000) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEloStandingsSorted(t *testing.T) {
	e, err := NewElo(24)
	if err != nil {
		t.Fatal(err)
	}
	e.Record("strong", "weak")
	e.Record("strong", "mid")
	e.Record("mid", "weak")
	s := e.Standings()
	if len(s) != 3 {
		t.Fatalf("standings = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i].Rating > s[i-1].Rating {
			t.Fatalf("standings unsorted: %v", s)
		}
	}
	if s[0].Name != "strong" {
		t.Fatalf("winner not first: %v", s)
	}
}

// Elo maintains online pairwise ratings — the sequential alternative to
// the batch Bradley–Terry fit, as used by live arena leaderboards. New
// players start at the base rating.
type Elo struct {
	k       float64
	base    float64
	ratings map[string]float64
	games   map[string]int
}

// NewElo creates a rating table with update factor k (typical: 16-32)
// and base rating 1000.
// It returns an error for a non-positive k.
func NewElo(k float64) (*Elo, error) {
	if k <= 0 {
		return nil, fmt.Errorf("metrics: elo K must be positive, got %v", k)
	}
	return &Elo{k: k, base: 1000, ratings: make(map[string]float64), games: make(map[string]int)}, nil
}

// Rating returns a player's current rating (base if never seen).
func (e *Elo) Rating(name string) float64 {
	if r, ok := e.ratings[name]; ok {
		return r
	}
	return e.base
}

// Games returns how many games a player has recorded.
func (e *Elo) Games(name string) int { return e.games[name] }

// Expected returns the expected score of a against b (probability-like,
// 0.5 for equal ratings).
func (e *Elo) Expected(a, b string) float64 {
	return 1 / (1 + math.Pow(10, (e.Rating(b)-e.Rating(a))/400))
}

// Record updates ratings after winner beat loser.
func (e *Elo) Record(winner, loser string) { e.update(winner, loser, 1) }

// RecordDraw updates ratings after a drawn game.
func (e *Elo) RecordDraw(a, b string) { e.update(a, b, 0.5) }

func (e *Elo) update(a, b string, scoreA float64) {
	ea := e.Expected(a, b)
	ra, rb := e.Rating(a), e.Rating(b)
	e.ratings[a] = ra + e.k*(scoreA-ea)
	e.ratings[b] = rb + e.k*((1-scoreA)-(1-ea))
	e.games[a]++
	e.games[b]++
}

// Standing is one leaderboard row.
type Standing struct {
	Name   string
	Rating float64
	Games  int
}

// Standings returns all players sorted by rating, ties broken by name.
func (e *Elo) Standings() []Standing {
	out := make([]Standing, 0, len(e.ratings))
	for n, r := range e.ratings {
		out = append(out, Standing{Name: n, Rating: r, Games: e.games[n]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rating != out[j].Rating {
			return out[i].Rating > out[j].Rating
		}
		return out[i].Name < out[j].Name
	})
	return out
}
