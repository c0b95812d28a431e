package analysis

import (
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		in        string
		directive bool
		wantErr   bool
		verb      string
		rules     []string
	}{
		{"//paslint:allow determinism production jitter", true, false, verbAllow, []string{"determinism"}},
		{"paslint:allow errwrap,httpbody shared reason", true, false, verbAllow, []string{"errwrap", "httpbody"}},
		{"//paslint:allow lockheld   padded   reason  ", true, false, verbAllow, []string{"lockheld"}},
		{"//paslint:hotpath cache-hit path, see BENCH_serving.json", true, false, VerbHotPath, nil},
		{"paslint:hotpath shard key of the routing tier", true, false, VerbHotPath, nil},
		// Not directives at all.
		{"// ordinary comment", false, false, "", nil},
		{"//nolint:errcheck", false, false, "", nil},
		{"/*paslint:allow x y*/", false, false, "", nil},
		// Malformed: directive-shaped but unusable.
		{"//paslint:allow", true, true, "", nil},
		{"//paslint:allow determinism", true, true, "", nil},              // no reason
		{"//paslint:allow determinism,,errwrap why", true, true, "", nil}, // empty element
		{"//paslint:allow Determinism why", true, true, "", nil},          // case
		{"//paslint:deny determinism why", true, true, "", nil},           // unknown verb
		{"// paslint:allow determinism why", true, true, "", nil},         // near-miss space
		{"//paslint:hotpath", true, true, "", nil},                        // hotpath without reason
	}
	for _, tc := range cases {
		d, isDirective, err := parseDirective(tc.in)
		if isDirective != tc.directive {
			t.Errorf("%q: directive=%v, want %v", tc.in, isDirective, tc.directive)
			continue
		}
		if (err != nil) != tc.wantErr {
			t.Errorf("%q: err=%v, wantErr=%v", tc.in, err, tc.wantErr)
			continue
		}
		if err != nil || !isDirective {
			continue
		}
		if d.Verb != tc.verb {
			t.Errorf("%q: verb=%q, want %q", tc.in, d.Verb, tc.verb)
		}
		if strings.Join(d.Rules, ",") != strings.Join(tc.rules, ",") {
			t.Errorf("%q: rules=%v, want %v", tc.in, d.Rules, tc.rules)
		}
	}
}

func TestDirectiveCovers(t *testing.T) {
	d := Directive{Verb: verbAllow, Rules: []string{"determinism"}, Line: 10}
	for line, want := range map[int]bool{9: false, 10: true, 11: true, 12: false} {
		if got := d.covers("determinism", line); got != want {
			t.Errorf("covers(determinism, %d)=%v, want %v", line, got, want)
		}
	}
	if d.covers("errwrap", 10) {
		t.Error("directive covered a rule it does not name")
	}
	hp := Directive{Verb: VerbHotPath, Line: 10}
	if hp.covers("determinism", 10) || hp.covers("hotpathalloc", 11) {
		t.Error("hotpath directive must never suppress findings")
	}
}

// FuzzParseDirective: parsing arbitrary comment text must never panic,
// and a successful parse must uphold the invariants the runner relies
// on: non-empty rule list, valid rule names.
func FuzzParseDirective(f *testing.F) {
	for _, seed := range []string{
		"//paslint:allow determinism production jitter must decorrelate",
		"//paslint:allow errwrap,httpbody one reason for two rules",
		"//paslint:allow",
		"//paslint:allow x",
		"//paslint:deny y z",
		"// paslint:allow spaced out",
		"//paslint:allow a,,b reason",
		"//paslint:allow A reason",
		"plain text",
		"//paslint:",
		"//paslint:allow \t weird\tws",
		"/*paslint:allow block comments never count*/",
		"//paslint:hotpath cache-hit fast path",
		"//paslint:hotpath",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, isDirective, err := parseDirective(s)
		if !isDirective && err != nil {
			t.Fatalf("non-directive returned error: %q -> %v", s, err)
		}
		if isDirective && err == nil {
			switch d.Verb {
			case verbAllow:
				if len(d.Rules) == 0 {
					t.Fatalf("parsed allow directive with no rules: %q", s)
				}
				for _, r := range d.Rules {
					if !isRuleName(r) {
						t.Fatalf("parsed invalid rule name %q from %q", r, s)
					}
				}
			case VerbHotPath:
				if len(d.Rules) != 0 {
					t.Fatalf("parsed hotpath directive with a rule list: %q", s)
				}
			default:
				t.Fatalf("parsed directive with unknown verb %q from %q", d.Verb, s)
			}
		}
	})
}
