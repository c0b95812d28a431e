package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
	"unicode"
)

// directivePrefix introduces a paslint control comment. Directives use
// the Go convention for machine-readable comments: no space after //,
// tool name, colon, verb.
const directivePrefix = "//paslint:"

// Directive verbs. verbAllow suppresses findings; VerbHotPath marks a
// function as an allocation-lean hot path for the hotpathalloc rule.
const (
	verbAllow   = "allow"
	VerbHotPath = "hotpath"
)

// A Directive is one parsed //paslint:<verb> comment.
//
// An allow directive suppresses findings of the named rules on its own
// line and on the line immediately below it (so it can ride at the end
// of the offending line or stand alone above it).
//
// A hotpath directive marks the function whose declaration starts on
// its own line or the line below — i.e. it sits on the func line or in
// the doc comment directly above — as a designated hot path: the
// hotpathalloc rule then flags allocation-prone constructs in that
// function's body.
//
// Both must carry a reason, which the parser checks and drops: an
// unexplained suppression is just a bug with a comment on it, and an
// unexplained hot-path marker gives the next reader no budget to hold
// the function to.
type Directive struct {
	// Verb is verbAllow or VerbHotPath.
	Verb string
	// Rules are the rule names an allow directive silences
	// ("determinism", "ctxpropagate", ...). Never empty after a
	// successful allow parse; always empty for hotpath.
	Rules []string
	// File is the source file the comment lives in (as rendered by the
	// loader's FileSet). Line numbers alone collide across files.
	File string
	// Line is the 1-based source line the comment starts on.
	Line int
}

// covers reports whether the directive silences rule findings on line.
// Only allow directives suppress anything.
func (d Directive) covers(rule string, line int) bool {
	if d.Verb != verbAllow {
		return false
	}
	if line != d.Line && line != d.Line+1 {
		return false
	}
	for _, r := range d.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// parseDirective parses one comment's text. The input may keep or drop
// the leading "//" marker; block comments (/* */) are never directives.
// The second result reports whether the comment is a paslint directive
// at all — when it is false the error is nil and the comment is simply
// not paslint's business. A malformed directive (unknown verb, empty
// rule list, missing reason) returns true plus a descriptive error so
// the runner can surface it as a finding instead of silently ignoring a
// suppression the author believed was active.
func parseDirective(text string) (Directive, bool, error) {
	if !strings.HasPrefix(text, "//") {
		text = "//" + text
	}
	if strings.HasPrefix(text, "/*") {
		return Directive{}, false, nil
	}
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		// "// paslint:allow" (with a space) is a classic near-miss that
		// would silently not suppress; flag it as malformed rather than
		// unrelated.
		trimmed := strings.TrimPrefix(text, "//")
		if strings.HasPrefix(strings.TrimLeftFunc(trimmed, unicode.IsSpace), "paslint:") && trimmed != strings.TrimLeftFunc(trimmed, unicode.IsSpace) {
			return Directive{}, true, fmt.Errorf("malformed paslint directive: no space allowed between // and paslint:")
		}
		return Directive{}, false, nil
	}
	verb := rest
	args := ""
	if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
		verb, args = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	switch verb {
	case verbAllow:
	case VerbHotPath:
		if args == "" {
			return Directive{}, true, fmt.Errorf("paslint:hotpath is missing its reason — say why this function must stay allocation-lean")
		}
		return Directive{Verb: VerbHotPath}, true, nil
	default:
		return Directive{}, true, fmt.Errorf("unknown paslint directive %q (paslint:allow and paslint:hotpath are defined)", verb)
	}
	ruleField := args
	reason := ""
	if i := strings.IndexFunc(args, unicode.IsSpace); i >= 0 {
		ruleField, reason = args[:i], strings.TrimSpace(args[i+1:])
	}
	if ruleField == "" {
		return Directive{}, true, fmt.Errorf("paslint:allow needs a rule list: //paslint:allow <rule>[,<rule>] <reason>")
	}
	var rules []string
	for _, r := range strings.Split(ruleField, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			return Directive{}, true, fmt.Errorf("paslint:allow rule list %q has an empty element", ruleField)
		}
		if !isRuleName(r) {
			return Directive{}, true, fmt.Errorf("paslint:allow rule %q is not a valid rule name (want lower-case identifier)", r)
		}
		rules = append(rules, r)
	}
	if reason == "" {
		return Directive{}, true, fmt.Errorf("paslint:allow %s is missing its reason — say why the finding is acceptable", ruleField)
	}
	return Directive{Verb: verbAllow, Rules: rules}, true, nil
}

// isRuleName reports whether s looks like a rule identifier:
// lower-case ASCII letters and digits, starting with a letter.
func isRuleName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}

// fileDirectives extracts every directive in f, plus a diagnostic for
// each malformed one (rule "paslint", never suppressible).
func fileDirectives(fset *token.FileSet, f *ast.File) ([]Directive, []Diagnostic) {
	var ds []Directive
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, isDirective, err := parseDirective(c.Text)
			if !isDirective {
				continue
			}
			pos := fset.Position(c.Pos())
			if err != nil {
				bad = append(bad, Diagnostic{Pos: pos, Rule: "paslint", Message: err.Error()})
				continue
			}
			d.File = pos.Filename
			d.Line = pos.Line
			ds = append(ds, d)
		}
	}
	return ds, bad
}
