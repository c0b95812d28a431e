package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format Write emits: a
// parser for Prometheus text format 0.0.4 and a merger that combines
// several members' scrapes into one instance-labeled []Family. It
// exists so a fleet fronted by one proxy can serve a cluster-wide
// /metricsz without adding a metrics dependency — the proxy scrapes
// each member, parses, tags with instance, and re-renders.

// ParseExposition reads a text exposition and groups samples into
// families, in the order the exposition first names them. A histogram's
// (or summary's) suffixed series fold into their declared family, which
// is why a TYPE line must come before its family's samples. Unknown
// comment lines are skipped; a malformed sample or label set is an
// error naming the line. The zero exposition parses to an empty slice.
func ParseExposition(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	byName := make(map[string]*Family)
	var order []string
	fam := func(name string) *Family {
		f, ok := byName[name]
		if !ok {
			f = &Family{Name: name, Type: "untyped"}
			byName[name] = f
			order = append(order, name)
		}
		return f
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimSpace(line[1:])
			kind, rest, _ := cutSpace(rest)
			switch kind {
			case "HELP":
				name, help, _ := cutSpace(rest)
				if name == "" {
					return nil, fmt.Errorf("obs: line %d: HELP without a metric name", lineNo)
				}
				fam(name).Help = unescapeHelp(help)
			case "TYPE":
				name, typ, _ := cutSpace(rest)
				if name == "" || typ == "" {
					return nil, fmt.Errorf("obs: line %d: TYPE needs a name and a type", lineNo)
				}
				f := fam(name)
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("obs: line %d: TYPE %s after its samples", lineNo, name)
				}
				f.Type = typ
			default:
				// Plain comment; the format allows them anywhere.
			}
			continue
		}

		name, s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		// Histogram/summary series carry suffixed sample names; fold
		// them into the declared base family.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base == name {
				continue
			}
			if f, ok := byName[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
				s.Suffix = suf
				name = base
				break
			}
		}
		f := fam(name)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}

	out := make([]Family, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out, nil
}

// parseSampleLine splits `name[{labels}] value [timestamp]`.
func parseSampleLine(line string) (name string, s Sample, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", s, fmt.Errorf("sample %q has no value", line)
	}
	if i == 0 {
		return "", s, fmt.Errorf("sample %q has no metric name", line)
	}
	name, rest := line[:i], line[i:]
	if strings.HasPrefix(rest, "{") {
		end := labelBlockEnd(rest)
		if end < 0 {
			return "", s, fmt.Errorf("unterminated label block in %q", line)
		}
		if s.Labels, err = parseLabels(rest[1:end]); err != nil {
			return "", s, err
		}
		rest = rest[end+1:]
	}
	// OpenMetrics bucket lines may carry an exemplar suffix after the
	// value (` # {trace_id="..."} v`); the label block is already
	// consumed, so the first # from here starts the exemplar — drop it.
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return "", s, fmt.Errorf("sample %q has no value", line)
	}
	if s.Value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return "", s, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	// fields[1], when present, is a timestamp; the merge is a snapshot
	// so it is deliberately dropped.
	return name, s, nil
}

// labelBlockEnd finds the index of the closing brace of a label block
// starting at s[0] == '{', honoring quoted strings and escapes.
func labelBlockEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// parseLabels parses the inside of a {k="v",...} block.
func parseLabels(s string) ([]Attr, error) {
	var out []Attr
	rest := strings.TrimSpace(s)
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label %q missing '='", rest)
		}
		key := strings.TrimSpace(rest[:eq])
		rest = strings.TrimSpace(rest[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("label %q value not quoted", key)
		}
		rest = rest[1:]
		var b strings.Builder
		i := 0
		for {
			if i >= len(rest) {
				return nil, fmt.Errorf("label %q value unterminated", key)
			}
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					b.WriteByte('\n')
				case '\\', '"':
					b.WriteByte(rest[i+1])
				default:
					b.WriteByte(c)
					b.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		out = append(out, Attr{Key: key, Value: b.String()})
		rest = strings.TrimSpace(rest[i:])
		if strings.HasPrefix(rest, ",") {
			rest = strings.TrimSpace(rest[1:])
		}
	}
	return out, nil
}

// helpUnescaper inverts escapeHelp in one left-to-right pass, so an
// escaped backslash followed by an n stays a backslash and an n.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

func unescapeHelp(s string) string { return helpUnescaper.Replace(s) }

// ScrapedExposition is one member's parsed /metricsz, tagged with the
// instance identity the merge stamps onto every sample.
type ScrapedExposition struct {
	Instance string
	Families []Family
}

// MergeExpositions combines several members' expositions into one: each
// sample gains an instance="<member>" label (prepended, so a family's
// samples group by member) and families with the same name concatenate;
// the result is in exposition order, like Gather's. HELP and TYPE come from the first member that
// declared them. Series are kept per-instance rather than summed —
// gauges and histogram buckets do not aggregate meaningfully without
// knowing each family's semantics, and a rollup that preserves the
// per-member series loses nothing.
func MergeExpositions(members []ScrapedExposition) []Family {
	byName := make(map[string]*Family)
	var order []string
	for _, m := range members {
		for _, f := range m.Families {
			out, ok := byName[f.Name]
			if !ok {
				out = &Family{Name: f.Name, Help: f.Help, Type: f.Type}
				byName[f.Name] = out
				order = append(order, f.Name)
			}
			if out.Help == "" {
				out.Help = f.Help
			}
			if out.Type == "untyped" && f.Type != "" {
				out.Type = f.Type
			}
			for _, s := range f.Samples {
				tagged := s
				tagged.Labels = make([]Attr, 0, len(s.Labels)+1)
				tagged.Labels = append(tagged.Labels, Attr{Key: "instance", Value: m.Instance})
				tagged.Labels = append(tagged.Labels, s.Labels...)
				out.Samples = append(out.Samples, tagged)
			}
		}
	}
	fams := make([]Family, 0, len(order))
	for _, n := range order {
		sortSamples(byName[n].Samples)
		fams = append(fams, *byName[n])
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// cutSpace splits at the first run of spaces/tabs.
func cutSpace(s string) (head, tail string, found bool) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, "", false
	}
	return s[:i], strings.TrimLeft(s[i:], " \t"), true
}
