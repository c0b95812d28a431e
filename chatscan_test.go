package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/wire"
)

// refChat is the reference the byte scanner is held to: encoding/json's
// reading of a chat body. It decodes through maps, so keys compare
// case-sensitively after unescaping and the last duplicate wins.
type refChat struct {
	usable  bool   // an object; messages, if present, an array of objects; last user turn's content a string
	hasUser bool   // messages has an element whose role is the string "user"
	prompt  string // decoded content of the last user turn
	salt    string // raw bytes of the seed value, "" when absent
}

func refScan(body []byte) (ref refChat) {
	var top map[string]json.RawMessage
	if !json.Valid(body) || bytes.TrimLeft(body, " \t\r\n")[0] != '{' || json.Unmarshal(body, &top) != nil {
		return ref
	}
	ref.salt = string(top["seed"])
	raw, ok := top["messages"]
	if !ok {
		ref.usable = true
		return ref
	}
	var elems []json.RawMessage
	if raw[0] != '[' || json.Unmarshal(raw, &elems) != nil {
		return ref
	}
	var content json.RawMessage
	for _, e := range elems {
		var msg map[string]json.RawMessage
		if e[0] != '{' || json.Unmarshal(e, &msg) != nil {
			return ref
		}
		var role string
		if r := msg["role"]; len(r) > 0 && r[0] == '"' && json.Unmarshal(r, &role) == nil && role == "user" {
			ref.hasUser, content = true, msg["content"]
		}
	}
	if !ref.hasUser {
		ref.usable = true
		return ref
	}
	if len(content) > 0 && content[0] == '"' && json.Unmarshal(content, &ref.prompt) == nil {
		ref.usable = true
	}
	return ref
}

// toolCallChat carries what the JSON round-trip used to drop (name,
// tool_calls, tool_call_id) and what it used to re-spell (<, >, &).
const toolCallChat = `{"model":"m","messages":[{"role":"user","name":"ann","content":"What is the weather in <b>Paris</b> & Rome?"},{"role":"assistant","content":null,"tool_calls":[{"id":"c1","type":"function","function":{"name":"weather","arguments":"{\"role\":\"user\",\"content\":\"bait\"}"}}]},{"role":"tool","tool_call_id":"c1","content":"sunny"}],"tools":[{"type":"function","function":{"name":"weather","parameters":{"type":"object","properties":{"role":{"type":"string"}}}}}]}`

// fixedChats are chat bodies with a known reading, shared by the
// table tests and the fuzz seed corpus.
var fixedChats = []string{
	`{"model":"m","messages":[{"role":"user","content":"Explain how tides form."}]}`,
	`{"messages":[{"role":"system","content":"be terse"},{"role":"user","content":"a"},{"role":"assistant","content":"b"}],"seed":42,"stream":true}`,
	toolCallChat,
	// Escaped key and role, surrogate pair, lone surrogate, raw U+2028, solidus.
	"{\"messages\":[{\"r\\u006fle\":\"u\\u0073er\",\"content\":\"tab\\there \\ud83d\\ude00 lone \\ud83d end \\/ \u2028 日本語\"}],\"seed\":\"sé\"}",
	// Whitespace everywhere.
	" \n{ \"seed\" :\t4.2e1 ,\r\n \"messages\" : [ { \"content\" : \"q\" , \"role\" : \"user\" } ] } \n",
	// Duplicate keys: the last one wins at every level.
	`{"seed":1,"messages":[{"role":"user","content":"decoy"}],"seed":"two","messages":[{"role":"assistant","role":"user","content":["parts"],"content":"real"}]}`,
	`{"messages":[{"role":"user","role":"assistant","content":"not a user turn after all"}]}`,
	// Case-sensitive keys and role.
	`{"Messages":[{"role":"user","content":"x"}],"messages":[{"Role":"user","content":"y"},{"role":"User","content":"z"}]}`,
	// Earlier user turns may be multimodal; only the last one matters.
	`{"messages":[{"role":"user","content":[{"type":"text","text":"look"}]},{"role":"user","content":"and this?"}]}`,
	// Nothing to augment.
	`{"model":"m"}`,
	`{"messages":[]}`,
	`{"messages":[{"role":"system","content":"only"}]}`,
	`{}`,
	// Unusable shapes.
	`{"messages":[{"role":"user","content":[{"type":"text","text":"what is in this image?"},{"type":"image_url","image_url":{"url":"data:image/png;base64,AAAA"}}]}]}`,
	`{"messages":[{"role":"user","content":null}]}`,
	`{"messages":[{"role":"user"}]}`,
	`{"messages":[{"role":"user","content":"first"},{"role":"user","content":7}]}`,
	`{"messages":{"role":"user","content":"x"}}`,
	`{"messages":null}`,
	`{"messages":[{"role":"user","content":"x"},null]}`,
	`{"messages":["user"]}`,
	`[{"role":"user","content":"x"}]`,
	`"messages"`,
	`null`,
	`42`,
	// Not JSON.
	``,
	` `,
	`{broken`,
	`{"messages":[{"role":"user","content":"unterminated`,
	`{"messages":[{"role":"user","content":"x"}]`,
	`{"messages":[{"role":"user","content":"x"}]}}`,
	`{"messages":[{"role":"user","content":"x"}]} x`,
	`{"messages":[{"role":"user","content":"bad \x escape"}]}`,
	`{"messages":[{"role":"user","content":"bad \u12g4 escape"}]}`,
	`{"messages":[{"role":"user","content":"short \u12"}]}`,
	"{\"messages\":[{\"role\":\"user\",\"content\":\"raw\nnewline\"}]}",
	`{"messages":[{"role":"user","content":"x"},]}`,
	`{"messages":[{"role":"user","content":"x",}]}`,
	`{"messages":[{"role":"user" "content":"x"}]}`,
	`{"messages":[{role:"user"}]}`,
	`{"a":01}`, `{"a":1.}`, `{"a":-}`, `{"a":1e}`, `{"a":1e+}`, `{"a":.5}`, `{"a":+1}`, `{"a":0x1}`,
	`{"a":-0.0e-0,"b":1E+2,"c":0,"d":[1 ,2]}`,
	`{"a":tru}`, `{"a":nul}`, `{"a":falsey}`, `{"a":True}`,
	"{\"a\":\"\xff\xfe invalid utf-8 is json.Valid's business\"}",
	"{\"messages\":[{\"role\":\"user\",\"content\":\"caf\xe9 \xf0\x9f\"}]}",
	"\x00", "{\"a\":1}\x00",
}

// TestScanChatAgreesWithEncodingJSON holds the scanner to the
// reference on every fixed body: the same syntax verdict as json.Valid,
// the same usability, the same prompt and salt.
func TestScanChatAgreesWithEncodingJSON(t *testing.T) {
	for _, body := range fixedChats {
		checkScanAgainstRef(t, []byte(body))
	}
}

func checkScanAgainstRef(t *testing.T, body []byte) {
	t.Helper()
	got, ref := scanChat(body), refScan(body)
	if got.valid != json.Valid(body) {
		t.Fatalf("%q: valid = %v, json.Valid = %v", body, got.valid, json.Valid(body))
	}
	if got.usable != ref.usable {
		t.Fatalf("%q: usable = %v, reference %v", body, got.usable, ref.usable)
	}
	if !got.usable {
		return
	}
	if (got.contentEnd > 0) != ref.hasUser {
		t.Fatalf("%q: found a user turn = %v, reference %v", body, got.contentEnd > 0, ref.hasUser)
	}
	if salt := string(body[got.seedStart:got.seedEnd]); salt != ref.salt {
		t.Fatalf("%q: salt = %q, reference %q", body, salt, ref.salt)
	}
	if ref.hasUser {
		if prompt := wire.Unquote(body[got.contentStart:got.contentEnd]); prompt != ref.prompt {
			t.Fatalf("%q: prompt = %q, reference %q", body, prompt, ref.prompt)
		}
	}
}

// TestScanChatDepthLimit: json.Valid gives up past 10000 open
// containers, so the scanner does, at the same depth.
func TestScanChatDepthLimit(t *testing.T) {
	const maxJSONDepth = 10000 // encoding/json's limit, which wire.Scanner mirrors
	for _, depth := range []int{maxJSONDepth, maxJSONDepth + 1} {
		for _, pair := range []string{"[]", `{"a":}`} {
			open, shut := pair[:len(pair)-1], pair[len(pair)-1:]
			body := []byte(`{"k":` + strings.Repeat(open, depth-1) + "1" + strings.Repeat(shut, depth-1) + "}")
			if got, want := scanChat(body).valid, json.Valid(body); got != want {
				t.Errorf("%d nested %s: valid = %v, json.Valid = %v", depth, pair, got, want)
			}
		}
	}
}

func TestScanChatDoesNotAllocate(t *testing.T) {
	body := []byte(toolCallChat)
	if n := testing.AllocsPerRun(100, func() { scanChat(body) }); n != 0 {
		t.Fatalf("scanChat allocates %v times per call", n)
	}
}

// TestAppendEscapedIsMinimalAndRoundTrips: only quote, backslash and
// controls are escaped, and encoding/json reads the literal back as the
// string that went in.
func TestAppendEscapedIsMinimalAndRoundTrips(t *testing.T) {
	for in, want := range map[string]string{
		"plain":                  `plain`,
		"<b>&amp;</b>":           `<b>&amp;</b>`,
		"line\u2028sep\u2029":    "line\u2028sep\u2029",
		"q\"b\\s/":               `q\"b\\s/`,
		"\n\r\t\b\f\x00\x1f\x7f": `\n\r\t\u0008\u000c\u0000\u001f` + "\x7f",
		"日本語 \U0001F600":         "日本語 \U0001F600",
		"bad \xff\xc3":           "bad \uFFFD\uFFFD",
	} {
		got := wire.AppendEscaped(nil, in, false)
		if string(got) != want {
			t.Errorf("appendEscaped(%q) = %s, want %s", in, got, want)
		}
		var back string
		if err := json.Unmarshal([]byte(`"`+string(got)+`"`), &back); err != nil {
			t.Errorf("appendEscaped(%q) = %s does not decode: %v", in, got, err)
		} else if back != strings.ReplaceAll(strings.ReplaceAll(in, "\xff", "\uFFFD"), "\xc3", "\uFFFD") {
			t.Errorf("appendEscaped(%q) decodes to %q", in, back)
		}
	}
}

// augmentFunc is an Augmenter written as a function.
type augmentFunc func(prompt, salt string) (augmented string, degraded bool, err error)

func (f augmentFunc) AugmentContextDegraded(_ context.Context, prompt, salt string) (string, bool, error) {
	return f(prompt, salt)
}

// markComplement is full of bytes an encoder might be tempted to touch.
const markComplement = "State your <assumptions> & \"number\" the steps\\.\tDone \u2028\U0001F600"

var (
	markAugmenter = augmentFunc(func(prompt, _ string) (string, bool, error) {
		return prompt + "\n" + markComplement, false, nil
	})
	// saltAugmenter reports the salt it was handed.
	saltAugmenter = augmentFunc(func(prompt, salt string) (string, bool, error) {
		return prompt + "\nsalt=" + salt, false, nil
	})
	// rewordAugmenter does not extend the prompt, it rewrites it.
	rewordAugmenter = augmentFunc(func(prompt, _ string) (string, bool, error) {
		return "Reworded: <" + strings.ToUpper(prompt) + ">", false, nil
	})
	// rawRungAugmenter answers raw: the prompt, flagged.
	rawRungAugmenter = augmentFunc(func(prompt, _ string) (string, bool, error) {
		return prompt, true, nil
	})
)

// rewriteBody runs body through the proxy's request rewrite, without an
// upstream, and returns what would be forwarded.
func rewriteBody(t testing.TB, aug Augmenter, body []byte) (out []byte, contentLength int64, degraded bool) {
	t.Helper()
	proxy := &Proxy{system: aug}
	req := &http.Request{
		Method: http.MethodPost, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}
	degraded, _, err := proxy.augmentRequest(context.Background(), nil, req)
	if err != nil {
		t.Fatalf("%q: augmentRequest: %v", body, err)
	}
	if out, err = io.ReadAll(req.Body); err != nil {
		t.Fatal(err)
	}
	return out, req.ContentLength, degraded
}

// insertion returns the bytes out has and orig lacks when out is orig
// with bytes inserted at offset at, and ok=false when it is not.
func insertion(orig, out []byte, at int) (inserted []byte, ok bool) {
	n := len(out) - len(orig)
	if n < 0 || at > len(orig) || !bytes.Equal(out[:at], orig[:at]) || !bytes.Equal(out[at+n:], orig[at:]) {
		return nil, false
	}
	return out[at : at+n], true
}

// TestSpliceFidelity: the fixed cases of the rewrite — what ROADMAP
// item 3 said the JSON round-trip lost.
func TestSpliceFidelity(t *testing.T) {
	t.Run("tool calls survive and <b> stays <b>", func(t *testing.T) {
		orig := []byte(toolCallChat)
		out, n, degraded := rewriteBody(t, markAugmenter, orig)
		at := bytes.Index(orig, []byte(`Rome?"`)) + len(`Rome?`)
		ins, ok := insertion(orig, out, at)
		if !ok || degraded || n != int64(len(out)) {
			t.Fatalf("forwarded %s (degraded %v, length %d): not the original plus bytes at %d", out, degraded, n, at)
		}
		var tail string
		if err := json.Unmarshal([]byte(`"`+string(ins)+`"`), &tail); err != nil || tail != "\n"+markComplement {
			t.Fatalf("inserted %s decodes to %q (%v), want newline + complement", ins, tail, err)
		}
		for _, kept := range []string{`<b>Paris</b> & Rome?`, `<assumptions> & \"number\"`, `"tool_calls":[{"id":"c1"`, `"tool_call_id":"c1"`, `"name":"ann"`} {
			if !bytes.Contains(out, []byte(kept)) {
				t.Errorf("forwarded body lost %s: %s", kept, out)
			}
		}
		if bytes.Contains(out, []byte(`\u003c`)) || bytes.Contains(out, []byte(`\u0026`)) || bytes.Contains(out, []byte(`\u2028`)) {
			t.Errorf("forwarded body was HTML-escaped: %s", out)
		}
	})

	t.Run("seed reaches the augmenter as its raw bytes", func(t *testing.T) {
		for _, seed := range []string{`42`, `4.2e1`, `"s"`, `"sé"`, `null`, `{"a": [1]}`} {
			orig := []byte(`{"seed": ` + seed + ` ,"messages":[{"role":"user","content":"q"}]}`)
			out, _, _ := rewriteBody(t, saltAugmenter, orig)
			if got := forwardedMessages(t, out)[0].Content; got != "q\nsalt="+seed {
				t.Errorf("seed %s: augmenter saw %q", seed, got)
			}
		}
		out, _, _ := rewriteBody(t, saltAugmenter, []byte(`{"messages":[{"role":"user","content":"q"}]}`))
		if got := forwardedMessages(t, out)[0].Content; got != "q\nsalt=" {
			t.Errorf("no seed: augmenter saw %q", got)
		}
	})

	t.Run("an augmenter that rewords leaves the body alone, flagged", func(t *testing.T) {
		orig := []byte(`{"messages":[{"content":"café \"au\" lait","role":"user"}],"n":1}`)
		out, n, degraded := rewriteBody(t, rewordAugmenter, orig)
		if !bytes.Equal(out, orig) || n != int64(len(orig)) || !degraded {
			t.Fatalf("forwarded %s (length %d, degraded %v), want the body as sent, flagged", out, n, degraded)
		}
	})

	t.Run("a raw-rung answer leaves the body alone", func(t *testing.T) {
		orig := []byte(`{"messages":[{"role":"user","content":"caf\u00e9 \/ <b>"}]}`)
		out, _, degraded := rewriteBody(t, rawRungAugmenter, orig)
		if !bytes.Equal(out, orig) || !degraded {
			t.Fatalf("forwarded %s, degraded %v", out, degraded)
		}
	})
}

// chatGen writes random valid chat payloads as text, so that spelling
// — whitespace, escapes, key order, duplicates — is under its control
// and it knows where the last user turn's content literal ends.
type chatGen struct {
	r *rand.Rand
	b []byte
}

var genRunes = []rune("abc xyz,.?<>&/'\"\\\n\té\u2028日本\U0001F600\x01")

func (g *chatGen) ws() {
	for g.r.Intn(3) == 0 {
		g.b = append(g.b, " \t\r\n"[g.r.Intn(4)])
	}
}

func (g *chatGen) text(maxLen int) string {
	rs := make([]rune, g.r.Intn(maxLen+1))
	for i := range rs {
		rs[i] = genRunes[g.r.Intn(len(genRunes))]
	}
	return string(rs)
}

// str writes s as a string literal, choosing a spelling for each rune.
func (g *chatGen) str(s string) {
	g.b = append(g.b, '"')
	for _, r := range s {
		switch style := g.r.Intn(6); {
		case r == '/' && style == 0:
			g.b = append(g.b, `\/`...)
		case style == 1 || r < 0x20 && r != '\n' && r != '\t':
			format := `\u%04x`
			if g.r.Intn(2) == 0 {
				format = `\u%04X`
			}
			if r > 0xFFFF {
				hi, lo := (r-0x10000)>>10+0xD800, (r-0x10000)&0x3FF+0xDC00
				g.b = fmt.Appendf(g.b, format+format, hi, lo)
			} else {
				g.b = fmt.Appendf(g.b, format, r)
			}
		case r == '\n':
			g.b = append(g.b, `\n`...)
		case r == '\t':
			g.b = append(g.b, `\t`...)
		case r == '"' || r == '\\':
			g.b = append(g.b, '\\', byte(r))
		default:
			g.b = utf8.AppendRune(g.b, r)
		}
	}
	g.b = append(g.b, '"')
}

// promptLiteral is str plus the things only a hostile client sends: a
// lone surrogate escape, a byte that is not UTF-8.
func (g *chatGen) promptLiteral() {
	g.str(g.text(40))
	switch g.r.Intn(8) {
	case 0:
		g.b = append(g.b[:len(g.b)-1], `\ud83d"`...)
	case 1:
		g.b = append(g.b[:len(g.b)-1], "\xff\""...)
	}
}

// key writes a key, now and then with an escape in it.
func (g *chatGen) key(k string) {
	if g.r.Intn(5) == 0 {
		g.b = fmt.Appendf(g.b, `"\u%04x%s"`, k[0], k[1:])
	} else {
		g.b = fmt.Appendf(g.b, `"%s"`, k)
	}
	g.ws()
	g.b = append(g.b, ':')
	g.ws()
}

// value writes an arbitrary JSON value; nested objects reuse the keys
// the scanner looks for, as bait.
func (g *chatGen) value(depth int) {
	kind := g.r.Intn(8)
	if depth > 2 {
		kind = g.r.Intn(6)
	}
	switch kind {
	case 0:
		g.b = append(g.b, "null"...)
	case 1:
		g.b = append(g.b, "true"...)
	case 2:
		g.b = append(g.b, "false"...)
	case 3:
		g.b = append(g.b, []string{"0", "-0", "42", "4.2e1", "1E+2", "-1.50", "0.7", "1e-9"}[g.r.Intn(8)]...)
	case 4, 5:
		g.str(g.text(12))
	case 6:
		g.b = append(g.b, '[')
		g.ws()
		for i, n := 0, g.r.Intn(4); i < n; i++ {
			if i > 0 {
				g.b = append(g.b, ',')
			}
			g.ws()
			g.value(depth + 1)
			g.ws()
		}
		g.b = append(g.b, ']')
	case 7:
		g.b = append(g.b, '{')
		g.ws()
		for i, n := 0, g.r.Intn(4); i < n; i++ {
			if i > 0 {
				g.b = append(g.b, ',')
				g.ws()
			}
			g.key([]string{"role", "content", "messages", "seed", "user", "x"}[g.r.Intn(6)])
			g.value(depth + 1)
			g.ws()
		}
		g.b = append(g.b, '}')
	}
}

// fields writes an object from named field writers in random order.
func (g *chatGen) fields(fs []func()) {
	g.r.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	g.b = append(g.b, '{')
	g.ws()
	for i, f := range fs {
		if i > 0 {
			g.b = append(g.b, ',')
			g.ws()
		}
		f()
		g.ws()
	}
	g.b = append(g.b, '}')
}

// message writes one element of messages: role and content, sometimes
// twice, among other fields, in random order. Of a key written twice
// the last counts, so only that one is bound by the arguments — the
// role is "user" or is not, the content is a string if it must be —
// and the earlier one is bait. Returned is the offset of the closing
// quote of the content that counts (-1 when it is not a string).
func (g *chatGen) message(user, stringContent bool) (closeQuote int) {
	roles, contents := 1+g.r.Intn(4)/3, 1+g.r.Intn(4)/3
	roleField := func() {
		g.key("role")
		role := []string{"system", "assistant", "tool", "User", "user"}[g.r.Intn(5)]
		if roles--; roles == 0 {
			role = []string{"system", "assistant", "tool", "User"}[g.r.Intn(4)]
			if user {
				role = "user"
			}
		}
		g.str(role)
	}
	contentField := func() {
		g.key("content")
		if contents--; contents == 0 && stringContent || g.r.Intn(4) > 0 {
			g.promptLiteral()
			closeQuote = len(g.b) - 1
		} else {
			g.b = append(g.b, []string{`null`, `["parts"]`, `[{"type":"text","text":"look"}]`, `7`}[g.r.Intn(4)]...)
			closeQuote = -1
		}
	}
	var fs []func()
	for i := 0; i < roles; i++ {
		fs = append(fs, roleField)
	}
	for i := 0; i < contents; i++ {
		fs = append(fs, contentField)
	}
	if g.r.Intn(3) == 0 {
		fs = append(fs, func() { g.key("name"); g.str(g.text(6)) })
	}
	if g.r.Intn(3) == 0 {
		fs = append(fs, func() {
			g.key("tool_calls")
			g.b = append(g.b, `[{"id":"c1","type":"function","function":{"name":"f","arguments":"{\"role\":\"user\"}"},"role":"user","content":"bait"}]`...)
		})
	}
	if g.r.Intn(3) == 0 {
		fs = append(fs, func() { g.key("tool_call_id"); g.str("c1") })
	}
	if g.r.Intn(3) == 0 {
		fs = append(fs, func() { g.key([]string{"Role", "Content", "x"}[g.r.Intn(3)]); g.value(1) })
	}
	g.fields(fs)
	return closeQuote
}

// messages writes a messages array with a user turn somewhere — first,
// middle or last — and returns the offset of the closing quote of the
// last user turn's content.
func (g *chatGen) messages() (closeQuote int) {
	n := 1 + g.r.Intn(5)
	lastUser := g.r.Intn(n)
	g.b = append(g.b, '[')
	g.ws()
	for i := 0; i < n; i++ {
		if i > 0 {
			g.b = append(g.b, ',')
			g.ws()
		}
		// Before the last user turn anything goes, more user turns and
		// multimodal ones included; after it, no role is "user".
		user := i == lastUser || i < lastUser && g.r.Intn(3) == 0
		if q := g.message(user, i == lastUser); user {
			closeQuote = q
		}
		g.ws()
	}
	g.b = append(g.b, ']')
	return closeQuote
}

// chat writes a whole payload and returns it with the offset at which
// the complement must go in.
func (g *chatGen) chat() (body []byte, closeQuote int) {
	g.b = nil
	messagesField := func() { g.key("messages"); closeQuote = g.messages() }
	seedField := func() {
		g.key("seed")
		g.b = append(g.b, []string{`42`, `4.2e1`, `"s"`, `"sé <&>"`, `-0`, `null`}[g.r.Intn(6)]...)
	}
	fs := []func(){messagesField, func() { g.key("model"); g.str("gpt-4-0613") }}
	if g.r.Intn(4) == 0 {
		fs = append(fs, messagesField)
	}
	for i, n := 0, g.r.Intn(3); i < n; i++ {
		fs = append(fs, seedField)
	}
	for _, k := range []string{"temperature", "stream", "tools", "Messages", "Seed", "x-unknown"} {
		if g.r.Intn(3) == 0 {
			fs = append(fs, func() { g.key(k); g.value(0) })
		}
	}
	g.ws()
	g.fields(fs)
	g.ws()
	return g.b, closeQuote
}

// TestSpliceProperty: for generated chats of every spelling, the
// upstream receives the original with bytes inserted at exactly one
// offset — the closing quote of the last user turn's content — those
// bytes decode to "\n"+complement, and the result decodes to content ==
// sys.Augment(prompt, seed).
func TestSpliceProperty(t *testing.T) {
	sys := testSystem(t).System
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxy(sys, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	g := &chatGen{r: rand.New(rand.NewSource(13))}
	for i := 0; i < 400; i++ {
		orig, at := g.chat()
		orig = bytes.Clone(orig)
		ref := refScan(orig)
		if !ref.usable || !ref.hasUser {
			t.Fatalf("generator wrote a chat the reference cannot augment: %q", orig)
		}
		checkScanAgainstRef(t, orig)

		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", bytes.NewReader(orig))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-PAS-Degraded") != "" {
			t.Fatalf("%q: status %d, degraded %q", orig, resp.StatusCode, resp.Header.Get("X-PAS-Degraded"))
		}
		out := (*bodies)[len(*bodies)-1]

		want := sys.Augment(ref.prompt, ref.salt)
		ins, ok := insertion(orig, out, at)
		if !ok {
			t.Fatalf("forwarded body is not the original plus bytes at offset %d\nsent %q\n got %q", at, orig, out)
		}
		var tail string
		if err := json.Unmarshal([]byte(`"`+string(ins)+`"`), &tail); err != nil || ref.prompt+tail != want || !strings.HasPrefix(tail, "\n") {
			t.Fatalf("%q: inserted %q decodes to %q (%v), want %q", orig, ins, tail, err, want[len(ref.prompt):])
		}
		if got := refScan(out); !got.usable || got.prompt != want || got.salt != ref.salt {
			t.Fatalf("forwarded %q reads as content %q, want %q", out, got.prompt, want)
		}
	}
}

// FuzzChatRewrite feeds the request rewrite anything at all. It must
// never panic or answer an error; its syntax verdict is json.Valid's
// and its reading of the chat is encoding/json's; a rewritten body is
// valid JSON, the input plus one insertion, with a matching
// Content-Length; a body that is not rewritten is forwarded as it came.
func FuzzChatRewrite(f *testing.F) {
	for _, body := range fixedChats {
		f.Add([]byte(body))
	}
	// The word-at-a-time string scan's edges (see TestStrBoundaryMatrix):
	// the byte that ends a run of plain bytes in a word's last lane or the
	// next word's first, an escape across two words, high bytes by a quote.
	for _, body := range []string{
		`{"messages":[{"role":"user","content":"abcdefg\"hijklmnop"}],"seed":"1234567"}`,
		`{"messages":[{"role":"user","content":"abcdefgh\nijklmno\u00e9"}],"seed":"12345678"}`,
		`{"messages":[{"role":"user","content":"abcdefg\u00e9hijklmn\"#$%&'()*"}]}`,
		"{\"messages\":[{\"role\":\"user\",\"content\":\"abcdefg\x1fhijklmnop\"}]}",
		"{\"messages\":[{\"role\":\"user\",\"content\":\"\x7f\x80\xff \x7f\x80\xff\x20\x7f\x80\xff\"}]}",
		`{"messages":[{"role":"user","content":"abcdefghijklmnop`,
	} {
		f.Add([]byte(body))
	}
	g := &chatGen{r: rand.New(rand.NewSource(29))}
	for i := 0; i < 8; i++ {
		body, _ := g.chat()
		f.Add(bytes.Clone(body))
		f.Add(bytes.Clone(body[:len(body)/2]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScanAgainstRef(t, body)
		ref := refScan(body)
		out, contentLength, degraded := rewriteBody(t, markAugmenter, body)
		if contentLength != int64(len(out)) {
			t.Fatalf("%q: Content-Length %d for %d bytes", body, contentLength, len(out))
		}
		if !ref.usable || !ref.hasUser {
			if !bytes.Equal(out, body) || degraded == ref.usable {
				t.Fatalf("%q: forwarded %q, degraded %v, want it untouched, degraded %v", body, out, degraded, !ref.usable)
			}
			return
		}
		prefix := 0
		for prefix < len(body) && prefix < len(out) && out[prefix] == body[prefix] {
			prefix++
		}
		// The first byte that differs is the first inserted one or, when
		// the inserted bytes start like what follows them, a little after.
		ok := false
		for at := prefix; at >= 0 && !ok; at-- {
			_, ok = insertion(body, out, at)
		}
		if !ok || len(out) <= len(body) || !json.Valid(out) || degraded {
			t.Fatalf("%q: forwarded %q, degraded %v, want valid JSON that is the input plus one insertion", body, out, degraded)
		}
		if got := refScan(out); got.prompt != ref.prompt+"\n"+markComplement {
			t.Fatalf("%q: forwarded content %q, want %q + newline + complement", body, got.prompt, ref.prompt)
		}
	})
}
