package wire

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// readRequest is http.ReadRequest's parse of a header block, Body and
// context aside, or nil when ReadRequest fails.
func readRequest(block []byte) *http.Request {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(block)))
	if err != nil {
		return nil
	}
	req.Body = nil
	return req
}

// serves reports whether a request http.ReadRequest parsed is one
// net/http's server serves as the Server does: HTTP/1.1, none of the
// requests net/http treats specially, and a header net/http's server
// accepts (oneHost checks the Host fields).
func serves(req *http.Request) bool {
	return req.Proto == "HTTP/1.1" && req.Method != http.MethodConnect && req.RequestURI != "*" &&
		len(req.TransferEncoding) == 0 && len(req.Header["Transfer-Encoding"]) == 0 &&
		len(req.Header["Expect"]) == 0 && len(req.Header["Upgrade"]) == 0 && validHeader(req)
}

// oneHost reports whether a header block http.ReadRequest accepted has
// one Host field, made of plain bytes, and no folded line; the Host
// fields are what ReadRequest drops from the header it returns.
func oneHost(block []byte) bool {
	hosts := 0
	lines := block[bytes.IndexByte(block, '\n')+1:]
	for {
		i := bytes.IndexByte(lines, '\n')
		line := bytes.TrimSuffix(lines[:max(i, 0)], []byte("\r"))
		if i < 0 || len(line) == 0 {
			return hosts == 1
		}
		lines = lines[i+1:]
		switch {
		case line[0] == ' ' || line[0] == '\t':
			return false
		case len(line) >= 5 && bytes.EqualFold(line[:5], []byte("host:")):
			hosts++
			if !plainHost(bytes.Trim(line[5:], " \t")) {
				return false
			}
		}
	}
}

// checkClaimed fails t unless the request parseHead built from block is
// the one http.ReadRequest builds, Body aside, and one serves and
// oneHost accept.
func checkClaimed(t *testing.T, block []byte, got *http.Request) {
	t.Helper()
	want := readRequest(block)
	if want == nil {
		t.Fatalf("claimed %q, which http.ReadRequest refuses", block)
	}
	if !serves(want) || !oneHost(block) {
		t.Fatalf("claimed %q, which the Server does not serve", block)
	}
	got.Body = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("for %q built\n %#v\nwant %#v\nURL %#v, want %#v", block, got, want, got.URL, want.URL)
	}
}

// clientHeads are the header blocks the clients PAS fronts send, each
// of which parseHead must claim.
func clientHeads(t testing.TB) map[string]string {
	body := `{"model":"gpt-4-0613","messages":[{"role":"user","content":"Explain how tides form."}]}`
	heads := map[string]string{
		"curl GET": "GET /v1/stats HTTP/1.1\r\nHost: 127.0.0.1:8431\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
		"curl POST": "POST /v1/augment HTTP/1.1\r\nHost: 127.0.0.1:8431\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n" +
			"Content-Type: application/x-www-form-urlencoded\r\nContent-Length: 52\r\n\r\n",
		"python requests": "POST /v1/chat/completions HTTP/1.1\r\nHost: localhost:8434\r\nUser-Agent: python-requests/2.31.0\r\n" +
			"Accept-Encoding: gzip, deflate\r\nAccept: */*\r\nConnection: keep-alive\r\nContent-Length: 93\r\n" +
			"Content-Type: application/json\r\n\r\n",
		"openai sdk (httpx)": "POST /v1/chat/completions HTTP/1.1\r\nhost: localhost:8434\r\naccept-encoding: gzip, deflate\r\n" +
			"connection: keep-alive\r\naccept: application/json\r\ncontent-type: application/json\r\n" +
			"user-agent: OpenAI/Python 1.51.0\r\nx-stainless-lang: python\r\nx-stainless-package-version: 1.51.0\r\n" +
			"x-stainless-os: Linux\r\nx-stainless-arch: x64\r\nx-stainless-runtime: CPython\r\n" +
			"x-stainless-runtime-version: 3.11.9\r\nauthorization: Bearer sk-test-0123456789\r\n" +
			"x-stainless-async: false\r\nx-stainless-retry-count: 0\r\nx-stainless-read-timeout: 600\r\n" +
			"content-length: 93\r\n\r\n",
		"query":            "GET /metricsz?name[]=pas_http&x=%41+b?c HTTP/1.1\r\nHost: [::1]:6061\r\n\r\n",
		"connection close": "GET /healthz HTTP/1.1\r\nHost: a\r\nConnection: keep-alive, Close\r\n\r\n",
	}
	// What a Go client writes: net/http's Transport, as the load
	// generator sends, and Request.Write, as a ring hop over
	// wire.Transport sends.
	req, _ := http.NewRequest(http.MethodPost, "http://127.0.0.1:8441/v1/augment", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	req.Header.Set("X-Pas-Tenant", "t1")
	var hop bytes.Buffer
	if err := req.Write(&hop); err != nil {
		t.Fatal(err)
	}
	heads["go ring hop"] = hop.String()[:headerEnd(hop.Bytes())]
	heads["go http.Client"] = capturedHead(t, req)
	return heads
}

// capturedHead is the header block http.DefaultClient sends for req.
func capturedHead(t testing.TB, req *http.Request) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan string, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- ""
			return
		}
		defer c.Close()
		var buf []byte
		for headerEnd(buf) == 0 {
			b := make([]byte, 4096)
			n, err := c.Read(b)
			buf = append(buf, b[:n]...)
			if err != nil {
				break
			}
		}
		got <- string(buf[:headerEnd(buf)])
		_, _ = io.WriteString(c, "HTTP/1.1 204 No Content\r\n\r\n")
	}()
	req = req.Clone(req.Context())
	req.URL.Host = ln.Addr().String()
	req.Body, _ = req.GetBody()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return <-got
}

// TestParseHeadClaimsClientHeads: the header blocks of curl, Python's
// requests, the OpenAI SDK over httpx, Go's http.Client and a ring hop
// are claimed, each as http.ReadRequest builds it.
func TestParseHeadClaimsClientHeads(t *testing.T) {
	for name, head := range clientHeads(t) {
		t.Run(name, func(t *testing.T) {
			req := parseHead([]byte(head))
			if req == nil {
				t.Fatalf("declined %q", head)
			}
			checkClaimed(t, []byte(head), req)
		})
	}
}

// TestParseHeadDeclines: what parseHead leaves to the wrapped server is
// declined, whether or not http.ReadRequest accepts it.
func TestParseHeadDeclines(t *testing.T) {
	const host = "Host: a\r\n"
	for name, head := range map[string]string{
		"transfer-encoding":  "POST / HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n",
		"identity te":        "POST / HTTP/1.1\r\n" + host + "transfer-encoding: identity\r\n\r\n",
		"expect":             "POST / HTTP/1.1\r\n" + host + "Expect: 100-continue\r\nContent-Length: 3\r\n\r\n",
		"upgrade":            "GET / HTTP/1.1\r\n" + host + "Connection: Upgrade\r\nUpgrade: websocket\r\n\r\n",
		"pragma":             "GET / HTTP/1.1\r\n" + host + "Pragma: no-cache\r\n\r\n",
		"obs-fold":           "GET / HTTP/1.1\r\n" + host + "X-A: b\r\n c\r\n\r\n",
		"leading space":      "GET / HTTP/1.1\r\n " + host + "\r\n",
		"connect":            "CONNECT /x HTTP/1.1\r\n" + host + "\r\n",
		"http/1.0":           "GET / HTTP/1.0\r\n" + host + "\r\n",
		"lf only":            "GET / HTTP/1.1\n" + "Host: a\n\n",
		"bare cr":            "GET / HTTP/1.1\r\nHost: a\rX: b\r\n\r\n",
		"no host":            "GET / HTTP/1.1\r\n\r\n",
		"two hosts":          "GET / HTTP/1.1\r\n" + host + "host: a\r\n\r\n",
		"odd host":           "GET / HTTP/1.1\r\nHost: a~b\r\n\r\n",
		"two lengths":        "POST / HTTP/1.1\r\n" + host + "Content-Length: 3\r\nContent-Length: 3\r\n\r\n",
		"signed length":      "POST / HTTP/1.1\r\n" + host + "Content-Length: +3\r\n\r\n",
		"empty length":       "POST / HTTP/1.1\r\n" + host + "Content-Length: \r\n\r\n",
		"absolute uri":       "GET http://a/x HTTP/1.1\r\n" + host + "\r\n",
		"asterisk":           "OPTIONS * HTTP/1.1\r\n" + host + "\r\n",
		"double slash":       "GET //x HTTP/1.1\r\n" + host + "\r\n",
		"escaped path":       "GET /a%20b HTTP/1.1\r\n" + host + "\r\n",
		"sub-delim in path":  "GET /a!b HTTP/1.1\r\n" + host + "\r\n",
		"fragment":           "GET /a?b#c HTTP/1.1\r\n" + host + "\r\n",
		"bare question mark": "GET /a? HTTP/1.1\r\n" + host + "\r\n",
		"space before colon": "GET / HTTP/1.1\r\n" + host + "X-A : b\r\n\r\n",
		"obs-text value":     "GET / HTTP/1.1\r\n" + host + "X-A: \xe9\r\n\r\n",
		"control in value":   "GET / HTTP/1.1\r\n" + host + "X-A: a\x01b\r\n\r\n",
		"no empty line":      "GET / HTTP/1.1\r\n" + host,
		"bytes after it":     "GET / HTTP/1.1\r\n" + host + "\r\nX",
		"too many fields":    "GET / HTTP/1.1\r\n" + host + strings.Repeat("X-A: b\r\n", maxHeadFields) + "\r\n",
	} {
		if parseHead([]byte(head)) != nil {
			t.Errorf("%s: claimed %q", name, head)
		}
	}
}

// FuzzRequestHeadMatchesReadRequest: a header block parseHead claims
// gives the request http.ReadRequest gives, Body aside, and one the
// Server serves.
func FuzzRequestHeadMatchesReadRequest(f *testing.F) {
	for _, raw := range smugglingSeeds {
		f.Add([]byte(raw))
	}
	for _, c := range requestShapes() {
		if len(c.raw) < 4<<10 {
			f.Add([]byte(c.raw))
		}
	}
	heads := clientHeads(f)
	for _, head := range heads {
		f.Add([]byte(head))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		block := raw
		if n := headerEnd(raw); n > 0 {
			block = raw[:n]
		}
		if req := parseHead(block); req != nil {
			checkClaimed(t, block, req)
		}
	})
}

// TestTokenByteMatchesItsDefinition: the token table holds exactly the
// visible ASCII bytes that are not separators.
func TestTokenByteMatchesItsDefinition(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := c > ' ' && c < 0x7f && strings.IndexByte(`"(),/:;<=>?@[\]{}`, byte(c)) < 0
		if tokenByte[c] != want {
			t.Errorf("tokenByte[%#x] = %v, want %v", c, tokenByte[c], want)
		}
	}
}

// TestTokenRules: the two rules net/http decides a close by. hasToken
// (its server's) finds the token between SP, HTAB and commas in one
// value; containsToken (Request.Close's) needs it to be a whole
// comma-separated element. Both fold ASCII case only.
func TestTokenRules(t *testing.T) {
	for _, c := range []struct {
		v             string
		has, contains bool
	}{
		{"close", true, true},
		{"Keep-Alive, CLOSE", true, true},
		{" \tclose\t ", true, true},
		{"foo close", true, false},
		{"close foo", true, false},
		{"closed", false, false},
		{"x-close", false, false},
		{"cloſe", false, false}, // U+017F, which Unicode folds to s
		{"", false, false},
	} {
		if got := hasToken(c.v, "close"); got != c.has {
			t.Errorf("hasToken(%q) = %v, want %v", c.v, got, c.has)
		}
		if got := containsToken([]string{"keep-alive", c.v}, "close"); got != c.contains {
			t.Errorf("containsToken(%q) = %v, want %v", c.v, got, c.contains)
		}
	}
}

// BenchmarkRequestHead: a 7-field request head, as the load generator
// sends an augment, parsed by parseHead and by http.ReadRequest (a
// bufio.Reader over the block) with the checks parseHead stands for.
func BenchmarkRequestHead(b *testing.B) {
	head := []byte("POST /v1/augment HTTP/1.1\r\nHost: 127.0.0.1:8431\r\nUser-Agent: Go-http-client/1.1\r\n" +
		"Content-Length: 48\r\nContent-Type: application/json\r\nTraceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\r\n" +
		"X-Pas-Tenant: t1\r\nAccept-Encoding: gzip\r\n\r\n")
	b.Run("claimed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if parseHead(head) == nil {
				b.Fatal("declined")
			}
		}
	})
	b.Run("ReadRequest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(head)))
			if err != nil || !serves(req) || !oneHost(head) {
				b.Fatal("refused")
			}
		}
	})
}
