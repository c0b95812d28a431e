package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// codecSeeds are the bodies where a hand-written reader and
// encoding/json most easily part ways.
var codecSeeds = []string{
	`{"prompt":"Explain how tides form","salt":"s1"}`,
	`{"prompt":"a"}`,
	` { "salt" : "s" , "prompt" : "p" } ` + "\n",
	`{}`,
	``,
	`null`,
	`[]`,
	`[{"prompt":"a"}]`,
	`7`,
	`"prompt"`,
	`{"prompt":"a"} trailing`,
	`{"prompt":"a"}{"prompt":"b"}`,
	`{"prompt":"a","prompt":"b"}`,
	`{"prompt":"a","prompt":null}`,
	`{"prompt":null,"salt":null}`,
	`{"prompt":7}`,
	`{"prompt":["a"]}`,
	`{"prompt":{"a":1}}`,
	`{"salt":true,"prompt":"a"}`,
	`{"Prompt":"folded"}`,
	`{"PROMPT":"folded","prompt":"exact"}`,
	`{"prompt":"exact","PROMPT":"folded"}`,
	"{\"\U0000017Falt\":\"long s\",\"prompt\":\"a\"}",
	"{\"\U0000212Aey\":\"kelvin\",\"prompt\":\"a\"}",
	`{"Key":"k","prompt":"a"}`,
	"{\"p\\u0072ompt\":\"escaped key\"}",
	"{\"pr\U000000F6mpt\":\"not a field\",\"prompt\":\"a\"}",
	`{"other":{"prompt":"nested","deep":[1,2,{"salt":null}]},"prompt":"a"}`,
	`{"prompt":"a","extra":[true,false,null,-0.5e+10,"x"]}`,
	`{"prompt":"line\nbreak \"quoted\" back\\slash \/ \b\f\r\t"}`,
	"{\"prompt\":\"\\u00e9 and \U000000E9\"}",
	"{\"prompt\":\"lone \\ud800 surrogate\"}",
	"{\"prompt\":\"pair \\ud83d\\ude00\"}",
	"{\"prompt\":\"low first \\ude00\\ud83d\"}",
	"{\"prompt\":\"bad \xff\xc3 bytes\"}",
	"{\"prompt\":\"sep \U00002028 and \U00002029\"}",
	`{"prompt":"<script>&amp;</script>"}`,
	"{\"prompt\":\"ctl \x01\"}",
	"{\"prompt\":\"tab\there\"}",
	`{"prompt":"unterminated`,
	`{"prompt":"bad \x escape"}`,
	`{"prompt":"a",}`,
	`{"prompt" "a"}`,
	`{prompt:"a"}`,
	`{"prompt":"   "}`,
	`{"prompt":""}`,
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"prompt":"a"}`,
	// The word-at-a-time string scan's edges: what ends a run of plain
	// bytes in the last lane of a word, in the first of the next, an
	// escape across two words, high and 0x7F bytes beside a quote, plain
	// words running into the end of the input.
	`{"prompt":"abcdefg\"hijklmnop","salt":"1234567"}`,
	`{"prompt":"abcdefgh\nijklmno\u00e9","salt":"12345678"}`,
	`{"prompt":"abcdefg\u00e9hijklmn\"#$%&'()*"}`,
	"{\"prompt\":\"abcdefg\x1fhijklmnop\"}",
	"{\"prompt\":\"abcdefgh\x00ijklmnop\"}",
	"{\"prompt\":\"\x7f\x80\xff \x7f\x80\xff\x20\x7f\x80\xff\"}",
	`{"prompt":"abcdefghijklmnop`,
	`{"prompt":"abcdefg\`,
}

// checkCodec holds the codec to encoding/json on one input: a body the
// scanner claims decodes to the same request, and whatever strings are
// put into the bodies come out as the bytes json.Marshal and
// json.Encoder.Encode write.
func checkCodec(t *testing.T, body []byte, degraded bool) {
	t.Helper()
	var want AugmentRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if got, ok := DecodeAugmentRequest(body); ok {
		if err != nil {
			t.Fatalf("%q: claimed, but encoding/json says %v", body, err)
		}
		if got != want {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, want)
		}
	}
	// The router takes one field from a reply, and that is the reading
	// held to encoding/json: the other fields' types are not checked.
	var wantResp struct {
		Augmented string `json:"augmented"`
	}
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&wantResp)
	if got, ok := DecodeAugmented(body); ok {
		if err != nil {
			t.Fatalf("%q: reply claimed, but encoding/json says %v", body, err)
		}
		if got != wantResp.Augmented {
			t.Fatalf("%q: augmented %q, encoding/json %q", body, got, wantResp.Augmented)
		}
	}

	// The body's own bytes, cut in three, are the strings to encode.
	s := string(body)
	a, b, c := s[:len(s)/3], s[len(s)/3:2*len(s)/3], s[2*len(s)/3:]
	for _, req := range []AugmentRequest{{Prompt: a, Salt: b}, {Prompt: s}} {
		wantReq, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendAugmentRequest(nil, req); !bytes.Equal(got, wantReq) {
			t.Fatalf("request %+v:\n got %s\nwant %s", req, got, wantReq)
		}
	}
	resp := AugmentResponse{Prompt: a, Complement: b, Augmented: a + "\n" + b, Model: c, Degraded: degraded}
	if degraded {
		resp.DegradedLevel = c
	}
	var wantBody bytes.Buffer
	if err := json.NewEncoder(&wantBody).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if got := AppendAugmentResponse([]byte("kept"), &resp); !bytes.Equal(got[4:], wantBody.Bytes()) || string(got[:4]) != "kept" {
		t.Fatalf("response %+v:\n got %s\nwant %s", resp, got, wantBody.Bytes())
	}
}

func TestAugmentCodecSeeds(t *testing.T) {
	for _, s := range codecSeeds {
		checkCodec(t, []byte(s), false)
		checkCodec(t, []byte(s), true)
	}
}

// FuzzAugmentCodec is the differential fuzzer the codec was written
// against: see checkCodec.
func FuzzAugmentCodec(f *testing.F) {
	for i, s := range codecSeeds {
		f.Add([]byte(s), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, body []byte, degraded bool) { checkCodec(t, body, degraded) })
}

// TestStringsClaimsAndDeclines pins which side of the line the traps
// fall on: a declined body costs a second, slower read, a wrongly
// claimed one changes an answer.
func TestStringsClaimsAndDeclines(t *testing.T) {
	for body, want := range map[string]bool{
		`{"prompt":"a","salt":"b"}`:                  true,
		`{"prompt":"a","unknown":{"prompt":[null]}}`: true,
		`{"prompt":"multi\nline \"q\""}`:             true,
		"{\"prompt\":\"bad \xff byte\"}":             true,
		`{}`:                                         true,
		` {"prompt":"a"} ` + "\r\n":                  true,
		`{"prompt":"a","prompt":"b"}`:                true,
		`{"prompt":"a","prompt":null}`:               false,
		`{"prompt":7}`:                               false,
		`{"Prompt":"a"}`:                             false,
		`{"SALT":"a"}`:                               false,
		"{\"\U0000017Falt\":\"a\"}":                  false,
		"{\"p\\u0072ompt\":\"a\"}":                   false,
		`{"prompt":"a"} x`:                           false,
		`{"prompt":"a"}{}`:                           false,
		`null`:                                       false,
		`[]`:                                         false,
		`1`:                                          false,
		``:                                           false,
		`{"prompt":"a"`:                              false,
		`{"prompt":"a","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`: false,
	} {
		if _, got := DecodeAugmentRequest([]byte(body)); got != want {
			t.Errorf("%.60q: claimed = %v, want %v", body, got, want)
		}
	}
	req, _ := DecodeAugmentRequest([]byte(`{"prompt":"a","salt":"x","prompt":"b"}`))
	if req != (AugmentRequest{Prompt: "b", Salt: "x"}) {
		t.Errorf("last duplicate must win: %+v", req)
	}
}

func TestDecodeDoesNotAllocateBeyondItsStrings(t *testing.T) {
	body := []byte(`{"prompt":"Explain how tides form, briefly","salt":"s1"}`)
	if n := testing.AllocsPerRun(100, func() { DecodeAugmentRequest(body) }); n > 2 {
		t.Fatalf("DecodeAugmentRequest allocates %v times, want the two strings", n)
	}
	resp := AugmentResponse{Prompt: "p", Complement: "c", Augmented: "p\nc", Model: "m"}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = AppendAugmentResponse(buf[:0], &resp) }); n != 0 {
		t.Fatalf("AppendAugmentResponse allocates %v times", n)
	}
}

// TestDecodedStringsAreCopies: the fields must survive the buffer they
// were read from being reused.
func TestDecodedStringsAreCopies(t *testing.T) {
	body := []byte(`{"prompt":"first prompt","salt":"first salt"}`)
	req, ok := DecodeAugmentRequest(body)
	if !ok {
		t.Fatal("declined")
	}
	for i := range body {
		body[i] = 'X'
	}
	if req.Prompt != "first prompt" || req.Salt != "first salt" {
		t.Fatalf("decoded fields are views of the body: %+v", req)
	}
}

// TestBufferPoolDropsLargeBuffers: whatever the pool hands out was
// either new or small when it was released.
func TestBufferPoolDropsLargeBuffers(t *testing.T) {
	big := GetBuffer()
	if err := big.ReadAll(strings.NewReader(strings.Repeat("x", 1<<20))); err != nil {
		t.Fatal(err)
	}
	if len(big.B) != 1<<20 {
		t.Fatalf("read %d bytes", len(big.B))
	}
	big.Release()
	small := GetBuffer()
	small.B = append(small.B, "small"...)
	small.Release()
	for i := 0; i < 64; i++ {
		if b := GetBuffer(); cap(b.B) > maxPooledBuffer {
			t.Fatalf("pool handed out a %d-byte buffer", cap(b.B))
		} else if len(b.B) != 0 {
			t.Fatalf("pool handed out a buffer holding %q", b.B)
		}
	}
}

type failingReader struct{ data string }

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, errBoom
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

var errBoom = errors.New("boom")

func TestBufferReadAllKeepsBytesBeforeAnError(t *testing.T) {
	b := &Buffer{}
	if err := b.ReadAll(&failingReader{data: "partial"}); err != errBoom {
		t.Fatalf("err = %v", err)
	}
	if string(b.B) != "partial" {
		t.Fatalf("kept %q", b.B)
	}
}
