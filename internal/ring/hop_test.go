package ring

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestHedgeLoserConnectionIsClosed: when the hedge to the successor
// wins, the slow owner's exchange is cancelled and its connection
// closed — the owner sees its request's connection end — not left
// reading a reply nobody wants. Fails if the end of a request's context
// does not reach its connection in the default client's transport.
func TestHedgeLoserConnectionIsClosed(t *testing.T) {
	ended := make(chan string, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The server watches the connection for its end once the body is read.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			ended <- "closed"
		case <-time.After(5 * time.Second):
			ended <- "answered"
			_, _ = w.Write([]byte(`{"augmented":"late"}`))
		}
	}))
	defer slow.Close()
	fast := newFakeReplica(t, "fast")
	c, err := NewClient(Config{
		Replicas: []string{slow.URL, fast.srv.URL},
		Hedge:    true, HedgeMin: 10 * time.Millisecond, HedgeMax: 20 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	prompt := ""
	for i := 0; prompt == ""; i++ {
		if owner, _ := c.Owner(fmt.Sprint("prompt ", i), ""); owner == slow.URL {
			prompt = fmt.Sprint("prompt ", i)
		}
	}
	if aug, _, err := c.AugmentContextDegraded(context.Background(), prompt, ""); err != nil || aug != prompt+"\n[fast]" {
		t.Fatalf("hedged augment: %q, %v", aug, err)
	}
	select {
	case how := <-ended:
		if how != "closed" {
			t.Fatal("the loser's exchange ran to its reply")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the loser's connection stayed open")
	}
}

// breakingDialer dials TCP and can make the next writes fail before a
// byte reaches the socket, as on a connection the replica has dropped.
type breakingDialer struct {
	dials atomic.Int32
	fail  atomic.Int32 // writes still to fail
}

func (d *breakingDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &breakingConn{Conn: c, d: d}, nil
}

// breakingConn is no syscall.Conn, so the idle peek passes it.
type breakingConn struct {
	net.Conn
	d *breakingDialer
}

func (c *breakingConn) Write(p []byte) (int, error) {
	if c.d.fail.Add(-1) >= 0 {
		c.Conn.Close()
		return 0, syscall.ECONNRESET
	}
	return c.Conn.Write(p)
}

// TestDeadReusedConnectionIsReplayedOnce: a hop whose kept-alive
// connection takes none of the request is sent again, once, on a fresh
// connection, with its body (the hop sets GetBody). A fresh connection
// that fails is not retried. Fails if the transport does not replay, or
// replays whatever connection failed.
func TestDeadReusedConnectionIsReplayedOnce(t *testing.T) {
	rep := newFakeReplica(t, "r")
	d := &breakingDialer{}
	c, err := NewClient(Config{
		Replicas:   []string{rep.srv.URL},
		HTTPClient: &http.Client{Transport: wire.NewTransport(&http.Transport{DialContext: d.dial})},
	})
	if err != nil {
		t.Fatal(err)
	}
	augment := func(prompt string) error {
		_, _, err := c.AugmentContextDegraded(context.Background(), prompt, "")
		return err
	}
	if err := augment("first"); err != nil {
		t.Fatal(err)
	}
	d.fail.Store(1) // the pooled connection is dead
	if err := augment("second"); err != nil {
		t.Fatalf("dead pooled connection: %v, want the hop replayed", err)
	}
	if n := d.dials.Load(); n != 2 || rep.servedCount() != 2 {
		t.Fatalf("%d dials, %d served; want 2 and 2", n, rep.servedCount())
	}
	d.fail.Store(2) // the pooled connection and the fresh one both fail
	if err := augment("third"); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("both connections dead: %v, want the fresh one's reset", err)
	}
	if n := d.dials.Load(); n != 3 || rep.servedCount() != 2 {
		t.Fatalf("%d dials, %d served; want 3 and 2: replayed more than once", n, rep.servedCount())
	}
}
